"""Acceptance gate: one test per stated criterion, all exact.

Each test prints one summary line; `pytest -v` shows the per-criterion
pass/fail status. Everything here is integer or cyclotomic arithmetic
with zero tolerance.
"""

import random
from collections import Counter
from fractions import Fraction

from k3auto.classify import enumerate_cases, theorem1_groups, validate_row
from k3auto.cyclotomic import Cyc8Element, zeta_pow
from k3auto.fibers import chain_step
from k3auto.lattice import solve_ranks
from k3auto.lefschetz import (FixedCurve, FixedLocusConfig,
                              derive_prop1_constraints, hermite_normal_form,
                              holo_target, holo_total, topo_check)
from k3auto.maps import RationalMap, compose, maps_equal
from k3auto.polynomial import (Place, RationalPolynomial,
                               multiplicity_profile)
from k3auto.weierstrass import (DiagonalAutomorphism, WeierstrassFibration,
                                fixed_points_on_fiber, torsion_translation,
                                two_form_multiplier, worked_example)

from fixtures import (GROUP_CURVE_FIXED, GROUP_NOT_FIXED,
                      GROUP_SQUARE_FIXED, TABLE_ROWS, classification_key,
                      row_key)


def report(n, text):
    print("criterion %d: PASS (%s)" % (n, text))


def fixture_config(entry):
    """Fixed locus of the order-8 action, read off a fixture row."""
    k, elliptic_label = entry[12], entry[13]
    curves = (FixedCurve(0, 1),) * k
    if elliptic_label == "identity":
        curves = (FixedCurve(1, 1),) + curves
    return FixedLocusConfig(curves, entry[9], entry[10], entry[11])


def test_criterion_1_table_reproduction():
    rows = enumerate_cases()
    assert len(rows) == 16
    computed = Counter(classification_key(row) for row in rows)
    expected = Counter(row_key(entry) for entry in TABLE_ROWS)
    assert computed == expected
    report(1, "all 16 rows match the transcribed table exactly")


def test_criterion_2_theorem_groupings():
    groups = theorem1_groups(enumerate_cases())
    assert groups[0] == GROUP_CURVE_FIXED
    assert groups[1] == GROUP_SQUARE_FIXED
    assert groups[2] == GROUP_NOT_FIXED
    report(2, "the three (k, N, rkPic) groupings come out verbatim")


def test_criterion_3_constraint_rederivation():
    reference = [[1, 1, 0, -4, 2], [1, -1, 1, -2, 2]]
    derived = [list(row) for row in derive_prop1_constraints()]
    assert hermite_normal_form(derived) == hermite_normal_form(reference)
    report(3, "derived count constraints are row-equivalent over Z "
              "to the stated pair")


def test_criterion_4_exact_lefschetz_closure():
    target = holo_target(1)
    assert target == Cyc8Element.one() + zeta_pow(7)
    for entry in TABLE_ROWS:
        config = fixture_config(entry)
        total, ok = holo_total(config, 1)
        assert ok and (total - target).is_zero(), entry[0]
        r, l = entry[1], entry[2]
        assert topo_check(config, r, l), entry[0]
        assert config.N + 2 * config.alpha == r - l + 2
    report(4, "holomorphic sum = 1 + zeta^7 with zero residual and "
              "N + 2*alpha = r - l + 2 on all 16 rows")


def test_criterion_5_rank_solver():
    for entry in TABLE_ROWS:
        r, l, m, k_sigma2 = entry[1], entry[2], entry[3], entry[4]
        rk_pic, N, k = entry[6], entry[8], entry[12]
        assert solve_ranks((22 - rk_pic) // 4, N, k, k_sigma2) == (r, l, m)
        assert 4 * k_sigma2 == (r + l) - 2 * m - 2
    report(5, "(r, l, m) recovered from (m1, N, alpha, k_sigma2) on all "
              "16 rows")


EXAMPLE_PINS = [
    (1, "generic", False, 1, {"I_1": 24}, None),
    (1, "iv-star", False, 5, {"I_1": 16, "IV*": 1}, "IV*"),
    (2, "generic", False, 4, {"I_1": 24}, None),
    (2, "iv-star", False, 11, {"I_1": 16, "IV*": 1}, "IV*"),
    (3, "i8", False, 12, {"I_1": 16, "I_8": 1}, "I_8"),
    (3, "i8", True, 10, {"I_1": 16, "I_8": 1}, "I_8"),
    (3, "i16", False, 16, {"I_1": 8, "I_16": 1}, "I_16"),
    (3, "i16", True, 15, {"I_1": 8, "I_16": 1}, "I_16"),
    (4, "generic", False, 2, {"I_1": 8, "I_2": 8}, None),
    (4, "i8", False, 8, {"I_2": 8, "I_8": 1}, "I_8"),
    (4, "i16", False, 13, {"I_1": 8, "I_16": 1}, "I_16"),
]


def test_criterion_6_example_regression():
    for example_id, preset, use_tau, row, counts, degenerate in EXAMPLE_PINS:
        analysis = worked_example(example_id, preset=preset, use_tau=use_tau)
        assert analysis.matched_row.index == row, (example_id, preset)
        assert analysis.inventory == counts, (example_id, preset)
        if degenerate is not None:
            kinds = [rep.kodaira for rep in analysis.invariant_fibers]
            assert degenerate in kinds
        assert all(analysis.checks.values())
        assert all(validate_row(analysis.matched_row).values())
    report(6, "all pinned example degenerations match their table rows")


def test_criterion_7_local_types():
    f = WeierstrassFibration(
        RationalPolynomial({8: Fraction(1), 0: Fraction(1)}),
        RationalPolynomial({4: Fraction(2), 12: Fraction(1)}))
    origin = Place.finite_rational(0)
    points = fixed_points_on_fiber(f, DiagonalAutomorphism(4, 2, 7), origin)
    assert [p.pair for p in points] == [(7, 2), (7, 2)]
    points = fixed_points_on_fiber(f, DiagonalAutomorphism(4, 6, 3), origin)
    assert [p.pair for p in points] == [(3, 6), (3, 6)]
    report(7, "central-fiber fixed points have types (7,2) and (3,6)")


def test_criterion_8_structural_invariants():
    seen = set()
    for example_id, preset, use_tau, _, _, _ in EXAMPLE_PINS:
        analysis = worked_example(example_id, preset=preset, use_tau=use_tau)
        assert analysis.euler_sum == 24
        assert analysis.two_form_exponent == 1
        assert two_form_multiplier(analysis.automorphism) == 1
        seen.add(analysis.automorphism.exponents())
    assert {(0, 0, 1), (0, 4, 5), (4, 2, 7), (4, 6, 3)} <= seen

    f = WeierstrassFibration(
        RationalPolynomial({4: Fraction(3)}),
        RationalPolynomial({8: Fraction(1), 0: Fraction(1)}),
        form="two-torsion")
    cubic = f.curve_relation()
    tau = torsion_translation(f)
    assert maps_equal(compose(tau, tau), RationalMap.identity(),
                      curve_cubic=cubic)
    diag = RationalMap.diagonal(4, 2, 7)
    assert maps_equal(compose(diag, tau), compose(tau, diag),
                      curve_cubic=cubic)
    report(8, "Euler sums are 24, 2-form multipliers are zeta, and the "
              "torsion translation is a commuting involution")


def test_criterion_9_property_suites():
    rng = random.Random(80807)
    axiom_checks = 0
    for _ in range(150):
        vals = [Cyc8Element([Fraction(rng.randint(-9, 9),
                                      rng.randint(1, 7))
                             for _ in range(4)]) for _ in range(3)]
        a, b, c = vals
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == Cyc8Element.zero()
        assert a * Cyc8Element.one() == a
        axiom_checks += 6
        if not a.is_zero():
            assert a * a.invert() == Cyc8Element.one()
            axiom_checks += 1
    assert axiom_checks >= 1000

    profiles = 0
    for _ in range(110):
        base = RationalPolynomial(
            {e: Fraction(rng.randint(-5, 5)) for e in range(rng.randint(1, 5))})
        if base.degree() < 1:
            base = RationalPolynomial({1: Fraction(1), 0: Fraction(1)})
        p = base ** rng.randint(1, 3) * RationalPolynomial(
            {rng.randint(0, 2): Fraction(rng.randint(1, 4)), 3: Fraction(1)})
        profile = multiplicity_profile(p)
        assert sum(place.degree() * mult for place, mult in profile) \
            == p.degree()
        profiles += 1
    assert profiles >= 100

    for t in range(8):
        pair = (t, (1 - t) % 8)
        walk = pair
        for _ in range(8):
            walk = chain_step(walk)
        assert walk == pair
    report(9, ">=1000 field-axiom checks, >=100 multiplicity profiles, "
              "chain step closes with period 8 from all starts")
