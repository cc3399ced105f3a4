"""Holomorphic fixed point bookkeeping and the derived count constraints."""

from fractions import Fraction

import pytest

from k3auto.cyclotomic import Cyc8Element, zeta_pow
from k3auto.lefschetz import (FixedCurve, FixedLocusConfig, as_count,
                              curve_term, derive_prop1_constraints,
                              hermite_normal_form, holo_target, holo_total,
                              integer_kernel, prop1_residuals,
                              prop1_satisfied, topo_check)

from fixtures import TABLE_ROWS

ONE = Cyc8Element.one()


def test_holo_target():
    assert holo_target(1) == ONE + zeta_pow(7)
    assert holo_target(2) == ONE + zeta_pow(6)
    for power in (3, 4):
        with pytest.raises(ValueError):
            holo_target(power)
    with pytest.raises(ValueError):
        holo_total(FixedLocusConfig((), 2, 0, 0), 4)


def test_point_terms_pinned():
    # 1/((1-z^2)(1-z^7)), the sum of one (2,7) point, recomputed by
    # clearing denominators
    term, _ = holo_total(FixedLocusConfig((), 1, 0, 0))
    den = (ONE - zeta_pow(2)) * (ONE - zeta_pow(7))
    assert term * den == ONE


def _fresh_point_term(t, s):
    return ((ONE - zeta_pow(t)) * (ONE - zeta_pow(s))).invert()


def _fresh_curve_term(genus, e):
    return (ONE + zeta_pow(e)) * ((ONE - zeta_pow(e)) ** 2).invert() \
        * Fraction(1 - genus)


# the normal and tangent exponents of the term checks: -15..15, not 0 mod 8
EXPONENTS = [e for e in range(-15, 16) if e % 8]


def test_cached_terms_equal_the_formula_built_fresh():
    # each cached term, on a first and a repeated call, gives the
    # formula's value: a point term as the sum of one point of its type,
    # a curve term at every representative of its exponent mod 8
    points = {1: (((2, 7), 1), ((3, 6), 2), ((4, 5), 3)), 2: (((6, 4), 6),)}
    for power, types in points.items():
        for slot, (pair, _) in enumerate(types):
            counts = [0, 0, 0]
            counts[slot] = 1
            config = FixedLocusConfig((), *counts)
            for _ in range(2):
                assert holo_total(config, power)[0] \
                    == _fresh_point_term(*pair)
    for genus in (0, 2, 3):
        for e in EXPONENTS:
            fresh = _fresh_curve_term(genus, e)
            assert curve_term(FixedCurve(genus, e)) == fresh
            assert curve_term(FixedCurve(genus, e)) == fresh
    # the sums of both powers, with an elliptic curve beside each curve
    for power in (1, 2):
        for genus in (0, 2, 3):
            for e in EXPONENTS:
                config = FixedLocusConfig(
                    (FixedCurve(genus, e), FixedCurve(1, e)), 1, 2, 3)
                fresh = _fresh_curve_term(genus, e)
                for pair, count in points[power]:
                    fresh = fresh + _fresh_point_term(*pair) * count
                assert holo_total(config, power) \
                    == (fresh, fresh == holo_target(power))


def test_curve_term_genus_kills():
    assert curve_term(FixedCurve(1, 1)).is_zero()
    rational = curve_term(FixedCurve(0, 2))
    den = (ONE - zeta_pow(2)) * (ONE - zeta_pow(2))
    assert rational * den == ONE + zeta_pow(2)
    # a normal exponent 0 mod 8 is refused at construction, at every
    # genus, so no sum ever skips it
    for genus in (0, 1, 2):
        for e in (-8, 0, 8, 16):
            with pytest.raises(ValueError,
                               match="nontrivial normal eigenvalue"):
                FixedCurve(genus, e)


def test_hermite_normal_form_known():
    assert hermite_normal_form([[2, 0], [0, 2]]) == [[2, 0], [0, 2]]
    assert hermite_normal_form([[1, 2], [3, 4]]) == [[1, 0], [0, 2]]
    # row order must not matter
    rows = [[1, 1, 0, -4, 2], [1, -1, 1, -2, 2]]
    assert hermite_normal_form(rows) == hermite_normal_form(rows[::-1])


def test_integer_kernel():
    kernel = integer_kernel([[1, 1, -2]], 3)
    for vec in kernel:
        assert vec[0] + vec[1] - 2 * vec[2] == 0
    assert len(kernel) == 2


def test_derived_constraints_match_reference():
    # reference system: the two point count relations
    #   n2 + n3 - 4*alpha = 2 and n4 + n2 - n3 - 2*alpha = 2
    reference = [[1, 1, 0, -4, 2], [1, -1, 1, -2, 2]]
    derived = [list(row) for row in derive_prop1_constraints()]
    assert hermite_normal_form(derived) == hermite_normal_form(reference)


def test_prop1_on_table_rows():
    for entry in TABLE_ROWS:
        n2, n3, n4, k = entry[9], entry[10], entry[11], entry[12]
        # alpha counts fixed curves weighted by 1 - genus; the k fixed
        # rational curves contribute, fixed elliptic curves do not
        assert prop1_satisfied(n2, n3, n4, k)
    assert not prop1_satisfied(1, 0, 0, 0)
    assert not prop1_satisfied(2, 1, 0, 0)


def test_derived_constraints_are_a_new_list_on_every_call():
    first = derive_prop1_constraints()
    expected = list(first)
    first[0] = (0, 0, 0, 0, 0)
    first.append((0, 0, 0, 0, 1))  # 0 = 1: would refuse every count
    assert derive_prop1_constraints() == expected
    assert derive_prop1_constraints() is not derive_prop1_constraints()
    assert prop1_satisfied(2, 0, 0, 0)
    assert prop1_residuals(2, 0, 0, 0) == [0, 0]
    assert not prop1_satisfied(3, 0, 0, 0)
    # each residual is its equation's left side minus its right side
    assert prop1_residuals(3, 1, 4, 1) == [
        sum(c * v for c, v in zip(row[:4], (3, 1, 4, 1))) - row[4]
        for row in expected]


def test_holo_total_closes_for_hand_built_configs():
    # row 1: sigma fixes the elliptic curve, two points of type (2,7)
    config = FixedLocusConfig(curves=(FixedCurve(1, 1),), n2=2, n3=0, n4=0)
    total, ok = holo_total(config, 1)
    assert ok and (total - holo_target(1)).is_zero()
    assert topo_check(config, r=3, l=3)

    # row 11: one rational curve, counts (3,3,4)
    config = FixedLocusConfig(curves=(FixedCurve(0, 1),), n2=3, n3=3, n4=4)
    total, ok = holo_total(config, 1)
    assert ok and (total - holo_target(1)).is_zero()
    assert topo_check(config, r=10, l=0)

    # wrong counts must leave a nonzero residual
    config = FixedLocusConfig(curves=(FixedCurve(1, 1),), n2=1, n3=1, n4=0)
    total, ok = holo_total(config, 1)
    assert not ok and not (total - holo_target(1)).is_zero()


def test_direct_construction_checks_counts():
    for counts, field in (((2.5, 0, 0), "'n2'"), ((0, -1, 0), "'n3'"),
                          ((0, 0, True), "'n4'")):
        with pytest.raises(ValueError, match=field):
            FixedLocusConfig((), *counts)
    with pytest.raises(ValueError, match="'genus'"):
        FixedCurve(1.0, 1)
    with pytest.raises(ValueError, match="'normal_exp'"):
        FixedCurve(0, "1")


def test_one_count_check_for_configs_and_the_verb():
    # FixedLocusConfig and the lefschetz verb's enumeration mode share it
    assert as_count("alpha", 0) == 0 and as_count("n2", 14) == 14
    for value in (-1, 1.0, True, "2", None):
        with pytest.raises(ValueError) as err:
            as_count("alpha", value)
        assert str(err.value) \
            == "'alpha' must be a non-negative integer, not %r" % (value,)


def test_square_sum_reads_only_the_point_total():
    # every isolated point of the square has type (6,4): the split of N
    # into n2, n3, n4 does not matter; row 1's square fixes the elliptic
    # curve and four points
    curves = (FixedCurve(1, 2),)
    total, ok = holo_total(FixedLocusConfig(curves, 4, 0, 0), 2)
    assert ok and total == holo_target(2)
    assert holo_total(FixedLocusConfig(curves, 1, 1, 2), 2) == (total, ok)
    assert not holo_total(FixedLocusConfig(curves, 3, 0, 0), 2)[1]


def test_config_json_round_trip():
    config = FixedLocusConfig(curves=(FixedCurve(0, 1), FixedCurve(1, 1)),
                              n2=4, n3=2, n4=2)
    again = FixedLocusConfig.from_json(config.to_json())
    assert again == config
    assert config.N == 8 and config.alpha == 1 and config.k == 1
