"""Weierstrass models: fiber types, invariance, fixed points, examples."""

import itertools
import json
import random
import re
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from k3auto import weierstrass
from k3auto.classify import enumerate_cases
from k3auto.fibers import (IDENTITY, INVOLUTION, IV_STAR, ORDER_4, SMOOTH,
                           TRANSLATION_2, TRANSLATION_4, parse_action_label,
                           point_type)
from k3auto.maps import CurvePolynomial, RationalMap, compose, maps_equal
from k3auto.polynomial import (Place, RationalPolynomial, valuation_at,
                               weierstrass_discriminant)
from k3auto.weierstrass import (DiagonalAutomorphism, InvariantError,
                                WeierstrassFibration, _CHART_ACTIONS,
                                _invariant_charts, analyze_action,
                                convert_two_torsion_form, fiber_inventory,
                                fiber_reports,
                                fixed_points_on_fiber, invariance_failures,
                                kodaira_symbol, kodaira_type_at,
                                torsion_translation, two_form_multiplier,
                                worked_example)

T = RationalPolynomial.variable()
INF = float("inf")


def poly(*pairs):
    return RationalPolynomial({e: Fraction(c) for c, e in pairs})


# -- Kodaira symbols ---------------------------------------------------------


def test_kodaira_cascade_pins():
    assert kodaira_symbol(0, 0, 0) == "I_0"
    assert kodaira_symbol(0, 0, 5) == "I_5"
    assert kodaira_symbol(0, 2, 1) == "I_1"
    assert kodaira_symbol(1, 1, 2) == "II"
    assert kodaira_symbol(1, 2, 3) == "III"
    assert kodaira_symbol(2, 2, 4) == "IV"
    assert kodaira_symbol(2, 3, 6) == "I_0*"
    assert kodaira_symbol(2, 3, 9) == "I_3*"
    assert kodaira_symbol(3, 4, 8) == "IV*"
    assert kodaira_symbol(3, 5, 9) == "III*"
    assert kodaira_symbol(4, 5, 10) == "II*"
    # a vanishing identically shows up as infinite valuation
    assert kodaira_symbol(INF, 4, 8) == "IV*"
    assert kodaira_symbol(INF, 1, 2) == "II"


def test_kodaira_rejects_bad_data():
    with pytest.raises(InvariantError, match="non-minimal"):
        kodaira_symbol(4, 6, 12)
    with pytest.raises(InvariantError, match="non-minimal"):
        kodaira_symbol(INF, 7, 14)
    with pytest.raises(InvariantError, match="inconsistent"):
        kodaira_symbol(1, 1, 1)
    with pytest.raises(InvariantError, match="inconsistent"):
        kodaira_symbol(2, 2, 5)


# -- fibration construction and fiber typing ---------------------------------


def test_degree_bounds():
    WeierstrassFibration(poly((1, 8)), poly((1, 12)))
    with pytest.raises(ValueError, match="not a K3 Weierstrass datum"):
        WeierstrassFibration(poly((1, 9)), poly((1, 0)))
    with pytest.raises(ValueError, match="not a K3 Weierstrass datum"):
        WeierstrassFibration(poly((1, 4)), poly((1, 9)),
                             form="two-torsion")
    with pytest.raises(ValueError, match="unknown Weierstrass form"):
        WeierstrassFibration(poly((1, 0)), poly((1, 0)), form="long")


def test_two_torsion_conversion_pinned():
    # y^2 = x(x^2 + 2t^4 x + t^8 + 1) used for its I_8 fiber at infinity
    a = poly((2, 4))
    b = poly((1, 8), (1, 0))
    big_a, big_b = convert_two_torsion_form(a, b)
    assert big_a == poly((-3, 8), (9, 0))
    assert big_b == poly((-2, 12), (-18, 4))


def test_two_torsion_conversion_discriminant_identity():
    rng = random.Random(80805)
    for _ in range(30):
        a = RationalPolynomial({e: Fraction(rng.randint(-4, 4))
                                for e in range(rng.randint(1, 5))})
        b = RationalPolynomial({e: Fraction(rng.randint(-4, 4))
                                for e in range(rng.randint(1, 9))})
        big_a, big_b = convert_two_torsion_form(a, b)
        lhs = weierstrass_discriminant(big_a, big_b)
        rhs = -729 * b * b * (a * a - 4 * b)
        assert lhs == rhs


def test_fiber_reports_example_families():
    f = WeierstrassFibration(poly((1, 8), (1, 0)), poly((1, 8), (3, 0)))
    assert fiber_inventory(f) == {"I_1": 24}
    reports = fiber_reports(f)
    assert sum(r.v_delta * r.place.degree() for r in reports) == 24

    # the I_8 witness: two-torsion form, a = 2t^4, b = t^8 + 1
    f = WeierstrassFibration(poly((2, 4)), poly((1, 8), (1, 0)),
                             form="two-torsion")
    assert fiber_inventory(f) == {"I_2": 8, "I_8": 1}
    at_infinity = kodaira_type_at(f, Place.infinity())
    assert at_infinity.kodaira == "I_8"

    # dropping the t^8 term from a (example-1 family) gives IV* at infinity
    f = WeierstrassFibration(poly((1, 0)), poly((1, 8), (1, 0)))
    report = kodaira_type_at(f, Place.infinity())
    assert (report.v_a, report.v_b, report.v_delta) == (8, 4, 8)
    assert report.kodaira == "IV*"


def _reversed(p, weight):
    # s^weight p(1/s), written out by hand
    return RationalPolynomial({weight - e: c for e, c in p.coeffs.items()})


_WEIGHTS = {"short": (8, 12), "two-torsion": (4, 8)}


def _flipped(f):
    # the surface in the chart (x/t^4, y/t^6, s = 1/t)
    da, db = _WEIGHTS[f.form]
    return WeierstrassFibration(_reversed(f.a, da), _reversed(f.b, db),
                                f.form)


def _random_sparse(rng, degree):
    return RationalPolynomial({e: Fraction(rng.randint(-3, 3))
                               for e in range(degree + 1)
                               if rng.random() < 0.3})


def test_kodaira_at_infinity_is_kodaira_at_zero_of_the_reversal():
    # the fiber over t = infinity is the fiber over s = 0 of the surface
    # with a(t), b(t) replaced by s^8 a(1/s), s^12 b(1/s) (short form) or
    # s^4 a(1/s), s^8 b(1/s) (2-torsion form)
    rng = random.Random(80804)
    zero = Place.finite_rational(0)
    pin = WeierstrassFibration(RationalPolynomial.zero(), T ** 11 + 1)
    samples = [pin] + [
        WeierstrassFibration(_random_sparse(rng, da), _random_sparse(rng, db),
                             form)
        for form, (da, db) in _WEIGHTS.items() for _ in range(60)]
    seen = set()
    for f in samples:
        flipped = _flipped(f)
        try:
            report = kodaira_type_at(f, Place.infinity())
        except InvariantError:
            with pytest.raises(InvariantError):
                kodaira_type_at(flipped, zero)
            seen.add("error")
            continue
        expected = kodaira_type_at(flipped, zero)
        assert report.place == Place.infinity()
        assert (report.v_a, report.v_b, report.v_delta, report.kodaira) \
            == (expected.v_a, expected.v_b, expected.v_delta,
                expected.kodaira)
        seen.add(report.kodaira)
    # a b of degree 11 leaves a simple zero of b at the far pole: type II
    report = kodaira_type_at(pin, Place.infinity())
    assert (report.v_a, report.v_b, report.v_delta, report.kodaira) \
        == (INF, 1, 2, "II")
    assert {"I_0", "IV*", "error"} < seen and len(seen) >= 10, seen


def _mixed_layer():
    # t^2 - 2 and t^2 - 3 both divide delta twice, but only t^2 - 2
    # divides a and b
    u = T * T - 2
    w = u * (T * T - 3) ** 2 * (T ** 6 + 5)
    return WeierstrassFibration(u * u * -3, u * u * u * 2 + w)


def test_mixed_irrational_layer_is_split_by_valuation():
    # (v(a), v(b), v(delta)) = (2, 1, 2) at t^2 - 2, type II, and
    # (0, 0, 2) at t^2 - 3, type I_2
    u = T * T - 2
    f = _mixed_layer()
    assert fiber_inventory(f) == {"I_1": 16, "I_2": 2, "II": 2}
    triples = {repr(r.place.poly): (r.v_a, r.v_b, r.v_delta, r.kodaira)
               for r in fiber_reports(f) if r.place.degree() == 2}
    assert triples == {repr(u): (2, 1, 2, "II"),
                       repr(T * T - 3): (0, 0, 2, "I_2")}


PLACE_ORDER = Path(__file__).with_name("golden") / "place-order.json"


def test_irrational_places_keep_their_order():
    """fiber_reports lists every place in a fixed order; these surfaces
    have three irrational places each, sorted by coefficients with
    fractions, equal leading pairs, one polynomial's terms a prefix of
    another's, and wide coefficients.  The fixture was written by the
    Fraction-keyed sort, before the integer key replaced it."""
    cases = json.loads(PLACE_ORDER.read_text(encoding="utf-8"))
    assert len(cases) >= 4
    for name, case in cases.items():
        reports = fiber_reports(WeierstrassFibration.from_json(
            case["fibration"]))
        assert [[str(r.place), r.kodaira] for r in reports] \
            == case["places"], name
        assert sum(r.place.kind == "finite-irreducible"
                   for r in reports) >= 3, name


def test_fiber_reports_rejects_zero_discriminant():
    f = WeierstrassFibration(RationalPolynomial.zero(),
                             RationalPolynomial.zero())
    with pytest.raises(InvariantError, match="vanishes identically"):
        fiber_reports(f)


@pytest.mark.parametrize("f,at_infinity", [
    (WeierstrassFibration(poly((1, 0)), T ** 8 + 1), ["IV*"]),
    (WeierstrassFibration(poly((-3, 8), (1, 0)), poly((-1, 4), (2, 12))),
     ["I_16"]),
    (WeierstrassFibration(T ** 4, poly((1, 0)), form="two-torsion"),
     ["I_16"]),
    (WeierstrassFibration(T ** 8 + 1, T ** 8 + 3), [])])
def test_fiber_typing_computes_the_discriminant_once(monkeypatch, f,
                                                     at_infinity):
    # the report at t = infinity reads the a, b and delta that
    # fiber_reports already holds
    calls = []
    discriminant = weierstrass.weierstrass_discriminant
    monkeypatch.setattr(weierstrass, "weierstrass_discriminant",
                        lambda a, b: calls.append(1) or discriminant(a, b))
    reports = fiber_reports(f)
    assert len(calls) == 1
    assert [r.kodaira for r in reports
            if r.place == Place.infinity()] == at_infinity


def test_simple_roots_of_delta_are_typed_without_valuations(monkeypatch):
    # a = -3, b = 2 + g gives delta = 27 g (g + 4): with g = t^12 - 1 it is
    # squarefree of degree 24, with the rational roots +-1 and irrational
    # layers, so every fiber is I_1 and no valuation is computed
    calls = []
    for name in ("valuation_at", "split_by_valuation"):
        wrapped = getattr(weierstrass, name)
        monkeypatch.setattr(weierstrass, name,
                            lambda *args, _f=wrapped, _n=name:
                            calls.append(_n) or _f(*args))
    f = WeierstrassFibration(poly((-3, 0)), poly((1, 12), (1, 0)))
    reports = fiber_reports(f)
    assert calls == []
    assert {r.place.kind for r in reports} \
        == {"finite-rational", "finite-irreducible"}
    assert all((r.v_a, r.v_b, r.v_delta, r.kodaira) == (0, 0, 1, "I_1")
               for r in reports)
    assert fiber_inventory(f) == {"I_1": 24}


def _chart_report_at_infinity(f):
    # the fiber at infinity as the chart computes it: t = 0 of at_infinity()
    zero = Place.finite_rational(0)
    chart = weierstrass._short_and_discriminant(f.at_infinity())
    return weierstrass._fiber_report(
        Place.infinity(), *(valuation_at(p, zero) for p in chart))


def test_fiber_at_infinity_is_read_from_degrees():
    rng = random.Random(80807)
    pins = [WeierstrassFibration(RationalPolynomial.zero(), T ** 11 + 1),
            WeierstrassFibration(T ** 5 - 2, RationalPolynomial.zero()),
            WeierstrassFibration(RationalPolynomial.zero(), T ** 7 + 3,
                                 form="two-torsion"),
            WeierstrassFibration(T ** 3 + 1, RationalPolynomial.zero(),
                                 form="two-torsion")]
    samples = pins + [
        WeierstrassFibration(_random_sparse(rng, da), _random_sparse(rng, db),
                             form)
        for form, (da, db) in _WEIGHTS.items() for _ in range(150)]
    seen = Counter()
    for f in samples:
        try:
            expected = _chart_report_at_infinity(f)
        except InvariantError as err:
            with pytest.raises(InvariantError, match=re.escape(str(err))):
                kodaira_type_at(f, Place.infinity())
            seen[f.form, "error"] += 1
            continue
        report = kodaira_type_at(f, Place.infinity())
        assert report == expected
        assert [type(v) for v in report] == [type(v) for v in expected]
        if report.v_delta > 0:
            seen[f.form, "singular"] += 1
        if INF in (report.v_a, report.v_b):
            seen[f.form, "zero coefficient"] += 1
    # both forms give singular fibers at infinity (deg delta < 24), zero
    # coefficients and refusals (a zero discriminant or a non-minimal place)
    assert all(seen[form, kind] >= 2 for form in _WEIGHTS
               for kind in ("error", "singular", "zero coefficient")), seen


GOLDEN_FIBRATIONS = Path(__file__).parent / "golden" / "inputs"


def _valuation_samples():
    """Fibrations whose reports the valuation cross-check reads: the golden
    inputs, every preset of the four worked examples and 50 seeded designs
    with additive and multiplicative fibers on rational and irrational
    places."""
    for name in ("ex3", "ex4-generic", "ex4-i8", "iv-star", "not-invariant",
                 "readme"):
        data = json.loads((GOLDEN_FIBRATIONS / (name + ".json")).read_text())
        yield WeierstrassFibration.from_json(data)
    for example_id, family in weierstrass._FAMILIES.items():
        for preset in family[4]:
            yield weierstrass._example(example_id, preset, None, False)[0]
    rng = random.Random(80808)
    kept = 0
    while kept < 50:
        f = _designed_fibration(rng)
        if f is not None:
            kept += 1
            yield f


def _cofactor(rng, degree):
    return RationalPolynomial({e: rng.randint(-4, 4)
                               for e in range(degree + 1)}) + rng.randint(1, 3)


def _designed_fibration(rng):
    """A short-form datum built from chosen factors, as the fiber-typing
    benchmark draws them: a = -3 h^2 s^2, b = (2 h^3 + g) s^3 (cycles,
    their twists, II and IV), or a = P^alpha a0, b = P^beta b0 (the additive
    types), with P = t - r or t^2 - d; None when the draw is no K3 datum
    or is refused."""
    place = rng.choice([T - rng.randint(-3, 3),
                        T * T - rng.choice([2, 3, 5, 7])])
    if rng.random() < 0.5:
        h = place ** rng.randint(0, 1) * _cofactor(rng, rng.randint(0, 1))
        s = place ** rng.randint(0, 1)
        g = place ** rng.randint(0, 3) * _cofactor(rng, rng.randint(0, 2))
        a, b = h * h * s * s * -3, (h * h * h * 2 + g) * s * s * s
    else:
        alpha, beta = rng.choice([(1, 2), (3, 5), (3, 4), (4, 5), (2, 3),
                                  (1, 1)])
        a = place ** alpha * _cofactor(rng, rng.randint(0, 2))
        b = place ** beta * _cofactor(rng, rng.randint(0, 2))
    if a.degree() > 8 or b.degree() > 12:
        return None
    f = WeierstrassFibration(a, b)
    try:
        fiber_reports(f)
    except InvariantError:
        return None
    return f


def test_reported_valuations_match_direct_computation():
    """v(a) and v(b) of every report equal the valuations computed
    directly: valuation_at at a rational place, one level of the whole
    split by a and by b on an irrational bundle.  fiber_reports reads
    v(b) = 0 off v(a) = 0 without computing it."""
    seen = Counter()
    for f in _valuation_samples():
        a, b = f.short_coefficients()
        for report in fiber_reports(f):
            place, v_a, v_b = report.place, report.v_a, report.v_b
            if place.kind == "finite-rational":
                assert (v_a, v_b) == (valuation_at(a, place),
                                      valuation_at(b, place)), report
            elif place.kind == "finite-irreducible":
                assert weierstrass._split(place.poly, a) == [(place.poly, v_a)]
                assert weierstrass._split(place.poly, b) == [(place.poly, v_b)]
            if v_a == 0:
                assert v_b == 0, report
            seen[place.kind, v_a > 0 and v_b > 0] += 1
    # the valuations the shortcut skips, and the ones it must not
    assert all(seen[kind, additive] >= 5
               for kind in ("finite-rational", "finite-irreducible")
               for additive in (False, True)), seen


def _factored(rng, cap):
    """A nonzero constant times factors t - r and t^2 - d of total degree
    at most cap; the small pools repeat factors, so roots are multiple."""
    p = RationalPolynomial.constant(rng.choice([1, -1, 2, -3,
                                                Fraction(1, 2)]))
    degree = rng.randint(0, cap)
    while degree:
        if degree > 1 and rng.random() < 0.5:
            p *= T * T - rng.choice([2, 3, -1, -3])
            degree -= 2
        else:
            p *= T - rng.randint(-2, 2)
            degree -= 1
    return p


def test_kodaira_type_at_agrees_with_fiber_reports():
    """fixed_points_on_fiber types its one place through kodaira_type_at,
    analyze_action every place through fiber_reports: at each reported
    place, rational, irrational or at infinity, the two give one report.
    The surfaces are those of the valuation cross-check (the golden
    inputs, the worked-example presets and designed short forms), a
    layer of delta that splits by valuation, and seeded products of
    linear and quadratic factors in both forms."""
    rng = random.Random(80810)
    samples = [(f, False) for f in (*_valuation_samples(), _mixed_layer())]
    samples += [(WeierstrassFibration(_factored(rng, da), _factored(rng, db),
                                      form), True)
                for form, (da, db) in _WEIGHTS.items() for _ in range(300)]
    seen = Counter()
    for f, drawn in samples:
        try:
            reports = fiber_reports(f)
        except InvariantError:
            # a draw may be no K3 datum; a pinned surface always types
            assert drawn, f
            continue
        for report in reports:
            assert kodaira_type_at(f, report.place) == report
            seen[f.form, report.place.kind] += 1
            if report.v_a > 0 and report.v_b > 0:
                seen["additive", report.place.kind] += 1
    # every kind of place in both forms, and additive fibers at each
    assert all(seen[group, kind] >= 5 for group in (*_WEIGHTS, "additive")
               for kind in ("finite-rational", "finite-irreducible",
                            "infinity")), seen


def test_rescaling_leaves_fiber_types():
    rng = random.Random(80806)
    for _ in range(25):
        a = RationalPolynomial({7: Fraction(1), 0: Fraction(rng.randint(1, 5))})
        b = RationalPolynomial({e: Fraction(rng.randint(-3, 3))
                                for e in range(rng.randint(1, 11))})
        f = WeierstrassFibration(a, b)
        lam = Fraction(rng.choice((2, 3, -2)), rng.choice((1, 5)))
        g = WeierstrassFibration(a * lam ** 4, b * lam ** 6)
        assert fiber_inventory(f) == fiber_inventory(g)


def test_json_round_trip():
    f = WeierstrassFibration(poly((2, 4)), poly((1, 8), (-1, 0)),
                             form="two-torsion")
    g = WeierstrassFibration.from_json(f.to_json())
    assert (g.a, g.b, g.form) == (f.a, f.b, f.form)
    aut = DiagonalAutomorphism(4, 2, 7, translate=True,
                               torsion_x0=poly((-1, 4), (1, 0)))
    assert DiagonalAutomorphism.from_json(aut.to_json()) == aut
    with pytest.raises(ValueError, match="needs translate=True"):
        DiagonalAutomorphism(4, 2, 7, torsion_x0=poly((1, 0)))


def test_direct_construction_checks_field_types():
    for bad, field in (((1.5, 0, 1), "'ex'"), ((0, True, 1), "'ey'"),
                       ((0, 0, "1"), "'et'")):
        with pytest.raises(ValueError, match=field):
            DiagonalAutomorphism(*bad)
    with pytest.raises(ValueError, match="'translate'"):
        DiagonalAutomorphism(0, 0, 1, translate=1)
    assert DiagonalAutomorphism(9, -1, 1).exponents() == (1, 7, 1)


# -- invariance ---------------------------------------------------------------


def test_invariance_congruences():
    f = WeierstrassFibration(poly((1, 8), (1, 0)), poly((1, 8), (3, 0)))
    assert not invariance_failures(f, DiagonalAutomorphism(0, 0, 1))
    assert not invariance_failures(f, DiagonalAutomorphism(0, 4, 5))
    failures = invariance_failures(f, DiagonalAutomorphism(0, 0, 2))
    assert not failures  # the square of the generic action still acts
    failures = invariance_failures(f, DiagonalAutomorphism(2, 0, 1))
    assert failures and any("2*ey" in line for line in failures)

    bad = WeierstrassFibration(poly((1, 7), (1, 0)), poly((1, 8), (3, 0)))
    failures = invariance_failures(bad, DiagonalAutomorphism(0, 0, 1))
    assert any("a(" in line for line in failures)


def test_two_form_multiplier():
    assert two_form_multiplier(DiagonalAutomorphism(0, 0, 1)) == 1
    assert two_form_multiplier(DiagonalAutomorphism(0, 4, 5)) == 1
    assert two_form_multiplier(DiagonalAutomorphism(4, 2, 7)) == 1
    assert two_form_multiplier(DiagonalAutomorphism(4, 6, 3)) == 1
    assert two_form_multiplier(DiagonalAutomorphism(0, 0, 3)) == 3


def test_base_fixed_fibers():
    f = WeierstrassFibration(poly((1, 8), (1, 0)), poly((2, 4), (1, 12)))
    zero, infinity = _invariant_charts(f, DiagonalAutomorphism(0, 0, 1))
    assert str(zero[0]) == "t=0" and zero[2].et == 1
    assert str(infinity[0]) == "t=infinity" and infinity[2].et == 7
    with pytest.raises(ValueError, match="order"):
        _invariant_charts(f, DiagonalAutomorphism(0, 4, 2))


def test_chart_exponents():
    f = WeierstrassFibration(poly((1, 8), (1, 0)), poly((2, 4), (1, 12)))
    zero, infinity = _invariant_charts(f, DiagonalAutomorphism(4, 2, 7))
    assert str(zero[0]) == "t=0" and zero[2].exponents() == (4, 2, 7)
    # at infinity: (ex - 4 et, ey - 6 et, -et) mod 8
    assert str(infinity[0]) == "t=infinity"
    assert infinity[2].exponents() == (0, 0, 1)
    with pytest.raises(ValueError, match="order 4 on the base"):
        _invariant_charts(f, DiagonalAutomorphism(0, 4, 2))


# -- fixed points -------------------------------------------------------------


def _example3(use_tau=False):
    f = WeierstrassFibration(poly((1, 8), (1, 0)), poly((2, 4), (1, 12)))
    g = DiagonalAutomorphism(4, 6, 3) if use_tau \
        else DiagonalAutomorphism(4, 2, 7)
    return f, g


def test_fixed_point_types_on_central_fiber():
    f, g = _example3()
    points = fixed_points_on_fiber(f, g, Place.finite_rational(0))
    assert [p.pair for p in points] == [(7, 2), (7, 2)]
    assert [p.description for p in points] == ["point at infinity", "(0, 0)"]
    assert all(point_type(*p.pair) == 2 for p in points)

    f, g = _example3(use_tau=True)
    points = fixed_points_on_fiber(f, g, Place.finite_rational(0))
    assert [p.pair for p in points] == [(3, 6), (3, 6)]
    assert all(point_type(*p.pair) == 3 for p in points)


def test_fixed_points_on_the_fiber_at_infinity():
    # example 1 generic: in the chart at infinity the scaling is (4, 2, 7)
    # and the fiber is y^2 = x^3 + x
    f = WeierstrassFibration(poly((1, 8), (1, 0)), poly((1, 8), (3, 0)))
    points = fixed_points_on_fiber(f, DiagonalAutomorphism(0, 0, 1),
                                   Place.infinity())
    assert [p.pair for p in points] == [(7, 2), (7, 2)]
    assert [p.description for p in points] == ["point at infinity", "(0, 0)"]
    with pytest.raises(ValueError, match="fixes only"):
        fixed_points_on_fiber(f, DiagonalAutomorphism(0, 0, 1),
                              Place.finite_rational(1))


def test_fixed_points_need_smooth_fiber():
    # discriminant vanishes to order 3 at t = 0: a type III fiber there
    f = WeierstrassFibration(poly((1, 8), (1, 1)), poly((1, 8)))
    g = DiagonalAutomorphism(0, 0, 1)
    with pytest.raises(ValueError, match="smooth fibers only"):
        fixed_points_on_fiber(f, g, Place.finite_rational(0))


def test_identity_chart_has_no_isolated_points():
    f = WeierstrassFibration(poly((1, 8), (1, 0)), poly((1, 8), (3, 0)))
    g = DiagonalAutomorphism(0, 0, 1)
    with pytest.raises(ValueError):
        fixed_points_on_fiber(f, g, Place.finite_rational(0))


@pytest.mark.parametrize("exponents, place, message", [
    ((1, 0, 1), Place.finite_rational(0), "does not preserve"),
    ((2, 3, 1), Place.finite_rational(0), "does not preserve"),
    ((0, 0, 3), Place.infinity(), r"multiplier is zeta\^3"),
])
def test_fixed_points_run_the_checks_of_analyze(exponents, place, message):
    # unchecked, these maps get three points, one point, and two points of
    # pair (5, 6), which is no order-8 point type
    f = WeierstrassFibration(poly((1, 8), (1, 0)), poly((1, 8), (3, 0)))
    g = DiagonalAutomorphism(*exponents)
    with pytest.raises(InvariantError, match=message) as err:
        fixed_points_on_fiber(f, g, place)
    with pytest.raises(InvariantError) as same:
        analyze_action(f, g)
    assert str(err.value) == str(same.value)


# -- translation maps and composition identities ------------------------------


def _example4(alpha=3, beta=1, gamma=1):
    return WeierstrassFibration(poly((alpha, 4)),
                                poly((beta, 8), (gamma, 0)),
                                form="two-torsion")


def test_translation_is_an_involution():
    f = _example4()
    cubic = f.curve_relation()
    tau = torsion_translation(f)
    assert maps_equal(compose(tau, tau), RationalMap.identity(),
                      curve_cubic=cubic)


def test_translation_swaps_x_with_b_over_x():
    f = _example4()
    cubic = f.curve_relation()
    tau = torsion_translation(f)
    x = CurvePolynomial.coordinate("x")
    b = CurvePolynomial.from_base_polynomial(f.b)
    residue = tau.x_num * x - b * tau.x_den
    assert residue.reduce_y(cubic).is_zero()


def test_translation_commutes_with_scaling():
    f = _example4()
    cubic = f.curve_relation()
    tau = torsion_translation(f)
    diag = RationalMap.diagonal(4, 2, 7)
    assert maps_equal(compose(diag, tau), compose(tau, diag),
                      curve_cubic=cubic)


def test_square_of_translated_action():
    from k3auto.weierstrass import automorphism_map
    f = _example4()
    cubic = f.curve_relation()
    sigma = automorphism_map(
        f, DiagonalAutomorphism(4, 2, 7, translate=True))
    square = compose(sigma, sigma)
    assert maps_equal(square, RationalMap.diagonal(0, 4, 6),
                      curve_cubic=cubic)


def test_square_with_conjugate_section_shifts_by_two_torsion():
    from k3auto.weierstrass import automorphism_map
    f = _example4(alpha=2, beta=1, gamma=-1)
    cubic = f.curve_relation()
    x0 = poly((-1, 4), (1, 0))  # -(alpha/2) t^4 + sqrt(-gamma)
    g = DiagonalAutomorphism(4, 2, 7, translate=True, torsion_x0=x0)
    sigma = automorphism_map(f, g)
    square = compose(sigma, sigma)
    tau0 = torsion_translation(f)
    shifted = compose(tau0, RationalMap.diagonal(0, 4, 6))
    assert maps_equal(square, shifted, curve_cubic=cubic)
    assert not maps_equal(square, RationalMap.diagonal(0, 4, 6),
                          curve_cubic=cubic)


def test_torsion_translation_needs_a_section():
    f = _example4()
    bad_x0 = poly((1, 0))  # x = 1 is not 2-torsion on this surface
    with pytest.raises(ValueError):
        torsion_translation(f, bad_x0)


def test_torsion_translation_refuses_a_singular_section():
    # c'(x0) = 0: with b = 0 at (0, 0), and at x0 = -t^4 on
    # y^2 = x (x + t^4)^2, where (x0, 0) is a section but a node
    cases = [(_example4(beta=0, gamma=0), None),
             (WeierstrassFibration(poly((2, 4)), poly((1, 8)), "two-torsion"),
              poly((-1, 4)))]
    for f, x0 in cases:
        with pytest.raises(ValueError, match=r"c'\(x0\) = 3 x0\^2"):
            torsion_translation(f, x0)


def _assert_y_odd_normal_form(m):
    for part in (m.x_num, m.x_den, m.y_den):
        assert part.y_degree() == 0 and part.terms
    assert m.y_num.terms
    assert all(j == 1 for _, j, _ in m.y_num.terms)


def test_maps_are_in_y_odd_normal_form():
    from k3auto.weierstrass import automorphism_map
    f = _example4(alpha=2, beta=1, gamma=-1)
    x0 = poly((-1, 4), (1, 0))  # the conjugate section of example 4
    taus = [torsion_translation(f), torsion_translation(f, x0)]
    for tau in taus:
        assert max(tau.x_num.x_degree(), tau.x_den.x_degree()) == 1
    sigmas = [automorphism_map(f, DiagonalAutomorphism(
        4, 2, 7, translate=True, torsion_x0=section))
        for section in (None, x0)]
    square = compose(sigmas[1], sigmas[1])
    for m in taus + sigmas + [compose(s, s) for s in sigmas]:
        _assert_y_odd_normal_form(m)
    size = sum(len(part.terms) for part in (
        square.x_num, square.x_den, square.y_num, square.y_den))
    assert size <= 40


# -- full analyses ------------------------------------------------------------

REGRESSION = [
    (1, "generic", False, 1, {"I_1": 24}),
    (1, "iv-star", False, 5, {"I_1": 16, "IV*": 1}),
    (2, "generic", False, 4, {"I_1": 24}),
    (2, "iv-star", False, 11, {"I_1": 16, "IV*": 1}),
    (3, "generic", False, 1, {"I_1": 24}),
    (3, "generic", True, 4, {"I_1": 24}),
    (3, "i8", False, 12, {"I_1": 16, "I_8": 1}),
    (3, "i8", True, 10, {"I_1": 16, "I_8": 1}),
    (3, "i16", False, 16, {"I_1": 8, "I_16": 1}),
    (3, "i16", True, 15, {"I_1": 8, "I_16": 1}),
    (4, "generic", False, 2, {"I_1": 8, "I_2": 8}),
    (4, "i8", False, 8, {"I_2": 8, "I_8": 1}),
    (4, "i16", False, 13, {"I_1": 8, "I_16": 1}),
]


@pytest.mark.parametrize("example_id,preset,use_tau,row,counts", REGRESSION)
def test_worked_example_regression(example_id, preset, use_tau, row, counts):
    analysis = worked_example(example_id, preset=preset, use_tau=use_tau)
    assert analysis.matched_row.index == row
    assert analysis.inventory == counts
    assert analysis.euler_sum == 24
    assert analysis.two_form_exponent == 1
    assert all(analysis.checks.values()), analysis.checks


def _flip_pair(f, g):
    # the same surface and generator in the chart (x/t^4, y/t^6, 1/t)
    x0 = g.torsion_x0
    return (_flipped(f),
            DiagonalAutomorphism(g.ex - 4 * g.et, g.ey - 6 * g.et, -g.et,
                                 g.translate,
                                 None if x0 is None else _reversed(x0, 4)))


@pytest.mark.parametrize("example_id,preset,use_tau",
                         [entry[:3] for entry in REGRESSION])
def test_analysis_is_symmetric_under_t_to_one_over_t(example_id, preset,
                                                     use_tau):
    analysis = worked_example(example_id, preset=preset, use_tau=use_tau)
    flipped = analyze_action(*_flip_pair(analysis.fibration,
                                         analysis.automorphism))
    assert flipped.matched_row == analysis.matched_row
    assert flipped.action == analysis.action
    assert flipped.inventory == analysis.inventory
    assert flipped.checks == analysis.checks
    swap = {"t=0": "t=infinity", "t=infinity": "t=0"}
    assert [dict(r.to_dict(), place=swap[str(r.place)])
            for r in flipped.invariant_fibers] \
        == [r.to_dict() for r in analysis.invariant_fibers]


def test_worked_example_custom_params():
    analysis = worked_example(4, preset="i8", params=[2, 1, -1])
    assert analysis.matched_row.index == 8
    with pytest.raises(ValueError, match="takes 3 parameters"):
        worked_example(4, params=[1, 2])
    with pytest.raises(ValueError):
        worked_example(4, preset="i8", params=[1, 1, 1])
    with pytest.raises(ValueError, match="must be one of"):
        worked_example(5)
    with pytest.raises(ValueError, match="second generator"):
        worked_example(1, use_tau=True)
    with pytest.raises(ValueError, match="presets"):
        worked_example(1, preset="i8")


def test_worked_example_with_a_six_digit_prime_runs_fast():
    # the discriminant's end coefficients carry p = 100003; a search over
    # their divisor pairs took tens of seconds here
    start = time.perf_counter()
    analysis = worked_example(1, "generic", (100003, 1, 1, 3))
    elapsed = time.perf_counter() - start
    assert analysis.inventory == {"I_1": 24}
    assert elapsed < 2.0, elapsed


def test_analyze_action_error_taxonomy():
    f = WeierstrassFibration(poly((1, 8), (1, 0)), poly((1, 8), (3, 0)))
    with pytest.raises(InvariantError, match="2-form multiplier"):
        analyze_action(f, DiagonalAutomorphism(0, 0, 3))
    bad = WeierstrassFibration(poly((1, 7), (1, 0)), poly((1, 8), (3, 0)))
    with pytest.raises(InvariantError, match="does not preserve"):
        analyze_action(bad, DiagonalAutomorphism(0, 0, 1))
    invariant_short = WeierstrassFibration(poly((1, 8), (1, 0)),
                                           poly((1, 4), (1, 12)))
    with pytest.raises(ValueError, match="2-torsion form"):
        # a translation twist needs the two-torsion form
        analyze_action(invariant_short,
                       DiagonalAutomorphism(4, 2, 7, translate=True))
    # IV* at t = 0 and I_8 at infinity: no smooth fiber to match a row by
    no_smooth = WeierstrassFibration(poly((-3, 8)), poly((1, 4), (2, 12)))
    assert fiber_inventory(no_smooth) == {"I_1": 8, "I_8": 1, "IV*": 1}
    with pytest.raises(InvariantError) as err:
        analyze_action(no_smooth, DiagonalAutomorphism(4, 2, 7))
    assert str(err.value) == ("no smooth invariant fiber (IV* at t=0, I_8 "
                              "at t=infinity); outside the table")


def test_two_smooth_invariant_fibers_carry_one_order_four_action():
    # every generator that passes the checks before row matching: its two
    # charts either leave a smooth fiber unnamed or name exactly one
    # order-four action, so two smooth fibers always order uniquely
    partners, charts = set(), set()
    for ex, ey, et, translate in itertools.product(
            range(8), range(8), range(8), (False, True)):
        g = DiagonalAutomorphism(ex, ey, et, translate)
        if (2 * ey - 3 * ex) % 8 or et % 2 == 0 \
                or two_form_multiplier(g) != 1:
            continue
        charts.update((chart.ex, chart.ey) for chart in (g, g.at_infinity()))
        names = [_CHART_ACTIONS[chart.ex, chart.ey][SMOOTH][translate]
                 for chart in (g, g.at_infinity())]
        if None in names:  # the untyped translated involution
            continue
        assert names.count(ORDER_4) == 1, (g, names)
        partners.update(name for name in names if name != ORDER_4)
    assert partners == {IDENTITY, INVOLUTION, TRANSLATION_2}
    # the only charts the smooth-fiber table and fixed-point routines meet
    assert charts == {(0, 0), (0, 4), (4, 2), (4, 6)}


@pytest.mark.parametrize("exponents, a, b, place, label", [
    ((0, 0, 1), poly((1, 0)), poly((1, 8), (1, 0)), "t=infinity",
     "reflection of IV*"),
    ((0, 4, 5), poly((1, 0)), poly((1, 8), (1, 0)), "t=infinity",
     "preserves each curve of IV*"),
    ((4, 2, 7), poly((1, 8)), poly((1, 4), (1, 12)), "t=0",
     "reflection of IV*"),
    ((4, 6, 3), poly((1, 8)), poly((1, 4), (1, 12)), "t=0",
     "preserves each curve of IV*"),
])
def test_iv_star_action_follows_its_arms(exponents, a, b, place, label):
    # in the chart with IV* over t = 0, its two arms off the zero section
    # lie over the roots of Y^2 = (b/t^4)(0), Y = y/t^2, and g scales Y by
    # zeta^(ey - 2 et): -1 swaps the arms, 1 keeps each
    g = DiagonalAutomorphism(*exponents)
    chart = g if place == "t=0" else g.at_infinity()
    assert ((chart.ey - 2 * chart.et) % 8 == 4) \
        == (label == "reflection of IV*")
    analysis = analyze_action(WeierstrassFibration(a, b), g)
    [fiber] = [r for r in analysis.invariant_fibers if r.kodaira == "IV*"]
    assert (str(fiber.place), fiber.label) == (place, label)
    assert analysis.matched_row.action[1] == label


def test_iv_star_never_sits_beside_an_order_four_smooth_fiber():
    # analyze_action reads the IV* action from the chart exponents and
    # matches its row, which must exist: the table has one IV* row for each
    # action on the smooth fiber except order four ...
    partners = Counter(
        parse_action_label(row.action[0])[1] for row in enumerate_cases()
        if parse_action_label(row.action[1])[0].kind == IV_STAR)
    assert partners == {IDENTITY: 1, TRANSLATION_2: 1, TRANSLATION_4: 1,
                        INVOLUTION: 1}
    # ... and no generator that passes the checks has a smooth order-four
    # fiber beside an IV* fiber, so the missing row is never asked for.
    # The checks are symmetric under t -> 1/t, so the order-four chart may
    # be the one at t = 0; every coefficient choice in -2..3 on the
    # monomials invariance admits is typed.
    beside_smooth, iv_star = set(), set()
    for ex, ey, et in itertools.product(range(8), repeat=3):
        g = DiagonalAutomorphism(ex, ey, et)
        if (2 * ey - 3 * ex) % 8 or et % 2 == 0 \
                or two_form_multiplier(g) != 1 \
                or _CHART_ACTIONS[ex, ey][SMOOTH][False] != ORDER_4:
            continue
        for form, (da, db) in (("short", (8, 12)), ("two-torsion", (4, 8))):
            def surface(a, b):
                return WeierstrassFibration(RationalPolynomial(a),
                                            RationalPolynomial(b), form)
            ea = [e for e in range(da + 1)
                  if not invariance_failures(surface({e: 1}, {}), g)]
            eb = [e for e in range(db + 1)
                  if not invariance_failures(surface({}, {e: 1}), g)]
            for cs in itertools.product((-2, -1, 0, 1, 3),
                                        repeat=len(ea) + len(eb)):
                f = surface(dict(zip(ea, cs)), dict(zip(eb, cs[len(ea):])))
                try:
                    at_zero, at_infinity = (
                        kodaira_type_at(f, place).kodaira for place in
                        (Place.finite_rational(0), Place.infinity()))
                except InvariantError:  # zero discriminant, non-minimal
                    continue
                if at_zero == "I_0":
                    beside_smooth.add(at_infinity)
                if IV_STAR in (at_zero, at_infinity):
                    iv_star.add((form, at_zero, at_infinity))
    assert beside_smooth == {"I_0", "I_8", "I_16"}
    # IV* does occur, on the order-four chart's own fiber (a = 0)
    assert iv_star == {("short", IV_STAR, "I_0")}


def test_analysis_json_is_serializable():
    import json
    analysis = worked_example(4, preset="generic")
    blob = json.dumps(analysis.to_json(), sort_keys=True)
    assert "matched_row" in blob
