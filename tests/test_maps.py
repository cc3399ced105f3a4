"""Exact self-maps of a Weierstrass surface."""

import itertools
import random
from fractions import Fraction

import pytest

from k3auto.cyclotomic import Cyc8Element, zeta_pow
from k3auto.maps import CurvePolynomial, RationalMap, compose, maps_equal
from k3auto.polynomial import RationalPolynomial
from k3auto.weierstrass import (DiagonalAutomorphism, WeierstrassFibration,
                                automorphism_map, torsion_translation)

X = CurvePolynomial.coordinate("x")
Y = CurvePolynomial.coordinate("y")
T = CurvePolynomial.coordinate("t")
ONE = CurvePolynomial.constant(1)


def test_polynomial_ring_basics():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert p.x_degree() == 2 and p.y_degree() == 2
    assert (X * T - T * X).is_zero()
    with pytest.raises(ValueError):
        X ** -1
    with pytest.raises(ValueError):
        CurvePolynomial({(0, 0, -1): Fraction(1)})


def test_scale_and_zeta_coefficients():
    p = X * 3
    assert p * zeta_pow(2) \
        == X * CurvePolynomial.constant(Cyc8Element([0, 0, 3, 0]))


def test_substitute_twists_base_coefficients():
    # plugging the diagonal map into a*t^8 must pick up zeta^(8e) = 1
    p = CurvePolynomial({(0, 0, 8): Cyc8Element.from_rational(1)})
    out = p.substitute(X, ONE, Y, ONE, t_exponent=1, dx=1, dy=1)
    assert out == p


def test_reduce_y():
    cubic = X ** 3 + X + CurvePolynomial.constant(3)
    p = Y ** 4 + Y * Y * X + Y
    reduced = p.reduce_y(cubic)
    assert reduced.y_degree() < 2
    assert reduced == cubic * cubic + cubic * X + Y


def test_identity_and_diagonal_maps():
    ident = RationalMap.identity()
    diag = RationalMap.diagonal(4, 2, 7)
    assert maps_equal(compose(ident, diag), diag)
    assert maps_equal(compose(diag, ident), diag)
    # eighth power of the diagonal map is the identity
    power = diag
    for _ in range(7):
        power = compose(power, diag)
    assert maps_equal(power, ident)


def test_compose_diagonal_square():
    diag = RationalMap.diagonal(0, 4, 5)
    assert maps_equal(compose(diag, diag), RationalMap.diagonal(0, 0, 2))


def test_maps_equal_uses_curve_relation():
    cubic = X ** 3 + X * T ** 8 + CurvePolynomial.constant(3)
    # y^2 and the cubic define the same function on the curve only
    first = RationalMap(Y * Y, ONE, Y, ONE, 0)
    second = RationalMap(cubic, ONE, Y, ONE, 0)
    assert not maps_equal(first, second)
    assert maps_equal(first, second, curve_cubic=cubic)


def test_canonical_form_of_fractional_coefficients():
    half = X * Fraction(1, 2)
    assert half + half == X
    assert hash(half + half) == hash(X)
    assert X * Fraction(2, 4) == half
    assert X - X == CurvePolynomial()
    assert (X - X).is_zero() and not (X - X).terms


def test_terms_view_round_trips_through_the_constructor():
    zeta = CurvePolynomial.constant(zeta_pow(1))
    p = (X * Fraction(1, 3) + zeta * Y * T) * (zeta * zeta * zeta + X) - T
    assert CurvePolynomial(p.terms) == p
    # one entry per monomial, whatever its zeta coordinates
    assert dict((X + zeta * X).terms) == {(1, 0, 0): Cyc8Element([1, 1, 0, 0])}
    assert p.terms[(1, 0, 0)] == Cyc8Element([0, 0, 0, Fraction(1, 3)])
    with pytest.raises(TypeError):
        p.terms[(0, 0, 0)] = Cyc8Element.one()


def test_product_by_one_is_the_other_factor():
    p = (X * Fraction(1, 3) + Y * T) * (X + CurvePolynomial.constant(
        zeta_pow(3)))
    for q in (p, X, ONE, CurvePolynomial()):
        for one in (ONE, CurvePolynomial.constant(1), 1):
            assert q * one == q and one * q == q
            assert hash(q * one) == hash(q) == hash(one * q)
            # an operand, not a product multiplied out
            assert all(any(r is f for f in (q, one))
                       for r in (q * one, one * q))


def _example4_surface():
    """y^2 = x (x^2 + 2 t^4 x + t^8 - 1)."""
    return WeierstrassFibration(RationalPolynomial({4: 2}),
                                RationalPolynomial({8: 1, 0: -1}),
                                form="two-torsion")


def _example4_maps():
    """tau, diag(4,2,7), sigma and sigma with the conjugate section
    x0 = -t^4 + 1, all on the _example4_surface."""
    f = _example4_surface()
    x0 = RationalPolynomial({4: -1, 0: 1})
    return [torsion_translation(f), RationalMap.diagonal(4, 2, 7),
            automorphism_map(f, DiagonalAutomorphism(4, 2, 7,
                                                     translate=True)),
            automorphism_map(f, DiagonalAutomorphism(4, 2, 7, translate=True,
                                                     torsion_x0=x0))]


def test_compose_substitutes_each_component():
    # one substitution shared by the four components gives what each
    # component's own substitute gives, at the degrees of its fraction
    maps = _example4_maps()
    for outer, inner in itertools.product(maps, repeat=2):
        composed = compose(outer, inner)
        for num, den, got in ((outer.x_num, outer.x_den, composed[:2]),
                              (outer.y_num, outer.y_den, composed[2:4])):
            dx = max(num.x_degree(), den.x_degree())
            dy = max(num.y_degree(), den.y_degree())
            args = (inner.x_num, inner.x_den, inner.y_num, inner.y_den,
                    inner.t_exponent, dx, dy)
            assert got == (num.substitute(*args), den.substitute(*args))
        assert composed.t_exponent == \
            (outer.t_exponent + inner.t_exponent) % 8


def _seeded_triples():
    """12 seeded triples of translations and diagonal maps."""
    rng = random.Random(14)
    translations = _example4_maps()[::2]
    for _ in range(12):
        yield [rng.choice(translations) if rng.random() < 0.5
               else RationalMap.diagonal(rng.randrange(8), rng.randrange(8),
                                         rng.randrange(8))
               for _ in range(3)]


def test_compose_is_associative():
    for triple in _seeded_triples():
        f, g, h = triple
        assert maps_equal(compose(compose(f, g), h),
                          compose(f, compose(g, h))), triple


def _record_calls(monkeypatch, name):
    """The (self, argument) pair of every call of the CurvePolynomial
    method from now on."""
    seen = []
    method = getattr(CurvePolynomial, name)

    def recording(self, other):
        seen.append((self, other))
        return method(self, other)
    monkeypatch.setattr(CurvePolynomial, name, recording)
    return seen


def test_compose_skips_unit_factors(monkeypatch):
    maps = _example4_maps()
    products = _record_calls(monkeypatch, "__mul__")
    composed = [compose(outer, inner)
                for outer, inner in itertools.product(maps, repeat=2)]
    assert products and not [pair for pair in products if ONE in pair]
    # comparing a map with itself needs no cross-multiplication
    cubic = _example4_surface().curve_relation()
    products.clear()
    for m in maps + composed:
        assert maps_equal(m, m, curve_cubic=cubic)
    assert products == []


def _product_by_terms(p, q):
    """p * q multiplied out on the terms view in Cyc8Element arithmetic."""
    out = {}
    for (i1, j1, k1), c1 in p.terms.items():
        for (i2, j2, k2), c2 in q.terms.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, Cyc8Element.zero()) + c1 * c2
    return CurvePolynomial(out)


def test_one_term_products_match_the_terms_view():
    rng = random.Random(19)

    def fraction():
        return Fraction(rng.choice([-6, -3, -1, 1, 2, 5]), rng.randint(1, 6))

    def monomial():
        return tuple(rng.randrange(3) for _ in range(3))

    for _ in range(200):
        # one zeta coordinate on one monomial: a one-term factor
        one_term = CurvePolynomial({monomial(): zeta_pow(rng.randrange(4))
                                    * fraction()})
        other = CurvePolynomial({
            monomial(): Cyc8Element([fraction() if rng.random() < 0.7 else 0
                                     for _ in range(4)])
            for _ in range(rng.randint(1, 4))})
        for p, q in ((one_term, other), (other, one_term),
                     (one_term, one_term)):
            assert p * q == _product_by_terms(p, q), (p, q)


def _cross_multiplied_equal(first, second, cubic=None):
    """maps_equal as the plain cross-multiplication of every component."""
    if (first.t_exponent - second.t_exponent) % 8:
        return False
    for n1, d1, n2, d2 in ((first.x_num, first.x_den, second.x_num,
                            second.x_den),
                           (first.y_num, first.y_den, second.y_num,
                            second.y_den)):
        diff = n1 * d2 - n2 * d1
        if cubic is not None:
            diff = diff.reduce_y(cubic)
        if not diff.is_zero():
            return False
    return True


def test_maps_equal_compares_fractions():
    cubic = _example4_surface().curve_relation()
    # equal numerators over different denominators are different maps
    first = RationalMap(X, ONE, Y, ONE, 0)
    second = RationalMap(X, X + ONE, Y, ONE, 0)
    for curve in (None, cubic):
        assert not maps_equal(first, second, curve_cubic=curve)
        assert not maps_equal(second, first, curve_cubic=curve)
    # and equal fractions in different forms are one map
    assert maps_equal(first, RationalMap(X * X, X, Y * T, T, 0))


def test_maps_equal_reduces_formally_different_fractions(monkeypatch):
    cubic = _example4_surface().curve_relation()
    reduced = _record_calls(monkeypatch, "reduce_y")
    # y^2/x and cubic/x agree on the surface only; the y components are
    # equal, so only the x components are cross-multiplied and reduced
    first = RationalMap(Y * Y, X, Y, ONE, 0)
    second = RationalMap(cubic, X, Y, ONE, 0)
    assert not maps_equal(first, second)
    assert reduced == []
    assert maps_equal(first, second, curve_cubic=cubic)
    [(diff, _)] = reduced
    assert not diff.is_zero()


def test_maps_equal_agrees_with_cross_multiplication():
    cubic = _example4_surface().curve_relation()
    verdicts = []
    for f, g, h in _seeded_triples():
        left, right = compose(compose(f, g), h), compose(f, compose(g, h))
        for first, second in ((left, right), (left, left),
                              (left, compose(compose(h, g), f)),
                              (compose(f, g), compose(g, f))):
            for curve in (None, cubic):
                verdict = maps_equal(first, second, curve_cubic=curve)
                assert verdict \
                    == _cross_multiplied_equal(first, second, curve)
                verdicts.append(verdict)
    assert True in verdicts and False in verdicts
