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


def _example4_maps():
    """tau, diag(4,2,7), sigma and sigma with the conjugate section
    x0 = -t^4 + 1, all on y^2 = x (x^2 + 2 t^4 x + t^8 - 1)."""
    f = WeierstrassFibration(RationalPolynomial({4: 2}),
                             RationalPolynomial({8: 1, 0: -1}),
                             form="two-torsion")
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


def test_compose_is_associative():
    rng = random.Random(14)
    translations = _example4_maps()[::2]
    for _ in range(12):
        triple = [rng.choice(translations) if rng.random() < 0.5
                  else RationalMap.diagonal(rng.randrange(8),
                                            rng.randrange(8),
                                            rng.randrange(8))
                  for _ in range(3)]
        f, g, h = triple
        assert maps_equal(compose(compose(f, g), h),
                          compose(f, compose(g, h))), triple
