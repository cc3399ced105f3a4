"""Exact arithmetic in the 8th cyclotomic field."""

import math
import random
from fractions import Fraction

import pytest

from k3auto.cyclotomic import (Cyc8Element, I_UNIT, ONE, ZERO, ZETA,
                               format_sum, power, zeta_pow)
from k3auto.maps import CurvePolynomial
from k3auto.polynomial import RationalPolynomial


def random_element(rng, bound=12):
    return Cyc8Element([Fraction(rng.randint(-bound, bound),
                                 rng.randint(1, 9)) for _ in range(4)])


def assert_canonical(x):
    """Four int coordinates over a positive denominator, the five
    coprime: so equal elements are stored alike."""
    a, d = x.as_ints()
    assert type(d) is int and d > 0
    assert len(a) == 4 and all(type(c) is int for c in a)
    assert math.gcd(*a, d) == 1
    assert x.coords == tuple(Fraction(c, d) for c in a)


def test_canonical_form():
    for x in (ZERO, ONE, ZETA, I_UNIT, -ZETA, zeta_pow(7), ZETA.invert()):
        assert_canonical(x)
    assert ZERO.as_ints() == ((0, 0, 0, 0), 1)
    assert (ONE - ZETA).invert().as_ints() == ((1, 1, 1, 1), 2)
    # the same element over the denominators 6, 12 and 18 in the making
    half = Cyc8Element([Fraction(1, 2), Fraction(-1, 3), 0, Fraction(5, 6)])
    for same in (Cyc8Element([Fraction(6, 12), Fraction(-4, 12), 0,
                              Fraction(10, 12)]),
                 (ONE * 3 - ZETA * 2 + zeta_pow(3) * 5) * Fraction(1, 6),
                 (ONE * 9 - ZETA * 6 + zeta_pow(3) * 15) * Fraction(1, 18),
                 Cyc8Element([Fraction(1, 4), 0, 0, 0]) + Cyc8Element(
                     [Fraction(1, 4), Fraction(-1, 3), 0, Fraction(5, 6)])):
        assert_canonical(same)
        assert same == half and hash(same) == hash(half)
        assert same.as_ints() == ((3, -2, 0, 5), 6)
    # sums and products that cancel a denominator come back over 1
    assert (half + half.galois(5)).as_ints() == ((1, 0, 0, 0), 1)
    assert (half * 6).as_ints() == ((3, -2, 0, 5), 1)
    assert (half * Fraction(12, 5)).as_ints() == ((6, -4, 0, 10), 5)


def test_basis_relations():
    assert ZETA ** 4 == Cyc8Element.from_rational(-1)
    assert ZETA ** 8 == ONE
    assert I_UNIT * I_UNIT == Cyc8Element.from_rational(-1)
    assert zeta_pow(5) == -ZETA
    assert zeta_pow(-1) == zeta_pow(7)
    assert (ZETA - ZETA ** 3) ** 2 == 2  # sqrt(2) = z - z^3
    assert ZERO.is_zero() and not ONE.is_zero()


def test_field_axioms_randomized():
    rng = random.Random(80801)
    checks = 0
    for _ in range(160):
        a = random_element(rng)
        b = random_element(rng)
        c = random_element(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a + (-a) == ZERO
        for x in (a + b, a - b, a * b, -a, a * 6, a.galois(3)):
            assert_canonical(x)
        checks += 8
        if not a.is_zero():
            inv = a.invert()
            assert a * inv == ONE
            # invert goes through Q(i) in integers, so the conjugates
            # check it independently: their product with a is the rational
            # norm, and inv is that product over the norm
            conj = a.galois(3) * a.galois(5) * a.galois(7)
            norm = a.norm()
            assert a * conj == Cyc8Element.from_rational(norm)
            assert inv * norm == conj
            assert_canonical(inv)
            checks += 3
    assert checks >= 1000


def _galois_inverse_and_norm(x):
    """The definitions: N(x) = x * c with c = x^s3 * x^s5 * x^s7, and
    x^-1 = c / N(x)."""
    conj = x.galois(3) * x.galois(5) * x.galois(7)
    product = x * conj
    assert product.is_rational()
    norm = product.coords[0]
    return conj * Fraction(1, norm), norm


def _kernel_samples():
    rng = random.Random(80804)
    wide = 10 ** 40

    def q():
        return Fraction(rng.randint(-wide, wide), rng.randint(1, wide))
    samples = {"wide-%d" % k: Cyc8Element([q() for _ in range(4)])
               for k in range(12)}
    for k in range(4):
        r, s = q(), q()
        samples["Q-%d" % k] = Cyc8Element([r, 0, 0, 0])
        samples["Q(i)-%d" % k] = Cyc8Element([r, 0, s, 0])
        # sqrt(2) = z - z^3 and sqrt(-2) = z + z^3
        samples["Q(sqrt2)-%d" % k] = Cyc8Element([r, s, 0, -s])
        samples["Q(sqrt-2)-%d" % k] = Cyc8Element([r, s, 0, s])
    for e in range(1, 8):
        samples["1-z^%d" % e] = ONE - zeta_pow(e)
    return samples


KERNEL_SAMPLES = _kernel_samples()


@pytest.mark.parametrize("name", sorted(KERNEL_SAMPLES))
def test_inverse_and_norm_match_the_galois_product(name):
    x = KERNEL_SAMPLES[name]
    inverse, norm = _galois_inverse_and_norm(x)
    assert x.norm() == norm
    assert x.invert() == inverse
    assert x * x.invert() == ONE


def test_galois_group():
    rng = random.Random(80802)
    for _ in range(50):
        a = random_element(rng, bound=5)
        b = random_element(rng, bound=5)
        for j in (1, 3, 5, 7):
            assert (a * b).galois(j) == a.galois(j) * b.galois(j)
            assert (a + b).galois(j) == a.galois(j) + b.galois(j)
        # norm is multiplicative and rational
        assert (a * b).norm() == a.norm() * b.norm()
    with pytest.raises(ValueError):
        ZETA.galois(2)


def test_division_and_powers():
    x = ONE + ZETA
    assert (ONE - ZETA) * (ONE - ZETA).invert() == ONE
    assert x ** 0 == ONE
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).invert()
    assert ZERO.norm() == 0
    with pytest.raises(ZeroDivisionError):
        ZERO.invert()


def test_rational_embedding_and_mixed_ops():
    two = Cyc8Element.from_rational(2)
    assert two.is_rational() and two.coords[0] == 2
    assert not ZETA.is_rational()
    assert 1 + ZETA == ZETA + 1
    assert 2 * ZETA == ZETA * 2
    assert 1 - ZETA == -(ZETA - 1)
    assert Fraction(1, 2) * ONE == Cyc8Element.from_rational(Fraction(1, 2))
    # a rational element equals its value, so it hashes as its value too
    for value in (0, 3, -7, Fraction(1, 2), Fraction(-5, 3)):
        x = Cyc8Element.from_rational(value)
        assert x == value and hash(x) == hash(value)
        assert x in {value} and value in {x} and {value: 1}[x] == 1
    assert ZETA not in {0, 1} and hash(ZETA) == hash(ZETA * 1)
    # a rational element built over a larger denominator is its number too
    third = Cyc8Element([Fraction(1, 6), Fraction(1, 4), 0, 0]) \
        - Cyc8Element([0, Fraction(1, 4), 0, 0]) + Fraction(1, 6)
    assert third.as_ints() == ((1, 0, 0, 0), 3)
    assert third == Fraction(1, 3) and hash(third) == hash(Fraction(1, 3))
    assert ZETA * 4 * Fraction(1, 2) == ZETA + ZETA
    assert hash(ZETA * 4 * Fraction(1, 2)) == hash(ZETA + ZETA)
    # a bool is no number here: it equals no element, not even one that
    # shares its hash
    assert ONE != True and ONE not in {True} and ZERO not in {False}
    # a product by an int or Fraction scales the coordinates, in either
    # order, and is the product by the embedded scalar
    rng = random.Random(80802)
    scalars = (0, 1, -1, 5, -12, 10 ** 30, Fraction(0), Fraction(-7, 3),
               Fraction(9, 4), Fraction(-1, 10 ** 20))
    for _ in range(40):
        a = random_element(rng)
        for s in scalars:
            embedded = a * Cyc8Element.from_rational(s)
            for product in (a * s, s * a):
                assert product == embedded
                assert all(type(c) is Fraction for c in product.coords)
                assert_canonical(product)
    for bad in (True, False):
        with pytest.raises(TypeError):
            ZETA * bad
        with pytest.raises(TypeError):
            bad * ZETA


# -- the shared ring idioms -------------------------------------------------


@pytest.mark.parametrize("pairs, text", [
    ([(0, "x"), (Fraction(0), ""), (0, "y")], ""),
    ([], ""),
    ([(-3, "x"), (2, "y")], "-3*x + 2*y"),
    ([(-1, "x"), (1, "y"), (-1, "z")], "-x + y - z"),
    ([(1, "x"), (-1, "")], "x - 1"),
    ([(5, "")], "5"),
    ([(-5, "")], "-5"),
    ([(Fraction(1, 2), "t^2"), (0, "t"), (Fraction(-3, 4), "")],
     "1/2*t^2 - 3/4"),
    ([(2, "n2"), (Fraction(-1, 3), "n3")], "2*n2 - 1/3*n3"),
], ids=["all-zero", "empty", "negative-leading", "unit-coefficients",
        "lone-constant-one", "lone-constant", "negative-lone-constant",
        "negative-constant-after-terms", "fraction-coefficients"])
def test_format_sum(pairs, text):
    assert format_sum(pairs) == text


def test_reprs_share_the_signed_sum():
    assert repr(ZERO) == "Cyc8(0)"
    assert repr(Cyc8Element((Fraction(-1, 2), 1, 0, -3))) \
        == "Cyc8(-1/2 + z - 3*z^3)"
    t = RationalPolynomial.variable()
    p = 2 * t ** 3 - t + Fraction(-7, 2)
    assert repr(p) == "Poly(2*t^3 - t - 7/2)"
    assert str(p) == "2*t^3 - t - 7/2"
    assert str(RationalPolynomial.zero()) == "0"
    assert repr(RationalPolynomial.zero()) == "Poly(0)"


def _repeated_product(base, n, one):
    out = one
    for _ in range(n):
        out = out * base
    return out


def _ring_samples():
    rng = random.Random(80803)
    t = RationalPolynomial.variable()
    x, y = CurvePolynomial.coordinate("x"), CurvePolynomial.coordinate("y")
    zeta_t = CurvePolynomial({(0, 0, 1): ZETA})
    return [
        (random_element(rng), ONE),
        (ONE + ZETA, ONE),
        (ZERO, ONE),
        (Fraction(1, 3) * t ** 2 - 2 * t + Fraction(5, 7),
         RationalPolynomial.constant(1)),
        (RationalPolynomial.constant(-2), RationalPolynomial.constant(1)),
        (x * y + zeta_t * Fraction(1, 2) - 3, CurvePolynomial.constant(1)),
        (CurvePolynomial.constant(ZETA), CurvePolynomial.constant(1)),
    ]


@pytest.mark.parametrize("n", range(7))
def test_power_is_the_repeated_product_in_all_three_rings(n):
    for base, one in _ring_samples():
        expected = _repeated_product(base, n, one)
        assert power(base, n, one) == expected
        assert base ** n == expected


def test_each_ring_keeps_its_rule_for_negative_powers():
    x = ONE + ZETA
    assert x ** -3 == _repeated_product(x.invert(), 3, ONE)
    with pytest.raises(TypeError):
        RationalPolynomial.variable() ** -1
    with pytest.raises(ValueError):
        CurvePolynomial.coordinate("x") ** -1
