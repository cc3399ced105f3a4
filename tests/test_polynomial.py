"""Univariate rational polynomials, places, valuations."""

import random
import time
from fractions import Fraction

import pytest

from k3auto import polynomial
from k3auto.polynomial import (Place, RationalPolynomial, gcd,
                               multiplicity_profile, rational_roots,
                               squarefree_decomposition, split_by_valuation,
                               valuation_at, weierstrass_discriminant)
from k3auto.weierstrass import WeierstrassFibration, fiber_inventory

from fixtures import WIDE_LAYERS

T = RationalPolynomial.variable()


def random_poly(rng, max_degree=6, bound=6):
    coeffs = {e: Fraction(rng.randint(-bound, bound))
              for e in range(rng.randint(0, max_degree) + 1)}
    p = RationalPolynomial(coeffs)
    return p if not p.is_zero() else RationalPolynomial({0: Fraction(1)})


def test_arithmetic_basics():
    p = (T - 1) * (T + 2)
    assert p == T ** 2 + T - 2
    assert p.evaluate(1) == 0 and p.evaluate(-2) == 0
    assert p.coeffs == {0: -2, 1: 1, 2: 1}
    assert p.degree() == 2
    assert RationalPolynomial.from_pairs([("1/2", 3), (1, 0)]) \
        == Fraction(1, 2) * T ** 3 + 1
    # a constant equals its value, so it hashes as its value too
    for value in (0, 3, -7, Fraction(1, 2), Fraction(-5, 3)):
        c = RationalPolynomial.constant(value)
        assert c == value and hash(c) == hash(value)
        assert c in {value} and value in {c} and {value: 1}[c] == 1
    assert RationalPolynomial.zero() in {0} and T not in {0, 1}
    one = RationalPolynomial.constant(1)
    assert one != True and one not in {True}
    assert hash(p) == hash(T ** 2 + T - 2)


def test_degree_of_zero_is_minus_infinity():
    zero = RationalPolynomial.zero()
    assert zero.is_zero()
    assert zero.degree() == float("-inf")


def test_zero_operands_of_product():
    zero = RationalPolynomial.zero()
    p = Fraction(3, 4) * T ** 2 - 5
    for product in (zero * p, p * zero, zero * zero, p * 0, 0 * p):
        assert product.is_zero()
    assert zero.evaluate(Fraction(2, 3)) == 0


def test_products_and_evaluation_with_fractions():
    p = Fraction(2, 3) * T ** 2 - Fraction(1, 6)
    q = Fraction(-9, 4) * T ** 5 + T + 3
    product = p * q
    assert product == q * p
    for t in (Fraction(0), Fraction(-5, 7), Fraction(10 ** 20 + 1, 3), 2):
        assert product.evaluate(t) == p.evaluate(t) * q.evaluate(t)
    assert p.evaluate(Fraction(1, 2)) == 0
    assert product.coeffs[7] == Fraction(-3, 2)
    assert product.coeffs[0] == Fraction(-1, 2)
    assert RationalPolynomial.constant(Fraction(5, 3)).evaluate(7) \
        == Fraction(5, 3)


def test_booleans_are_refused():
    with pytest.raises(ValueError):
        RationalPolynomial({True: 2})
    with pytest.raises(TypeError):
        RationalPolynomial({1: True})
    with pytest.raises(ValueError, match="exponent True"):
        RationalPolynomial.from_pairs([[1, True]])
    with pytest.raises(ValueError, match="coefficient False"):
        RationalPolynomial.from_pairs([[False, 2]])


def test_an_int_coefficient_is_bounded_as_a_string_is():
    widest = 10 ** polynomial.MAX_DIGITS - 1
    for sign in (1, -1):
        assert RationalPolynomial.from_pairs([[sign * widest, 2]]) \
            == RationalPolynomial({2: sign * widest})
        with pytest.raises(ValueError, match="coefficient has more than the "
                           "4300 digits a rational may have"):
            RationalPolynomial.from_pairs([["1", 0], [sign * (widest + 1), 2]])


def test_rational_roots_and_squarefree():
    p = (2 * T - 1) ** 2 * (T + 3) * (T ** 2 + 1)
    roots = rational_roots(p)
    assert sorted(roots) == [Fraction(-3), Fraction(1, 2)]
    recon = RationalPolynomial({0: Fraction(1)})
    for factor, mult in squarefree_decomposition(p):
        recon = recon * factor ** mult
    assert recon == p.monic()


# wall-time bound for the inputs that trial division could not finish;
# the modular root search takes well under a tenth of it
ROOT_SEARCH_SECONDS = 2.0
PRIME_20_DIGITS = (10000000000000000051, 30000000000000000041)


def test_rational_roots_of_twenty_digit_prime_ends():
    lead, tail = PRIME_20_DIGITS
    p = (lead * T + tail) * (T + 1) * (T ** 2 + T + 1)
    assert p.coeffs[4] == lead and p.coeffs[0] == tail
    start = time.perf_counter()
    roots = rational_roots(p)
    elapsed = time.perf_counter() - start
    assert roots == [Fraction(-tail, lead), Fraction(-1)]
    assert elapsed < ROOT_SEARCH_SECONDS, elapsed


def test_rational_roots_of_repeated_and_fractional_factors():
    p = T ** 3 * (3 * T - 7) ** 3 * (T + Fraction(5, 2)) ** 2 * (T ** 2 - 2)
    assert rational_roots(p) == [Fraction(-5, 2), Fraction(0), Fraction(7, 3)]
    assert rational_roots(Fraction(1, 3) * T ** 2 - 3) == [-3, 3]
    assert rational_roots(T ** 2 + 1) == []
    assert rational_roots(T ** 4) == [0]
    assert rational_roots(RationalPolynomial.constant(5)) == []
    with pytest.raises(ValueError):
        rational_roots(RationalPolynomial.zero())


def test_rational_roots_skip_primes_with_a_double_root():
    # 30031 = 2*3*5*7*11*13 + 1 meets 1 modulo every prime up to 13, where
    # Q(s) = 4 p(s/2) then has a double root that Hensel lifting cannot
    # use; the first prime with simple roots only is 17
    p = (T - 1) * (T - 30031) * (2 * T + 3)
    assert rational_roots(p) == [Fraction(-3, 2), Fraction(1),
                                 Fraction(30031)]
    # (t + 1)^2 modulo 2, and no root at all modulo 3, which proves none
    assert rational_roots(T ** 2 + 1) == []


# 2*3*5*...*47: 1 and 1 + PRIMORIAL_47 meet modulo every prime up to 47
PRIMORIAL_47 = 614889782588491410


def test_rational_roots_when_small_primes_all_see_a_double_root():
    """The prime search stays short: it passes over a prime only when Q has
    a double root modulo it, and then the prime divides disc(Q) != 0, so
    it passes over at most log2 |disc(Q)| primes, a number polynomial in
    the bit size of p.  Here disc(Q) = PRIMORIAL_47^2 and 53 serves."""
    p = (T - 1) * (T - 1 - PRIMORIAL_47)
    # the quadratic is solved in closed form; times t^2 + 1 it takes the
    # prime search
    for q in (p, p * (T ** 2 + 1)):
        start = time.perf_counter()
        roots = rational_roots(q)
        elapsed = time.perf_counter() - start
        assert roots == [Fraction(1), Fraction(1 + PRIMORIAL_47)]
        assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("layer, roots, cofactor", WIDE_LAYERS)
def test_rational_roots_of_wide_layers(layer, roots, cofactor):
    """Layers whose leads and root denominators are divisible by 2, 3, 5
    and 7: the roots are found modulo a larger prime, exactly, and what is
    left is the one irrational place of the cofactor."""
    assert rational_roots(layer) == roots
    assert rational_roots(-layer) == roots
    assert multiplicity_profile(layer) == [
        (Place.finite_rational(r), 1) for r in roots] + [
        (Place("finite-irreducible", poly=cofactor.monic()), 1)]
    # a prime that divides the lead would lose the roots it divides the
    # denominator of
    lead = layer.coeffs[layer.degree()]
    assert all(lead % p == 0 for p in (2, 3, 5, 7))


def test_irrational_places_sort_as_their_coefficient_views():
    """The integer key of _sort_irrational orders seeded monic residuals
    exactly as the Fraction key [(e, c_e)] then multiplicity does, with
    equal leading pairs, prefixes, repeated polynomials and different
    lengths among them."""
    rng = random.Random(80809)
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
              Fraction(1, 3), Fraction(-2, 3), Fraction(2)]
    pool = []
    for _ in range(40):
        body = {e: rng.choice(values) for e in range(rng.randint(1, 5))}
        body[len(body)] = Fraction(1)
        pool.append(RationalPolynomial(body))
    pool += [T ** 2 + 1, T ** 4 + T ** 2 + 1, T ** 2 + T + 1]
    for _ in range(300):
        entries = [(Place("finite-irreducible", poly=rng.choice(pool)),
                    rng.randint(1, 3)) for _ in range(rng.randint(2, 8))]
        want = sorted(entries, key=lambda entry: (
            list(entry[0].poly.coeffs.items()), entry[1]))
        polynomial._sort_irrational(entries)
        assert entries == want


def test_primitive_part_of_one_term_lists():
    """The leading term is positive for one-term lists too."""
    assert polynomial._primitive_part([-5]) == [1]
    assert polynomial._primitive_part([5]) == [1]
    assert polynomial._primitive_part([-5, 0]) == [1]
    assert polynomial._primitive_part([4, -6]) == [-2, 3]
    assert polynomial._primitive_part([0]) == []
    # the argument is never changed; a primitive list with a positive
    # lead comes back as itself
    for f in ([4, -6], [3, -5], [-3, 5], [2, 0, 0], [7]):
        before = list(f)
        polynomial._primitive_part(f)
        assert f == before
    primitive = [3, -5, 2]
    assert polynomial._primitive_part(primitive) is primitive


def _int_product(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _random_ints(rng, length, bound):
    # a dense int list of the given length with a nonzero top term
    out = [rng.randint(-bound, bound) for _ in range(length)]
    out[-1] = out[-1] or 1
    return out


def test_exact_division_by_monic_and_non_monic_divisors():
    rng = random.Random(80806)
    kinds = set()
    for _ in range(400):
        bound = rng.choice([9, 10 ** 20])
        g = _random_ints(rng, rng.randint(1, 7), bound)
        g[-1] = 1 if rng.random() < 0.5 else abs(g[-1])
        g = polynomial._primitive_part(g)
        kinds.add((g[-1] == 1, len(g) > 1, bound > 9))
        q = _random_ints(rng, rng.randint(1, 7), rng.choice([9, 10 ** 20]))
        f = _int_product(q, g)
        before = (list(f), list(g))
        assert polynomial._int_quotient(f, g) == q
        assert (f, g) == before
        if len(g) > 1:
            # a nonzero remainder of lower degree than g
            r = _random_ints(rng, rng.randint(1, len(g) - 1), bound)
            for i, c in enumerate(r):
                f[i] += c
            assert polynomial._int_quotient(f, g) is None
    # monic and not, constant and not, narrow and wide
    assert len(kinds) == 8 - 2, kinds  # a constant primitive g is [1]
    # linear divisors (t itself, monic, not, with 20-digit ends) and
    # sparse ones such as t^2 - d, the shape of an irrational place
    p, r = PRIME_20_DIGITS
    divisors = ([0, 1], [-3, 1], [5, 7], [-p, r], [r, 1], [-p, 0, 1],
                [p, 0, r], [7, 0, 0, 0, 1], [-p, 0, 0, r])
    for g in divisors:
        for q in ([1], [2, -1], [0, 0, 3], [p, 0, -r, 3], [-r, 1, 0, 0, p]):
            f = _int_product(q, g)
            before = (list(f), list(g))
            assert polynomial._int_quotient(f, g) == q
            # a remainder of 1 in one coefficient below g's degree; for a
            # linear g that is the constant term alone
            for low in range(len(g) - 1):
                f[low] += 1
                assert polynomial._int_quotient(f, g) is None
                f[low] -= 1
            assert (f, g) == before


# layers of degree at most 2 with the rational roots they have, built up
# front
LOW_DEGREE_LAYERS = [
    # two rational roots, monic
    ((T - 2) * (T + 5), [Fraction(-5), Fraction(2)]),
    # non-monic, with a perfect-square discriminant 289
    ((3 * T - 1) * (2 * T + 5), [Fraction(-5, 2), Fraction(1, 3)]),
    # negative discriminant
    (3 * T ** 2 + T + 1, []),
    # positive discriminant 37 that is no square
    (3 * T ** 2 - 7 * T + 1, []),
    # a zero root beside a quadratic, with and without rational roots
    (T * (T ** 2 - 3), [Fraction(0)]),
    (T * (4 * T - 3) * (T + 6), [Fraction(-6), Fraction(0), Fraction(3, 4)]),
    # linear layers
    (7 * T + 3, [Fraction(-3, 7)]),
    (Fraction(1, 2) * T, [Fraction(0)]),
    # wide coefficients: 20-digit primes, and t^2 minus their product, a
    # 40-digit non-square
    ((PRIME_20_DIGITS[0] * T - PRIME_20_DIGITS[1])
     * (PRIME_20_DIGITS[1] * T + 7),
     [Fraction(-7, PRIME_20_DIGITS[1]),
      Fraction(PRIME_20_DIGITS[1], PRIME_20_DIGITS[0])]),
    (T ** 2 - PRIME_20_DIGITS[0] * PRIME_20_DIGITS[1], []),
    (PRIME_20_DIGITS[0] * T + PRIME_20_DIGITS[1],
     [Fraction(-PRIME_20_DIGITS[1], PRIME_20_DIGITS[0])]),
]


@pytest.mark.parametrize("layer, roots", LOW_DEGREE_LAYERS)
def test_rational_roots_of_low_degree_layers(layer, roots):
    assert rational_roots(layer) == roots
    # the layer is simple; with the rational roots taken out, what is
    # left is one irrational place, or nothing
    _, residual = polynomial._split_rational_roots(layer)
    linear = RationalPolynomial.constant(1)
    for root in roots:
        linear *= T - root
    assert residual * linear == layer.monic()
    irrational = ([(Place("finite-irreducible", poly=residual), 1)]
                  if residual.degree() > 0 else [])
    expected = [(Place.finite_rational(r), 1) for r in roots] + irrational
    assert multiplicity_profile(layer) == expected
    # as a layer of multiplicity 2, beside a simple rational root
    extra = max(roots, default=0) + 1
    squared = multiplicity_profile(layer ** 2 * (T - extra))
    assert squared == sorted(
        [(Place.finite_rational(r), 2) for r in roots]
        + [(Place.finite_rational(extra), 1)],
        key=lambda entry: entry[0].t0) + [(place, 2)
                                           for place, _ in irrational]


def test_gcd_normalization():
    p = (2 * T - 1) ** 2 * (T + 3)
    q = Fraction(3, 4) * (2 * T - 1) * (T ** 2 + 1)
    assert gcd(p, q) == T - Fraction(1, 2)
    assert gcd(p, T ** 2 + 1) == RationalPolynomial.constant(1)
    assert gcd(RationalPolynomial.zero(), q) == q.monic()
    assert gcd(q, RationalPolynomial.zero()) == q.monic()
    assert gcd(RationalPolynomial.zero(),
               RationalPolynomial.zero()).is_zero()
    # p' = (2t - 1)(6t + 11)
    assert gcd(p, (2 * T - 1) * (6 * T + 11)) == T - Fraction(1, 2)


def test_multiplicity_profile_pinned():
    p = (T - 1) ** 3 * (T ** 2 + 1) ** 2 * (T + 5)
    profile = multiplicity_profile(p)
    as_strings = [(str(place), mult) for place, mult in profile]
    assert as_strings == [("t=-5", 1), ("t=1", 3), ("roots of t^2 + 1", 2)]
    assert sum(place.degree() * mult for place, mult in profile) \
        == p.degree()


def test_multiplicity_profile_degree_conservation():
    rng = random.Random(80803)
    for _ in range(120):
        p = random_poly(rng, max_degree=5)
        extra = random_poly(rng, max_degree=2)
        p = p * extra ** rng.randint(1, 3)
        if p.degree() <= 0:
            continue
        profile = multiplicity_profile(p)
        assert sum(place.degree() * mult for place, mult in profile) \
            == p.degree()
        # every reported rational place really is a root of that order
        for place, mult in profile:
            if place.kind == "finite-rational":
                assert valuation_at(p, place) == mult


def test_valuations():
    p = T ** 2 * (T - 2) ** 3
    assert valuation_at(p, Place.finite_rational(0)) == 2
    assert valuation_at(p, Place.finite_rational(2)) == 3
    assert valuation_at(p, Place.finite_rational(1)) == 0
    assert valuation_at(RationalPolynomial.zero(),
                        Place.finite_rational(0)) == float("inf")
    fractional = Fraction(5, 3) * (3 * T + 2) ** 4 * (T ** 2 - 3) ** 2 \
        * (T - 1)
    assert valuation_at(fractional,
                        Place.finite_rational(Fraction(-2, 3))) == 4
    assert valuation_at(fractional, Place.finite_rational(1)) == 1
    assert valuation_at(fractional, Place.finite_rational(-1)) == 0
    assert valuation_at(fractional,
                        Place("finite-irreducible", poly=T ** 2 - 3)) == 2
    assert valuation_at(fractional,
                        Place("finite-irreducible", poly=T ** 2 + 3)) == 0
    with pytest.raises(ValueError):
        valuation_at(p, Place.infinity())


def test_split_by_valuation():
    p = (T - 1) ** 2 * (T + 1) ** 3 * (T - 4)
    f = (T - 1) * (T + 1) * (T - 4) * (T - 7)
    parts = dict((v, part) for part, v in split_by_valuation(f, p))
    assert parts[0] == (T - 7).monic()
    assert parts[1] == (T - 4).monic()
    assert parts[2] == (T - 1).monic()
    assert parts[3] == (T + 1).monic()


def test_layer_gcds_only_where_a_division_fails(monkeypatch):
    """Yun's loop and split_by_valuation divide before each layer gcd:
    a layer whose polynomial divides the other needs no gcd."""
    calls = []
    cofactors = polynomial._gcd_cofactors
    monkeypatch.setattr(polynomial, "_gcd_cofactors",
                        lambda a, b: calls.append(1) or cofactors(a, b))
    p = (T - 2) ** 9 * (T ** 2 + 3) ** 2 * (T ** 3 - T - 1)
    assert squarefree_decomposition(p) == [
        (T ** 3 - T - 1, 1), (T ** 2 + 3, 2), (T - 2, 9)]
    # gcd(p, p') and the gcds of levels 1, 2 and 9; without the division
    # every one of the nine levels took a gcd
    assert len(calls) == 4
    calls.clear()
    assert split_by_valuation((T - 2) * (T ** 2 + 3), p) == [
        (T ** 2 + 3, 2), (T - 2, 9)]
    assert len(calls) == 2


# g has larger coefficients than both of its multiples, so the first value
# of xi, the least power of two >= 2 min(|p|, |q|) + 2, cannot carry it
# and GCDHEU needs a larger xi
def _misread(m):
    g = ((T + 1) * (T ** 2 + T + 1)) ** m
    return g, (g * (T ** 2 - T + 1) ** m, Fraction(-5, 3) * g * (T - 1) ** m)


def test_gcd_heuristic_retries_until_it_certifies(monkeypatch):
    """Each try reads one value gcd at xi = 2^k, and k grows by k // 4 + 2
    until both divisions certify: two tries for m = 4, three for m = 8."""
    tried = []
    digits = polynomial._balanced_digits
    monkeypatch.setattr(polynomial, "_balanced_digits",
                        lambda n, k: tried.append(k) or digits(n, k))
    for m, ks in ((4, [7, 10]), (8, [13, 18, 24])):
        g, pair = _misread(m)
        tried.clear()
        assert gcd(*pair) == g.monic()
        assert tried == ks, m


def test_gcd_heuristic_checks_both_divisions():
    # at xi = 2 * 1 + 2 = 4, t - 4 vanishes and the value gcd is 17 = a(4),
    # read back as t^2 + 1: it divides a but not b, so it is not the gcd
    assert gcd(T ** 2 + 1, T - 4) == RationalPolynomial.constant(1)


def test_gcd_heuristic_divides_by_no_constant_one(monkeypatch):
    # at xi = 4 the values are 17 and 62, coprime: the gcd is 1, which
    # divides both inputs, so no division runs
    divisions = []
    quotient = polynomial._int_quotient
    monkeypatch.setattr(polynomial, "_int_quotient",
                        lambda f, g: divisions.append(1) or quotient(f, g))
    p, q = T ** 2 + 1, T ** 3 - 2
    before = (list(p._num), list(q._num))
    assert gcd(p, q) == RationalPolynomial.constant(1)
    assert not divisions
    assert (p._num, q._num) == before
    # a constant operand is a unit: no GCDHEU, no division
    monkeypatch.setattr(polynomial, "_eval_at", None)
    assert gcd(p, RationalPolynomial.constant(Fraction(-3, 4))) == 1
    assert not divisions
    # Yun on a linear polynomial: gcd(f, f') has the constant f'
    assert squarefree_decomposition(3 * T - 1) == [(T - Fraction(1, 3), 1)]


def test_gcd_with_a_zero_operand_is_the_other(monkeypatch):
    # gcd(h, 0) is the primitive h, with cofactors 1 and 0: no GCDHEU
    monkeypatch.setattr(polynomial, "_eval_at", None)
    h = [-1, 0, 3]
    assert polynomial._gcd_cofactors(h, []) == (h, [1], [])
    assert polynomial._gcd_cofactors([], h) == (h, [], [1])


def test_place_basics():
    assert str(Place.infinity()) == "t=infinity"
    assert str(Place.finite_rational(Fraction(1, 2))) == "t=1/2"
    assert Place.finite_rational(3).degree() == 1
    quad = Place("finite-irreducible", poly=T ** 2 + 1)
    assert quad.degree() == 2
    assert Place.infinity().degree() == 1


def test_infinity_transform_matches_discriminant():
    # the chart at t = infinity: a~ = s^8 a(1/s), b~ = s^12 b(1/s), and its
    # discriminant is s^24 delta(1/s)
    rng = random.Random(80804)
    for _ in range(40):
        a = random_poly(rng, max_degree=8)
        b = random_poly(rng, max_degree=12)
        flipped = WeierstrassFibration(a, b).at_infinity()
        at, bt = flipped.a, flipped.b
        delta = weierstrass_discriminant(a, b)
        assert weierstrass_discriminant(at, bt) == RationalPolynomial(
            {24 - e: c for e, c in delta.coeffs.items()})
        # the reversal weights: coefficient j of a becomes 8 - j
        assert at.coeffs == {8 - e: c for e, c in a.coeffs.items()}
        assert bt.coeffs == {12 - e: c for e, c in b.coeffs.items()}
    with pytest.raises(ValueError):
        WeierstrassFibration(T ** 9, T)


def test_infinity_transform_valuation_pin():
    # a cubic-term discriminant of degree 23 leaves a simple zero at the
    # far pole
    flipped = WeierstrassFibration(RationalPolynomial.zero(),
                                   T ** 11 + 1).at_infinity()
    assert valuation_at(weierstrass_discriminant(flipped.a, flipped.b),
                        Place.finite_rational(0)) == 24 - 22


BIG = 3 * 10 ** 39 + 17  # 40 digits


@pytest.mark.parametrize("a, b", [
    (RationalPolynomial.zero(), RationalPolynomial.zero()),
    (RationalPolynomial.zero(), T ** 12 - 5 * T + 1),
    (-2 * T ** 8 + T, RationalPolynomial.zero()),
    (RationalPolynomial.constant(Fraction(-2, 3)),
     RationalPolynomial.constant(Fraction(5, 7))),
    (Fraction(-1, 6) * T ** 4 + Fraction(2, 9) * T - 5,
     Fraction(3, 4) * T ** 6 - Fraction(7, 10) * T ** 5 + Fraction(1, 3)),
    (-BIG * T ** 8 + (BIG - 1) * T ** 3 - Fraction(1, BIG),
     Fraction(-BIG, BIG + 2) * T ** 12 + BIG * T ** 7 - BIG ** 2),
    # 4 (-3u^2)^3 + 27 (2u^3)^2 = 0, with a fractional u
    (-3 * (T ** 2 - Fraction(1, 2)) ** 2, 2 * (T ** 2 - Fraction(1, 2)) ** 3),
])
def test_discriminant_matches_the_products(a, b):
    assert weierstrass_discriminant(a, b) == a * a * a * 4 + b * b * 27


def test_discriminant_matches_the_products_on_random_fractions():
    rng = random.Random(80805)
    for _ in range(200):
        a, b = (RationalPolynomial({
            e: Fraction(rng.randint(-10 ** 12, 10 ** 12),
                        rng.randint(1, 10 ** 4))
            for e in range(rng.randint(0, top))}) for top in (9, 13))
        assert weierstrass_discriminant(a, b) == a * a * a * 4 + b * b * 27


# -- work against the size of the input ----------------------------------
#
# Fiber typing must take time polynomial in the input's bit size.  Clocks
# are too noisy to show that, so the ladder counts work instead: it types
# each surface with coefficients of 10, 40, 160 and 640 digits, counts the
# kernel's calls and records the widest integer each returns.

def _draw(rng, digits):
    return rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1),
                                               10 ** digits)


def _generic_surface(digits):
    # random a and b: 24 I_1 fibers over one irrational place
    rng = random.Random(1)
    return tuple(RationalPolynomial({e: _draw(rng, digits)
                                     for e in range(top)})
                 for top in (9, 13))


def _cycle_surface(digits):
    # a = -3h^2, b = 2h^3 + q gives delta = 27 q (4h^3 + q): I_4 at the
    # roots of t^2 - d, I_2 at those of t^2 - e, and 12 I_1
    rng = random.Random(2)
    d, e = (-_draw(rng, max(digits // 12, 1)) ** 2 - 1 for _ in range(2))
    h = RationalPolynomial({i: _draw(rng, max(digits // 3, 1))
                            for i in range(5)})
    return -3 * h ** 2, 2 * h ** 3 + (T ** 2 - d) ** 4 * (T ** 2 - e) ** 2


def _layered_surface(digits):
    # b = 0 and a = c (t - r)(t - s)^2 (t^2 - d)(t - u)^3: delta = 4a^3
    # has layers of multiplicity 3, 6 and 9 (III, I_0* and III*)
    rng = random.Random(3)
    c, r, s, u = (_draw(rng, max(digits // 8, 1)) for _ in range(4))
    d = -_draw(rng, max(digits // 16, 1)) ** 2 - 1
    a = c * (T - r) * (T - s) ** 2 * (T ** 2 - d) * (T - u) ** 3
    return a, RationalPolynomial.zero()


def _bits(value) -> int:
    if value is None:
        return 0
    if isinstance(value, RationalPolynomial):
        return _bits((value._num, value._den))
    if isinstance(value, Fraction):
        return _bits((value.numerator, value.denominator))
    if isinstance(value, (list, tuple)):
        return max(map(_bits, value), default=0)
    return abs(value).bit_length()


# _balanced_digits runs once per GCDHEU try and once for the discriminant;
# _newton_step is one Hensel lift step of one root
COUNTED = ("_gcd_cofactors", "_int_quotient",
           "_split_rational_roots", "_balanced_digits", "_newton_step")


def _typing_work(monkeypatch, surface, digits):
    """(calls, widest returned bits, input bits, inventory) of one typing."""
    calls, widest = {}, {}
    for name in COUNTED:
        def counted(*args, name=name, inner=getattr(polynomial, name)):
            out = inner(*args)
            calls[name] = calls.get(name, 0) + 1
            widest[name] = max(widest.get(name, 0), _bits(out))
            return out
        monkeypatch.setattr(polynomial, name, counted)
    a, b = surface(digits)
    inventory = fiber_inventory(WeierstrassFibration(a, b))
    return calls, widest, _bits((a._num, b._num)), inventory


# the widest integer a call returns, in bits, is at most a multiple of the
# input's bits plus a degree term: delta = 4a^3 + 27b^2 has three times
# the input's bits and its factors exceed that by at most Mignotte's
# 2^24 and a few bits more; a lift modulus stays below the square of
# twice a factor's bound, hence six times
WIDEST_MULTIPLE = {"_newton_step": 6}
DEGREE_BITS = 96


@pytest.mark.parametrize("surface, inventory, most", [
    (_generic_surface, {"I_1": 24},
     {"_gcd_cofactors": 2, "_int_quotient": 3,
      "_split_rational_roots": 1, "_balanced_digits": 2}),
    (_cycle_surface, {"I_1": 12, "I_2": 2, "I_4": 2},
     {"_gcd_cofactors": 6, "_int_quotient": 15,
      "_split_rational_roots": 3, "_balanced_digits": 6}),
    # gcd(delta, delta') and three layer gcds, each certified at its first
    # xi, and one gcd with the unit 1
    (_layered_surface, {"III": 3, "I_0*": 1, "III*": 1},
     {"_gcd_cofactors": 5, "_int_quotient": 31,
      "_split_rational_roots": 3, "_balanced_digits": 5}),
], ids=["generic", "irrational-cycles", "layers"])
def test_typing_work_is_polynomial_in_the_digits(monkeypatch, surface,
                                                 inventory, most):
    """The calls one typing makes do not grow with the digits, except the
    lift steps, which grow like the log of the bound; the counts are
    pinned from the first run, the divisions with a margin of two for the
    candidate roots a lift may bring."""
    for digits in (10, 40, 160, 640):
        with monkeypatch.context() as patch:
            calls, widest, in_bits, got = _typing_work(patch, surface,
                                                       digits)
        assert got == inventory
        lift_steps = calls.pop("_newton_step", 0)
        assert lift_steps <= 3 * in_bits.bit_length(), (digits, lift_steps)
        assert all(calls.get(name, 0) <= top for name, top in most.items())
        assert set(calls) <= set(most), calls
        for name, bits in widest.items():
            assert bits <= (WIDEST_MULTIPLE.get(name, 3) * in_bits
                            + DEGREE_BITS), (digits, name, bits, in_bits)
