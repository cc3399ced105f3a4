"""Seeded short-form K3 data with chosen singular fibers.

Each design puts chosen Kodaira types on rational places t = r and on
irrational places (roots of an irreducible quadratic), by one of two
constructions:

* multiplicative: a = -3 h^2 s^2, b = (2 h^3 + g) s^3, so that
  delta = 27 s^6 g (4 h^3 + g).  Roots of g give I_n; a simple root of s
  twists I_n into I_n*; a simple root of h with v(g) = 1 or 2 gives II or
  IV, and IV* or II* when s vanishes there too.
* additive: a = prod P^alpha * a0, b = prod P^beta * b0 with (alpha, beta)
  = (1, 2) for III, (3, 5) for III*, (3, 4) for IV*, (4, 5) for II*,
  (2, 3) for I_0* and (1, 1) for II.

The cofactors are random; the roots of 4 h^3 + g, or of the cofactor part
of delta, give I_1 fibers.  The work of k3auto's rational root test is
fixed per class through the end coefficients of delta's simple layer, the
integers it trial-divides: a narrow input has at most NARROW_PAIRS
divisor pairs there; a wide one (multiplicative designs only) gets an h
with end coefficients near 4000, chosen so that both are 12-digit primes.
A draw is kept only if every chosen place has its chosen type and every
other finite singular fiber is I_1 (checked with the oracle), so a seed
fixes the degeneration mix exactly.

Irrational places of different types never share a discriminant
multiplicity: k3auto files all irrational roots of one squarefree layer
under one place (the counterexample below, kept in every round).
"""

import sympy

from oracle import T, fiber_places, pairs_from_poly


def counterexample():
    """a = -3u^2, b = 2u^3 + w with u = t^2 - 2, w = (t^2 - 2)(t^2 - 3)^2 (t^6 + 5).

    II over t^2 = 2 and I_2 over t^2 = 3 share the multiplicity-2 layer of
    the discriminant.
    """
    u = _poly(T ** 2 - 2)
    w = u * _poly(T ** 2 - 3) ** 2 * _poly(T ** 6 + 5)
    return pairs_from_poly(-3 * u ** 2), pairs_from_poly(2 * u ** 3 + w)


_IRRATIONAL_D = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15)

# end coefficients of the simple layer of a wide discriminant
WIDE_LOW, WIDE_HIGH = 260 * 10 ** 9, 320 * 10 ** 9
# divisor pairs of the simple layer's end coefficients in a narrow input
NARROW_PAIRS = 16


def _poly(expr):
    return sympy.Poly(expr, T, domain="QQ")


# A wide draw needs odd end coefficients in g (4 c^3 + g must be prime):
# odd integer places only.

def _rational_place(rng, wide=False):
    r = sympy.Rational(rng.choice((-1, 1)) * rng.randrange(1, 6, 1 + wide),
                       1 if wide else rng.choice((1, 1, 2, 3)))
    return _poly(T - r)


def _irrational_place(rng, wide=False):
    d = rng.choice([d for d in _IRRATIONAL_D if d % 2 or not wide])
    return _poly(T ** 2 - rng.choice((-1, 1)) * d)


def _cofactor(rng, degree, wide=False):
    """Random integer polynomial; a wide one has unit end coefficients so
    that the ends of the discriminant's simple layer come from h alone."""
    coeffs = [rng.randint(-6, 6) for _ in range(degree + 1)]
    coeffs[0] = rng.choice((-1, 1)) * (1 if wide else rng.randint(1, 6))
    coeffs[-1] = rng.choice((-1, 1)) if wide else (coeffs[-1] or 1)
    return _poly(sum(c * T ** (degree - i) for i, c in enumerate(coeffs)))


def _wide_end(rng, other):
    """c with 4 c^3 + other a prime in [WIDE_LOW, WIDE_HIGH)."""
    while True:
        c = rng.choice((-1, 1)) * rng.randint(4021, 4309)
        value = abs(4 * c ** 3 + other)
        if WIDE_LOW <= value < WIDE_HIGH and sympy.isprime(value):
            return c


def _h_cofactor(rng, degree, g, wide):
    """h for the multiplicative construction.  A wide h makes both end
    coefficients of 4 h^3 + g 12-digit primes."""
    h = _cofactor(rng, degree)
    if not wide:
        return h
    lead = _wide_end(rng, g.LC() if g.degree() == 3 * degree else 0)
    const = _wide_end(rng, g.eval(0))
    return h + (lead - h.LC()) * _poly(T ** degree) + (const - h.eval(0))


def _multiplicative(h, g, s=None):
    s = s if s is not None else _poly(1)
    return -3 * h ** 2 * s ** 2, (2 * h ** 3 + g) * s ** 3


# Each design takes (rng, wide) and returns (a, b, {place: type}).

def _design_cycles(rng, wide):
    """I_n on a rational place, I_k on an irrational one."""
    p, q = _rational_place(rng, wide), _irrational_place(rng, wide)
    n, k = rng.randint(2, 4), rng.randint(2, 3)
    g = p ** n * q ** k * _cofactor(rng, 12 - n - 2 * k, wide)
    h = _h_cofactor(rng, 4, g, wide)
    a, b = _multiplicative(h, g)
    return a, b, {p: "I_%d" % n, q: "I_%d" % k}


def _design_twisted_rational(rng, wide):
    """I_n* on a rational place, I_k on an irrational one."""
    p, q = _rational_place(rng, wide), _irrational_place(rng, wide)
    n, k = rng.randint(1, 3), rng.randint(2, 3)
    g = p ** n * q ** k * _cofactor(rng, 9 - n - 2 * k, wide)
    h = _h_cofactor(rng, 3, g, wide)
    a, b = _multiplicative(h, g, p)
    return a, b, {p: "I_%d*" % n, q: "I_%d" % k}


def _design_twisted_irrational(rng, wide):
    """I_n* on an irrational place, I_m on a rational one."""
    p, q = _rational_place(rng, wide), _irrational_place(rng, wide)
    n = rng.randint(1, 2)
    m = rng.randint(2, 6 - 2 * n)
    g = q ** n * p ** m * _cofactor(rng, 6 - 2 * n - m, wide)
    h = _h_cofactor(rng, 2, g, wide)
    a, b = _multiplicative(h, g, q)
    return a, b, {q: "I_%d*" % n, p: "I_%d" % m}


def _design_cusps(rng, wide):
    """II on a rational place, IV on an irrational one."""
    p, q = _rational_place(rng), _irrational_place(rng)
    h = p * q * _cofactor(rng, 1, wide)
    g = p * q ** 2 * _cofactor(rng, 7, wide)
    a, b = _multiplicative(h, g)
    return a, b, {p: "II", q: "IV"}


def _design_star_irrational(rng, wide):
    """IV* on an irrational place, I_n on a rational one."""
    p, q = _rational_place(rng), _irrational_place(rng)
    n = rng.randint(2, 3)
    g = q * p ** n * _cofactor(rng, 4 - n, wide)
    a, b = _multiplicative(q, g, q)
    return a, b, {q: "IV*", p: "I_%d" % n}


def _design_two_star_rational(rng, wide):
    """II* on a rational place, I_k on an irrational one."""
    p, q = _rational_place(rng), _irrational_place(rng)
    k = rng.randint(2, 3)
    h = p * _cofactor(rng, 2, wide)
    g = p ** 2 * q ** k * _cofactor(rng, 7 - 2 * k, wide)
    a, b = _multiplicative(h, g, p)
    return a, b, {p: "II*", q: "I_%d" % k}


def _additive(rng, wide, spec, a_extra, b_extra):
    a, b = _cofactor(rng, a_extra, wide), _cofactor(rng, b_extra, wide)
    for place, (alpha, beta, _) in spec.items():
        a, b = a * place ** alpha, b * place ** beta
    return a, b, {place: kind for place, (_, _, kind) in spec.items()}


def _design_three_rational(rng, wide):
    """III on a rational place, III* on an irrational one."""
    p, q = _rational_place(rng), _irrational_place(rng)
    return _additive(rng, wide, {p: (1, 2, "III"), q: (3, 5, "III*")}, 1, 0)


def _design_three_irrational(rng, wide):
    """III* on a rational place, III on an irrational one."""
    p, q = _rational_place(rng), _irrational_place(rng)
    return _additive(rng, wide, {p: (3, 5, "III*"), q: (1, 2, "III")}, 3, 3)


def _design_stars(rng, wide):
    """IV* on a rational place, II on an irrational one."""
    p, q = _rational_place(rng), _irrational_place(rng)
    return _additive(rng, wide, {p: (3, 4, "IV*"), q: (1, 1, "II")}, 3, 6)


def _design_far_stars(rng, wide):
    """II* on a rational place, I_0* on an irrational one."""
    p, q = _rational_place(rng), _irrational_place(rng)
    return _additive(rng, wide, {p: (4, 5, "II*"), q: (2, 3, "I_0*")}, 0, 1)


WIDE_DESIGNS = (_design_cycles, _design_twisted_rational,
                _design_twisted_irrational)

DESIGNS = (_design_cycles, _design_twisted_rational,
           _design_twisted_irrational, _design_cusps, _design_star_irrational,
           _design_two_star_rational, _design_three_rational,
           _design_three_irrational, _design_stars, _design_far_stars)


def _as_designed(a_pairs, b_pairs, chosen):
    """True iff the chosen places carry their types and every other finite
    singular fiber is I_1."""
    named = {str(p.monic().as_expr()): kind for p, kind in chosen.items()}
    try:
        places = fiber_places(a_pairs, b_pairs)
    except ValueError:
        return False
    seen = set()
    for place, _, _, kind in places:
        if place in named:
            if named[place] != kind:
                return False
            seen.add(place)
        elif place != "inf" and kind != "I_1":
            return False
    return seen == set(named)


def _simple_layer_ends(a, b):
    """End coefficients of the discriminant's multiplicity-1 layer, as a
    primitive integer polynomial: the integers rational_roots divides."""
    for factor, mult in (4 * a ** 3 + 27 * b ** 2).sqf_list()[1]:
        if mult == 1:
            ends = factor.clear_denoms()[1].primitive()[1].all_coeffs()
            return abs(ends[0]), abs(ends[-1])
    return None


def _rational_root_work(a, b, wide):
    """True iff the simple layer has the work the class asks for: two
    12-digit prime ends if wide, at most NARROW_PAIRS divisor pairs if
    narrow."""
    ends = _simple_layer_ends(a, b)
    if ends is None:
        return False
    if wide:
        return all(WIDE_LOW <= c < WIDE_HIGH and sympy.isprime(c)
                   for c in ends)
    return ends[1] != 0 and \
        sympy.divisor_count(ends[0]) * sympy.divisor_count(ends[1]) \
        <= NARROW_PAIRS


def draw(design, rng, wide=False):
    """One input of the design: (a pairs, b pairs)."""
    while True:
        a, b, chosen = design(rng, wide)
        if a.degree() > 8 or b.degree() > 12:
            continue
        if not _rational_root_work(a, b, wide):
            continue
        a_pairs, b_pairs = pairs_from_poly(a), pairs_from_poly(b)
        if _as_designed(a_pairs, b_pairs, chosen):
            return a_pairs, b_pairs
