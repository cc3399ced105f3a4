"""Exact univariate polynomials over Q and valuation bookkeeping.

Polynomials are sparse maps {exponent: Fraction} with no zero coefficients
stored.  Only the operations the surface analysis actually needs live here:
ring arithmetic, exact division, gcd, Yun squarefree decomposition,
rational roots, and the place/valuation utilities at finite places.  Full
irreducible factorization is deliberately avoided; squarefree grouping plus
rational-root extraction is enough everywhere.

Products, divisions, valuations, evaluation, gcd and rational roots all
work on dense integer coefficient lists: p is read once as f/d with f a
list of ints and d > 0, the work is done in int arithmetic, and one
Fraction is built per output coefficient.  The cost is polynomial in the
bit size of the input: division by a primitive divisor stays in the
integers whenever it is exact (Gauss's lemma), gcd runs a primitive
pseudo-remainder sequence, and rational_roots Hensel-lifts the roots of a
monic transform modulo a small prime instead of testing divisor pairs of
the end coefficients.

A Place is where a fiber lives: a rational point t0, a monic squarefree
factor with no rational roots (a Galois orbit class of irrational points),
or the point at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .cyclotomic import Scalar, _as_fraction

NEG_INF = float("-inf")


class RationalPolynomial:
    """Sparse polynomial in one variable with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Dict[int, Scalar]] = None):
        clean: Dict[int, Fraction] = {}
        if coeffs:
            for exp, c in coeffs.items():
                if not _is_int(exp) or exp < 0:
                    raise ValueError("exponents must be non-negative integers")
                f = _as_fraction(c)
                if f != 0:
                    clean[exp] = f
        self.coeffs: Dict[int, Fraction] = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence]) -> "RationalPolynomial":
        """Build from [coefficient, exponent] pairs (coefficients may repeat).

        A coefficient is an int, a Fraction or a rational string such as
        "-3/4"; any other input raises ValueError.
        """
        if not isinstance(pairs, (list, tuple)) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):
            raise ValueError("expected [coefficient, exponent] pairs, not %r"
                             % (pairs,))
        acc: Dict[int, Fraction] = {}
        for coeff, exp in pairs:
            try:
                c = Fraction(coeff) if isinstance(coeff, str) \
                    else _as_fraction(coeff)
            except (TypeError, ValueError, ZeroDivisionError):
                raise ValueError("coefficient %r is not a rational number"
                                 % (coeff,)) from None
            if not _is_int(exp) or exp < 0:
                raise ValueError("exponent %r is not a non-negative integer"
                                 % (exp,))
            acc[exp] = acc.get(exp, Fraction(0)) + c
        return cls(acc)

    @classmethod
    def constant(cls, value: Scalar) -> "RationalPolynomial":
        return cls({0: _as_fraction(value)})

    @classmethod
    def monomial(cls, coeff: Scalar, exp: int) -> "RationalPolynomial":
        return cls({exp: _as_fraction(coeff)})

    @classmethod
    def variable(cls) -> "RationalPolynomial":
        return cls({1: Fraction(1)})

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls()

    @classmethod
    def _from_ints(cls, f: Sequence, d: int = 1) -> "RationalPolynomial":
        """f/d for a dense list f of ints or Fractions, constant term first."""
        out = cls.__new__(cls)
        out.coeffs = {e: Fraction(c, d) for e, c in enumerate(f) if c}
        return out

    # -- serialization ----------------------------------------------------

    def to_pairs(self) -> List[List[object]]:
        """[[coefficient-string, exponent], ...] with "p/q" or "p" coefficients."""
        return [[str(self.coeffs[e]), e] for e in sorted(self.coeffs)]

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        """Max stored exponent; -inf for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else NEG_INF

    def coefficient(self, exp: int) -> Fraction:
        return self.coeffs.get(exp, Fraction(0))

    def leading_coefficient(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[max(self.coeffs)]

    def evaluate(self, t: Scalar) -> Fraction:
        """p(t) by Horner's rule in integers.

        With p = f/d of degree n and t = u/v, p(t) is the sum of
        f_i u^i v^(n-i) over d v^n: one Fraction is built, at the end.
        """
        t = _as_fraction(t)
        d, f = _int_list(self)
        if not f:
            return Fraction(0)
        u, v = t.numerator, t.denominator
        acc, scale = f[-1], 1
        for c in reversed(f[:-1]):
            scale *= v
            acc = acc * u + c * scale
        return Fraction(acc, d * scale)

    # -- ring arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "RationalPolynomial":
        if isinstance(other, RationalPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial.constant(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        acc = dict(self.coeffs)
        for exp, c in o.coeffs.items():
            acc[exp] = acc.get(exp, Fraction(0)) + c
        return RationalPolynomial(acc)

    __radd__ = __add__

    def __neg__(self):
        return RationalPolynomial({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        (d1, f), (d2, g) = _int_list(self), _int_list(o)
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] += a * b
        return RationalPolynomial._from_ints(out, d1 * d2)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = RationalPolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        # self = r/df and o = content*g/dg with g primitive; dividing r by
        # g leaves self = (q*g + r)/df, so the quotient is q*dg/(df*content)
        (df, r), (dg, g) = _int_list(self), _int_list(o)
        content = reduce(math.gcd, g)
        n, lead = len(g) - 1, g[-1] // content
        g = [c // content for c in g[:-1]]
        q = [0] * max(len(r) - n, 0)
        for k in range(len(q) - 1, -1, -1):
            top = r.pop()
            if not top:
                continue
            # an int while lead divides the top term: always, for an exact
            # division by a primitive g (Gauss's lemma)
            if type(top) is int and not top % lead:
                c = top // lead
            else:
                c = Fraction(top, lead)
            q[k] = c * dg
            for i, gc in enumerate(g):
                r[k + i] -= c * gc
        return (RationalPolynomial._from_ints(q, df * content),
                RationalPolynomial._from_ints(r, df))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "RationalPolynomial") -> "RationalPolynomial":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for exp in sorted(self.coeffs, reverse=True):
            c = self.coeffs[exp]
            if exp == 0:
                body = str(c)
            else:
                var = "t" if exp == 1 else "t^%d" % exp
                if c == 1:
                    body = var
                elif c == -1:
                    body = "-" + var
                else:
                    body = "%s*%s" % (c, var)
            terms.append(body)
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return "Poly(%s)" % out

    # -- calculus and normal forms ----------------------------------------

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            {e - 1: e * c for e, c in self.coeffs.items() if e >= 1})

    def monic(self) -> "RationalPolynomial":
        if self.is_zero():
            return self
        lead = self.leading_coefficient()
        return RationalPolynomial({e: c / lead for e, c in self.coeffs.items()})


def gcd(p: RationalPolynomial, q: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd over Q (a nonzero constant gcd normalizes to 1).

    Runs a primitive pseudo-remainder sequence on the integer primitive
    parts of p and q, so no Fraction arithmetic happens in the loop.
    """
    if q.is_zero():
        return p.monic()
    if p.is_zero():
        return q.monic()
    g = _int_gcd(_primitive_ints(p), _primitive_ints(q))
    return RationalPolynomial._from_ints(g, g[-1])


def squarefree_decomposition(
        p: RationalPolynomial) -> List[Tuple[RationalPolynomial, int]]:
    """Yun's algorithm: monic squarefree factors with their multiplicities.

    Returns [(f_i, i)] with p = lc * prod f_i^i, the f_i monic, squarefree,
    pairwise coprime, and only degree >= 1 factors reported.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree decomposition")
    p = p.monic()
    if p.degree() == 0:
        return []
    out: List[Tuple[RationalPolynomial, int]] = []
    g = gcd(p, p.derivative())
    w = p.exact_div(g)
    i = 1
    while w.degree() > 0:
        y = gcd(w, g)
        factor = w.exact_div(y)
        if factor.degree() > 0:
            out.append((factor, i))
        w = y
        g = g.exact_div(y)
        i += 1
    return out


def rational_roots(p: RationalPolynomial) -> List[Fraction]:
    """All rational roots of p (each listed once), sorted.

    Modular method: with a the leading coefficient of the squarefree part
    f of p and d its degree, every rational root r makes s = a*r an integer
    root of the monic Q(s) = a^(d-1) f(s/a).  Q's roots modulo a small prime
    that keeps Q squarefree are found by evaluation, Hensel-lifted past
    twice a root bound, read as symmetric residues and kept only when they
    are exact roots of p.  The cost is polynomial in the bit size of p: no
    integer is factored.
    """
    if p.is_zero():
        raise ValueError("every rational is a root of the zero polynomial")
    roots: List[Fraction] = []
    # strip powers of t
    v0 = min(p.coeffs)
    if v0 > 0:
        roots.append(Fraction(0))
        p = RationalPolynomial({e - v0: c for e, c in p.coeffs.items()})
    if p.degree() < 1:
        return roots
    f = _primitive_ints(p)
    f = _int_quotient(f, _int_gcd(f, _derivative(f)))
    d, lead = len(f) - 1, f[-1]
    # Q(s) = sum f_i a^(d-1-i) s^i for i < d, plus s^d
    monic = [c * lead ** (d - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    # |a*r| <= |a| * (1 + max |f_i / a|), Cauchy's bound for the roots of f
    bound = abs(lead) + max(abs(c) for c in f[:-1])
    prime = _squarefree_prime(monic)
    modulus = prime
    lifted = [s for s in range(prime) if _eval_mod(monic, s, prime) == 0]
    diff = _derivative(monic)
    while lifted and modulus <= 2 * bound:
        modulus *= modulus
        lifted = [(s - _eval_mod(monic, s, modulus)
                   * pow(_eval_mod(diff, s, modulus), -1, modulus)) % modulus
                  for s in lifted]
    for s in lifted:
        if s > modulus // 2:
            s -= modulus
        root = Fraction(s, lead)
        if p.evaluate(root) == 0:
            roots.append(root)
    return sorted(roots)


# -- integer coefficient lists ------------------------------------------------
#
# Dense lists of ints, constant term first.  The reductions go through
# functools.reduce rather than math.gcd(*coeffs): the star-argument tuples
# measurably raise peak memory in these loops.


def _is_int(value) -> bool:
    """An int that is not a bool (JSON true/false are not exponents)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(p: RationalPolynomial) -> Tuple[int, List[int]]:
    """(d, f) with p = f/d, f a dense int list and d > 0; (1, []) for zero."""
    if not p.coeffs:
        return 1, []
    denom = reduce(math.lcm, (c.denominator for c in p.coeffs.values()), 1)
    out = [0] * (max(p.coeffs) + 1)
    for e, c in p.coeffs.items():
        out[e] = c.numerator * (denom // c.denominator)
    return denom, out


def _primitive_ints(p: RationalPolynomial) -> List[int]:
    """p scaled to a primitive integer list with a positive leading term."""
    return _primitive_part(_int_list(p)[1])


def _primitive_part(f: List[int]) -> List[int]:
    """f over its content, leading term positive; [] for zero.

    Trailing zeros (a leading term that cancelled) are dropped first.
    """
    f = _strip(f)
    if not f:
        return f
    content = reduce(math.gcd, f)
    if f[-1] < 0:
        content = -content
    return [c // content for c in f]


def _derivative(f: List[int]) -> List[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _pseudo_remainder(a: List[int], b: List[int]) -> List[int]:
    """A nonzero integer multiple of the remainder of a by b.

    Each step scales a by lc(b)/g rather than lc(b), g the gcd of the two
    leading terms; zeros left at the top are not stripped.
    """
    a = list(a)
    n, lead_b = len(b) - 1, b[-1]
    while len(a) > n:
        lead_a = a.pop()
        if not lead_a:
            continue
        g = math.gcd(lead_a, lead_b)
        scale, factor = lead_b // g, lead_a // g
        shift = len(a) - n
        a = [c * scale for c in a]
        for i, c in enumerate(b[:-1]):
            a[shift + i] -= factor * c
    return a


def _int_gcd(a: List[int], b: List[int]) -> List[int]:
    """Primitive gcd of two nonzero integer lists."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive_part(_pseudo_remainder(a, b))
    return _primitive_part(a)


def _int_quotient(f: List[int], g: List[int]) -> Optional[List[int]]:
    """f / g over Z for a primitive g, or None when g does not divide f.

    By Gauss's lemma g divides f over Q exactly when it does over Z, so
    the first quotient term that lc(g) does not divide ends the search.
    """
    f = f[:]
    n, lead = len(g) - 1, g[-1]
    body = g[:-1]
    quotient = [0] * max(len(f) - n, 0)
    for k in range(len(quotient) - 1, -1, -1):
        c, rest = divmod(f[k + n], lead)
        if rest:
            return None
        quotient[k] = c
        for i, gc in enumerate(body):
            f[k + i] -= c * gc
    return None if any(f[:n]) else quotient


def _eval_mod(f: List[int], s: int, m: int) -> int:
    out = 0
    for c in reversed(f):
        out = (out * s + c) % m
    return out


def _squarefree_prime(monic: List[int]) -> int:
    """The least prime above the degree modulo which monic is squarefree.

    One exists because monic is squarefree over Q: only the finitely many
    primes dividing its discriminant fail.  Over F_prime the remainder
    sequence of monic and its derivative may use pseudo-remainders, since
    every leading term it divides by is a unit there.
    """
    prime = len(monic) - 1
    while True:
        prime += 1
        if any(prime % k == 0 for k in range(2, math.isqrt(prime) + 1)):
            continue
        a = _reduce_mod(monic, prime)
        b = _reduce_mod(_derivative(monic), prime)
        while b:
            a, b = b, _reduce_mod(_pseudo_remainder(a, b), prime)
        if len(a) == 1:
            return prime


def _reduce_mod(f: List[int], prime: int) -> List[int]:
    return _strip([c % prime for c in f])


def _strip(f: List[int]) -> List[int]:
    """f without trailing zeros (a copy only when there are some)."""
    end = len(f)
    while end and not f[end - 1]:
        end -= 1
    return f if end == len(f) else f[:end]


# ---------------------------------------------------------------------------
# places


@dataclass(frozen=True)
class Place:
    """A closed point of the base P^1: rational, irrational class, or infinity.

    kind "finite-irreducible" carries a monic squarefree polynomial of
    degree >= 2 without rational roots: a bundle of irrational roots that
    share what is being measured (a multiplicity in multiplicity_profile,
    the valuation triple of (a, b, delta) in a fiber report).  It may
    factor further over Q; full factorization is intentionally not
    performed, and no computation here needs it.
    """

    kind: str
    t0: Optional[Fraction] = None
    poly: Optional[RationalPolynomial] = None

    @classmethod
    def finite_rational(cls, t0: Scalar) -> "Place":
        return cls(kind="finite-rational", t0=_as_fraction(t0))

    @classmethod
    def finite_irreducible(cls, p: RationalPolynomial) -> "Place":
        p = p.monic()
        if p.degree() < 2:
            raise ValueError("degree-1 factors normalize to finite-rational")
        if rational_roots(p):
            raise ValueError("factor has a rational root; split it first")
        return cls(kind="finite-irreducible", poly=p)

    @classmethod
    def infinity(cls) -> "Place":
        return cls(kind="infinity")

    def degree(self) -> int:
        if self.kind == "finite-rational":
            return 1
        if self.kind == "finite-irreducible":
            assert self.poly is not None
            return int(self.poly.degree())
        return 1

    def __str__(self):
        if self.kind == "finite-rational":
            return "t=%s" % self.t0
        if self.kind == "finite-irreducible":
            return "roots of %s" % repr(self.poly)[5:-1]
        return "t=infinity"


def valuation_at(p: RationalPolynomial, place: Place):
    """Order of vanishing of p at a finite place; inf for the zero polynomial.

    The place at infinity has no valuation here: a fiber there is read at
    t = 0 of the weighted chart at infinity.
    """
    if place.kind == "infinity":
        raise ValueError("valuation_at takes finite places only")
    if p.is_zero():
        return float("inf")
    if place.kind == "finite-rational":
        # synthetic division by the primitive linear factor v t - u
        t0 = place.t0
        assert t0 is not None
        divisor = [-t0.numerator, t0.denominator]
    else:
        assert place.poly is not None
        divisor = _primitive_ints(place.poly)
    f = _int_list(p)[1]
    count = 0
    while True:
        f = _int_quotient(f, divisor)
        if f is None:
            return count
        count += 1


def multiplicity_profile(
        p: RationalPolynomial) -> List[Tuple[Place, int]]:
    """Root classes of p grouped by multiplicity.

    Rational roots come out as finite-rational places; whatever is left in
    each squarefree layer is reported as a single finite-irreducible place
    carrying its total degree, a bundle of roots of one multiplicity.
    Sum of multiplicity * degree = deg p.
    """
    if p.is_zero():
        raise ValueError("zero polynomial rejected")
    out: List[Tuple[Place, int]] = []
    for factor, mult in squarefree_decomposition(p):
        residual = factor
        for root in rational_roots(factor):
            out.append((Place.finite_rational(root), mult))
            residual = residual.exact_div(
                RationalPolynomial({1: Fraction(1), 0: -root}))
        if residual.degree() > 0:
            # no rational root is left: the place needs no re-check
            out.append((Place("finite-irreducible", poly=residual.monic()),
                        mult))
    out.sort(key=_profile_sort_key)
    return out


def _profile_sort_key(entry: Tuple[Place, int]):
    place, mult = entry
    if place.kind == "finite-rational":
        return (0, place.t0, mult)
    return (1, sorted(place.poly.coeffs.items()), mult)


def split_by_valuation(
        f: RationalPolynomial,
        p: RationalPolynomial) -> List[Tuple[RationalPolynomial, int]]:
    """Split a squarefree f by the multiplicity its roots have in p.

    Returns [(f_v, v)] with f = prod f_v and every root of f_v of
    multiplicity exactly v in p.  Works by peeling gcd layers, no
    factorization needed.  p = 0 is rejected (all valuations infinite).
    """
    if p.is_zero():
        raise ValueError("cannot split against the zero polynomial")
    f = f.monic()
    out: List[Tuple[RationalPolynomial, int]] = []
    level = 0
    while f.degree() > 0:
        common = gcd(f, p)
        v0_part = f.exact_div(common) if common.degree() > 0 else f
        if v0_part.degree() > 0:
            out.append((v0_part, level))
        if common.degree() <= 0:
            break
        f = common
        p = p.exact_div(common)
        level += 1
    return out


# ---------------------------------------------------------------------------
# Weierstrass-flavoured helpers


def weierstrass_discriminant(a: RationalPolynomial,
                             b: RationalPolynomial) -> RationalPolynomial:
    """4a^3 + 27b^2."""
    return a * a * a * 4 + b * b * 27
