"""Exact univariate polynomials over Q and valuation bookkeeping.

A polynomial is stored as f/d: f a dense list of ints, constant term
first, with no trailing zero, and d > 0 coprime to the content of f; zero
is ([], 1).  The form is canonical, so equality and hashing compare the
pair, except that a constant hashes as the int or Fraction it equals.
No int list is changed once it is built: a function changes only a list
it made itself, so polynomials and the helpers below may share lists (a
primitive part with content 1 is its argument).  Only the
operations the surface analysis actually needs live here: ring
arithmetic, gcd, Yun squarefree decomposition, rational roots, and the
place/valuation utilities at finite places.  Full
irreducible factorization is deliberately avoided; squarefree grouping
plus rational-root extraction is enough everywhere.

Every algorithm runs in int arithmetic on the stored list, in time
polynomial in the bit size of the input: division by a primitive divisor
stays in the integers whenever it is exact (Gauss's lemma), gcd is the
heuristic GCDHEU (one big-integer gcd of two values, certified by exact
division, at a larger power of two until it certifies), and the layer
loop that Yun's algorithm and split_by_valuation share tries
one exact division before each gcd; a gcd with the constant 1 is 1, with
no certificate.  A monic divisor needs no integer division, and a
divisor of degree one or two divides synthetically.  rational_roots
solves layers of degree at most 2 in closed form; for a higher layer it
Hensel-lifts the roots of the layer itself, at the first prime not
dividing its lead at which they are all simple.  The Weierstrass
discriminant 4a^3 + 27b^2 is read off one big-integer value.  Every
value read back as digits, GCDHEU's and the discriminant's, is taken at
a power of two 2^k, so evaluation and digits are shifts and masks.
Fractions appear only at the boundary: the dict and pair constructors,
the `coeffs` view, and single values such as evaluate's result and the
rational roots.

A Place is where a fiber lives: a rational point t0, a monic squarefree
factor with no rational roots (a Galois orbit class of irrational points),
or the point at infinity.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import MAX_DIGITS
from .cyclotomic import Scalar, _as_fraction, _is_scalar, format_sum, power

NEG_INF = float("-inf")


class RationalPolynomial:
    """f/d in one variable: f a dense int list, d a positive denominator.

    The list f may be shared with other polynomials and with the int
    list helpers; nothing changes it after it is built.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Optional[Dict[int, Scalar]] = None):
        clean: Dict[int, Fraction] = {}
        if coeffs:
            for exp, c in coeffs.items():
                if not _is_int(exp) or exp < 0:
                    raise ValueError("exponents must be non-negative integers")
                f = _as_fraction(c)
                if f != 0:
                    clean[exp] = f
        # canonical: d is the lcm of the reduced denominators
        den = reduce(math.lcm, (c.denominator for c in clean.values()), 1)
        num = [0] * (max(clean, default=-1) + 1)
        for exp, c in clean.items():
            num[exp] = c.numerator * (den // c.denominator)
        self._num: List[int] = num
        self._den: int = den

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence]) -> "RationalPolynomial":
        """Build from [coefficient, exponent] pairs (see sum_pairs)."""
        return cls(sum_pairs(pairs))

    @classmethod
    def constant(cls, value: Scalar) -> "RationalPolynomial":
        value = _as_fraction(value)
        return cls._from_ints([value.numerator], value.denominator)

    @classmethod
    def variable(cls) -> "RationalPolynomial":
        return cls._from_ints([0, 1])

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls()

    @classmethod
    def _from_ints(cls, f: List[int], d: int = 1) -> "RationalPolynomial":
        """f/d in canonical form; the result may keep the list f."""
        f = _strip(f)
        if d < 0:
            f, d = [-c for c in f], -d
        if d != 1:
            common = reduce(math.gcd, f, d)
            if common != 1:
                f, d = [c // common for c in f], d // common
        out = cls.__new__(cls)
        out._num, out._den = f, d
        return out

    # -- serialization ----------------------------------------------------

    @property
    def coeffs(self) -> Dict[int, Fraction]:
        """A new {exponent: coefficient} dict, exponents ascending."""
        d = self._den
        return {e: Fraction(c, d) for e, c in enumerate(self._num) if c}

    def to_pairs(self) -> List[List[object]]:
        """[[coefficient-string, exponent], ...] with "p/q" or "p" coefficients."""
        return [[str(c), e] for e, c in self.coeffs.items()]

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def degree(self):
        """Max stored exponent; -inf for the zero polynomial."""
        return len(self._num) - 1 if self._num else NEG_INF

    def evaluate(self, t: Scalar) -> Fraction:
        """p(t) by Horner's rule in integers.

        With p = f/d of degree n and t = u/v, p(t) is the sum of
        f_i u^i v^(n-i) over d v^n: one Fraction is built, at the end.
        """
        t = _as_fraction(t)
        if not self._num:
            return Fraction(0)
        f, u, v = self._num, t.numerator, t.denominator
        acc, scale = f[-1], 1
        for c in reversed(f[:-1]):
            scale *= v
            acc = acc * u + c * scale
        return Fraction(acc, self._den * scale)

    # -- ring arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "RationalPolynomial":
        if isinstance(other, RationalPolynomial):
            return other
        if _is_scalar(other):
            return RationalPolynomial.constant(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        den = math.lcm(self._den, o._den)
        f = [c * (den // self._den) for c in self._num]
        g = [c * (den // o._den) for c in o._num]
        if len(f) < len(g):
            f, g = g, f
        for i, c in enumerate(g):
            f[i] += c
        return RationalPolynomial._from_ints(f, den)

    __radd__ = __add__

    def __neg__(self):
        return RationalPolynomial._from_ints([-c for c in self._num],
                                             self._den)

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
        f, g = self._num, o._num
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] += a * b
        return RationalPolynomial._from_ints(out, self._den * o._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return power(self, n, RationalPolynomial._from_ints([1]))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._den == o._den and self._num == o._num

    def __hash__(self):
        # a constant equals, so must hash as, the number it is
        if len(self._num) <= 1:
            return hash(Fraction(self._num[0] if self._num else 0, self._den))
        return hash((tuple(self._num), self._den))

    def __str__(self):
        return format_sum((c, "t^%d" % e if e > 1 else "t" * e)
                          for e, c in reversed(self.coeffs.items())) or "0"

    def __repr__(self):
        return "Poly(%s)" % self

    # -- normal form ------------------------------------------------------

    def monic(self) -> "RationalPolynomial":
        return _monic(self._num) if self._num else self


# the least int of more than MAX_DIGITS digits
_TOO_WIDE = 10 ** MAX_DIGITS


def sum_pairs(pairs: Sequence[Sequence]) -> Dict[int, Fraction]:
    """{exponent: coefficient} of [coefficient, exponent] pairs, summed
    where an exponent repeats; sums that cancel stay as zero entries.

    A coefficient is an int of at most MAX_DIGITS digits, a Fraction or
    a string parse_rational reads, such as "-3/4"; any other input raises
    ValueError.  The dict's size is the number of pairs whatever the
    exponents, so a caller can bound the degree before it builds the
    dense polynomial.
    """
    if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):
        raise ValueError("expected [coefficient, exponent] pairs, not %s"
                         % quoted(pairs))
    acc: Dict[int, Fraction] = {}
    for coeff, exp in pairs:
        if _is_int(coeff) and abs(coeff) >= _TOO_WIDE:
            raise ValueError("coefficient has more than the %d digits a "
                             "rational may have" % MAX_DIGITS)
        try:
            c = parse_rational(coeff) if isinstance(coeff, str) \
                else _as_fraction(coeff)
        except TypeError:
            raise ValueError("coefficient %s is not a rational number"
                             % quoted(coeff)) from None
        except ValueError as err:
            raise ValueError("coefficient %s" % err) from None
        if not _is_int(exp) or exp < 0:
            raise ValueError("exponent %s is not a non-negative integer"
                             % quoted(exp))
        acc[exp] = acc.get(exp, Fraction(0)) + c
    return acc


def quoted(value) -> str:
    """value as a refusal echoes it.  Its text is the value itself for a
    string and its repr otherwise.  Up to 40 characters of text that is
    repr(value); past 40, the text's first 24 and last 8 characters
    joined by "..." (a string's excerpt in quotes), then "(N characters)"
    with N the text's length, so the echo stays short."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 40:
        return repr(value)
    cut = text[:24] + "..." + text[-8:]
    return "%s (%d characters)" % (
        repr(cut) if isinstance(value, str) else cut, len(text))


def parse_rational(text: str) -> Fraction:
    """The rational a string such as "-3/4", "0.5" or " 2 " denotes.  No
    exponent notation: "1e3000000" is nine characters for 3 million digits.
    At most MAX_DIGITS digits in all.  It converts under the interpreter's
    limit on int-from-string conversion and leaves that limit as it is;
    the CLI lifts it while it reads its input files, so a lower
    PYTHONINTMAXSTRDIGITS refuses no coefficient within the bound there.
    A refusal echoes the text as quoted() does.
    """
    shown = quoted(text)
    if "e" in text or "E" in text:
        raise ValueError("%s is in exponent notation; write it as an "
                         "integer, p/q or a decimal" % shown)
    digits = sum(map(str.isdigit, text))
    if digits > MAX_DIGITS:
        raise ValueError("has %d digits, more than the %d a rational may "
                         "have" % (digits, MAX_DIGITS))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("%s is not a rational number" % shown) from None


def _monic(f: List[int]) -> RationalPolynomial:
    """The monic polynomial of a nonzero int list."""
    return RationalPolynomial._from_ints(f, f[-1])


def gcd(p: RationalPolynomial, q: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd over Q (a nonzero constant gcd normalizes to 1).

    Works on the integer primitive parts of p and q: the heuristic GCDHEU
    reads the gcd off one integer gcd of their values at a large power of
    two xi, and keeps it only when it divides both exactly, which together
    with the bound on xi proves it is the gcd; otherwise it tries a larger
    xi, and a large enough xi always certifies (see _gcd_cofactors).
    """
    if q.is_zero():
        return p.monic()
    if p.is_zero():
        return q.monic()
    return _monic(_gcd_cofactors(_primitive_part(p._num),
                                 _primitive_part(q._num))[0])


def squarefree_decomposition(
        p: RationalPolynomial) -> List[Tuple[RationalPolynomial, int]]:
    """Yun's algorithm: monic squarefree factors with their multiplicities.

    Returns [(f_i, i)] with p = lc * prod f_i^i, the f_i monic, squarefree,
    pairwise coprime, and only degree >= 1 factors reported.  The whole
    run stays on primitive int lists, with a positive leading term each.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree decomposition")
    f = _primitive_part(p._num)
    # gcd(f, f') holds every root once less often than f
    g, w, _ = _gcd_cofactors(f, _primitive_part(_derivative(f)))
    return _peel_layers(w, g, 1)


def rational_roots(p: RationalPolynomial) -> List[Fraction]:
    """All rational roots of p (each listed once), sorted."""
    if p.is_zero():
        raise ValueError("every rational is a root of the zero polynomial")
    f = _primitive_part(p._num)
    squarefree = _gcd_cofactors(f, _primitive_part(_derivative(f)))[1]
    return _split_rational_roots(RationalPolynomial._from_ints(squarefree))[0]


def _split_rational_roots(
        p: RationalPolynomial) -> Tuple[List[Fraction], RationalPolynomial]:
    """(roots, residual) for a squarefree nonzero p: its rational roots,
    sorted, and the monic cofactor of their linear factors.

    Let f be the primitive p without a factor t.  A linear f has the root
    -f0/f1.  A quadratic f = a t^2 + b t + c has rational roots exactly
    when b^2 - 4ac is a square, which math.isqrt decides; they are
    (-b +- r)/2a.

    Higher degrees take the modular method, which Hensel-lifts the roots
    of the layer itself, at the first prime not dividing its lead.  With
    a the lead of f, a rational root r = u/v has v | a, so r is an
    integer modulo every power of a prime p not dividing a, and a*r is an
    integer with |a*r| <= |a| + max |f_i| (Cauchy's bound).  The roots of
    f modulo the first such p at which each of them is simple (f' nonzero
    there) are found by evaluating f, reduced mod p once, at every
    residue, and f' at each root found, leaving p at the first root of
    f'; every rational root reduces to one of them, and a simple root
    lifts uniquely.  Each is Hensel-lifted on f and f' until the
    modulus m exceeds twice the bound, a*r is read as the symmetric
    residue of a*s mod m, and r is kept only when its linear factor
    divides f.  A prime with no root proves there is none.  The cost is
    polynomial in the bit size of p: no integer is factored, the lifting
    keeps f's own coefficients, and a prime is passed over only when it
    divides a or disc(f).
    """
    f = _primitive_part(p._num)
    roots: List[Fraction] = []
    if not f[0]:
        roots.append(Fraction(0))
        f = f[1:]
    if len(f) == 2:
        roots.append(Fraction(-f[0], f[1]))
        f = [1]
    elif len(f) == 3:
        c, b, a = f
        disc = b * b - 4 * a * c
        r = math.isqrt(max(disc, 0))
        if r * r == disc:
            roots += (Fraction(-b - r, 2 * a), Fraction(-b + r, 2 * a))
            f = [1]
    elif len(f) > 3:
        lead = f[-1]
        # |a*r| <= |a| + max |f_i|, Cauchy's bound, for every root r
        bound = lead + max(abs(c) for c in f[:-1])
        diff = _derivative(f)
        # the first prime not dividing a at which every root of f is simple
        prime, lifted = 1, None
        while lifted is None:
            prime += 1
            if lead % prime and all(
                    prime % k for k in range(2, math.isqrt(prime) + 1)):
                lifted = _simple_roots(f, diff, prime)
        modulus = prime
        while lifted and modulus <= 2 * bound:
            modulus *= modulus
            lifted = [_newton_step(f, s, modulus) for s in lifted]
        for s in lifted:
            # s is r modulo the lifted modulus, so s*a is a*r
            s = s * lead % modulus
            root = Fraction(s - modulus if s > modulus // 2 else s, lead)
            rest = _int_quotient(f, [-root.numerator, root.denominator])
            if rest is not None:
                roots.append(root)
                f = rest
    return sorted(roots), _monic(f)


# -- integer coefficient lists ------------------------------------------------
#
# Dense lists of ints, constant term first.  The reductions go through
# functools.reduce rather than math.gcd(*coeffs): the star-argument tuples
# measurably raise peak memory in these loops.


def _is_int(value) -> bool:
    """An int that is not a bool (JSON true/false are not exponents)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _primitive_part(f: List[int]) -> List[int]:
    """f over its content, leading term positive; [] for zero.

    Trailing zeros (a leading term that cancelled) are dropped first.
    """
    f = _strip(f)
    if not f:
        return f
    # from 0, so that a one-term list's content is positive too
    content = reduce(math.gcd, f, 0)
    if f[-1] < 0:
        content = -content
    return f if content == 1 else [c // content for c in f]


def _derivative(f: List[int]) -> List[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _gcd_cofactors(a: List[int], b: List[int]
                   ) -> Tuple[List[int], List[int], List[int]]:
    """(h, a/h, b/h) for primitive int lists a, b, not both zero, with h
    their gcd, primitive with a positive leading term.

    GCDHEU (Char, Geddes and Gonnet 1989; Geddes, Czapor and Labahn,
    Algorithms for Computer Algebra, 7.7): at a power of two
    xi = 2^k >= 2 min(|a|, |b|) + 2 (max norms), read gcd(a(xi), b(xi))
    as balanced base-xi digits and take the primitive part h.  If h divides
    both a and b, it is their gcd (the GCDHEU theorem), and the exact
    quotients are the cofactors; otherwise k grows by k // 4 + 2 and the
    loop tries again, until both divisions certify h.  No h but 1 is
    returned without both divisions; an operand that is the constant 1
    (a unit) makes h 1 at once, and gcd(h, 0) is the primitive h itself.

    The loop ends.  Let a = h a* and b = h b* with h the gcd.  xi exceeds
    the root bound 1 + |a| of the min-norm operand, say a, so a(xi) != 0
    and the value gcd is |h(xi)| D with D = gcd(a*(xi), b*(xi)) > 0.  As
    Res(a*, b*) = u a* + v b* for some u, v in Z[t], D divides that
    resultant, which is fixed and nonzero.  Once xi > 2 |Res| |h|, the
    coefficients of D h lie in (-xi/2, xi/2), so the balanced digits are
    +-D h exactly, their primitive part is h, and both divisions succeed.
    Since k grows by a factor of at least 5/4, the number of tries is
    logarithmic in the bit length of the Hadamard bound on |Res| times
    Mignotte's bound on |h|, and the last xi has at most 5/4 of that
    many bits plus two: polynomial in the input's bit size.
    """
    if a == [1] or b == [1]:
        # a unit gcd needs no certificate
        return [1], a, b
    if not a or not b:
        return (b, [], [1]) if not a else (a, [1], [])
    # xi = 2^k, the least power of two >= 2 min(|a|, |b|) + 2
    k = (2 * min(max(map(abs, a)), max(map(abs, b))) + 1).bit_length()
    while True:
        # xi exceeds the min-norm input's root bound, so the gcd is > 0
        h = _primitive_part(_balanced_digits(
            math.gcd(_eval_at(a, k), _eval_at(b, k)), k))
        if h == [1]:
            return h, a, b
        cofactor_a = _int_quotient(a, h)
        if cofactor_a is not None:
            cofactor_b = _int_quotient(b, h)
            if cofactor_b is not None:
                return h, cofactor_a, cofactor_b
        # about 4 xi^(5/4), after sympy's 2.7 xi^(5/4)
        k += k // 4 + 2


def _eval_at(f: List[int], k: int) -> int:
    """f(2^k), by shifts."""
    out = 0
    for c in reversed(f):
        out = (out << k) + c
    return out


def _balanced_digits(n: int, k: int) -> List[int]:
    """The digits of n in base 2^k, each in (-2^(k-1), 2^(k-1)], lowest
    first, by shift and mask."""
    xi, mask, half = 1 << k, (1 << k) - 1, 1 << (k - 1)
    digits = []
    while n:
        digit = n & mask
        n >>= k
        if digit > half:
            digit -= xi
            n += 1
        digits.append(digit)
    return digits


def _int_quotient(f: List[int], g: List[int]) -> Optional[List[int]]:
    """f / g over Z for a primitive g, or None when g does not divide f.

    By Gauss's lemma g divides f over Q exactly when it does over Z, so
    the first quotient term that lc(g) does not divide ends the search.
    A g of degree one or two divides synthetically: each quotient term,
    top first, is the next coefficient of f less the one or two terms
    before it times g's lower coefficients, over lc(g), and f's low
    coefficients must then equal what the quotient puts there.  A longer
    g subtracts each nonzero quotient term's multiple of g from a copy
    of f.  Neither argument is changed.
    """
    n, lead = len(g) - 1, g[-1]
    if len(f) <= n:
        return None if any(f) else []
    if 0 < n <= 2:
        # q_k = (f_(k+n) - q_(k+1) hi - q_(k+2) lo) / lead
        hi, lo = g[n - 1], g[0] if n == 2 else 0
        last = before = 0
        quotient = []
        for c in f[:n - 1:-1]:
            c -= last * hi + before * lo
            if lead != 1:
                c, rest = divmod(c, lead)
                if rest:
                    return None
            last, before = c, last
            quotient.append(c)
        if f[n - 1] != last * hi + before * lo or (n == 2
                                                  and f[0] != last * lo):
            return None
        quotient.reverse()
        return quotient
    f = f[:]
    body = g[:-1]
    quotient = [0] * (len(f) - n)
    for k in range(len(quotient) - 1, -1, -1):
        c = f[k + n]
        if not c:
            continue
        if lead != 1:
            c, rest = divmod(c, lead)
            if rest:
                return None
        quotient[k] = c
        for i, gc in enumerate(body, k):
            f[i] -= c * gc
    return None if any(f[:n]) else quotient


def _simple_roots(f: List[int], diff: List[int], prime: int
                  ) -> Optional[List[int]]:
    """The roots of f modulo prime, or None at the first that is a root
    of f' (diff) too."""
    small = [c % prime for c in f]
    roots = []
    for s in range(prime):
        if not _eval_mod(small, s, prime):
            if not _eval_mod(diff, s, prime):
                return None
            roots.append(s)
    return roots


def _eval_mod(f: List[int], s: int, m: int) -> int:
    out = 0
    for c in reversed(f):
        out = (out * s + c) % m
    return out


def _newton_step(f: List[int], s: int, m: int) -> int:
    """s - f(s)/f'(s) mod m, with f(s) and f'(s) from one Horner pass."""
    value = slope = 0
    for c in reversed(f):
        slope = (slope * s + value) % m
        value = (value * s + c) % m
    return (s - value * pow(slope, -1, m)) % m


def _strip(f: List[int]) -> List[int]:
    """f without trailing zeros (a copy only when there are some)."""
    end = len(f)
    while end and not f[end - 1]:
        end -= 1
    return f if end == len(f) else f[:end]


# ---------------------------------------------------------------------------
# places


class Place(namedtuple("Place", "kind t0 poly", defaults=(None, None))):
    """A closed point of the base P^1: rational, irrational class, or infinity.

    kind "finite-irreducible" carries a monic squarefree polynomial of
    degree >= 2 without rational roots: a bundle of irrational roots that
    share what is being measured (a multiplicity in multiplicity_profile,
    the valuation triple of (a, b, delta) in a fiber report).  It may
    factor further over Q; full factorization is intentionally not
    performed, and no computation here needs it.  t0 (a Fraction) is set
    only for a rational place, poly only for an irrational class.
    """

    __slots__ = ()

    @classmethod
    def finite_rational(cls, t0: Scalar) -> "Place":
        return cls(kind="finite-rational", t0=_as_fraction(t0))

    @classmethod
    def infinity(cls) -> "Place":
        return cls(kind="infinity")

    def degree(self) -> int:
        if self.kind == "finite-irreducible":
            assert self.poly is not None
            return int(self.poly.degree())
        return 1

    def __str__(self):
        if self.kind == "finite-rational":
            return "t=%s" % self.t0
        if self.kind == "finite-irreducible":
            return "roots of %s" % self.poly
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
        divisor = _primitive_part(place.poly._num)
    f = p._num
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
    rational: List[Tuple[Place, int]] = []
    irrational: List[Tuple[Place, int]] = []
    for factor, mult in squarefree_decomposition(p):
        roots, residual = _split_rational_roots(factor)
        rational.extend((Place.finite_rational(root), mult) for root in roots)
        if residual.degree() > 0:
            # no rational root is left: the place needs no re-check
            irrational.append((Place("finite-irreducible", poly=residual),
                               mult))
    # the layers are coprime, so every root is listed once
    rational.sort(key=lambda entry: entry[0].t0)
    if len(irrational) > 1:
        _sort_irrational(irrational)
    return rational + irrational


def _sort_irrational(places: List[Tuple[Place, int]]) -> None:
    """Sort (irrational place, multiplicity) pairs by the coefficient view
    [(e, c_e) for nonzero c_e] of the place, then the multiplicity: the
    coefficients are compared over one common denominator L > 0, which
    keeps the order and needs no Fraction."""
    common = reduce(math.lcm, (place.poly._den for place, _ in places))

    def key(entry):
        poly = entry[0].poly
        scale = common // poly._den
        return [(e, c * scale) for e, c in enumerate(poly._num) if c], entry[1]
    places.sort(key=key)


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
    return _peel_layers(_primitive_part(f._num), _primitive_part(p._num), 0)


def _peel_layers(w: List[int], g: List[int], level: int
                 ) -> List[Tuple[RationalPolynomial, int]]:
    """[(w_v, v)] for v >= level: w_v the monic product of the roots of the
    squarefree w that g holds v - level times (w, g primitive int lists).
    Each step keeps in w the roots g still holds and divides them out of g.
    """
    out: List[Tuple[RationalPolynomial, int]] = []
    while len(w) > 1:
        # w divides g when every root of w goes deeper than this level
        quotient = _int_quotient(g, w)
        w, part, g = (_gcd_cofactors(w, g) if quotient is None
                      else (w, [1], quotient))
        if len(part) > 1:
            out.append((_monic(part), level))
        level += 1
    return out


# ---------------------------------------------------------------------------
# Weierstrass-flavoured helpers


def weierstrass_discriminant(a: RationalPolynomial,
                             b: RationalPolynomial) -> RationalPolynomial:
    """4a^3 + 27b^2, read off one big-integer value.

    With a = fa/da and b = fb/db, it is P/(da^3 db^2) for the int list
    P = 4 fa^3 db^2 + 27 fb^2 da^3, whose coefficients are at most
    N = 4 len(fa)^2 |fa|^3 db^2 + 27 len(fb) |fb|^2 da^3 (max norms).  At
    xi = 2^k with 2^(k-1) > N, the value P(xi) = 4 fa(xi)^3 db^2
    + 27 fb(xi)^2 da^3 has exactly those coefficients as its balanced
    base-xi digits.
    """
    fa, fb, da3, db2 = a._num, b._num, a._den ** 3, b._den ** 2
    bound = (4 * len(fa) ** 2 * max(map(abs, fa), default=0) ** 3 * db2
             + 27 * len(fb) * max(map(abs, fb), default=0) ** 2 * da3)
    k = bound.bit_length() + 1
    value = (4 * _eval_at(fa, k) ** 3 * db2
             + 27 * _eval_at(fb, k) ** 2 * da3)
    return RationalPolynomial._from_ints(_balanced_digits(value, k),
                                         da3 * db2)
