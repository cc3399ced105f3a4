"""Exact arithmetic in the cyclotomic field Q(zeta_8).

Elements are stored on the power basis (1, z, z^2, z^3), z a primitive 8th
root of unity and z^4 = -1, as four ints over one positive denominator d
in lowest terms, as Q[t] and the map polynomials store theirs: every
operation is exact and runs on ints, each result is normalized by one
gcd, and equal elements have equal representations.  `coords` gives the
four coordinates as Fractions, and `as_ints` the ints and d.  A rational
element equals, and hashes as, the int or Fraction it stands for (a bool
is neither); a product by an int or Fraction scales the four numerators
instead of forming the 16-term product.  The field holds i = z^2 and
sqrt(2) = z - z^3.  Inverse and norm go through Q(i) in integers: x =
(u + v*z)/d, u = a0 + a2*i and v = a1 + a3*i integral, and s5: z -> -z
gives x * x^s5 = (u^2 - i*v^2)/d^2 = (p + q*i)/d^2, so N(x) = (p^2 +
q^2)/d^4 and x^-1 = d^2 * x^s5 * (p - q*i)/(p^2 + q^2).  The module also
holds the ring idioms all rings here share: `format_sum` and `power`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Tuple, Union

Scalar = Union[int, Fraction]

_BASIS_NAMES = ("", "z", "z^2", "z^3")


def _is_scalar(value) -> bool:
    """An int or Fraction, the numbers the rings embed; a bool is not one."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError("expected an int or Fraction, got %r" % (value,))


def format_sum(pairs: Iterable[Tuple[Scalar, str]]) -> str:
    """The nonzero (coefficient, monomial) pairs as "c*m + m - ...", an
    empty monomial standing for 1; "" when every coefficient is 0."""
    out = ""
    for c, mono in pairs:
        if c:
            size = abs(c)
            term = "%s*%s" % (size, mono) if mono and size != 1 \
                else mono or str(size)
            if out:
                out += (" - " if c < 0 else " + ") + term
            else:
                out = ("-" if c < 0 else "") + term
    return out


def power(base, n: int, one):
    """base ** n for an int n >= 0 by repeated squaring, one being the
    unit of base's ring; no product by one is formed."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


class Cyc8Element:
    """An element (a0 + a1*z + a2*z^2 + a3*z^3)/d of Q(zeta_8), the ai
    ints and d > 0 with gcd(a0, a1, a2, a3, d) = 1."""

    __slots__ = ("_num", "_den")

    def __init__(self, coords: Iterable[Scalar] = (0, 0, 0, 0)):
        cs = [_as_fraction(c) for c in coords]
        if len(cs) != 4:
            raise ValueError("power basis needs exactly 4 coordinates")
        # canonical: d is the lcm of the reduced denominators
        d = lcm(*(c.denominator for c in cs))
        self._num = tuple(c.numerator * (d // c.denominator) for c in cs)
        self._den = d

    @classmethod
    def _from_ints(cls, a: Tuple[int, int, int, int],
                   d: int = 1) -> "Cyc8Element":
        """a/d in canonical form, for d > 0."""
        if d != 1:
            common = gcd(*a, d)
            if common != 1:
                a, d = tuple(c // common for c in a), d // common
        out = cls.__new__(cls)
        out._num, out._den = a, d
        return out

    # -- constructors and views ------------------------------------------

    @classmethod
    def from_rational(cls, value: Scalar) -> "Cyc8Element":
        value = _as_fraction(value)
        return cls._from_ints((value.numerator, 0, 0, 0), value.denominator)

    @classmethod
    def zero(cls) -> "Cyc8Element":
        return cls._from_ints((0, 0, 0, 0))

    @classmethod
    def one(cls) -> "Cyc8Element":
        return cls._from_ints((1, 0, 0, 0))

    @property
    def coords(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        """The four power-basis coordinates as Fractions."""
        d = self._den
        return tuple(Fraction(c, d) for c in self._num)  # type: ignore

    def as_ints(self) -> Tuple[Tuple[int, int, int, int], int]:
        """(a, d): the four integer coordinates over their one positive
        denominator, in lowest terms."""
        return self._num, self._den

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        _, a1, a2, a3 = self._num
        return not (a1 or a2 or a3)

    # -- ring structure -------------------------------------------------

    def _coerce(self, other) -> "Cyc8Element":
        if isinstance(other, Cyc8Element):
            return other
        if _is_scalar(other):
            return Cyc8Element.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a0, a1, a2, a3 = self._num
        b0, b1, b2, b3 = o._num
        d, e = self._den, o._den
        if d == e:
            return Cyc8Element._from_ints((a0 + b0, a1 + b1, a2 + b2,
                                           a3 + b3), d)
        return Cyc8Element._from_ints((a0 * e + b0 * d, a1 * e + b1 * d,
                                       a2 * e + b2 * d, a3 * e + b3 * d),
                                      d * e)

    __radd__ = __add__

    def __neg__(self):
        return Cyc8Element._from_ints(tuple(-a for a in self._num), self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + -self

    def __mul__(self, other):
        a0, a1, a2, a3 = self._num
        if not isinstance(other, Cyc8Element):
            if not _is_scalar(other):
                return NotImplemented
            # an int is its own numerator over the denominator 1
            n = other.numerator
            return Cyc8Element._from_ints((a0 * n, a1 * n, a2 * n, a3 * n),
                                          self._den * other.denominator)
        b0, b1, b2, b3 = other._num
        # z^i * z^j = z^(i+j), folded back with z^4 = -1.
        return Cyc8Element._from_ints(
            (a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
             a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
             a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
             a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0),
            self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return power(self.invert(), -n, ONE) if n < 0 else power(self, n, ONE)

    # -- field structure -------------------------------------------------

    def _tower(self) -> Tuple[int, Tuple[int, int, int, int]]:
        """(p^2 + q^2, w): x^-1 = d * sum(w_k z^k) / (p^2 + q^2)."""
        a0, a1, a2, a3 = self._num
        p = a0 * a0 - a2 * a2 + 2 * a1 * a3
        q = 2 * a0 * a2 - a1 * a1 + a3 * a3
        return p * p + q * q, (a0 * p + a2 * q, -a1 * p - a3 * q,
                               a2 * p - a0 * q, a1 * q - a3 * p)

    def invert(self) -> "Cyc8Element":
        """x^-1 through the tower over Q(i), in integers."""
        n, w = self._tower()
        if not n:
            raise ZeroDivisionError("inverse of 0 in Q(zeta_8)")
        d = self._den
        return Cyc8Element._from_ints(tuple(d * c for c in w), n)

    def galois(self, j: int) -> "Cyc8Element":
        """The field automorphism sending z to z^j, for j in {1,3,5,7}.

        On the power basis:
          j=3: (c0, c3, -c2, c1)     j=5: (c0, -c1, c2, -c3)
          j=7: (c0, -c3, -c2, -c1)   (j=7 sends z to its inverse)
        """
        c0, c1, c2, c3 = self._num
        j = j % 8
        if j == 1:
            a = (c0, c1, c2, c3)
        elif j == 3:
            a = (c0, c3, -c2, c1)
        elif j == 5:
            a = (c0, -c1, c2, -c3)
        elif j == 7:
            a = (c0, -c3, -c2, -c1)
        else:
            raise ValueError("galois exponent must be odd mod 8, got %d" % j)
        return Cyc8Element._from_ints(a, self._den)

    def norm(self) -> Fraction:
        """Product of all four Galois conjugates; always rational."""
        return Fraction(self._tower()[0], self._den ** 4)

    # -- misc -------------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._den == o._den and self._num == o._num

    def __hash__(self):
        # a rational element equals, so must hash as, the number it is
        if self.is_rational():
            return hash(Fraction(self._num[0], self._den))
        return hash((self._num, self._den))

    def __repr__(self):
        return "Cyc8(%s)" % (format_sum(zip(self.coords, _BASIS_NAMES))
                             or "0")


def zeta_pow(e: int) -> Cyc8Element:
    """Canonical representation of zeta_8^e (e arbitrary, reduced mod 8)."""
    sign = 1 if e % 8 < 4 else -1
    return Cyc8Element([sign if k == e % 4 else 0 for k in range(4)])


ZERO = Cyc8Element.zero()
ONE = Cyc8Element.one()
ZETA = zeta_pow(1)
I_UNIT = zeta_pow(2)
