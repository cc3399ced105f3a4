"""Exact arithmetic in the cyclotomic field Q(zeta_8).

Elements are stored on the power basis (1, z, z^2, z^3), z a primitive 8th
root of unity and z^4 = -1, with `fractions.Fraction` coordinates: every
operation is exact, and equal elements have equal coordinates.  A
rational element equals, and hashes as, the int or Fraction it stands
for (a bool is neither); a product by an int or Fraction scales the four
coordinates instead of forming the 16-term product.  The field holds
i = z^2 and sqrt(2) = z - z^3.  Inverse and norm go through Q(i) in
integers: x = (u + v*z)/d, u = a0 + a2*i and v = a1 + a3*i integral, and
s5: z -> -z gives x * x^s5 = (u^2 - i*v^2)/d^2 = (p + q*i)/d^2, so N(x) =
(p^2 + q^2)/d^4 and x^-1 = d^2 * x^s5 * (p - q*i)/(p^2 + q^2).  The module
also holds the ring idioms all rings here share: `format_sum` and `power`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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
    """An element c0 + c1*z + c2*z^2 + c3*z^3 of Q(zeta_8)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Scalar] = (0, 0, 0, 0)):
        cs = tuple(_as_fraction(c) for c in coords)
        if len(cs) != 4:
            raise ValueError("power basis needs exactly 4 coordinates")
        self.coords: Tuple[Fraction, Fraction, Fraction, Fraction] = cs

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value: Scalar) -> "Cyc8Element":
        return cls((_as_fraction(value), 0, 0, 0))

    @classmethod
    def zero(cls) -> "Cyc8Element":
        return cls()

    @classmethod
    def one(cls) -> "Cyc8Element":
        return cls((1, 0, 0, 0))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return self.coords[1] == 0 and self.coords[2] == 0 and self.coords[3] == 0

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
        return Cyc8Element(tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc8Element(tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Cyc8Element(tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if not isinstance(other, Cyc8Element):
            if not _is_scalar(other):
                return NotImplemented
            return Cyc8Element(tuple(c * other for c in self.coords))
        a, b = self.coords, other.coords
        # z^i * z^j = z^(i+j), folded back with z^4 = -1.
        acc = [Fraction(0)] * 4
        for i in range(4):
            if a[i] == 0:
                continue
            for j in range(4):
                if b[j] == 0:
                    continue
                k = i + j
                if k < 4:
                    acc[k] += a[i] * b[j]
                else:
                    acc[k - 4] -= a[i] * b[j]
        return Cyc8Element(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return power(self.invert(), -n, ONE) if n < 0 else power(self, n, ONE)

    # -- field structure -------------------------------------------------

    def _tower(self) -> Tuple[int, int, Tuple[int, int, int, int]]:
        """(d, p^2 + q^2, w): x^-1 = d * sum(w_k z^k) / (p^2 + q^2)."""
        d = lcm(*(c.denominator for c in self.coords))
        a0, a1, a2, a3 = [d//c.denominator * c.numerator for c in self.coords]
        p = a0 * a0 - a2 * a2 + 2 * a1 * a3
        q = 2 * a0 * a2 - a1 * a1 + a3 * a3
        return d, p * p + q * q, (a0 * p + a2 * q, -a1 * p - a3 * q,
                                  a2 * p - a0 * q, a1 * q - a3 * p)

    def invert(self) -> "Cyc8Element":
        """x^-1 through the tower over Q(i), in integers."""
        d, n, w = self._tower()
        if not n:
            raise ZeroDivisionError("inverse of 0 in Q(zeta_8)")
        return Cyc8Element(Fraction(d * c, n) for c in w)

    def galois(self, j: int) -> "Cyc8Element":
        """The field automorphism sending z to z^j, for j in {1,3,5,7}.

        On the power basis:
          j=3: (c0, c3, -c2, c1)     j=5: (c0, -c1, c2, -c3)
          j=7: (c0, -c3, -c2, -c1)   (j=7 sends z to its inverse)
        """
        c0, c1, c2, c3 = self.coords
        j = j % 8
        if j == 1:
            return Cyc8Element((c0, c1, c2, c3))
        if j == 3:
            return Cyc8Element((c0, c3, -c2, c1))
        if j == 5:
            return Cyc8Element((c0, -c1, c2, -c3))
        if j == 7:
            return Cyc8Element((c0, -c3, -c2, -c1))
        raise ValueError("galois exponent must be odd mod 8, got %d" % j)

    def norm(self) -> Fraction:
        """Product of all four Galois conjugates; always rational."""
        d, n, _ = self._tower()
        return Fraction(n, d ** 4)

    # -- misc -------------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coords == o.coords

    def __hash__(self):
        # a rational element equals, so must hash as, the number it is
        return hash(self.coords[0] if self.is_rational() else self.coords)

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
