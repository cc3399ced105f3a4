"""Exact rational self-maps of a Weierstrass surface.

The objects here are sparse polynomials in the three coordinates (x, y, t)
with coefficients in Q(zeta_8), and rational maps

    (x, y, t)  ->  (x_num/x_den, y_num/y_den, zeta^e * t)

built from them.  The t-component is always a root-of-unity scaling: that
covers diagonal automorphisms and fiberwise group-law translations, which
is everything the analysis needs.

A polynomial is stored as f/d: f a dict {(i, j, k, l): int} holding the
terms c x^i y^j t^k zeta^l with l in 0..3, and d > 0.  No entry of f is
zero and d is coprime to the gcd of the entries, so the form is canonical
and equality and hashing compare the pair.  Sums, products and
substitution run on ints only: a product folds zeta^4 = -1 back by an
index shift and a sign, and the twist t -> zeta^e t does the same.  The
`terms` property is the derived {(i, j, k): Cyc8Element} view, one entry
per monomial in (x, y, t).

Every map the package builds is in y-odd normal form

    (x, y, t)  ->  (R(x, t), y * S(x, t), zeta^e * t):

x_num, x_den and y_den are free of y and every term of y_num has y to the
first power.  Diagonal scalings are of this form, and so are 2-torsion
translations, which are built already reduced on the curve.  Composition
is purely formal and keeps the form: substituting y -> y * S into a
polynomial of y-degree at most 1 gives y-degree at most 1 again.  One
composition builds each power of the inner map's four components, and
each product num^e * den^(d - e) that homogenizes a substitution, at
most once, and all four outer components read them; nothing is kept
after the call.

Products and sums skip the work that composition does not need.  A
product by the polynomial 1 returns the other factor, which is already
canonical, and the arithmetic builds the unit as the one object _ONE, so
composition skips a unit factor without calling the product at all.  A
factor of one term shifts the other factor's keys, which the zeta fold
keeps distinct, so nothing is accumulated.  A sum of one summand is that
summand.  A one-term product, a negation and the term groups of a
substitution or a y-reduction hold no zero entry, so their dicts are
kept as built, without a copy that drops zeros.

Equality is decided componentwise after cross-multiplying; a component
whose canonical numerators and denominators are equal needs none.  For
maps in normal form it is exact without the curve equation
y^2 = cubic(x, t): {1, y} is a basis of the surface's function field over
Q(zeta_8)(x, t), so two such maps agree on the surface exactly when their
R and S agree as rational functions in (x, t).  Maps built outside normal
form can carry even powers of y, which maps_equal reduces modulo the cubic
if given one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from .cyclotomic import Cyc8Element, _as_fraction, power, zeta_pow

Triple = Tuple[int, int, int]
Key = Tuple[int, int, int, int]  # (i, j, k, l): x^i y^j t^k zeta^l


class CurvePolynomial:
    """f/d in (x, y, t) over Q(zeta_8): f an {(i, j, k, l): int} dict."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Optional[Dict[Triple, object]] = None):
        clean: Dict[Key, Tuple[int, int]] = {}
        if terms:
            for key, value in terms.items():
                i, j, k = key
                if min(i, j, k) < 0:
                    raise ValueError("exponents must be non-negative")
                if isinstance(value, Cyc8Element):
                    coords, d = value.as_ints()
                else:
                    f = _as_fraction(value)
                    coords, d = (f.numerator,), f.denominator
                for l, c in enumerate(coords):
                    if c:
                        clean[(i, j, k, l)] = c, d
        # canonical: each coefficient is in lowest terms over its d, so
        # the lcm of the d's is the least common denominator
        den = reduce(math.lcm, (d for _, d in clean.values()), 1)
        self._num: Dict[Key, int] = {
            key: c * (den // d) for key, (c, d) in clean.items()}
        self._den: int = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value) -> "CurvePolynomial":
        return cls({(0, 0, 0): value})

    @classmethod
    def coordinate(cls, name: str) -> "CurvePolynomial":
        key = {"x": (1, 0, 0, 0), "y": (0, 1, 0, 0), "t": (0, 0, 1, 0)}[name]
        return cls._from_ints({key: 1})

    @classmethod
    def from_base_polynomial(cls, p) -> "CurvePolynomial":
        """Embed a RationalPolynomial in t."""
        return cls._from_ints(
            {(0, 0, e, 0): c for e, c in enumerate(p._num)}, p._den)

    @classmethod
    def _from_ints(cls, f: Dict[Key, int], d: int = 1) -> "CurvePolynomial":
        """f/d in canonical form, for d > 0."""
        return cls._from_nonzero({key: c for key, c in f.items() if c}, d)

    @classmethod
    def _from_nonzero(cls, f: Dict[Key, int], d: int = 1) -> "CurvePolynomial":
        """f/d in canonical form, for d > 0 and an f with no zero entry;
        the result may keep the dict f."""
        if d == 1 and f == _ONE._num:
            return _ONE
        if d != 1:
            common = reduce(math.gcd, f.values(), d)
            if common != 1:
                f = {key: c // common for key, c in f.items()}
                d //= common
        out = cls.__new__(cls)
        out._num, out._den = f, d
        return out

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Triple, Cyc8Element]:
        """A read-only {(i, j, k): coefficient} view, one entry per
        monomial x^i y^j t^k."""
        coords: Dict[Triple, List[int]] = {}
        for (i, j, k, l), c in self._num.items():
            coords.setdefault((i, j, k), [0] * 4)[l] = c
        return MappingProxyType(
            {key: Cyc8Element._from_ints(tuple(cs), self._den)
             for key, cs in coords.items()})

    def is_zero(self) -> bool:
        return not self._num

    def x_degree(self) -> int:
        return max((key[0] for key in self._num), default=0)

    def y_degree(self) -> int:
        return max((key[1] for key in self._num), default=0)

    def __eq__(self, other):
        if not isinstance(other, CurvePolynomial):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((frozenset(self._num.items()), self._den))

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "CurvePolynomial":
        if isinstance(other, CurvePolynomial):
            return other
        return CurvePolynomial.constant(other)

    def __add__(self, other) -> "CurvePolynomial":
        return _sum((self, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self) -> "CurvePolynomial":
        return CurvePolynomial._from_nonzero(
            {key: -c for key, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "CurvePolynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CurvePolynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "CurvePolynomial":
        other = self._coerce(other)
        # a product by one is the other factor, already canonical
        if other._den == 1 and other._num == _ONE._num:
            return self
        if self._den == 1 and self._num == _ONE._num:
            return other
        big, small = (self, other) if len(other._num) == 1 else (other, self)
        if len(small._num) == 1:
            # a one-term factor shifts the keys, which stay distinct
            ((i2, j2, k2, l2), c2), = small._num.items()
            shifted: Dict[Key, int] = {}
            for (i1, j1, k1, l1), c1 in big._num.items():
                l = l1 + l2
                shifted[i1 + i2, j1 + j2, k1 + k2, l % 4] = \
                    c1 * c2 if l < 4 else -c1 * c2
            return CurvePolynomial._from_nonzero(shifted,
                                                 self._den * other._den)
        acc: Dict[Key, int] = {}
        get = acc.get
        right = list(other._num.items())
        for (i1, j1, k1, l1), c1 in self._num.items():
            for (i2, j2, k2, l2), c2 in right:
                l = l1 + l2
                if l < 4:
                    key = (i1 + i2, j1 + j2, k1 + k2, l)
                    acc[key] = get(key, 0) + c1 * c2
                else:  # zeta^4 = -1
                    key = (i1 + i2, j1 + j2, k1 + k2, l - 4)
                    acc[key] = get(key, 0) - c1 * c2
        return CurvePolynomial._from_ints(acc, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CurvePolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n, _ONE)

    # -- substitution and reduction -----------------------------------------

    def substitute(self, x_num, x_den, y_num, y_den, t_exponent: int,
                   dx: int, dy: int) -> "CurvePolynomial":
        """Numerator of self(x -> x_num/x_den, y -> y_num/y_den,
        t -> zeta^t_exponent * t) over the denominator x_den^dx * y_den^dy.

        dx and dy must bound the x- and y-degrees of self so that the
        homogenization clears every denominator.
        """
        if dx < self.x_degree() or dy < self.y_degree():
            raise ValueError("homogenization degrees too small")
        return _Substitution(x_num, x_den, y_num, y_den,
                             t_exponent).apply(self, dx, dy)

    def reduce_y(self, cubic: "CurvePolynomial") -> "CurvePolynomial":
        """Eliminate y^2 via y^2 = cubic(x, t) until the y-degree is < 2."""
        p = self
        while p.y_degree() >= 2:
            low = {key: c for key, c in p._num.items() if key[1] < 2}
            high = {(i, j - 2, k, l): c
                    for (i, j, k, l), c in p._num.items() if j >= 2}
            p = CurvePolynomial._from_nonzero(low, p._den) \
                + CurvePolynomial._from_nonzero(high, p._den) * cubic
        return p

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "CurvePolynomial(0)"
        bits = []
        for key in sorted(terms):
            i, j, k = key
            mono = " ".join(filter(None, [
                "x^%d" % i if i else "", "y^%d" % j if j else "",
                "t^%d" % k if k else ""]))
            bits.append("(%r)%s" % (terms[key], " " + mono if mono else ""))
        return "CurvePolynomial[%s]" % " + ".join(bits)


_ONE = CurvePolynomial.constant(1)


def _times(p: CurvePolynomial, q: CurvePolynomial) -> CurvePolynomial:
    """p * q, with no product when a factor is the unit."""
    return q if p is _ONE else p if q is _ONE else p * q


def _sum(polys) -> CurvePolynomial:
    """The sum of the polynomials, over the lcm of their denominators."""
    if len(polys) == 1:
        return polys[0]
    den = reduce(math.lcm, (p._den for p in polys), 1)
    acc: Dict[Key, int] = {}
    get = acc.get
    for p in polys:
        scale = den // p._den
        for key, c in p._num.items():
            acc[key] = get(key, 0) + c * scale
    return CurvePolynomial._from_ints(acc, den)


class _Substitution:
    """x -> x_num/x_den, y -> y_num/y_den, t -> zeta^t_exponent * t, for
    any number of polynomials.

    Each power of the four components, and each product
    num^e * den^(d - e) that homogenizes a degree-d substitution, is built
    at most once per instance and shared by every polynomial it is
    applied to; the first power is the component itself, and for e = 0 or
    e = d the product is a power.
    """

    __slots__ = ("_powers", "_products", "_t_exponent")

    def __init__(self, x_num, x_den, y_num, y_den, t_exponent: int):
        self._powers: Tuple[List[CurvePolynomial], ...] = tuple(
            [_ONE, part] for part in (x_num, x_den, y_num, y_den))
        self._products: Dict[Tuple[int, int, int], CurvePolynomial] = {}
        self._t_exponent = t_exponent

    def _power(self, slot: int, n: int) -> CurvePolynomial:
        powers = self._powers[slot]
        while len(powers) <= n:
            powers.append(_times(powers[-1], powers[1]))
        return powers[n]

    def _product(self, slot: int, e: int, d: int) -> CurvePolynomial:
        """num^e * den^(d - e), for the x pair (slot 0) or the y pair
        (slot 2)."""
        if e == 0:
            return self._power(slot + 1, d)
        if e == d:
            return self._power(slot, d)
        key = (slot, e, d)
        out = self._products.get(key)
        if out is None:
            out = self._products[key] = \
                _times(self._power(slot, e), self._power(slot + 1, d - e))
        return out

    def apply(self, p: CurvePolynomial, dx: int, dy: int) -> CurvePolynomial:
        """The numerator of p substituted, over x_den^dx * y_den^dy, for dx
        and dy at least the x- and y-degrees of p.

        The terms are grouped by their (x, y) exponents, so each group is
        multiplied out once.
        """
        groups: Dict[Tuple[int, int], Dict[Key, int]] = {}
        for (i, j, k, l), c in p._num.items():
            # the twist zeta^(t_exponent * k), folded by zeta^4 = -1
            l = (l + self._t_exponent * k) % 8
            if l >= 4:
                l, c = l - 4, -c
            groups.setdefault((i, j), {})[(0, 0, k, l)] = c
        return _sum([
            _times(_times(CurvePolynomial._from_nonzero(coeffs, p._den),
                          self._product(0, i, dx)), self._product(2, j, dy))
            for (i, j), coeffs in groups.items()])


class RationalMap(namedtuple("RationalMap",
                             "x_num x_den y_num y_den t_exponent")):
    """(x, y, t) -> (x_num/x_den, y_num/y_den, zeta^t_exponent * t).

    The first four fields are CurvePolynomials, t_exponent an int.
    """

    __slots__ = ()

    @classmethod
    def identity(cls) -> "RationalMap":
        return cls.diagonal(0, 0, 0)

    @classmethod
    def diagonal(cls, ex: int, ey: int, et: int) -> "RationalMap":
        x = CurvePolynomial({(1, 0, 0): zeta_pow(ex % 8)})
        y = CurvePolynomial({(0, 1, 0): zeta_pow(ey % 8)})
        return cls(x, _ONE, y, _ONE, et % 8)


def compose(outer: RationalMap, inner: RationalMap) -> RationalMap:
    """outer after inner, as a formal rational map.

    The four components of outer share one substitution of inner, so each
    power of inner's components is built once per call.
    """
    plug = _Substitution(*inner)

    def pair(num: CurvePolynomial, den: CurvePolynomial):
        # the x- and y-degrees of the pair, in one pass over the keys
        dx = dy = 0
        for i, j, _, _ in (*num._num, *den._num):
            if i > dx:
                dx = i
            if j > dy:
                dy = j
        return plug.apply(num, dx, dy), plug.apply(den, dx, dy)

    xn, xd = pair(outer.x_num, outer.x_den)
    yn, yd = pair(outer.y_num, outer.y_den)
    return RationalMap(xn, xd, yn, yd,
                       (outer.t_exponent + inner.t_exponent) % 8)


def maps_equal(first: RationalMap, second: RationalMap,
               curve_cubic: Optional[CurvePolynomial] = None) -> bool:
    """Componentwise equality of rational maps.

    Without a cubic the comparison is equality of formal fractions, which
    is equality on the surface for maps in y-odd normal form (see the
    module docstring).  curve_cubic matters only for maps built outside
    that form: the cross-multiplied differences are then reduced modulo
    y^2 = curve_cubic before they are tested for zero.
    """
    if (first.t_exponent - second.t_exponent) % 8:
        return False
    pairs = ((first.x_num, first.x_den, second.x_num, second.x_den),
             (first.y_num, first.y_den, second.y_num, second.y_den))
    for n1, d1, n2, d2 in pairs:
        if n1 == n2 and d1 == d2:
            continue
        diff = _times(n1, d2) - _times(n2, d1)
        if curve_cubic is not None:
            diff = diff.reduce_y(curve_cubic)
        if not diff.is_zero():
            return False
    return True
