"""Exact rational self-maps of a Weierstrass surface.

The objects here are sparse polynomials in the three coordinates (x, y, t)
with coefficients in Q(zeta_8), and rational maps

    (x, y, t)  ->  (x_num/x_den, y_num/y_den, zeta^e * t)

built from them.  The t-component is always a root-of-unity scaling: that
covers diagonal automorphisms and fiberwise group-law translations, which
is everything the analysis needs.

Every map the package builds is in y-odd normal form

    (x, y, t)  ->  (R(x, t), y * S(x, t), zeta^e * t):

x_num, x_den and y_den are free of y and every term of y_num has y to the
first power.  Diagonal scalings are of this form, and so are 2-torsion
translations, which are built already reduced on the curve.  Composition
is purely formal and keeps the form: substituting y -> y * S into a
polynomial of y-degree at most 1 gives y-degree at most 1 again.

Equality is decided componentwise after cross-multiplying.  For maps in
normal form it is exact without the curve equation y^2 = cubic(x, t):
{1, y} is a basis of the surface's function field over Q(zeta_8)(x, t), so
two such maps agree on the surface exactly when their R and S agree as
rational functions in (x, t).  Maps built outside normal form can carry
even powers of y, which maps_equal reduces modulo the cubic if given one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .cyclotomic import Cyc8Element, zeta_pow

Triple = Tuple[int, int, int]


class CurvePolynomial:
    """Polynomial in (x, y, t) over Q(zeta_8), keyed by exponent triples."""

    def __init__(self, terms: Optional[Dict[Triple, object]] = None):
        clean: Dict[Triple, Cyc8Element] = {}
        if terms:
            for key, value in terms.items():
                i, j, k = key
                if min(i, j, k) < 0:
                    raise ValueError("exponents must be non-negative")
                if not isinstance(value, Cyc8Element):
                    value = Cyc8Element.from_rational(value)
                if not value.is_zero():
                    clean[(i, j, k)] = value
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value) -> "CurvePolynomial":
        return cls({(0, 0, 0): value})

    @classmethod
    def coordinate(cls, name: str) -> "CurvePolynomial":
        key = {"x": (1, 0, 0), "y": (0, 1, 0), "t": (0, 0, 1)}[name]
        return cls({key: Fraction(1)})

    @classmethod
    def from_base_polynomial(cls, p) -> "CurvePolynomial":
        """Embed a RationalPolynomial in t."""
        return cls({(0, 0, e): c for e, c in p.coeffs.items()})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def x_degree(self) -> int:
        return max((key[0] for key in self.terms), default=0)

    def y_degree(self) -> int:
        return max((key[1] for key in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, CurvePolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "CurvePolynomial":
        if isinstance(other, CurvePolynomial):
            return other
        return CurvePolynomial.constant(other)

    def __add__(self, other) -> "CurvePolynomial":
        acc = dict(self.terms)
        _add_into(acc, self._coerce(other))
        return CurvePolynomial(acc)

    __radd__ = __add__

    def __neg__(self) -> "CurvePolynomial":
        return CurvePolynomial({key: -value for key, value in self.terms.items()})

    def __sub__(self, other) -> "CurvePolynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CurvePolynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "CurvePolynomial":
        other = self._coerce(other)
        acc: Dict[Triple, Cyc8Element] = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                total = acc.get(key, Cyc8Element.zero()) + c1 * c2
                if total.is_zero():
                    acc.pop(key, None)
                else:
                    acc[key] = total
        return CurvePolynomial(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CurvePolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = CurvePolynomial.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def scale_coefficients(self, factor: Cyc8Element) -> "CurvePolynomial":
        return CurvePolynomial(
            {key: factor * value for key, value in self.terms.items()})

    # -- substitution and reduction -----------------------------------------

    def substitute(self, x_num, x_den, y_num, y_den, t_exponent: int,
                   dx: int, dy: int) -> "CurvePolynomial":
        """Numerator of self(x -> x_num/x_den, y -> y_num/y_den,
        t -> zeta^t_exponent * t) over the denominator x_den^dx * y_den^dy.

        dx and dy must bound the x- and y-degrees of self so that the
        homogenization clears every denominator.  The terms are grouped by
        their (x, y) exponents, so each group is multiplied out once, and
        each power of the four components is computed once per call.
        """
        if dx < self.x_degree() or dy < self.y_degree():
            raise ValueError("homogenization degrees too small")
        groups: Dict[Tuple[int, int], Dict[Triple, Cyc8Element]] = {}
        for (i, j, k), c in self.terms.items():
            groups.setdefault((i, j), {})[(0, 0, k)] = \
                c * zeta_pow((t_exponent * k) % 8)
        xs = {i for i, _ in groups}
        ys = {j for _, j in groups}
        x_parts = _products(x_num, x_den, dx, xs)
        y_parts = _products(y_num, y_den, dy, ys)
        acc: Dict[Triple, Cyc8Element] = {}
        for (i, j), coeffs in groups.items():
            piece = CurvePolynomial(coeffs) * x_parts[i] * y_parts[j]
            _add_into(acc, piece)
        return CurvePolynomial(acc)

    def reduce_y(self, cubic: "CurvePolynomial") -> "CurvePolynomial":
        """Eliminate y^2 via y^2 = cubic(x, t) until the y-degree is < 2."""
        p = self
        while p.y_degree() >= 2:
            low = CurvePolynomial(
                {key: c for key, c in p.terms.items() if key[1] < 2})
            high = CurvePolynomial()
            for (i, j, k), c in p.terms.items():
                if j >= 2:
                    high = high + CurvePolynomial({(i, j - 2, k): c}) * cubic
            p = low + high
        return p

    def __repr__(self):
        if not self.terms:
            return "CurvePolynomial(0)"
        bits = []
        for key in sorted(self.terms):
            i, j, k = key
            mono = " ".join(filter(None, [
                "x^%d" % i if i else "", "y^%d" % j if j else "",
                "t^%d" % k if k else ""]))
            bits.append("(%r)%s" % (self.terms[key], " " + mono if mono else ""))
        return "CurvePolynomial[%s]" % " + ".join(bits)


_ONE = CurvePolynomial.constant(1)


def _powers(p: CurvePolynomial, n: int):
    """[p^0, p^1, ..., p^n]."""
    out = [_ONE]
    for _ in range(n):
        out.append(out[-1] * p)
    return out


def _products(num: CurvePolynomial, den: CurvePolynomial, d: int, exps):
    """{e: num^e * den^(d - e)} for each e in exps."""
    if not exps:
        return {}
    nums = _powers(num, max(exps))
    dens = _powers(den, d - min(exps))
    return {e: nums[e] * dens[d - e] for e in exps}


def _add_into(acc: Dict[Triple, Cyc8Element], p: CurvePolynomial) -> None:
    for key, value in p.terms.items():
        total = acc[key] + value if key in acc else value
        if total.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = total


@dataclass(frozen=True)
class RationalMap:
    """(x, y, t) -> (x_num/x_den, y_num/y_den, zeta^t_exponent * t)."""

    x_num: CurvePolynomial
    x_den: CurvePolynomial
    y_num: CurvePolynomial
    y_den: CurvePolynomial
    t_exponent: int

    @classmethod
    def identity(cls) -> "RationalMap":
        return cls.diagonal(0, 0, 0)

    @classmethod
    def diagonal(cls, ex: int, ey: int, et: int) -> "RationalMap":
        x = CurvePolynomial({(1, 0, 0): zeta_pow(ex % 8)})
        y = CurvePolynomial({(0, 1, 0): zeta_pow(ey % 8)})
        return cls(x, _ONE, y, _ONE, et % 8)


def compose(outer: RationalMap, inner: RationalMap) -> RationalMap:
    """outer after inner, as a formal rational map."""
    def plug(num: CurvePolynomial, den: CurvePolynomial):
        dx = max(num.x_degree(), den.x_degree())
        dy = max(num.y_degree(), den.y_degree())
        args = (inner.x_num, inner.x_den, inner.y_num, inner.y_den,
                inner.t_exponent, dx, dy)
        return num.substitute(*args), den.substitute(*args)

    xn, xd = plug(outer.x_num, outer.x_den)
    yn, yd = plug(outer.y_num, outer.y_den)
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
        diff = n1 * d2 - n2 * d1
        if curve_cubic is not None:
            diff = diff.reduce_y(curve_cubic)
        if not diff.is_zero():
            return False
    return True
