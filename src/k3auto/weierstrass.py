"""Elliptic K3 surfaces y^2 = x^3 + a(t)x + b(t) with a diagonal symmetry.

The fibration is given by rational coefficient polynomials, either in the
short form above or in the 2-torsion form y^2 = x(x^2 + a(t)x + b(t)), and
the symmetry scales each coordinate by a power of a primitive 8th root of
unity, optionally composed with the fiberwise translation by a 2-torsion
section.  Everything here is exact: Kodaira types come from valuations,
fixed points from finite case analysis over Q(zeta_8), local eigenvalues
from implicit differentiation, and the final step matches the computed
action labels against the sixteen-row classification table.

The action on each invariant fiber is read from one table keyed by the
chart exponents of the fiber (the node test picks between rotation and
preservation for a translated cycle, and the arms of IV* are the roots of
Y^2 = (b/t^4)(0)), and the matched row confirms it; the analysis raises
rather than guess whenever the Weierstrass model does not determine the
answer.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import InvariantError, refuse_unknown_keys
from .cyclotomic import ONE, Cyc8Element, zeta_pow
from .fibers import (BRANCH_SWAP, I_CYCLE, IDENTITY, INVOLUTION, IV_STAR,
                     ORDER_4, PRESERVE, REFLECTION, ROTATION_2, SMOOTH,
                     SMOOTH_SHAPE, TRANSLATION_2, FiberAction, FiberShape,
                     action_label, fiber_fixed_data, point_type, type_counts)
from .polynomial import (Place, RationalPolynomial, _split_rational_roots,
                         multiplicity_profile, split_by_valuation, sum_pairs,
                         valuation_at, weierstrass_discriminant)


SHORT_FORM = "short"
TWO_TORSION_FORM = "two-torsion"

# degree caps (a, b) keeping the associated elliptic surface a K3
_DEGREE_BOUNDS = {SHORT_FORM: (8, 12), TWO_TORSION_FORM: (4, 8)}

# the weight of x: a section (x0, 0) has deg x0 <= 4, since for a larger
# degree n the leading term of x0^2 (degree 2n > max(n + 4, 8)) survives
# in x0^2 + a x0 + b
_SECTION_DEGREE = 4
_NOT_A_SECTION = \
    "torsion_x0 is not a 2-torsion section: x0^2 + a x0 + b != 0"


def convert_two_torsion_form(
        a: RationalPolynomial,
        b: RationalPolynomial) -> Tuple[RationalPolynomial, RationalPolynomial]:
    """Short-form coefficients of y^2 = x(x^2 + a x + b).

    Shifting x by -a/3 and rescaling by the unit with square 3 gives
    A = 9b - 3a^2 and B = 2a^3 - 9ab; the discriminant of (A, B) is
    -729 b^2 (a^2 - 4b), a constant times the original one, so all
    valuations agree.
    """
    return b * 9 - a * a * 3, a * a * a * 2 - a * b * 9


def kodaira_symbol(v_a, v_b, v_delta: int) -> str:
    """Kodaira type from the valuations of (a, b, delta) at one place.

    v_a / v_b may be float('inf') for identically zero coefficients.
    """
    if v_delta == 0:
        return "I_0"
    if v_a == 0:
        return "I_%d" % v_delta
    if v_a >= 4 and v_b >= 6:
        raise InvariantError(
            "non-minimal Weierstrass datum (v(a) >= 4 and v(b) >= 6): "
            "rescale to (a/u^4, b/u^6) with u a local parameter")
    if v_a >= 1 and v_b == 1 and v_delta == 2:
        return "II"
    if v_a == 1 and v_b >= 2 and v_delta == 3:
        return "III"
    if v_a >= 2 and v_b == 2 and v_delta == 4:
        return "IV"
    if v_a >= 2 and v_b >= 3 and v_delta == 6:
        return "I_0*"
    if v_a == 2 and v_b == 3 and v_delta > 6:
        return "I_%d*" % (v_delta - 6)
    if v_a >= 3 and v_b == 4 and v_delta == 8:
        return "IV*"
    if v_a == 3 and v_b >= 5 and v_delta == 9:
        return "III*"
    if v_a >= 4 and v_b == 5 and v_delta == 10:
        return "II*"
    raise InvariantError(
        "inconsistent Weierstrass datum: (v(a), v(b), v(delta)) = (%s, %s, %s)"
        % (v_a, v_b, v_delta))


class FiberReport(namedtuple("FiberReport",
                             "place v_a v_b v_delta kodaira")):
    """Valuations and Kodaira type of the fiber over one place; v_a and v_b
    are float('inf') for an identically zero coefficient."""

    __slots__ = ()

    def to_dict(self) -> Dict:
        def fin(v):
            return None if v == float("inf") else v
        return {"place": str(self.place), "degree": self.place.degree(),
                "v_a": fin(self.v_a), "v_b": fin(self.v_b),
                "v_delta": self.v_delta, "kodaira": self.kodaira}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _reverse(p: RationalPolynomial, weight: int) -> RationalPolynomial:
    """s^weight p(1/s): the coefficient in the chart at t = infinity."""
    _require(p.degree() <= weight, "degree %s exceeds the chart weight %d"
             % (p.degree(), weight))
    padded = p._num + [0] * (weight + 1 - len(p._num))
    return RationalPolynomial._from_ints(padded[::-1], p._den)


def _pairs_field(data: Dict, key: str) -> Dict[int, Fraction]:
    """The {exponent: coefficient} sum of the pairs under data[key]; errors
    name the key."""
    try:
        return sum_pairs(data[key])
    except ValueError as err:
        raise ValueError("%r: %s" % (key, err)) from None


def _degree(coeffs: Dict[int, Fraction]) -> int:
    """The degree of a sparse {exponent: coefficient} sum; -1 for zero."""
    return max((e for e, c in coeffs.items() if c), default=-1)


def _check_datum(form: str, deg_a, deg_b) -> None:
    if form not in (SHORT_FORM, TWO_TORSION_FORM):
        raise ValueError("unknown Weierstrass form %r" % (form,))
    da, db = _DEGREE_BOUNDS[form]
    if deg_a > da or deg_b > db:
        raise ValueError(
            "not a K3 Weierstrass datum (need deg a <= %d, deg b <= %d)"
            % (da, db))


def _section_field(data: Dict) -> RationalPolynomial:
    """data["torsion_x0"], refused before its dense list is built when its
    degree alone shows that (x0, 0) is no section."""
    x0 = _pairs_field(data, "torsion_x0")
    _require(_degree(x0) <= _SECTION_DEGREE, _NOT_A_SECTION)
    return RationalPolynomial(x0)


class WeierstrassFibration:
    """An elliptic K3 given by coefficient polynomials over Q."""

    def __init__(self, a: RationalPolynomial, b: RationalPolynomial,
                 form: str = SHORT_FORM):
        _check_datum(form, a.degree(), b.degree())
        self.a = a
        self.b = b
        self.form = form

    def at_infinity(self) -> "WeierstrassFibration":
        """The surface in the chart (x/t^4, y/t^6, s = 1/t), where the fiber
        over t = infinity is the fiber over s = 0.

        a and b become s^da a(1/s) and s^db b(1/s), (da, db) the degree caps
        of the form (Miranda, The Basic Theory of Elliptic Surfaces, 1989).
        """
        da, db = _DEGREE_BOUNDS[self.form]
        return WeierstrassFibration(_reverse(self.a, da),
                                    _reverse(self.b, db), self.form)

    def short_coefficients(self) -> Tuple[RationalPolynomial, RationalPolynomial]:
        if self.form == SHORT_FORM:
            return self.a, self.b
        return convert_two_torsion_form(self.a, self.b)

    def curve_relation(self) -> CurvePolynomial:
        """The cubic in (x, t) with y^2 = cubic on the surface."""
        from .maps import CurvePolynomial
        x = CurvePolynomial.coordinate("x")
        a = CurvePolynomial.from_base_polynomial(self.a)
        b = CurvePolynomial.from_base_polynomial(self.b)
        if self.form == SHORT_FORM:
            return x ** 3 + a * x + b
        return x ** 3 + a * x * x + b * x

    def to_json(self) -> Dict:
        return {"form": self.form, "a": self.a.to_pairs(),
                "b": self.b.to_pairs()}

    @classmethod
    def from_json(cls, data: Dict) -> "WeierstrassFibration":
        _require(isinstance(data, dict), "the fibration must be a JSON object")
        refuse_unknown_keys(data, ("form", "a", "b"))
        a, b = _pairs_field(data, "a"), _pairs_field(data, "b")
        form = data.get("form", SHORT_FORM)
        # before the dense lists, whose length is the degree
        _check_datum(form, _degree(a), _degree(b))
        return cls(RationalPolynomial(a), RationalPolynomial(b), form)

    def __repr__(self):
        return "WeierstrassFibration(%r, %r, form=%r)" % (
            self.a, self.b, self.form)


def _fiber_report(place: Place, v_a, v_b, v_delta: int) -> FiberReport:
    try:
        symbol = kodaira_symbol(v_a, v_b, v_delta)
    except InvariantError as err:
        raise InvariantError("%s (at %s)" % (err, place)) from None
    return FiberReport(place, v_a, v_b, v_delta, symbol)


def _short_and_discriminant(f: WeierstrassFibration):
    """(a, b, delta) of the short form; a zero delta is refused."""
    a, b = f.short_coefficients()
    delta = weierstrass_discriminant(a, b)
    if delta.is_zero():
        raise InvariantError(
            "discriminant vanishes identically; not an elliptic surface")
    return a, b, delta


def kodaira_type_at(f: WeierstrassFibration, place: Place) -> FiberReport:
    """Fiber report over one place.

    t = infinity is read from degrees.  In the chart s = 1/t of
    f.at_infinity() the short-form coefficients and the discriminant are
    s^8 a(1/s), s^12 b(1/s) and s^24 delta(1/s), in both forms once the
    2-torsion form is converted, so their valuations at s = 0 are
    8 - deg a, 12 - deg b and 24 - deg delta, and inf for a zero
    coefficient (whose degree is -inf).
    """
    a, b, delta = _short_and_discriminant(f)
    if place.kind == "infinity":
        return _infinity_report(a, b, delta)
    return _fiber_report(place, valuation_at(a, place), valuation_at(b, place),
                         valuation_at(delta, place))


def _infinity_report(a: RationalPolynomial, b: RationalPolynomial,
                     delta: RationalPolynomial) -> FiberReport:
    """The report at t = infinity from the short-form a, b and delta."""
    return _fiber_report(Place.infinity(), 8 - a.degree(), 12 - b.degree(),
                         24 - delta.degree())


def _split(f: RationalPolynomial, p: RationalPolynomial):
    # split_by_valuation, with every root at level inf when p = 0
    return [(f, float("inf"))] if p.is_zero() else split_by_valuation(f, p)


def fiber_reports(f: WeierstrassFibration) -> List[FiberReport]:
    """Reports for every singular fiber, checking the Euler count.

    v(delta) at a finite place is its multiplicity in delta.  An
    irrational layer of delta is split by v(a), then by v(b), so every
    report's place bundles roots sharing one valuation triple.  Where
    v(a) = 0 at a root of delta = 4a^3 + 27b^2, 27b^2 = delta - 4a^3 is a
    unit, so v(b) = 0 is read off without computing it.  A simple root of
    delta is I_1 with no valuation computed: v(a) >= 1 there would give
    27b^2 = delta - 4a^3 the odd valuation 1.  The sum of v(delta)
    weighted by residue degree must be 24; a shortfall always surfaces as
    a non-minimal place instead, so the explicit check is a backstop.
    """
    a, b, delta = _short_and_discriminant(f)
    reports = []
    for place, mult in multiplicity_profile(delta):
        if mult == 1:
            reports.append(_fiber_report(place, 0, 0, 1))
            continue
        if place.kind == "finite-rational":
            v_a = valuation_at(a, place)
            v_b = valuation_at(b, place) if v_a else 0
            reports.append(_fiber_report(place, v_a, v_b, mult))
            continue
        for part, v_a in _split(place.poly, a):
            for piece, v_b in _split(part, b) if v_a else [(part, 0)]:
                reports.append(_fiber_report(
                    Place("finite-irreducible", poly=piece), v_a, v_b, mult))
    if 24 - delta.degree() > 0:
        reports.append(_infinity_report(a, b, delta))
    total = sum(r.v_delta * r.place.degree() for r in reports)
    if total != 24:
        raise InvariantError(
            "Euler numbers of the singular fibers sum to %d, not 24" % total)
    return reports


def _tag_sort_key(tag: str) -> Tuple[int, int, str]:
    if tag.startswith("I_") and not tag.endswith("*"):
        return (0, int(tag[2:]), tag)
    return (1, 0, tag)


def _inventory(reports: Sequence[FiberReport]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for report in reports:
        counts[report.kodaira] = (counts.get(report.kodaira, 0)
                                  + report.place.degree())
    return {tag: counts[tag] for tag in sorted(counts, key=_tag_sort_key)}


def fiber_inventory(f: WeierstrassFibration) -> Dict[str, int]:
    """Count of singular fibers by Kodaira type, residue degrees expanded."""
    return _inventory(fiber_reports(f))


# ---------------------------------------------------------------------------
# the symmetry


class DiagonalAutomorphism(namedtuple("DiagonalAutomorphism",
                                      "ex ey et translate torsion_x0")):
    """(x, y, t) -> (zeta^ex x, zeta^ey y, zeta^et t), optionally composed
    with the fiberwise translation by a 2-torsion section.

    The exponents are stored mod 8.  torsion_x0 is the x-coordinate
    polynomial of that section; None means the section (0, 0) of the
    2-torsion form.
    """

    __slots__ = ()

    def __new__(cls, ex: int, ey: int, et: int, translate: bool = False,
                torsion_x0: Optional[RationalPolynomial] = None):
        for name, value in (("ex", ex), ("ey", ey), ("et", et)):
            _require(type(value) is int,
                     "%r must be an integer, not %r" % (name, value))
        _require(type(translate) is bool,
                 "'translate' must be true or false, not %r" % (translate,))
        if torsion_x0 is not None and not translate:
            raise ValueError("a torsion section needs translate=True")
        return super().__new__(cls, ex % 8, ey % 8, et % 8, translate,
                               torsion_x0)

    def exponents(self) -> Tuple[int, int, int]:
        return (self.ex, self.ey, self.et)

    def at_infinity(self) -> "DiagonalAutomorphism":
        """The same map in the chart of WeierstrassFibration.at_infinity:
        exponents (ex - 4 et, ey - 6 et, -et), section x-coordinate
        s^4 x0(1/s).  x0 must be a section, which bounds its degree by 4."""
        x0 = self.torsion_x0
        return DiagonalAutomorphism(
            self.ex - 4 * self.et, self.ey - 6 * self.et, -self.et,
            self.translate,
            None if x0 is None else _reverse(x0, _SECTION_DEGREE))

    def to_json(self) -> Dict:
        data: Dict = {"ex": self.ex, "ey": self.ey, "et": self.et,
                      "translate": self.translate}
        if self.torsion_x0 is not None:
            data["torsion_x0"] = self.torsion_x0.to_pairs()
        return data

    @classmethod
    def from_json(cls, data: Dict) -> "DiagonalAutomorphism":
        _require(isinstance(data, dict),
                 "the automorphism must be a JSON object")
        refuse_unknown_keys(data, ("ex", "ey", "et", "translate",
                                   "torsion_x0"))
        return cls(ex=data["ex"], ey=data["ey"], et=data["et"],
                   translate=data.get("translate", False),
                   torsion_x0=None if data.get("torsion_x0") is None
                   else _section_field(data))


def _coefficient_exponent_failures(p: RationalPolynomial, et: int,
                                   target: int, name: str) -> List[str]:
    bad = sorted(e for e in p.coeffs if (et * e - target) % 8)
    if not bad:
        return []
    return ["%s(zeta^%d t) != zeta^%d %s(t) (exponents %s)"
            % (name, et, target % 8, name, bad)]


def invariance_failures(f: WeierstrassFibration,
                        g: DiagonalAutomorphism) -> List[str]:
    """Every congruence that fails for the curve equation to be preserved."""
    ex, ey, et = g.exponents()
    failures = []
    if (2 * ey - 3 * ex) % 8:
        failures.append("2*ey != 3*ex (mod 8): the x^3 and y^2 terms scale "
                        "differently")
    if f.form == SHORT_FORM:
        ta, tb = 2 * ey - ex, 2 * ey
    else:
        ta, tb = 2 * ey - 2 * ex, 2 * ey - ex
    failures += _coefficient_exponent_failures(f.a, et, ta % 8, "a")
    failures += _coefficient_exponent_failures(f.b, et, tb % 8, "b")
    return failures


def two_form_multiplier(g: DiagonalAutomorphism) -> int:
    """Exponent e with pullback of (dt dx)/y = zeta^e (dt dx)/y.

    Translations preserve the 2-form, so only the scaling part enters; the
    action is purely non-symplectic of order 8 exactly when e is odd.
    """
    return (g.et + g.ex - g.ey) % 8


def _check_section(f: WeierstrassFibration,
                   x0: Optional[RationalPolynomial]) -> None:
    """The translation data: the 2-torsion form, and (x0, 0) a section;
    x0 None or 0 is (0, 0), which lies on every curve of the form."""
    if f.form != TWO_TORSION_FORM:
        raise ValueError("translation needs the 2-torsion form")
    if x0 is not None and not x0.is_zero() \
            and not (x0 * x0 + f.a * x0 + f.b).is_zero():
        raise ValueError(_NOT_A_SECTION)


def _check_generator(f: WeierstrassFibration,
                     g: DiagonalAutomorphism) -> None:
    """The checks every analysis of g on f starts with: invariance, the
    translation section, and the 2-form multiplier zeta."""
    failures = invariance_failures(f, g)
    if failures:
        raise InvariantError(
            "the scaling does not preserve the fibration: "
            + "; ".join(failures))
    if g.translate:
        _check_section(f, g.torsion_x0)
    exponent = two_form_multiplier(g)
    if exponent != 1:
        raise InvariantError(
            "the 2-form multiplier is zeta^%d; table matching needs the "
            "generator with multiplier zeta" % exponent)


def _invariant_charts(f: WeierstrassFibration, g: DiagonalAutomorphism
                      ) -> List[Tuple[Place, WeierstrassFibration,
                                      DiagonalAutomorphism]]:
    """(place, fibration, automorphism) for the two invariant fibers, each
    the fiber over t = 0 of the chart it is given in."""
    if g.et % 2 == 0:
        order = 8 // math.gcd(8, g.et)
        raise ValueError(
            "t-exponent %d acts with order %d on the base; need order 8"
            % (g.et, order))
    return [(Place.finite_rational(0), f, g),
            (Place.infinity(), f.at_infinity(), g.at_infinity())]


def cubic_at(f: WeierstrassFibration) -> Tuple[Fraction, Fraction, Fraction]:
    """(c2, c1, c0) with the fiber over t = 0 being y^2 = x^3 + c2 x^2 +
    c1 x + c0; the fiber at infinity is cubic_at(f.at_infinity())."""
    va, vb = f.a.evaluate(0), f.b.evaluate(0)
    if f.form == SHORT_FORM:
        return (Fraction(0), va, vb)
    return (va, vb, Fraction(0))


def _section_x(g: DiagonalAutomorphism) -> Fraction:
    """x-value over t = 0 of the translation section."""
    return Fraction(0) if g.torsion_x0 is None else g.torsion_x0.evaluate(0)


# ---------------------------------------------------------------------------
# fixed points on a smooth invariant fiber


class FixedPoint(namedtuple("FixedPoint",
                            "description base_exponent tangent_exponent")):
    """An isolated fixed point with its local eigenvalue exponent pair."""

    __slots__ = ()

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.base_exponent, self.tangent_exponent)

    def to_dict(self) -> Dict:
        return {"description": self.description,
                "pair": [self.base_exponent, self.tangent_exponent],
                "type": point_type(*self.pair)}


def _poly_in_x(p: RationalPolynomial) -> str:
    bits = []
    for e, c in reversed(p.coeffs.items()):
        mono = "x^%d" % e if e > 1 else ("x" if e == 1 else "")
        if mono and abs(c) == 1:
            coeff = "-" if c < 0 else ""
        else:
            coeff = str(c)
        bits.append(coeff + mono)
    return " + ".join(bits).replace("+ -", "- ") if bits else "0"


def _check_tangent(case_exponent: int, uniform: int, where: str) -> int:
    # implicit differentiation must agree with the eigenvalue of dx/y
    if (case_exponent - uniform) % 8:
        raise ValueError(
            "the scaling does not preserve this fiber (tangent exponent "
            "mismatch at %s)" % where)
    return case_exponent % 8


def _fixed_points_at_zero(f: WeierstrassFibration,
                          g: DiagonalAutomorphism) -> List[FixedPoint]:
    """Isolated fixed points of the scaling with chart exponents (0, 4),
    (4, 2) or (4, 6) on the smooth fiber over t = 0."""
    ex, ey, base = g.exponents()
    c2, c1, c0 = cubic_at(f)
    uniform = (ex - ey) % 8
    # at infinity of the cubic, x/y is a local coordinate scaling by
    # zeta^(ex - ey)
    points = [FixedPoint("point at infinity", base, uniform)]
    if c0 == 0:
        # (0,0) on the curve; F_x = -c1 != 0 there, y is a coordinate
        tangent = _check_tangent(ey, uniform, "(0, 0)")
        points.append(FixedPoint("(0, 0)", base, tangent))
    if ex == 0:
        # every 2-torsion point (x0, 0); x is frozen so y is a coordinate
        tangent = _check_tangent(ey, uniform, "(x0, 0)")
        # the fiber is smooth, so its cubic is squarefree
        roots, residual = _split_rational_roots(
            RationalPolynomial({3: Fraction(1), 2: c2, 1: c1, 0: c0}))
        points.extend(FixedPoint("(%s, 0)" % root, base, tangent)
                      for root in roots if root != 0)  # (0, 0) is counted
        if residual.degree() > 0:
            label = "(x0, 0), x0 a root of %s" % _poly_in_x(residual)
            points.extend(FixedPoint(label, base, tangent)
                          for _ in range(residual.degree()))
    return points


def _translate_fixed_points(f: WeierstrassFibration,
                            g: DiagonalAutomorphism) -> List[FixedPoint]:
    """Fixed points over t = 0 of (scale) o (translate by (section_x, 0)),
    the scaling with chart exponents (4, 2) or (4, 6).

    A point P is fixed iff P + T equals the inverse scaling of P; the group
    law makes this a pair of polynomial conditions over Q(zeta_8).  The
    translation preserves dx/y, so every fixed point has fiber eigenvalue
    zeta^(ex - ey).
    """
    ex, ey, base = g.exponents()
    c2, c1, c0 = cubic_at(f)
    section_x = _section_x(g)
    assert c0 == 0  # 2-torsion chart
    uniform = (ex - ey) % 8
    C1, C2 = Cyc8Element.from_rational(c1), Cyc8Element.from_rational(c2)
    V = Cyc8Element.from_rational(section_x)
    points = []

    # y != 0: the y-condition is linear in x, then the x-condition must
    # hold on the nose and the point must avoid the 2-torsion locus
    x_sol = V * (ONE + zeta_pow(ey)) * (ONE + zeta_pow((ey - ex) % 8)).invert()
    f_val = ((x_sol + C2) * x_sol + C1) * x_sol
    shifted = zeta_pow((-ex) % 8) * x_sol + C2 + x_sol + V
    rhs = shifted * (x_sol - V) * (x_sol - V)
    if f_val == rhs and not f_val.is_zero():
        for sign in ("", "-"):
            points.append(FixedPoint(
                "(x1, %sy1), x1 = %r, y1^2 = f(x1)" % (sign, x_sol),
                base, uniform))

    # y = 0: the translation swaps the other two 2-torsion points, and
    # x -> -x fixes them when they are (x2, 0) and (-x2, 0)
    if section_x == 0 and c2 == 0:
        for sign in ("", "-"):
            points.append(FixedPoint(
                "(%sx2, 0), x2^2 = %s" % (sign, -c1), base, uniform))
    # section_x != 0: the swap moves (0,0) to the third point and back,
    # and the scaling fixes neither, so no fixed 2-torsion points
    return points


def fixed_points_on_fiber(f: WeierstrassFibration, g: DiagonalAutomorphism,
                          place: Place) -> List[FixedPoint]:
    """Isolated fixed points on the smooth invariant fiber over the place,
    after the checks analyze_action starts with."""
    report = kodaira_type_at(f, place)
    if report.kodaira != "I_0":
        raise ValueError(
            "fiber at %s has type %s; fixed points are enumerated on "
            "smooth fibers only" % (place, report.kodaira))
    _check_generator(f, g)
    for at, f_chart, g_chart in _invariant_charts(f, g):
        if at == place:
            _, name, points = _invariant_fiber(place, "I_0", f_chart, g_chart)
            if name == IDENTITY:
                raise ValueError("the action is the identity on this fiber; "
                                 "its fixed locus is not a finite set of "
                                 "points")
            return points
    raise ValueError("the base action fixes only t=0 and t=infinity")


# ---------------------------------------------------------------------------
# rational self-maps


def torsion_translation(f: WeierstrassFibration,
                        x0: Optional[RationalPolynomial] = None) -> RationalMap:
    """Fiberwise translation by the 2-torsion section (x0, 0), in y-odd
    normal form.

    On y^2 = c(x) = x(x^2 + a x + b) with c(x0) = 0, the translation by
    T = (x0, 0) is

        (x, y) -> (x0 + c'(x0)/(x - x0), -c'(x0) y/(x - x0)^2),

    c'(x0) = 3 x0^2 + 2 a x0 + b (Velu 1971; Silverman, AEC III.2.3): in
    X = x - x0 the cubic is X(X^2 + (a + 3 x0) X + c'(x0)), on which the
    translation by (0, 0) is (X, y) -> (c'(x0)/X, -c'(x0) y/X^2).  This is
    the chord construction x' = y^2/(x - x0)^2 - a - x - x0 reduced once by
    the curve relation, with the factor x - x0 cancelled.  When c'(x0) is
    the zero polynomial the generic fiber is singular at T, which is
    refused.
    """
    _check_section(f, x0)
    if x0 is None:
        x0 = RationalPolynomial.zero()
    derivative = x0 * x0 * 3 + f.a * x0 * 2 + f.b  # c'(x0)
    if derivative.is_zero():
        raise ValueError(
            "c'(x0) = 3 x0^2 + 2 a x0 + b is 0: the generic fiber is "
            "singular at the section (x0, 0)")
    from .maps import CurvePolynomial, RationalMap
    x = CurvePolynomial.coordinate("x")
    y = CurvePolynomial.coordinate("y")
    x0c = CurvePolynomial.from_base_polynomial(x0)
    c = CurvePolynomial.from_base_polynomial(derivative)
    shift = x - x0c
    return RationalMap(x0c * shift + c, shift, -(c * y), shift * shift, 0)


def automorphism_map(f: WeierstrassFibration,
                     g: DiagonalAutomorphism) -> RationalMap:
    """The symmetry as an exact rational self-map (translation first)."""
    from .maps import RationalMap, compose
    diagonal = RationalMap.diagonal(g.ex, g.ey, g.et)
    if not g.translate:
        return diagonal
    return compose(diagonal, torsion_translation(f, g.torsion_x0))


# ---------------------------------------------------------------------------
# action labels and classification matching

# The action on the invariant fiber over t = 0 of a checked chart, by chart
# exponents (ex, ey) and fiber kind: (without, with the translation).  A
# generator that passes _check_generator has one of these four exponent
# pairs at t = 0 and at t = infinity, and et = 1 - ex + ey, so the cell
# decides the action.
# - A translated cycle is rotated when the section passes through the node
#   of the Weierstrass cubic, and preserved otherwise (_invariant_fiber).
# - IV* over t = 0 has v(b) = 4, and its two arms off the zero section lie
#   over the roots of Y^2 = (b/t^4)(0), Y = y/t^2 (Tate's algorithm;
#   Silverman, Advanced Topics, IV.9).  g scales Y by zeta^(ey - 2 et):
#   zeta^(2 - 14) = -1 swaps the arms at (4, 2), zeta^0 keeps them at (4, 6).
# None, or a kind left out, is a refusal: _UNTYPED names the translated
# (0, 4) cells, and invariance leaves no fibration for the others (a cycle
# at (4, .), IV* at (0, .) or with translation).
_CHART_ACTIONS = {
    (0, 0): {SMOOTH: (IDENTITY, TRANSLATION_2),
             I_CYCLE: (PRESERVE, ROTATION_2)},
    (0, 4): {SMOOTH: (INVOLUTION, None), I_CYCLE: (REFLECTION, None)},
    (4, 2): {SMOOTH: (ORDER_4, ORDER_4), IV_STAR: (BRANCH_SWAP, None)},
    (4, 6): {SMOOTH: (ORDER_4, ORDER_4), IV_STAR: (PRESERVE, None)},
}
_UNTYPED = {
    # y -> -y after the translation: P -> -(P + T), fixing the four points
    # with 2P = T, which no fixed-point case computes
    (SMOOTH, 0, 4): "chart exponents (0, 4) with translation act on the "
                    "smooth fiber as the involution P -> -(P + T), T the "
                    "2-torsion section; k3auto does not type this action yet",
    (I_CYCLE, 0, 4): "chart exponents (0, 4) with translation on a cycle "
                     "fiber are outside the classified actions",
}


def _cycle_node_x(f: WeierstrassFibration) -> Fraction:
    # only translations reach here, and they need the 2-torsion form
    c2, c1, _ = cubic_at(f)
    if c1 == 0:
        return Fraction(0)
    assert c2 * c2 - 4 * c1 == 0
    return -c2 / 2


def _invariant_fiber(place: Place, tag: str, f: WeierstrassFibration,
                     g: DiagonalAutomorphism
                     ) -> Tuple[FiberShape, str, List[FixedPoint]]:
    """(shape, action name, isolated fixed points) of the invariant fiber
    of Kodaira type tag at place, the fiber over t = 0 of the checked chart
    (f, g); only a smooth fiber gets points, and none under the identity
    or translation-2."""
    if tag == "I_0":
        shape = SMOOTH_SHAPE
    elif tag.startswith("I_") and not tag.endswith("*"):
        shape = FiberShape.i_cycle(int(tag[2:]))
    elif tag == "IV*":
        shape = FiberShape.iv_star()
    else:
        raise ValueError(
            "invariant fiber of type %s is outside the classified shapes"
            % tag)
    name = _CHART_ACTIONS[g.ex, g.ey].get(shape.kind, (None, None))[
        g.translate]
    if name is None:
        raise ValueError(_UNTYPED.get(
            (shape.kind, g.ex, g.ey),
            "the %s fiber at %s has chart exponents (%d, %d)%s, which no "
            "checked generator reaches" % (
                tag, place, g.ex, g.ey,
                " with translation" if g.translate else "")))
    if name == ROTATION_2 and _section_x(g) != _cycle_node_x(f):
        name = PRESERVE  # the section misses the node
    if shape != SMOOTH_SHAPE or name in (IDENTITY, TRANSLATION_2):
        return shape, name, []
    fixed_points = _translate_fixed_points if g.translate \
        else _fixed_points_at_zero
    return shape, name, fixed_points(f, g)


class InvariantFiberReport(namedtuple("InvariantFiberReport", (
        "place kodaira label fixed_points point_counts rational_fixed_curves "
        "points_from"))):
    """One of the two invariant fibers with its action data.

    fixed_points is a list of FixedPoint, point_counts the (n2, n3, n4)
    triple, and points_from "coordinates" or "dual-graph".
    """

    __slots__ = ()

    def to_dict(self) -> Dict:
        return {"place": str(self.place), "kodaira": self.kodaira,
                "action": self.label,
                "fixed_points": [p.to_dict() for p in self.fixed_points],
                "point_counts": list(self.point_counts),
                "rational_fixed_curves": self.rational_fixed_curves,
                "points_from": self.points_from}


class ActionAnalysis(namedtuple("ActionAnalysis", (
        "fibration automorphism singular_fibers inventory euler_sum "
        "two_form_exponent invariant_fibers action matched_row checks"))):
    """Full report of an invariant fibration with its matched table row.

    singular_fibers is a list of FiberReport, inventory the Kodaira type
    counts, invariant_fibers the two InvariantFiberReports, checks the
    named cross-checks.
    """

    __slots__ = ()

    def to_json(self) -> Dict:
        return {
            "fibration": self.fibration.to_json(),
            "automorphism": self.automorphism.to_json(),
            "fibers": [r.to_dict() for r in self.singular_fibers],
            "fiber_counts": dict(self.inventory),
            "euler_sum": self.euler_sum,
            "invariance": True,
            "two_form_exponent": self.two_form_exponent,
            "invariant_fibers": [r.to_dict() for r in self.invariant_fibers],
            "action": list(self.action),
            "matched_row": self.matched_row.to_dict(),
            "checks": dict(self.checks),
        }


def analyze_action(f: WeierstrassFibration, g: DiagonalAutomorphism, *,
                   reports: Optional[List[FiberReport]] = None
                   ) -> ActionAnalysis:
    """Verify invariance, locate the invariant fibers, compute the fixed
    points and action labels, and match the unique classification row.

    reports, when given, must be fiber_reports(f), already computed; it
    saves typing the fibers a second time.  Without it f is typed here,
    after the generator checks and the table, so every refusal keeps its
    precedence.
    """
    from .classify import enumerate_cases, match_row, validate_row
    _check_generator(f, g)
    table = enumerate_cases()
    singular = fiber_reports(f) if reports is None else reports
    types = {report.place: report.kodaira for report in singular}

    # (place, kodaira, shape, action, fixed points, point counts) of each
    # invariant fiber; degenerate fibers take their counts from the dual
    # graph
    entries = []
    for place, f_chart, g_chart in _invariant_charts(f, g):
        tag = types.get(place, "I_0")
        shape, name, points = _invariant_fiber(place, tag, f_chart, g_chart)
        counts = type_counts(p.pair for p in points) \
            if shape == SMOOTH_SHAPE else None
        action = FiberAction(name, counts[:2] if name == ORDER_4 else None)
        entries.append((place, tag, shape, action, points, counts))

    if all(entry[2] != SMOOTH_SHAPE for entry in entries):
        raise InvariantError(
            "no smooth invariant fiber (%s); outside the table"
            % ", ".join("%s at %s" % (entry[1], entry[0]) for entry in entries))
    # smooth first; of two smooth fibers (ex and ex + 4) one has order four
    entries.sort(key=lambda entry: (entry[2] != SMOOTH_SHAPE,
                                    entry[3].name == ORDER_4))
    row = match_row(table, action_label(SMOOTH_SHAPE, entries[0][3]),
                    action_label(entries[1][2], entries[1][3]))

    # fixed-point bookkeeping: coordinates on smooth fibers, dual-graph
    # combinatorics on degenerate ones
    infos: List[InvariantFiberReport] = []
    smooth_data_ok = True
    for place, tag, shape, action, points, counts in entries:
        data = fiber_fixed_data(shape, action)
        if counts is not None:
            smooth_data_ok &= data.points == counts
        infos.append(InvariantFiberReport(
            place, tag, action_label(shape, action), points,
            data.points if counts is None else counts, data.alpha_contrib,
            "dual-graph" if counts is None else "coordinates"))
    totals = tuple(sum(column) for column in
                   zip(*(info.point_counts for info in infos)))
    checks = {
        "smooth-fixed-data": smooth_data_ok,
        "pair-exponent-sums": all(
            (p.base_exponent + p.tangent_exponent) % 8 == 1
            for info in infos for p in info.fixed_points),
        "isolated-point-counts": totals == (row.n2, row.n3, row.n4),
        "rational-fixed-curves":
            sum(info.rational_fixed_curves for info in infos) == row.k,
        "table-row": all(validate_row(row).values()),
    }

    return ActionAnalysis(
        fibration=f, automorphism=g, singular_fibers=singular,
        inventory=_inventory(singular), euler_sum=24,
        two_form_exponent=1, invariant_fibers=infos,
        action=(infos[0].label, infos[1].label), matched_row=row,
        checks=checks)


# ---------------------------------------------------------------------------
# the four worked example families

# id -> (form, exponents of a's terms and of b's, generators (ex, ey, et,
# translate), the second use_tau's, presets); the parameters are the terms'
# coefficients, a's first; a preset is a witness and its singular fibers
_PRESETS_12 = {"generic": ((1, 1, 1, 3), {"I_1": 24}),
               "iv-star": ((0, 1, 1, 1), {"I_1": 16, "IV*": 1})}
_FAMILIES = {
    1: (SHORT_FORM, (8, 0), (8, 0), [(0, 0, 1, False)], _PRESETS_12),
    2: (SHORT_FORM, (8, 0), (8, 0), [(0, 4, 5, False)], _PRESETS_12),
    3: (SHORT_FORM, (8, 0), (4, 12), [(4, 2, 7, False), (4, 6, 3, False)],
        {"generic": ((1, 1, 2, 1), {"I_1": 24}),
         "i8": ((-3, 1, 1, 2), {"I_1": 16, "I_8": 1}),
         "i16": ((-3, 1, -1, 2), {"I_1": 8, "I_16": 1})}),
    4: (TWO_TORSION_FORM, (4,), (8, 0), [(4, 2, 7, True)],
        {"generic": ((3, 1, 1), {"I_1": 8, "I_2": 8}),
         "i8": ((2, 1, -1), {"I_2": 8, "I_8": 1}),
         "i16": ((1, 0, 1), {"I_1": 8, "I_16": 1})}),
}


def _fibers_text(counts: Dict[str, int]) -> str:
    return ", ".join("%s: %d" % item for item in counts.items())


def _example(example_id: int, preset: str, params: Optional[Sequence],
             use_tau: bool):
    """(f, g, fiber_reports(f)) for worked_example, once the arguments
    are checked and the parameters give the preset's singular fibers."""
    if example_id not in _FAMILIES:
        raise ValueError("example id must be one of 1, 2, 3, 4")
    if use_tau and example_id != 3:
        raise ValueError("only example 3 carries the second generator")
    form, a_exps, b_exps, generators, presets = _FAMILIES[example_id]
    if preset not in presets:
        raise ValueError("example %d has presets %s"
                         % (example_id, sorted(presets)))
    witness, fibers = presets[preset]
    values = tuple(params) if params is not None else witness
    if len(values) != len(witness):
        raise ValueError("example %d takes %d parameters"
                         % (example_id, len(witness)))
    values = [Fraction(v) for v in values]
    f = WeierstrassFibration(RationalPolynomial(dict(zip(a_exps, values))),
                             RationalPolynomial(dict(zip(
                                 b_exps, values[len(a_exps):]))), form)
    where = "example %d preset %r" % (example_id, preset)
    shown = ", ".join(map(str, values))
    try:
        reports = fiber_reports(f)
        counts = _inventory(reports)
        given = _fibers_text(counts)
    except InvariantError as err:
        counts, given = None, "no K3 surface (%s)" % err
    _require(counts == fibers, "%s needs the singular fibers %s; the "
             "parameters %s give %s" % (where, _fibers_text(fibers), shown,
                                        given))
    x0 = None
    if (example_id, preset) == (4, "i8"):
        # the section (-alpha t^4 / 2 + sqrt(-gamma), 0)
        square = -values[2]
        root = Fraction(math.isqrt(max(square.numerator, 0)),
                        math.isqrt(square.denominator))
        _require(root * root == square, "%s needs -gamma to be a rational "
                 "square for its translation section; the parameters %s "
                 "give -gamma = %s" % (where, shown, square))
        x0 = RationalPolynomial({4: -values[0] / 2, 0: root})
    ex, ey, et, translate = generators[use_tau]
    return f, DiagonalAutomorphism(ex, ey, et, translate, x0), reports


def worked_example(example_id: int, preset: str = "generic",
                   params: Optional[Sequence] = None,
                   use_tau: bool = False) -> ActionAnalysis:
    """Build one of the four example families and analyze its action.

    Example 1: y^2 = x^3 + (p t^8 + q) x + (r t^8 + s) with (x, y, zeta t).
    Example 2: the same family with (x, -y, zeta^5 t).
    Example 3: y^2 = x^3 + (p t^8 + q) x + (r t^4 + s t^12) with
        sigma = (-x, i y, zeta^7 t) or, with use_tau, (-x, -i y, zeta^3 t).
    Example 4: y^2 = x(x^2 + alpha t^4 x + beta t^8 + gamma) with
        (-x, i y, zeta^7 t) composed with a 2-torsion translation.

    Presets pin parameter witnesses.  Explicit params must give the
    preset's singular fibers, and for example 4 i8 a rational square
    -gamma, whose root gives the translation section.  The fibers are
    typed once: the preset check's fiber_reports go on to analyze_action.
    """
    f, g, reports = _example(example_id, preset, params, use_tau)
    return analyze_action(f, g, reports=reports)
