"""Differential checks of the polynomial and maps layers against sympy.

Rational roots must equal sympy's roots over Q, also where roots meet
modulo small primes and on seeded layers with wide leads, discriminants
4a^3 + 27b^2 must equal sympy's, gcds must equal sympy's gcd over QQ (on
the heuristic and on its fallback), squarefree decompositions and
multiplicity profiles must agree with sympy's sqf_list and ground_roots,
equal polynomials must hash equal, products must equal sympy's over QQ,
fiber inventories must equal sympy's factorization of the discriminant
read through Tate's table, the worked-example preset check must accept
exactly the parameters whose sympy inventory is the preset's, 2-torsion
translations must equal sympy's chord construction, sums, products and
substitutions of polynomials in (x, y, t) over Q(zeta_8) must equal
sympy's in (x, y, t, z) modulo z^4 + 1, sums, products, products by
an int or a Fraction and inverses in Q(zeta_8) must equal sympy's modulo
z^4 + 1 and norms its resultant with z^4 + 1, and the holomorphic Lefschetz sum of every enumerator
candidate and table row, summed by sympy in Q[z]/(z^4 + 1), must equal
1 + z^7 exactly where holo_total says it does.  The IV* action
analyze_action reads from the chart exponents must be the one action
that elimination over the table keeps, on a grid of short-form data at
the four generators that reach IV*.  sympy and hypothesis are test-only
dependencies: without them this module is skipped.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from k3auto import polynomial, weierstrass  # noqa: E402
from k3auto.classify import (_candidates, _decompose,  # noqa: E402
                             _fixed_locus, _square_locus, enumerate_cases)
from k3auto.cyclotomic import Cyc8Element, zeta_pow  # noqa: E402
from k3auto.fibers import (BRANCH_SWAP, IV_STAR, PRESERVE,  # noqa: E402
                           SMOOTH_SHAPE, FiberAction, FiberShape,
                           action_label, kind_actions)
from k3auto.lattice import sigma4_skeletons  # noqa: E402
from k3auto.lefschetz import holo_total  # noqa: E402
from k3auto.maps import CurvePolynomial  # noqa: E402
from k3auto.polynomial import (Place, RationalPolynomial, gcd,  # noqa: E402
                               multiplicity_profile, rational_roots,
                               squarefree_decomposition,
                               weierstrass_discriminant)
from k3auto.weierstrass import (DiagonalAutomorphism,  # noqa: E402
                                InvariantError, WeierstrassFibration,
                                fiber_inventory, torsion_translation)

from fixtures import WIDE_LAYERS  # noqa: E402

T = sympy.Symbol("t")
X = sympy.Symbol("x")
EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)
DEGREE_CAPS = {"short": (8, 12), "two-torsion": (4, 8)}


def to_k3auto(expr) -> RationalPolynomial:
    poly = sympy.Poly(expr, T, domain="QQ")
    return RationalPolynomial({int(m[0]): Fraction(int(c.p), int(c.q))
                               for m, c in zip(poly.monoms(), poly.coeffs())})


# -- rational roots -------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20),
                      st.integers(1, 10 ** 6))
signed_20_digits = st.integers(-10 ** 20, 10 ** 20).filter(bool)


@st.composite
def polynomials(draw):
    """Non-monic products of rational linear factors with multiplicities,
    a power of t and a cofactor that may have no rational root."""
    expr = draw(signed_20_digits) * T ** draw(st.integers(0, 2))
    for root in draw(st.lists(rationals, max_size=4)):
        expr *= (root.denominator * T - root.numerator) \
            ** draw(st.integers(1, 3))
    cofactor = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=4))
    expr *= T ** len(cofactor) + sum(c * T ** i for i, c in enumerate(cofactor))
    return sympy.expand(expr)


@EXAMPLES
@given(polynomials())
def test_rational_roots_match_sympy(expr):
    roots = sympy.Poly(expr, T, domain="QQ").ground_roots()
    want = sorted(Fraction(int(r.p), int(r.q)) for r in roots)
    assert rational_roots(to_k3auto(expr)) == want


@pytest.mark.parametrize("layer, roots, cofactor", WIDE_LAYERS)
def test_rational_roots_of_wide_layers_match_sympy(layer, roots, cofactor):
    """The seeded layers with leads of 3 to 61 digits, divisible by 2, 3,
    5 and 7, against sympy's roots over Q."""
    expr = sum(int(c) * T ** e for e, c in layer.coeffs.items())
    want = sorted(Fraction(int(r.p), int(r.q)) for r in
                  sympy.Poly(expr, T, domain="QQ").ground_roots())
    assert rational_roots(layer) == want == roots


@st.composite
def colliding_roots(draw):
    """Non-monic products whose rational roots come in groups r + 30030 k:
    30030 = 2*3*5*7*11*13, so a group meets in one root modulo every prime
    up to 13 and the root search must pass those primes over; with
    multiplicities and a cofactor that may have no rational root."""
    expr = draw(signed_20_digits)
    for root in draw(st.lists(rationals, min_size=1, max_size=2)):
        for k in draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=2,
                               max_size=3, unique=True)):
            r = root + 30030 * k
            expr *= (r.denominator * T - r.numerator) \
                ** draw(st.integers(1, 2))
    cofactor = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=4))
    expr *= T ** len(cofactor) + sum(c * T ** i for i, c in enumerate(cofactor))
    return sympy.expand(expr)


@EXAMPLES
@given(colliding_roots())
def test_colliding_rational_roots_match_sympy(expr):
    """rational_roots, and the rational places of multiplicity_profile
    (the roots of each squarefree layer), against sympy's roots over Q."""
    roots = sympy.Poly(expr, T, domain="QQ").ground_roots()
    want = {Fraction(int(r.p), int(r.q)): m for r, m in roots.items()}
    mine = to_k3auto(expr)
    assert rational_roots(mine) == sorted(want)
    assert [(place.t0, mult) for place, mult in multiplicity_profile(mine)
            if place.kind == "finite-rational"] == sorted(want.items())


@EXAMPLES
@given(polynomials())
def test_squarefree_decomposition_and_profile_match_sympy(expr):
    """Yun's factors against sqf_list; the profile's rational places against
    ground_roots, and each irrational place against the sqf factor of its
    multiplicity with those roots divided out."""
    poly = sympy.Poly(expr, T, domain="QQ")
    layers = {mult: factor.monic()
              for factor, mult in poly.sqf_list()[1] if factor.degree() > 0}
    mine = to_k3auto(expr)
    assert dict((mult, factor) for factor, mult
                in squarefree_decomposition(mine)) == {
        mult: to_k3auto(factor.as_expr()) for mult, factor in layers.items()}
    roots = {Fraction(int(r.p), int(r.q)): mult
             for r, mult in poly.ground_roots().items()}
    profile = multiplicity_profile(mine)
    rational = [(place.t0, mult) for place, mult in profile
                if place.kind == "finite-rational"]
    assert rational == sorted(roots.items())
    irrational = {}
    for place, mult in profile:
        if place.kind == "finite-irreducible":
            assert mult not in irrational
            irrational[mult] = place.poly
    want = {}
    for mult, factor in layers.items():
        for root, m in roots.items():
            if m == mult:
                factor = factor.exquo(sympy.Poly(
                    root.denominator * T - root.numerator, T, domain="QQ"))
        if factor.degree() > 0:
            want[mult] = to_k3auto(factor.monic().as_expr())
    assert irrational == want
    assert sum(place.degree() * mult for place, mult in profile) \
        == poly.degree()


@EXAMPLES
@given(polynomials(), polynomials())
def test_equal_polynomials_have_equal_hashes(p_expr, q_expr):
    """One polynomial reached by different routes: the same value and the
    same hash, also with fractional coefficients (q is made monic)."""
    p, q = to_k3auto(p_expr), to_k3auto(q_expr).monic()
    for left, right in ((p * q, q * p), ((p * q) * q, p * (q * q)),
                        ((p + q) - q, p)):
        assert left == right
        assert hash(left) == hash(right)


# -- gcd ---------------------------------------------------------------------------

signed_30_digits = st.integers(-10 ** 30, 10 ** 30)
contents = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6).filter(bool),
                     st.integers(1, 10 ** 6))
small_cofactors = st.lists(st.integers(-9, 9), min_size=1,
                           max_size=5).filter(any)


def from_list(coeffs):
    return sum((c * T ** i for i, c in enumerate(coeffs)), sympy.Integer(0))


@st.composite
def gcd_pairs(draw):
    """(c1 g u, c2 g v): a planted factor g with 30-digit coefficients and
    a leading term of either sign, or g = ((t+1)(t^2+t+1))^n with
    u = (t^2-t+1)^n, v = (t-1)^n, whose coefficients outgrow both products
    (the first xi misreads it); rational contents c1, c2."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 8))
        g = ((T + 1) * (T ** 2 + T + 1)) ** n
        u, v = (T ** 2 - T + 1) ** n, (T - 1) ** n
    else:
        g = from_list(draw(st.lists(signed_30_digits, max_size=5))
                      + [draw(signed_30_digits.filter(bool))])
        u, v = (from_list(draw(small_cofactors)) for _ in range(2))
    c1, c2 = (sympy.Rational(c.numerator, c.denominator)
              for c in (draw(contents), draw(contents)))
    return tuple(sympy.expand(e) for e in (c1 * g * u, c2 * g * v))


@EXAMPLES
@given(gcd_pairs())
@example(tuple(sympy.expand(e) for e in (
    ((T + 1) * (T ** 2 + T + 1) * (T ** 2 - T + 1)) ** 4,
    -3 * ((T + 1) * (T ** 2 + T + 1) * (T - 1)) ** 4)))
def test_gcd_matches_sympy(pair):
    """gcd against sympy's monic gcd over QQ; the cofactor triple
    multiplies back to both primitive parts."""
    p, q = (to_k3auto(e) for e in pair)
    want = to_k3auto(sympy.Poly(pair[0], T, domain="QQ").gcd(
        sympy.Poly(pair[1], T, domain="QQ")).monic().as_expr())
    assert gcd(p, q) == want
    a, b = (polynomial._primitive_part(x._num) for x in (p, q))
    h, cofactor_a, cofactor_b = polynomial._gcd_cofactors(a, b)
    assert h == polynomial._primitive_part(h)
    as_poly = RationalPolynomial._from_ints
    assert as_poly(h) * as_poly(cofactor_a) == as_poly(a)
    assert as_poly(h) * as_poly(cofactor_b) == as_poly(b)


# -- products ----------------------------------------------------------------------

fraction_polys = st.lists(rationals, max_size=7).map(
    lambda cs: sum((sympy.Rational(c.numerator, c.denominator) * T ** i
                    for i, c in enumerate(cs)), sympy.Integer(0)))


@EXAMPLES
@given(fraction_polys, fraction_polys)
def test_products_match_sympy(p, d):
    """p*d over QQ, with fractional and non-monic factors."""
    p, d = (sympy.Poly(e, T, domain="QQ") for e in (p, d))
    assert to_k3auto(p.as_expr()) * to_k3auto(d.as_expr()) \
        == to_k3auto(p.mul(d).as_expr())


@EXAMPLES
@given(fraction_polys, fraction_polys)
def test_weierstrass_discriminant_matches_sympy(a, b):
    """4a^3 + 27b^2 read off one value at a power of two, against sympy's
    products over QQ."""
    assert weierstrass_discriminant(to_k3auto(a), to_k3auto(b)) \
        == to_k3auto(sympy.expand(4 * a ** 3 + 27 * b ** 2))


# -- fiber inventories ------------------------------------------------------------

# Tate's table in characteristic 0, minimal model: the additive types are
# fixed by v(delta) alone, except (v(a), v(b)) = (2, 3) with v(delta) > 6
ADDITIVE = {2: "II", 3: "III", 4: "IV", 6: "I_0*", 8: "IV*", 9: "III*",
            10: "II*"}


class NonMinimal(Exception):
    pass


def tate_type(va, vb, vd):
    if va >= 4 and vb >= 6:
        raise NonMinimal
    if va == 0:
        return "I_%d" % vd
    if va == 2 and vb == 3 and vd > 6:
        return "I_%d*" % (vd - 6)
    return ADDITIVE[vd]


def valuation(poly, factor):
    if poly.is_zero:
        return float("inf")
    v = 0
    while True:
        quotient, remainder = sympy.div(poly, factor)
        if not remainder.is_zero:
            return v
        poly, v = quotient, v + 1


def oracle_inventory(a_expr, b_expr, form):
    """Kodaira types weighted by residue degree, from sympy's factor_list."""
    if form == "two-torsion":
        # y^2 = x(x^2 + a x + b) in short form, up to a constant rescaling
        a_expr, b_expr = 9 * b_expr - 3 * a_expr ** 2, \
            2 * a_expr ** 3 - 9 * a_expr * b_expr
    a = sympy.Poly(a_expr, T, domain="QQ")
    b = sympy.Poly(b_expr, T, domain="QQ")
    delta = 4 * a ** 3 + 27 * b ** 2
    counts = Counter()
    for factor, mult in delta.factor_list()[1]:
        kind = tate_type(valuation(a, factor), valuation(b, factor), mult)
        counts[kind] += factor.degree()
    vd = 24 - delta.degree()
    if vd:
        va = float("inf") if a.is_zero else 8 - a.degree()
        vb = float("inf") if b.is_zero else 12 - b.degree()
        counts[tate_type(va, vb, vd)] += 1
    return dict(counts)


places = st.sampled_from([T, T - 1, T + 2, 3 * T - 1, T ** 2 - 2, T ** 2 + 1,
                          T ** 2 - 3, T ** 2 - 3 * T + 1])
small = st.integers(-6, 6)


@st.composite
def filler(draw, degree):
    return sum(draw(small) * T ** i for i in range(degree + 1))


@st.composite
def with_places(draw, cap, max_exponent):
    """A polynomial of degree <= cap with chosen places to chosen powers."""
    expr = sympy.Integer(draw(small.filter(bool)))
    degree = 0
    for place in draw(st.lists(places, max_size=3, unique=True)):
        exponent = draw(st.integers(1, max_exponent))
        grown = degree + exponent * sympy.degree(place, T)
        if grown <= cap:
            expr, degree = expr * place ** exponent, grown
    return sympy.expand(expr * draw(filler(draw(st.integers(0, cap - degree)))))


@st.composite
def additive(draw, cap_a, cap_b):
    """(a, b) with each chosen place in a to a power alpha and in b to a
    power beta, (alpha, beta) drawn together, filled up to the caps."""
    a, b = sympy.Integer(draw(small.filter(bool))), sympy.Integer(1)
    deg_a = deg_b = 0
    for place in draw(st.lists(places, max_size=3, unique=True)):
        k = sympy.degree(place, T)
        alpha, beta = draw(st.integers(0, 5)), draw(st.integers(0, 7))
        if deg_a + alpha * k <= cap_a and deg_b + beta * k <= cap_b:
            a, b = a * place ** alpha, b * place ** beta
            deg_a, deg_b = deg_a + alpha * k, deg_b + beta * k
    return (sympy.expand(a * draw(filler(cap_a - deg_a))),
            sympy.expand(b * draw(filler(cap_b - deg_b))))


@st.composite
def k3_data(draw):
    """(a, b, form): additive designs put places into a and b to chosen
    powers; multiplicative ones take a = -3 h^2 u^2, b = (2 h^3 + g) u^3,
    which makes delta a multiple of g (I_n), u a twist (I_n*) and a place
    of both h and g additive, often beside an I_n of the same v(delta)."""
    form = draw(st.sampled_from(sorted(DEGREE_CAPS)))
    if form == "two-torsion" or draw(st.booleans()):
        return draw(additive(*DEGREE_CAPS[form])) + (form,)
    u = draw(st.sampled_from([sympy.Integer(1), T, T - 1, T ** 2 - 2]))
    room = 4 - sympy.degree(u, T)
    h = draw(with_places(room, 2))
    g = draw(with_places(12 - 3 * sympy.degree(u, T), 8))
    return (sympy.expand(-3 * h ** 2 * u ** 2),
            sympy.expand((2 * h ** 3 + g) * u ** 3), form)


@EXAMPLES
@given(k3_data())
# IV at t = 0 and at the roots of t^2 - 2, which the draws above can miss
@example((sympy.expand(T ** 2 * (T ** 2 - 2) ** 2),
          sympy.expand(T ** 2 * (T ** 2 - 2) ** 2 * (T + 1)), "short"))
def test_fiber_inventory_matches_factorization_and_tate(data):
    a, b, form = data
    f = WeierstrassFibration(to_k3auto(a), to_k3auto(b), form)
    assume(not weierstrass_discriminant(*f.short_coefficients()).is_zero())
    try:
        want = oracle_inventory(a, b, form)
    except NonMinimal:
        with pytest.raises(InvariantError, match="non-minimal"):
            fiber_inventory(f)
        return
    assert fiber_inventory(f) == want


# -- worked-example presets ---------------------------------------------------

# (a, b, form) of each worked-example family in its parameters, from the
# families' equations rather than from k3auto's table of them
FAMILY_DATA = {
    1: lambda p, q, r, s: (p * T ** 8 + q, r * T ** 8 + s, "short"),
    3: lambda p, q, r, s: (p * T ** 8 + q, r * T ** 4 + s * T ** 12, "short"),
    4: lambda alpha, beta, gamma: (alpha * T ** 4, beta * T ** 8 + gamma,
                                   "two-torsion"),
}
FAMILY_DATA[2] = FAMILY_DATA[1]
PRESETS = [(family, preset) for family in sorted(weierstrass._FAMILIES)
           for preset in sorted(weierstrass._FAMILIES[family][4])]


@st.composite
def preset_params(draw):
    family, preset = draw(st.sampled_from(PRESETS))
    size = 3 if family == 4 else 4
    return family, preset, draw(st.lists(st.integers(-3, 3), min_size=size,
                                         max_size=size))


@EXAMPLES
@given(preset_params())
@example((3, "i16", [0, 1, 1, 0]))  # non-minimal at t = infinity
@example((4, "i8", [2, 1, 1]))  # the I_8 fibers, but -gamma = -1
@example((4, "i8", [-2, 1, -1]))  # accepted, with x0 = t^4 + 1
@example((1, "generic", [0, -3, 0, 2]))  # delta = 0
def test_preset_check_accepts_exactly_the_preset_fibers(drawn):
    # the check alone, without the analysis that follows it
    family, preset, params = drawn
    a, b, form = FAMILY_DATA[family](*map(sympy.Integer, params))
    _, pin = weierstrass._FAMILIES[family][4][preset]
    delta = 4 * a ** 3 + 27 * b ** 2 if form == "short" \
        else b ** 2 * (a ** 2 - 4 * b)
    try:
        accepted = sympy.expand(delta) != 0 \
            and oracle_inventory(a, b, form) == pin
    except NonMinimal:
        accepted = False
    if (family, preset) == (4, "i8"):
        accepted &= sympy.sqrt(-params[2]).is_rational
    if accepted:
        f, _ = weierstrass._example(family, preset, params, False)
        assert fiber_inventory(f) == pin
    else:
        with pytest.raises(ValueError, match="example %d preset %r needs"
                           % (family, preset)):
            weierstrass._example(family, preset, params, False)


# -- the IV* action against elimination over the table ------------------------

# the four generators that reach IV*, with the place of its fiber
IV_STAR_GENERATORS = [((4, 2, 7), Place.finite_rational(0)),
                      ((4, 6, 3), Place.finite_rational(0)),
                      ((0, 0, 1), Place.infinity()),
                      ((0, 4, 5), Place.infinity())]


def test_iv_star_action_is_the_one_the_table_admits():
    # the reference is elimination: try every IV* action beside the smooth
    # fiber's and keep those with a table row.  Over the short form with
    # coefficients in {-2, -1, 0, 1, 3} on the monomials invariance admits,
    # every IV* analysis that succeeds keeps exactly one, its matched row,
    # whose IV* action is the one the arms Y^2 = (b/t^4)(0) give
    def short(a, b):
        return WeierstrassFibration(RationalPolynomial(a),
                                    RationalPolynomial(b))
    table = enumerate_cases()
    iv_star = FiberShape.iv_star()
    analyses = Counter()
    for exponents, place in IV_STAR_GENERATORS:
        g = DiagonalAutomorphism(*exponents)
        chart = g.at_infinity() if place.kind == "infinity" else g
        expected = BRANCH_SWAP if (chart.ey - 2 * chart.et) % 8 else PRESERVE
        ea = [e for e in range(9)
              if not weierstrass.invariance_failures(short({e: 1}, {}), g)]
        eb = [e for e in range(13)
              if not weierstrass.invariance_failures(short({}, {e: 1}), g)]
        for cs in itertools.product((-2, -1, 0, 1, 3),
                                    repeat=len(ea) + len(eb)):
            f = short(dict(zip(ea, cs)), dict(zip(eb, cs[len(ea):])))
            try:
                if weierstrass.kodaira_type_at(f, place).kodaira != "IV*":
                    continue
                analysis = weierstrass.analyze_action(f, g)
            except (InvariantError, ValueError):
                continue
            elliptic, derived = analysis.action
            kept = [row for name in kind_actions(IV_STAR) for row in table
                    if row.action == (elliptic, action_label(
                        iv_star, FiberAction(name)))]
            assert kept == [analysis.matched_row], (f, g)
            assert derived == action_label(iv_star, FiberAction(expected))
            analyses[chart.ex, chart.ey] += 1
    assert analyses == {(4, 2): 192, (4, 6): 192}


# -- 2-torsion translations ---------------------------------------------------


@st.composite
def two_torsion_data(draw):
    """(a, b, x0) with (x0, 0) on y^2 = x(x^2 + a x + b): x0 and a drawn
    and b = -x0^2 - a x0, or x0 = 0 and b != 0."""
    a = draw(filler(4))
    if draw(st.booleans()):
        x0 = draw(filler(4))
        return a, sympy.expand(-x0 ** 2 - a * x0), x0
    return a, draw(filler(8).filter(lambda b: b != 0)), sympy.Integer(0)


def curve_to_sympy(p, y_power=0):
    """A CurvePolynomial with rational coefficients whose terms all have
    y-exponent y_power, divided by y^y_power, as a sympy Poly in (x, t)."""
    terms = {}
    for (i, j, k), c in p.terms.items():
        assert j == y_power
        assert c.is_rational()
        terms[(i, k)] = sympy.Rational(c.coords[0].numerator,
                                       c.coords[0].denominator)
    return sympy.Poly.from_dict(terms, X, T, domain="QQ")


@EXAMPLES
@given(two_torsion_data())
# y^2 = x (x + t^4)^2: (-t^4, 0) is a section and a node of every fiber
@example((2 * T ** 4, T ** 8, -T ** 4))
def test_torsion_translation_matches_the_chord_construction(data):
    a, b, x0 = (sympy.Poly(e, X, T, domain="QQ") for e in data)
    f = WeierstrassFibration(to_k3auto(data[0]), to_k3auto(data[1]),
                             "two-torsion")
    x = sympy.Poly(X, X, T, domain="QQ")
    cubic = x ** 3 + a * x ** 2 + b * x
    shift = x - x0
    if cubic.rem(shift ** 2).is_zero:
        # (x0, 0) is a double root: the generic fiber is singular there
        with pytest.raises(ValueError, match=r"c'\(x0\)"):
            torsion_translation(f, to_k3auto(data[2]))
        return
    tau = torsion_translation(f, to_k3auto(data[2]))
    r_num, r_den = curve_to_sympy(tau.x_num), curve_to_sympy(tau.x_den)
    s_num, s_den = curve_to_sympy(tau.y_num, 1), curve_to_sympy(tau.y_den)
    # P + T by the chord through P and T = (x0, 0), with y^2 = cubic:
    # x' = cubic/(x - x0)^2 - a - x - x0 and y' = -y (x' - x0)/(x - x0)
    x_new = cubic - (a + x + x0) * shift ** 2  # over shift^2
    y_new = -(x_new - x0 * shift ** 2)  # times y, over shift^3
    assert (r_num * shift ** 2 - x_new * r_den).is_zero
    assert (s_num * shift ** 3 - y_new * s_den).is_zero
    # the image lies on the curve: S^2 cubic(x) = cubic(R)
    on_curve = s_num ** 2 * cubic * r_den ** 3 - s_den ** 2 * (
        r_num ** 3 + a * r_num ** 2 * r_den + b * r_num * r_den ** 2)
    assert on_curve.is_zero


# -- polynomials in (x, y, t) over Q(zeta_8) ----------------------------------

Y = sympy.Symbol("y")
Z = sympy.Symbol("z")  # zeta_8, a root of z^4 + 1
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def curve_polynomials(draw, max_terms=4):
    """Up to max_terms monomials x^i y^j t^k (i, j <= 2, k <= 3), each with
    all four zeta coordinates drawn over denominators up to 6 or with one
    of them, so that one-term polynomials come up too."""
    keys = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                   st.integers(0, 3)),
                         max_size=max_terms, unique=True))
    coefficients = st.one_of(
        st.lists(small_fractions, min_size=4, max_size=4).map(Cyc8Element),
        st.builds(lambda l, c: zeta_pow(l) * c, st.integers(0, 3),
                  small_fractions))
    return CurvePolynomial({key: draw(coefficients) for key in keys})


def zeta_coefficients(p):
    """{(i, j, k, l): coefficient of x^i y^j t^k z^l}, read through the
    terms view."""
    return {(i, j, k, l): coord for (i, j, k), c in p.terms.items()
            for l, coord in enumerate(c.coords) if coord}


def curve_to_zeta_sympy(p):
    return sympy.Poly.from_dict(
        {key: sympy.Rational(c.numerator, c.denominator)
         for key, c in zeta_coefficients(p).items()}, X, Y, T, Z, domain="QQ")


def fold_zeta(poly):
    """The coefficients of poly modulo z^4 + 1: z^m = (-1)^(m // 4) z^(m % 4)."""
    out = {}
    for (i, j, k, m), c in poly.terms():
        key = (i, j, k, m % 4)
        out[key] = out.get(key, 0) \
            + (-1) ** (m // 4) * Fraction(int(c.p), int(c.q))
    return {key: c for key, c in out.items() if c}


def from_zeta_coefficients(coeffs):
    grouped = {}
    for (i, j, k, l), c in coeffs.items():
        grouped.setdefault((i, j, k), [0] * 4)[l] = c
    return CurvePolynomial({key: Cyc8Element(cs)
                            for key, cs in grouped.items()})


def assert_matches(mine, poly):
    """mine equals poly reduced modulo z^4 + 1, and equals (with the same
    hash) the CurvePolynomial built from sympy's coefficients."""
    want = fold_zeta(poly)
    assert zeta_coefficients(mine) == want
    rebuilt = from_zeta_coefficients(want)
    assert mine == rebuilt and hash(mine) == hash(rebuilt)


@EXAMPLES
@given(curve_polynomials(), curve_polynomials())
# zeta^3 * zeta^3 = -zeta^2: the product folds past zeta^4
@example(CurvePolynomial({(1, 0, 0): zeta_pow(3)}),
         CurvePolynomial({(0, 1, 0): zeta_pow(3) * Fraction(1, 2)}))
# a one-term factor on the left, then on the right: zeta^2 and zeta^3
# fold past zeta^4 against the other factor's zeta^2 and zeta^3 terms
@example(CurvePolynomial({(0, 1, 2): zeta_pow(2) * 5}),
         CurvePolynomial({(1, 0, 0): Cyc8Element([1, -2, 3, Fraction(1, 4)]),
                          (0, 0, 3): zeta_pow(3) * -2}))
@example(CurvePolynomial({(2, 1, 0): Cyc8Element([Fraction(2, 3), 0, 1, 5]),
                          (0, 0, 0): 7}),
         CurvePolynomial({(1, 2, 1): zeta_pow(3) * Fraction(-3, 4)}))
def test_curve_polynomial_ring_matches_sympy(p, q):
    ps, qs = curve_to_zeta_sympy(p), curve_to_zeta_sympy(q)
    assert_matches(p + q, ps + qs)
    assert_matches(p - q, ps - qs)
    assert_matches(p * q, ps * qs)


@EXAMPLES
@given(curve_polynomials(),
       st.lists(curve_polynomials(max_terms=2), min_size=4, max_size=4),
       st.integers(0, 7), st.integers(0, 1))
# unit denominators, a one-term x part and a group whose coefficient is 1
@example(CurvePolynomial({(2, 1, 0): 1, (1, 0, 2): zeta_pow(3),
                          (0, 0, 1): Fraction(1, 2)}),
         [CurvePolynomial({(1, 0, 1): zeta_pow(2) * Fraction(1, 3)}),
          CurvePolynomial.constant(1),
          CurvePolynomial({(0, 1, 0): 1, (1, 1, 0): zeta_pow(1)}),
          CurvePolynomial.constant(1)], 5, 1)
def test_substitute_matches_sympy(p, parts, e, extra):
    """self(x -> xn/xd, y -> yn/yd, t -> zeta^e t) times xd^dx yd^dy,
    summed term by term in sympy."""
    dx, dy = p.x_degree() + extra, p.y_degree() + extra
    xn, xd, yn, yd = (curve_to_zeta_sympy(part) for part in parts)
    want = sympy.Poly(0, X, Y, T, Z, domain="QQ")
    for (i, j, k, l), c in zeta_coefficients(p).items():
        twisted = sympy.Poly(Z ** (l + e * k) * T ** k, X, Y, T, Z,
                             domain="QQ")
        want += twisted * sympy.Rational(c.numerator, c.denominator) \
            * xn ** i * xd ** (dx - i) * yn ** j * yd ** (dy - j)
    assert_matches(p.substitute(*parts, t_exponent=e, dx=dx, dy=dy), want)


# -- arithmetic, inverse and norm in Q(zeta_8) ---------------------------------

wide_fractions = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                           st.integers(1, 10 ** 30))
zeta_coords = st.lists(st.one_of(st.just(Fraction(0)), small_fractions,
                                 wide_fractions), min_size=4, max_size=4)
scalars = st.one_of(st.integers(-10 ** 30, 10 ** 30), small_fractions,
                    wide_fractions)


def cyc_to_sympy(x):
    return sum(sympy.Rational(c.numerator, c.denominator) * Z ** k
               for k, c in enumerate(x.coords))


def reduced_coords(expr):
    """The four power-basis coordinates of expr modulo z^4 + 1."""
    poly = sympy.Poly(sympy.rem(sympy.expand(expr), Z ** 4 + 1, Z), Z,
                      domain="QQ")
    return tuple(Fraction(int(c.p), int(c.q))
                 for c in (poly.coeff_monomial(Z ** k) for k in range(4)))


@EXAMPLES
@given(zeta_coords, zeta_coords, scalars)
# a unit of Z[zeta_8]: 1 + z + z^2 has norm 1
@example([1, 1, 1, 0], [1, -1, 0, 0], 2)
def test_inverse_and_norm_match_sympy(coords, other, scalar):
    """Sums, products and products by an int or a Fraction equal sympy's
    modulo z^4 + 1 over QQ, invert equals sympy's inverse modulo z^4 + 1,
    and norm equals the resultant of z^4 + 1 and the element, the product
    of the element at the four primitive 8th roots of unity."""
    x, y = Cyc8Element(coords), Cyc8Element(other)
    f, g = cyc_to_sympy(x), cyc_to_sympy(y)
    s = sympy.Rational(Fraction(scalar).numerator,
                       Fraction(scalar).denominator)
    assert (x + y).coords == reduced_coords(f + g)
    assert (x - y).coords == reduced_coords(f - g)
    assert (x * y).coords == reduced_coords(f * g)
    assert (x * scalar).coords == (scalar * x).coords \
        == reduced_coords(f * s)
    norm = sympy.resultant(Z ** 4 + 1, f, Z)
    assert x.norm() == Fraction(int(norm.p), int(norm.q))
    assume(not x.is_zero())
    assert x.invert().coords \
        == reduced_coords(sympy.invert(f, Z ** 4 + 1, domain=sympy.QQ))


# -- the holomorphic Lefschetz sum of the classification table ----------------

CYCLOTOMIC = Z ** 4 + 1


def reduced_quotient(numerator, denominator):
    """numerator / denominator in Q[z]/(z^4 + 1), of degree below 4."""
    inverse = sympy.invert(denominator, CYCLOTOMIC, Z, domain=sympy.QQ)
    return sympy.Poly(sympy.rem(sympy.expand(numerator * inverse),
                                CYCLOTOMIC, Z), Z, domain="QQ")


def test_holomorphic_sum_of_the_candidates_and_rows_matches_sympy():
    """Each isolated point of type (t, 9 - t) adds 1/((1 - z^t)(1 - z^(9-t)))
    and each fixed rational curve, of normal exponent 1, adds
    (1 + z)/(1 - z)^2; a fixed elliptic curve adds nothing.  The sum equals
    1 + z^7 for exactly the sixteen candidates the enumerator keeps, agrees
    with holo_total on all 82, and holds on each row's own configuration.
    For the square, each of the fibers' N' isolated points, all of type
    (6, 4), adds 1/((1 - z^6)(1 - z^4)) and each of its k_sigma2 rational
    curves (1 + z^2)/(1 - z^2)^2: on every row the sum is 1 + z^6 and
    equals holo_total of the square's configuration."""
    points = [reduced_quotient(1, (1 - Z ** t) * (1 - Z ** (9 - t)))
              for t in (2, 3, 4)]
    rational_curve = reduced_quotient(1 + Z, (1 - Z) ** 2)
    target = reduced_quotient(1 + Z ** 7, 1)

    def holds(config):
        assert {(c.genus, c.normal_exponent) for c in config.curves} \
            <= {(0, 1), (1, 1)}
        total = sum((count * term for count, term in
                     zip((config.n2, config.n3, config.n4, config.k),
                         points + [rational_curve])),
                    sympy.Poly(0, Z, domain="QQ"))
        return total == target

    rows = enumerate_cases()
    kept, verdicts = set(), Counter()
    for rk_pic, _, _ in sigma4_skeletons():
        for candidate in _candidates(rk_pic):
            config = _fixed_locus(*candidate)[2]
            verdict = holds(config)
            assert verdict == holo_total(config, 1)[1], candidate
            verdicts[verdict] += 1
            if verdict:
                c_action, cp_shape, cp_action = candidate
                kept.add((action_label(SMOOTH_SHAPE, c_action),
                          action_label(cp_shape, cp_action)))
    assert verdicts == {True: 16, False: 66}
    assert kept == {row.action for row in rows}
    for row in rows:
        assert holds(_fixed_locus(*_decompose(row), row)[2]), row.index

    square_point = reduced_quotient(1, (1 - Z ** 6) * (1 - Z ** 4))
    square_curve = reduced_quotient(1 + Z ** 2, (1 - Z ** 2) ** 2)
    square_target = reduced_quotient(1 + Z ** 6, 1)
    for row in rows:
        fd_c, fd_cp, _ = _fixed_locus(*_decompose(row), row)
        n_square = fd_c.n_sigma2 + fd_cp.n_sigma2
        expected = n_square * square_point + row.k_sigma2 * square_curve
        assert expected == square_target, row.index
        square = _square_locus(fd_c, fd_cp, row.k_sigma2)
        assert square.N == n_square and square.alpha == row.k_sigma2
        total, ok = holo_total(square, 2)
        assert ok, row.index
        assert total.coords == tuple(
            Fraction(int(c.p), int(c.q))
            for c in (expected.coeff_monomial(Z ** k) for k in range(4)))
