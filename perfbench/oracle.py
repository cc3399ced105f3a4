"""Checks made apart from k3auto.

Nothing here imports k3auto.  Fiber inventories come from sympy's
factorization over Q and Tate's valuation table; the classification table
and the example pins are read from the hand-written test literals with
`ast`, so the test modules are never imported; the point-count solve is a
direct search.
"""

import ast
import os
from collections import Counter

import sympy

T = sympy.Symbol("t")

# Tate's table in characteristic 0 for a minimal short Weierstrass model:
# the additive types are fixed by v(delta) alone, except that
# (v(a), v(b)) = (2, 3) with v(delta) > 6 is I_n*.
_ADDITIVE = {2: "II", 3: "III", 4: "IV", 6: "I_0*", 8: "IV*", 9: "III*",
             10: "II*"}


def tate_type(va, vb, vd):
    """Kodaira symbol from (v(a), v(b), v(delta)); None for a smooth fiber."""
    if vd == 0:
        return None
    if va >= 4 and vb >= 6:
        raise ValueError("non-minimal model")
    if va == 0:
        return "I_%d" % vd
    if va == 2 and vb == 3 and vd > 6:
        return "I_%d*" % (vd - 6)
    return _ADDITIVE[vd]


def poly_from_pairs(pairs):
    """sympy Poly in t from [["p/q", exponent], ...] pairs."""
    expr = sum((sympy.Rational(c) * T ** e for c, e in pairs), sympy.Integer(0))
    return sympy.Poly(expr, T, domain="QQ")


def pairs_from_poly(poly):
    return [[str(c), int(m[0])] for m, c in zip(poly.monoms(), poly.coeffs())]


def _valuation(poly, factor):
    if poly.is_zero:
        return float("inf")
    v = 0
    while True:
        q, r = sympy.div(poly, factor)
        if not r.is_zero:
            return v
        poly, v = q, v + 1


def fiber_places(a_pairs, b_pairs):
    """Every singular fiber of y^2 = x^3 + a x + b as (place, degree, type).

    Places are the monic irreducible factors of the discriminant over Q
    (rendered as strings) and "inf" for t = infinity.
    """
    a, b = poly_from_pairs(a_pairs), poly_from_pairs(b_pairs)
    delta = 4 * a ** 3 + 27 * b ** 2
    if delta.is_zero:
        raise ValueError("the discriminant vanishes identically")
    out = []
    for factor, mult in delta.factor_list()[1]:
        factor = factor.monic()
        kind = tate_type(_valuation(a, factor), _valuation(b, factor), mult)
        out.append((str(factor.as_expr()), factor.degree(), mult, kind))
    if delta.degree() < 24:
        va = float("inf") if a.is_zero else 8 - a.degree()
        vb = float("inf") if b.is_zero else 12 - b.degree()
        out.append(("inf", 1, 24 - delta.degree(),
                    tate_type(va, vb, 24 - delta.degree())))
    return out


def fiber_inventory(a_pairs, b_pairs):
    counts = Counter()
    for _, degree, _, kind in fiber_places(a_pairs, b_pairs):
        counts[kind] += degree
    return dict(counts)


def two_torsion_short(a_pairs, b_pairs):
    """Short-form (A, B) pairs of y^2 = x(x^2 + a x + b)."""
    a, b = poly_from_pairs(a_pairs), poly_from_pairs(b_pairs)
    return pairs_from_poly(9 * b - 3 * a ** 2), \
        pairs_from_poly(2 * a ** 3 - 9 * a * b)


def point_count_solutions(alpha, pins):
    """(n2, n3, n4) >= 0 with N <= 14, n2 + n3 - 4 alpha = 2 and
    n4 + n2 - n3 - 2 alpha = 2, by direct search."""
    found = []
    for n2 in range(15):
        for n3 in range(15 - n2):
            for n4 in range(15 - n2 - n3):
                if n2 + n3 - 4 * alpha != 2 or n4 + n2 - n3 - 2 * alpha != 2:
                    continue
                if all(pins.get(k, v) == v
                       for k, v in (("n2", n2), ("n3", n3), ("n4", n4))):
                    found.append((n2, n3, n4))
    return found


# -- literals from the test suite ---------------------------------------------


def _literal(path, name):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("%s has no literal %s" % (path, name))


def table_rows(root):
    """Case number -> the transcribed row of tests/fixtures.py."""
    rows = _literal(os.path.join(root, "tests", "fixtures.py"), "TABLE_ROWS")
    return {entry[0]: entry for entry in rows}


def example_pins(root):
    """(family, preset, use_tau) -> (row, fiber counts).

    tests/test_acceptance.py pins every preset except the generic one of
    family 3, which tests/test_weierstrass.py pins for both generators.
    """
    tests = os.path.join(root, "tests")
    pins = {}
    for entry in _literal(os.path.join(tests, "test_weierstrass.py"),
                          "REGRESSION"):
        pins[entry[:3]] = (entry[3], entry[4])
    for entry in _literal(os.path.join(tests, "test_acceptance.py"),
                          "EXAMPLE_PINS"):
        pins[entry[:3]] = (entry[3], entry[4])
    return pins


def row_values(entry):
    """The comparable columns of a transcribed row, keyed like to_dict()."""
    keys = ("index", "r", "l", "m", "k_sigma2", "num_C", "rk_pic",
            "k_sigma4", "N", "n2", "n3", "n4", "k")
    values = dict(zip(keys, entry[:13]))
    values["action"] = [entry[13], entry[14]]
    return values
