"""Program-side operations: k3auto objects from a spec, and the calls.

This module imports k3auto only inside `build`, so that a worker can time
the import and the construction of its inputs as set-up.  Each operation
is a (call, summarize) pair: the call is timed, the summary turns its
result into JSON for the checks and is not timed.  Calls go through the
module attributes, so that the traced run sees the wrapped functions.
"""

import contextlib
import io
import math
from fractions import Fraction


def _examples(rounds):
    from k3auto import classify, weierstrass

    def op(spec):
        params = None if spec["params"] is None \
            else [Fraction(v) for v in spec["params"]]

        def call():
            analysis = weierstrass.worked_example(
                spec["family"], spec["preset"], params, spec["tau"])
            return analysis, classify.validate_row(analysis.matched_row)
        return call, _summarize_analysis
    return [[op(spec) for spec in ops] for ops in rounds]


def _summarize_analysis(result):
    analysis, row_checks = result
    return {
        "row": analysis.matched_row.to_dict(),
        "inventory": analysis.inventory,
        "fibers": [[r.v_delta, r.place.degree()]
                   for r in analysis.singular_fibers],
        "invariant_fibers": [
            {"pairs": [list(p.pair) for p in rep.fixed_points],
             "point_counts": list(rep.point_counts),
             "points_from": rep.points_from}
            for rep in analysis.invariant_fibers],
        "checks": analysis.checks,
        "row_checks": row_checks,
    }


def _fibers(rounds):
    from k3auto import weierstrass
    from k3auto.polynomial import RationalPolynomial

    def op(spec):
        f = weierstrass.WeierstrassFibration(
            RationalPolynomial.from_pairs(spec["a"]),
            RationalPolynomial.from_pairs(spec["b"]))
        return (lambda: weierstrass.fiber_inventory(f)), dict
    return [[op(spec) for spec in ops] for ops in rounds]


def _maps(rounds):
    from k3auto import maps
    from k3auto.maps import RationalMap
    from k3auto.polynomial import RationalPolynomial
    from k3auto.weierstrass import (DiagonalAutomorphism,
                                    WeierstrassFibration, automorphism_map,
                                    torsion_translation)

    def surface(params):
        alpha, beta, gamma = (Fraction(v) for v in params)
        return WeierstrassFibration(RationalPolynomial({4: alpha}),
                                    RationalPolynomial({8: beta, 0: gamma}),
                                    form="two-torsion")

    def section_maps(params):
        f = surface(params)
        cubic = f.curve_relation()
        tau = torsion_translation(f)
        diag = RationalMap.diagonal(4, 2, 7)
        sigma = automorphism_map(f, DiagonalAutomorphism(4, 2, 7,
                                                         translate=True))
        return {
            "tau-involution": lambda: maps.maps_equal(
                maps.compose(tau, tau), identity, curve_cubic=cubic),
            "tau-commutes-with-diag": lambda: maps.maps_equal(
                maps.compose(diag, tau), maps.compose(tau, diag),
                curve_cubic=cubic),
            "sigma-square": lambda: maps.maps_equal(
                maps.compose(sigma, sigma), square_diag, curve_cubic=cubic),
        }

    def conjugate_maps(params):
        f = surface(params)
        cubic = f.curve_relation()
        alpha, _, gamma = (Fraction(v) for v in params)
        x0 = RationalPolynomial({4: -alpha / 2, 0: math.isqrt(int(-gamma))})
        sigma = automorphism_map(f, DiagonalAutomorphism(
            4, 2, 7, translate=True, torsion_x0=x0))
        tau0 = torsion_translation(f)
        return {
            "conjugate-square-shift": lambda: maps.maps_equal(
                maps.compose(sigma, sigma), maps.compose(tau0, square_diag),
                curve_cubic=cubic),
            "conjugate-square-not-diag": lambda: maps.maps_equal(
                maps.compose(sigma, sigma), square_diag, curve_cubic=cubic),
        }

    identity = RationalMap.identity()
    square_diag = RationalMap.diagonal(0, 4, 6)
    built = {}
    rounds_out = []
    for ops in rounds:
        calls = []
        for spec in ops:
            make = conjugate_maps if spec["identity"].startswith(
                "conjugate") else section_maps
            key = (make, tuple(spec["params"]))
            if key not in built:
                built[key] = make(spec["params"])
            calls.append((built[key][spec["identity"]], bool))
        rounds_out.append(calls)
    return rounds_out


def _cli(rounds):
    from k3auto import cli

    def op(spec):
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(spec["argv"])
            return code, out.getvalue()
        return call, lambda result: {"code": result[0], "stdout": result[1]}
    return [[op(spec) for spec in ops] for ops in rounds]


def build(spec):
    """Rounds of (call, summarize) pairs for the spec's workload."""
    builders = {"examples-sweep": _examples, "fiber-typing": _fibers,
                "maps-group-law": _maps, "cli-oneshot": _cli}
    return builders[spec["workload"]](spec["rounds"])
