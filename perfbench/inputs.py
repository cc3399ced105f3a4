"""Seeded inputs of the four workloads, as plain JSON data.

Nothing here imports k3auto.  A workload's spec holds a pool of rounds;
a run cycles through the pool and always stops at a round boundary, so a
run attempts whole rounds of the same operations.
"""

import random

import sympy

import fibergen
from oracle import T

# every preset of the four families, both generators of family 3
PRESETS = [(1, "generic", False), (1, "iv-star", False),
           (2, "generic", False), (2, "iv-star", False),
           (3, "generic", False), (3, "generic", True),
           (3, "i8", False), (3, "i8", True),
           (3, "i16", False), (3, "i16", True),
           (4, "generic", False), (4, "i8", False), (4, "i16", False)]

# scaling exponents (ex, ey, et) and translation of each family's generator
GENERATORS = {1: (0, 0, 1, False), 2: (0, 4, 5, False), 3: (4, 2, 7, False),
              "3tau": (4, 6, 3, False), 4: (4, 2, 7, True)}


def _nonzero(rng, bound):
    return rng.choice((-1, 1)) * rng.randint(1, bound)


def _squarefree(expr):
    p = sympy.Poly(expr, T, domain="QQ")
    return sympy.gcd(p, p.diff(T)).degree() == 0


def example_params(rng, family, preset):
    """Small-coefficient parameters that meet the preset's conditions."""
    while True:
        if family in (1, 2):
            p, q, r, s = (_nonzero(rng, 6) for _ in range(4))
            if preset == "iv-star":
                p = 0
            a, b = p * T ** 8 + q, r * T ** 8 + s
            delta = 4 * a ** 3 + 27 * b ** 2
            if 4 * q ** 3 + 27 * s ** 2 != 0 and _squarefree(delta):
                return [p, q, r, s]
        elif family == 3:
            q, k = _nonzero(rng, 4), _nonzero(rng, 3)
            if preset == "generic":
                p, r, s = (_nonzero(rng, 6) for _ in range(3))
                ok = 4 * p ** 3 + 27 * s ** 2 != 0
            else:
                p, s = -3 * k ** 2, 2 * k ** 3
                r = -k * q if preset == "i16" else _nonzero(rng, 6)
                ok = 12 * p ** 2 * q + 54 * r * s != 0 or preset == "i16"
            a, b = p * T ** 8 + q, r * T ** 4 + s * T ** 12
            if ok and _squarefree(4 * a ** 3 + 27 * b ** 2):
                return [p, q, r, s]
        else:
            k, s = _nonzero(rng, 4), _nonzero(rng, 4)
            if preset == "i8":
                return [2 * k, k * k, -s * s]
            alpha, gamma = _nonzero(rng, 6), _nonzero(rng, 6)
            if preset == "i16":
                return [alpha, 0, gamma]
            beta = _nonzero(rng, 6)
            if alpha ** 2 != 4 * beta and sympy.gcd(
                    sympy.Poly(beta * T ** 8 + gamma, T),
                    sympy.Poly((alpha ** 2 - 4 * beta) * T ** 8 - 4 * gamma,
                               T)).degree() == 0:
                return [alpha, beta, gamma]


def _pairs(coeffs):
    """{exponent: value} -> [["value", exponent], ...] without zeros."""
    return [[str(v), e] for e, v in sorted(coeffs.items()) if v != 0]


def example_fibration(family, params):
    """The family's Weierstrass data as JSON, as the CLI reads it."""
    if family in (1, 2):
        p, q, r, s = params
        return {"form": "short", "a": _pairs({8: p, 0: q}),
                "b": _pairs({8: r, 0: s})}
    if family == 3:
        p, q, r, s = params
        return {"form": "short", "a": _pairs({8: p, 0: q}),
                "b": _pairs({4: r, 12: s})}
    alpha, beta, gamma = params
    return {"form": "two-torsion", "a": _pairs({4: alpha}),
            "b": _pairs({8: beta, 0: gamma})}


def example_automorphism(family, preset, tau, params):
    ex, ey, et, translate = GENERATORS["3tau" if tau else family]
    data = {"ex": ex, "ey": ey, "et": et, "translate": translate}
    if family == 4 and preset == "i8":
        alpha, _, gamma = params
        root = sympy.sqrt(sympy.Integer(-gamma))
        data["torsion_x0"] = _pairs({4: sympy.Rational(-alpha, 2), 0: root})
    return data


# -- the four workloads --------------------------------------------------------


def examples_sweep(rng):
    """Two rounds: every preset, then one parameter draw per preset."""
    rounds = []
    for _ in range(2):
        ops = [{"family": f, "preset": p, "tau": tau, "params": None}
               for f, p, tau in PRESETS]
        for f, p, tau in PRESETS:
            params = example_params(rng, f, p)
            ops.append({"family": f, "preset": p, "tau": tau,
                        "params": [str(v) for v in params]})
        rounds.append(ops)
    return rounds


def fiber_typing(rng):
    """Two rounds, each the counterexample, every design narrow, and the
    three multiplicative designs wide."""
    rounds = []
    for _ in range(2):
        a, b = fibergen.counterexample()
        ops = [{"a": a, "b": b, "design": "counterexample", "wide": False}]
        for wide, designs in ((False, fibergen.DESIGNS),
                              (True, fibergen.WIDE_DESIGNS)):
            for design in designs:
                a, b = fibergen.draw(design, rng, wide)
                ops.append({"a": a, "b": b, "wide": wide,
                            "design": design.__name__.replace("_design_", "")})
        rounds.append(ops)
    return rounds


MAP_IDENTITIES = ("tau-involution", "tau-commutes-with-diag", "sigma-square",
                  "conjugate-square-shift", "conjugate-square-not-diag")
LIGHT_DRAWS = 6


def maps_group_law(rng):
    """Two rounds.  A round checks the three (0,0)-section identities,
    which take milliseconds, on LIGHT_DRAWS (alpha, beta, gamma) draws, and
    the two conjugate-section identities, which take seconds, on one
    (2k, k^2, -s^2) draw."""
    rounds = []
    for _ in range(2):
        ops = []
        for _ in range(LIGHT_DRAWS):
            params = [str(v) for v in example_params(rng, 4, "generic")]
            ops += [{"identity": name, "params": params}
                    for name in MAP_IDENTITIES[:3]]
        conjugate = [str(v) for v in example_params(rng, 4, "i8")]
        ops += [{"identity": name, "params": conjugate}
                for name in MAP_IDENTITIES[3:]]
        rounds.append(ops)
    return rounds


FORMATS = ("table", "json", "csv")


def _one_per_family_group(rng):
    """Three seeded presets: one of families 1 and 2, one of family 3, one
    of family 4, in a seeded order, so that every seed mixes the same
    kinds of work."""
    groups = [[p for p in PRESETS if p[0] in families]
              for families in ((1, 2), (3,), (4,))]
    picks = [rng.choice(group) for group in groups]
    rng.shuffle(picks)
    return picks


def cli_oneshot(rng):
    """One round: each verb in each format, with seeded arguments."""
    ops = []
    pics = rng.sample(("10", "14", "18", "all"), 3)
    for fmt, pic in zip(FORMATS, pics):
        ops.append({"verb": "classify", "format": fmt,
                    "argv": ["classify", "--pic", pic, "--format", fmt],
                    "pic": pic})
    for fmt, (family, preset, tau) in zip(FORMATS,
                                          _one_per_family_group(rng)):
        params = example_params(rng, family, preset)
        argv = ["examples", "--id", str(family), "--preset", preset,
                "--params=" + ",".join(str(v) for v in params),
                "--format", fmt]
        if tau:
            argv.insert(-2, "--tau")
        ops.append({"verb": "examples", "format": fmt, "argv": argv,
                    "key": [family, preset, tau]})
    for i, (fmt, (family, preset, tau)) in enumerate(
            zip(FORMATS, _one_per_family_group(rng))):
        params = example_params(rng, family, preset)
        files = {"fib-%d.json" % i: example_fibration(family, params),
                 "aut-%d.json" % i: example_automorphism(family, preset, tau,
                                                         params)}
        ops.append({"verb": "analyze", "format": fmt, "files": files,
                    "argv": ["analyze", "--fibration", "fib-%d.json" % i,
                             "--automorphism", "aut-%d.json" % i,
                             "--format", fmt],
                    "key": [family, preset, tau]})
    for i, fmt in enumerate(FORMATS):
        config = {"alpha": rng.randint(0, 2)}
        if rng.random() < 0.5:
            config["n2"] = rng.randint(0, 6)
        name = "lefschetz-%d.json" % i
        ops.append({"verb": "lefschetz", "format": fmt,
                    "files": {name: config},
                    "argv": ["lefschetz", "--config", name, "--format", fmt]})
    return [ops]


def make_spec(workload, seed):
    rng = random.Random("%s/%d" % (workload, seed))
    build = {"examples-sweep": examples_sweep, "fiber-typing": fiber_typing,
             "maps-group-law": maps_group_law, "cli-oneshot": cli_oneshot}
    return {"workload": workload, "seed": seed, "rounds": build[workload](rng)}
