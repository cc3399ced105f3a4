"""Per-layer tracing from outside the program.

`install` wraps the public functions listed in TARGETS, in every loaded
k3auto module namespace (and class) that binds them, so calls made through
any import path are seen.  The program itself is not changed.

For each wrapped function the tracer counts calls and sums inclusive
time (outermost activation only).  A module's self time is the time in
which its innermost active wrapped function belongs to it: time in
wrapped callees of other modules is charged to those modules.  Spans
(id, parent id, name, start, end) are kept in memory and written out at
the end; the two functions called millions of times per operation are
counted and timed but leave no span.
"""

import importlib
import json
import sys
import time
from collections import Counter

# (module, attribute path, metric prefix, keeps spans)
TARGETS = (
    ("cyclotomic", "Cyc8Element.invert", "cyclotomic.invert", True),
    ("cyclotomic", "Cyc8Element.__mul__", "cyclotomic.mul", False),
    ("lefschetz", "derive_prop1_constraints",
     "lefschetz.derive_prop1_constraints", True),
    ("lefschetz", "prop1_satisfied", "lefschetz.prop1_satisfied", True),
    ("lefschetz", "holo_total", "lefschetz.holo_total", True),
    ("lattice", "solve_ranks", "lattice.solve_ranks", True),
    ("fibers", "fiber_fixed_data", "fibers.fiber_fixed_data", True),
    ("classify", "enumerate_cases", "classify.enumerate_cases", True),
    ("classify", "validate_row", "classify.validate_row", True),
    ("classify", "match_row", "classify.match_row", True),
    ("polynomial", "rational_roots", "polynomial.rational_roots", True),
    ("polynomial", "RationalPolynomial.evaluate", "polynomial.evaluate",
     False),
    ("polynomial", "gcd", "polynomial.gcd", True),
    ("polynomial", "squarefree_decomposition",
     "polynomial.squarefree_decomposition", True),
    ("polynomial", "valuation_at", "polynomial.valuation_at", True),
    ("polynomial", "multiplicity_profile", "polynomial.multiplicity_profile",
     True),
    ("weierstrass", "fiber_reports", "weierstrass.fiber_reports", True),
    ("weierstrass", "kodaira_type_at", "weierstrass.kodaira_type_at", True),
    ("weierstrass", "analyze_action", "weierstrass.analyze_action", True),
    ("weierstrass", "fixed_points_on_fiber",
     "weierstrass.fixed_points_on_fiber", True),
    ("maps", "compose", "maps.compose", True),
    ("maps", "CurvePolynomial.substitute", "maps.substitute", True),
    ("maps", "CurvePolynomial.reduce_y", "maps.reduce_y", True),
    ("maps", "maps_equal", "maps.maps_equal", True),
    ("cli", "main", "cli.main", True),
)

MODULES = ("cyclotomic", "polynomial", "lefschetz", "lattice", "fibers",
           "classify", "maps", "weierstrass")

# the per-layer metrics of a traced run, in BENCHMARK.json's order
CALL_METRICS = (
    "cyclotomic.invert", "lefschetz.derive_prop1_constraints",
    "lefschetz.prop1_satisfied", "lefschetz.holo_total",
    "classify.enumerate_cases", "classify.validate_row", "classify.match_row",
    "lattice.solve_ranks", "fibers.fiber_fixed_data",
    "polynomial.rational_roots", "polynomial.evaluate", "polynomial.gcd",
    "polynomial.squarefree_decomposition", "polynomial.valuation_at",
    "polynomial.multiplicity_profile", "weierstrass.fiber_reports",
    "weierstrass.kodaira_type_at", "maps.compose", "cyclotomic.mul")
TIME_METRICS = (
    "cyclotomic.invert", "lefschetz.derive_prop1_constraints",
    "lefschetz.holo_total", "classify.enumerate_cases",
    "classify.validate_row", "polynomial.rational_roots", "polynomial.gcd",
    "polynomial.squarefree_decomposition", "polynomial.valuation_at",
    "polynomial.multiplicity_profile", "weierstrass.fiber_reports",
    "weierstrass.kodaira_type_at", "weierstrass.analyze_action",
    "weierstrass.fixed_points_on_fiber", "maps.compose", "maps.substitute",
    "maps.reduce_y", "maps.maps_equal", "cli.main")


def _terms(rational_map):
    return sum(len(part.terms) for part in (
        rational_map.x_num, rational_map.x_den, rational_map.y_num,
        rational_map.y_den))


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.inclusive = Counter()
        self.self_time = Counter()
        self.compose_terms = 0
        self.spans = []
        self._stack = []
        self._active = Counter()
        self._mark = 0.0
        self._next_id = 0
        self._restore = []

    def _wrap(self, fn, name, module, keep_spans):
        tracer, stack, clock = self, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            if stack:
                tracer.self_time[stack[-1][1]] += start - tracer._mark
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = stack[-1][2] if stack else 0
            stack.append((name, module, span_id))
            tracer._active[name] += 1
            tracer._mark = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.self_time[module] += end - tracer._mark
                tracer._mark = end
                tracer._active[name] -= 1
                tracer.calls[name] += 1
                if not tracer._active[name]:
                    tracer.inclusive[name] += end - start
                if keep_spans:
                    tracer.spans.append((span_id, parent, name, start, end))
            if name == "maps.compose":
                tracer.compose_terms += _terms(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for module, _, _, _ in TARGETS:
            importlib.import_module("k3auto." + module)
        loaded = [m for key, m in list(sys.modules.items())
                  if key == "k3auto" or key.startswith("k3auto.")]
        for module, path, name, keep_spans in TARGETS:
            owner = sys.modules["k3auto." + module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, module, keep_spans)
            holders = loaded + [owner] if outer else loaded
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def metrics(self, scale):
        """Per-layer figures; times in reference milliseconds."""
        out = {}
        for name in CALL_METRICS:
            out[name + ".calls"] = self.calls[name]
        for name in TIME_METRICS:
            out[name + ".ms"] = self.inclusive[name] * scale * 1000
        out["maps.compose.terms"] = self.compose_terms
        for module in MODULES:
            out[module + ".self_ms"] = self.self_time[module] * scale * 1000
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
