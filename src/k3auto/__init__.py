"""Purely non-symplectic order-8 automorphisms of elliptic K3 surfaces.

Exact arithmetic over the 8th cyclotomic field, holomorphic and
topological Lefschetz bookkeeping, the sixteen-case classification of
the invariants, and Weierstrass-model analysis of concrete families.

Importing the package loads no layer: each name below is looked up in
its module on first use (PEP 562), so `from k3auto import X` loads only
the modules X needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# the most digits a number in the input may hold, CPython's default limit
# on int-from-string conversion; counted before converting, so no longer
# number is read where PYTHONINTMAXSTRDIGITS lifts that limit
MAX_DIGITS = 4300


class InvariantError(RuntimeError):
    """A structural invariant of the surface or of the action fails."""


class UnknownKeyError(ValueError):
    """An input object holds a key that its reader does not take."""


def refuse_unknown_keys(data, keys, where=""):
    """UnknownKeyError naming the first key of data not among keys; where
    says which object of the input it is in."""
    for key in data:
        if key not in keys:
            raise UnknownKeyError("unknown key %r%s; the keys are %s"
                                  % (key, where, ", ".join(keys)))


_EXPORTS = {
    "classify": ("CSV_HEADER", "ClassificationRow", "enumerate_cases",
                 "match_row", "render_csv", "render_table", "rows_from_json",
                 "rows_to_json", "theorem1_groups", "validate_row"),
    "cyclotomic": ("Cyc8Element", "I_UNIT", "ONE", "ZERO", "ZETA",
                   "zeta_pow"),
    "fibers": ("FiberAction", "FiberFixedData", "FiberShape", "action_label",
               "chain_step", "fiber_fixed_data", "parse_action_label"),
    "lattice": ("EigenRanks", "power_ranks", "sigma4_skeletons",
                "solve_ranks"),
    "lefschetz": ("FixedCurve", "FixedLocusConfig",
                  "derive_prop1_constraints", "holo_target", "holo_total",
                  "prop1_residuals", "prop1_satisfied", "topo_check"),
    "polynomial": ("Place", "RationalPolynomial", "multiplicity_profile",
                   "rational_roots", "squarefree_decomposition",
                   "valuation_at", "weierstrass_discriminant"),
    "weierstrass": ("ActionAnalysis", "DiagonalAutomorphism", "FiberReport",
                    "FixedPoint", "WeierstrassFibration", "analyze_action",
                    "convert_two_torsion_form",
                    "fiber_inventory", "fiber_reports",
                    "fixed_points_on_fiber", "kodaira_symbol",
                    "kodaira_type_at", "two_form_multiplier",
                    "worked_example"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = ["InvariantError", *_HOME]


def __getattr__(name):
    # not cached here: the module attribute stays the one source
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(import_module("." + _HOME[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
