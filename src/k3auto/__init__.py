"""Purely non-symplectic order-8 automorphisms of elliptic K3 surfaces.

Exact arithmetic over the 8th cyclotomic field, holomorphic and
topological Lefschetz bookkeeping, the sixteen-case classification of
the invariants, and Weierstrass-model analysis of concrete families.
"""

from .classify import (CSV_HEADER, ClassificationRow, enumerate_cases,
                       match_row, render_csv, render_table, rows_from_json,
                       rows_to_json, theorem1_groups, validate_row)
from .cyclotomic import Cyc8Element, I_UNIT, ONE, ZERO, ZETA, zeta_pow
from .fibers import (FiberAction, FiberFixedData, FiberShape, action_label,
                     chain_step, elliptic_action_data, fiber_fixed_data,
                     parse_action_label)
from .lattice import EigenRanks, power_ranks, sigma4_skeletons, solve_ranks
from .lefschetz import (FixedCurve, FixedLocusConfig, PointType,
                        derive_prop1_constraints, holo_target, holo_total,
                        prop1_residuals, prop1_satisfied, topo_check)
from .polynomial import (Place, RationalPolynomial, multiplicity_profile,
                         rational_roots, squarefree_decomposition,
                         valuation_at, weierstrass_discriminant)
from .weierstrass import (ActionAnalysis, DiagonalAutomorphism, FiberReport,
                          FixedPoint, InvariantError, WeierstrassFibration,
                          analyze_action, check_invariance,
                          convert_two_torsion_form, fiber_inventory,
                          fiber_reports, fixed_points_on_fiber,
                          kodaira_symbol, kodaira_type_at,
                          two_form_multiplier, worked_example)

__version__ = "0.1.0"
