"""Record semantics of the package's value classes.

Every record compares and hashes by value, refuses attribute assignment,
rejects bad fields with the documented ValueError message, and prints as
Name(field=value, ...).
"""

from fractions import Fraction

import pytest

from k3auto.classify import ClassificationRow, enumerate_cases
from k3auto.fibers import (I_CYCLE, ORDER_4, PRESERVE, SMOOTH, FiberAction,
                           FiberFixedData, FiberShape, fiber_fixed_data)
from k3auto.lattice import (SPECIAL_TWO_ELLIPTIC, EigenRanks,
                            InvolutionFixData)
from k3auto.lefschetz import FixedCurve, FixedLocusConfig
from k3auto.maps import RationalMap
from k3auto.polynomial import Place, RationalPolynomial
from k3auto.weierstrass import (ActionAnalysis, DiagonalAutomorphism,
                                FiberReport, FixedPoint, InvariantFiberReport,
                                worked_example)

_ANALYSIS = worked_example(3, preset="i8")


_REPORT_FIELDS = ("place", "kodaira", "label", "fixed_points",
                  "point_counts", "rational_fixed_curves", "points_from")
_FIXED_DATA_FIELDS = ("k_sigma", "points", "k_sigma2", "k_sigma4",
                      "n_sigma2", "elliptic_fixed_by")
_ANALYSIS_FIELDS = ("fibration", "automorphism", "singular_fibers",
                    "inventory", "euler_sum", "two_form_exponent",
                    "invariant_fibers", "action", "matched_row", "checks")


def _copy(record, fields):
    # a new record from the same field values
    return type(record)(**{field: getattr(record, field) for field in fields})


# name -> (a factory giving equal but distinct records, the field names)
CASES = {
    "ClassificationRow": (
        lambda: ClassificationRow.from_dict(enumerate_cases()[7].to_dict()),
        ("index", "r", "l", "m", "k_sigma2", "num_c", "rk_pic", "k_sigma4",
         "n2", "n3", "n4", "k", "action")),
    "FiberShape": (lambda: FiberShape.i_cycle(8), ("kind", "n")),
    "FiberAction": (lambda: FiberAction(ORDER_4, (1, 1)), ("name", "split")),
    # fiber_fixed_data hands out one memoized record, so copy its fields
    "FiberFixedData": (
        lambda: _copy(fiber_fixed_data(FiberShape.i_cycle(8),
                                       FiberAction(PRESERVE)),
                      _FIXED_DATA_FIELDS),
        _FIXED_DATA_FIELDS),
    "EigenRanks": (lambda: EigenRanks(3, 3, 2, 3), ("r", "l", "m", "m1")),
    "InvolutionFixData": (
        lambda: InvolutionFixData(10, 8, SPECIAL_TWO_ELLIPTIC),
        ("rkS", "a", "special")),
    "FixedCurve": (lambda: FixedCurve(0, 1), ("genus", "normal_exponent")),
    "FixedLocusConfig": (
        lambda: FixedLocusConfig((FixedCurve(1, 1), FixedCurve(0, 1)),
                                 2, 0, 1),
        ("curves", "n2", "n3", "n4")),
    "RationalMap": (lambda: RationalMap.diagonal(4, 2, 7),
                    ("x_num", "x_den", "y_num", "y_den", "t_exponent")),
    "Place": (lambda: Place.finite_rational(Fraction(1, 2)),
              ("kind", "t0", "poly")),
    "FiberReport": (
        lambda: FiberReport(Place.infinity(), 0, float("inf"), 1, "I_1"),
        ("place", "v_a", "v_b", "v_delta", "kodaira")),
    "DiagonalAutomorphism": (
        lambda: DiagonalAutomorphism(
            4, 2, 7, translate=True,
            torsion_x0=RationalPolynomial({4: 1, 0: 1})),
        ("ex", "ey", "et", "translate", "torsion_x0")),
    "FixedPoint": (lambda: FixedPoint("(0, 0)", 7, 2),
                   ("description", "base_exponent", "tangent_exponent")),
    "InvariantFiberReport": (
        lambda: _copy(_ANALYSIS.invariant_fibers[0], _REPORT_FIELDS),
        _REPORT_FIELDS),
    "ActionAnalysis": (
        lambda: _copy(_ANALYSIS, _ANALYSIS_FIELDS), _ANALYSIS_FIELDS),
}

# these hold lists and dicts, so they have no hash
UNHASHABLE = {"InvariantFiberReport", "ActionAnalysis"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_compare_and_hash_by_value(name):
    make, _ = CASES[name]
    first, second = make(), make()
    assert type(first).__name__ == name
    assert first == second and first is not second
    assert not first != second
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_refuse_attribute_assignment(name):
    make, fields = CASES[name]
    record = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_repr_names_every_field(name):
    make, fields = CASES[name]
    record = make()
    assert repr(record) == "%s(%s)" % (name, ", ".join(
        "%s=%r" % (field, getattr(record, field)) for field in fields))


def test_record_values_and_defaults():
    row = enumerate_cases()[7]
    # the field, not tuple.index
    assert row.index == 8 and row.m1 == 2 and row.N == 2
    assert FiberShape(SMOOTH) == FiberShape.smooth_elliptic()
    assert FiberShape(SMOOTH).n is None
    assert FiberAction(PRESERVE).split is None
    assert Place.infinity().t0 is None and Place.infinity().poly is None
    g = DiagonalAutomorphism(12, -6, 15)
    assert g == DiagonalAutomorphism(4, 2, 7)
    assert (g.translate, g.torsion_x0) == (False, None)
    assert FiberFixedData(0, (0, 0, 0), 0, 1, 0).elliptic_fixed_by is None
    assert InvolutionFixData(10, 10).special is None


REJECTIONS = [
    (lambda: ClassificationRow(1, 3, 3, 2, 0, 2, 11, 0, 2, 0, 0, 0,
                               ("identity", "order four")),
     "Picard rank must be 10, 14 or 18"),
    (lambda: ClassificationRow(1, 3, 3, 3, 0, 2, 10, 0, 2, 0, 0, 0,
                               ("identity", "order four")),
     "eigenspace ranks must sum to 22"),
    (lambda: FiberShape("I_0"), "unknown fiber kind 'I_0'"),
    (lambda: FiberShape(I_CYCLE), "I_n needs n >= 1"),
    (lambda: FiberShape(I_CYCLE, 0), "I_n needs n >= 1"),
    (lambda: FiberShape(SMOOTH, 1), "only I_n carries a component count"),
    (lambda: FiberAction(ORDER_4),
     "order-4 action needs a point split summing to 2"),
    (lambda: FiberAction(ORDER_4, (-1, 3)),
     "order-4 action needs a point split summing to 2"),
    (lambda: FiberAction(ORDER_4, (2, 1)),
     "order-4 action needs a point split summing to 2"),
    (lambda: FiberAction(PRESERVE, (1, 1)),
     "only order-4 actions carry a point split"),
    (lambda: FiberFixedData(1, (0, 0, 0), 0, 1, 0),
     "pointwise component counts must be monotone in the power"),
    (lambda: EigenRanks(-1, 3, 4, 3), "ranks must be non-negative"),
    (lambda: EigenRanks(3, 3, 2, 2),
     "ranks must satisfy r + l + 2m + 4*m1 = 22"),
    (lambda: EigenRanks(22, 0, 0, 0),
     "m1 must lie in 1..5 (transcendental part is nonzero)"),
    (lambda: EigenRanks(0, 10, 0, 3),
     "an invariant ample class forces r >= 1"),
    (lambda: InvolutionFixData(21, 1), "rkS must lie in [0, 20]"),
    (lambda: InvolutionFixData(10, -1),
     "determinant exponent must be non-negative"),
    (lambda: InvolutionFixData(10, 10, SPECIAL_TWO_ELLIPTIC),
     "two-elliptic tag requires (rkS, a) = (10, 8)"),
    (lambda: InvolutionFixData(10, 8, "other"),
     "unknown special tag 'other'"),
    # (10, 10) is the empty case without a tag; there is none for it
    (lambda: InvolutionFixData(10, 10, "empty-lattice"),
     "unknown special tag 'empty-lattice'"),
    (lambda: FixedCurve(1.0, 1), "'genus' must be an integer, not 1.0"),
    (lambda: FixedCurve(0, "1"), "'normal_exp' must be an integer, not '1'"),
    (lambda: FixedCurve(-1, 1), "genus must be non-negative"),
    (lambda: FixedCurve(1, 8),
     "fixed curve needs a nontrivial normal eigenvalue"),
    (lambda: FixedLocusConfig((), -1, 0, 0),
     "'n2' must be a non-negative integer, not -1"),
    (lambda: FixedLocusConfig((), 0, True, 0),
     "'n3' must be a non-negative integer, not True"),
    (lambda: DiagonalAutomorphism(1.5, 0, 1),
     "'ex' must be an integer, not 1.5"),
    (lambda: DiagonalAutomorphism(0, 0, 1, translate=1),
     "'translate' must be true or false, not 1"),
    (lambda: DiagonalAutomorphism(0, 0, 1,
                                  torsion_x0=RationalPolynomial({0: 1})),
     "a torsion section needs translate=True"),
]


@pytest.mark.parametrize("build, message", REJECTIONS)
def test_records_reject_bad_fields(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
