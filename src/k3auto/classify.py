"""Enumerate the sixteen invariant elliptic fibrations with an order-8 action.

The fourth power of the automorphism is a non-symplectic involution whose
fixed lattice pins down three skeletons (Picard rank 10, 14, 18).  Each
skeleton carries one or two smooth elliptic curves fixed by the fourth
power plus, in ranks 14 and 18, a degenerate second invariant fiber (IV*
or I_8, respectively I_16).  The enumerator walks the closed vocabulary of
actions on these fibers, read from the action table in `fibers` whose order
is the rows' order, assembles the total fixed-locus configuration,
and keeps a case only when the holomorphic fixed point sum is exactly
1 + zeta^7 (the two integer point-count constraints are this identity's
coordinates, so it is tested once).  Every case kept fits its skeleton's
k_sigma4 and has a non-negative integral solution of the eigenspace rank
system; a case that does not raises InvariantError rather than being
dropped.

Exactly sixteen cases survive, built once per process on first use (a new
list per call; a build that raises caches nothing).  validate_row re-checks
each row from scratch, with the induced order-4 data of the square
(N' = 2k' + 4 for its isolated points, and its own Lefschetz identities).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from . import InvariantError
from .fibers import (ORDER_4, SMOOTH, SMOOTH_SHAPE, FiberAction, FiberShape,
                     action_label, fiber_fixed_data, kind_actions,
                     parse_action_label, table_position)
from .lattice import EigenRanks, power_ranks, sigma4_skeletons, solve_ranks
from .lefschetz import (FixedCurve, FixedLocusConfig, holo_total,
                        prop1_satisfied, topo_check)


# (row attribute, JSON and CSV key, table heading) of each column in order;
# N is derived, the action pair comes last, and the CSV has no index
_COLUMNS = (("index", "index", "case"), ("r", "r", "r"), ("l", "l", "l"),
            ("m", "m", "m"), ("k_sigma2", "k_sigma2", "k_s2"),
            ("num_c", "num_C", "#C"), ("rk_pic", "rk_pic", "rkPic"),
            ("k_sigma4", "k_sigma4", "k_s4"), ("N", "N", "N"),
            ("n2", "n2", "n2"), ("n3", "n3", "n3"), ("n4", "n4", "n4"),
            ("k", "k", "k"), ("action", "action", "action"))


class ClassificationRow(namedtuple("ClassificationRow", [
        attr for attr, _, _ in _COLUMNS if attr != "N"])):
    """One line of the classification table.

    action = (label on the smooth invariant elliptic curve, label on the
    second invariant fiber).  N is derived from the point counts.  The
    field `index` shadows tuple.index: a row is not searched as a tuple.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        row = super().__new__(cls, *args, **kwargs)
        if row.rk_pic not in (10, 14, 18):
            raise ValueError("Picard rank must be 10, 14 or 18")
        if row.r + row.l + 2 * row.m + 4 * row.m1 != 22:
            raise ValueError("eigenspace ranks must sum to 22")
        return row

    @property
    def m1(self) -> int:
        return (22 - self.rk_pic) // 4

    @property
    def N(self) -> int:
        return self.n2 + self.n3 + self.n4

    def to_dict(self) -> Dict:
        data = {key: getattr(self, attr) for attr, key, _ in _COLUMNS}
        data["action"] = list(self.action)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ClassificationRow":
        fields = {attr: data[key] for attr, key, _ in _COLUMNS[:-1]
                  if attr != "N"}
        row = cls(**fields, action=(data["action"][0], data["action"][1]))
        if "N" in data and data["N"] != row.N:
            raise ValueError("point total inconsistent with the counts")
        return row


_ORDER4_SPLITS = ((2, 0), (1, 1), (0, 2))
# the second invariant fiber of each Picard rank's skeleton
_SECOND_FIBERS = {10: (SMOOTH_SHAPE,),
                  14: (FiberShape.iv_star(), FiberShape.i_cycle(8)),
                  18: (FiberShape.i_cycle(16),)}


def _actions(kind: str) -> List[FiberAction]:
    """The actions on a fiber kind in table order, order four once for each
    point split."""
    return [FiberAction(name, split) for name in kind_actions(kind)
            for split in (_ORDER4_SPLITS if name == ORDER_4 else (None,))]


def _candidates(rk_pic: int):
    """(elliptic action, second-fiber shape, second-fiber action) triples."""
    second = [(shape, _actions(shape.kind))
              for shape in _SECOND_FIBERS[rk_pic]]
    for c_act in _actions(SMOOTH):
        for shape, actions in second:
            for cp_act in actions:
                # two smooth elliptic curves: the square cannot fix both,
                # so the action is order 4 on exactly one of them, C'
                if shape.kind != SMOOTH or (c_act.name != ORDER_4
                                            and cp_act.name == ORDER_4):
                    yield c_act, shape, cp_act


def _fixed_locus(c_action: FiberAction, cp_shape: FiberShape,
                 cp_action: FiberAction,
                 row: Optional[ClassificationRow] = None):
    """Both fibers' fixed data and the fixed-locus configuration.

    The point counts and the k fixed rational curves come from the row
    when one is given, else from the two fibers; the elliptic curve is
    fixed as well when its data says sigma fixes it pointwise.
    """
    fd_c = fiber_fixed_data(SMOOTH_SHAPE, c_action)
    fd_cp = fiber_fixed_data(cp_shape, cp_action)
    if row is None:
        n2, n3, n4 = (c + cp for c, cp in zip(fd_c.points, fd_cp.points))
        k = fd_c.alpha_contrib + fd_cp.alpha_contrib
    else:
        n2, n3, n4, k = row.n2, row.n3, row.n4, row.k
    curves: Tuple[FixedCurve, ...] = (FixedCurve(0, 1),) * k
    if fd_c.k_sigma == 1:
        curves = (FixedCurve(1, 1),) + curves
    return fd_c, fd_cp, FixedLocusConfig(curves, n2, n3, n4)


def _assemble(rk_pic: int, num_c: int, k_sigma4: int, c_action: FiberAction,
              cp_shape: FiberShape, cp_action: FiberAction):
    m1 = (22 - rk_pic) // 4
    _, fd_cp, config = _fixed_locus(c_action, cp_shape, cp_action)
    if not holo_total(config, 1)[1]:
        return None
    # every candidate the holomorphic identity keeps fits its skeleton
    # and has ranks; a failure is a fault in the vocabulary, not a row
    k_sigma2 = fd_cp.k_sigma2 if cp_shape.kind != SMOOTH else 0
    rational_k4 = fd_cp.k_sigma4 if cp_shape.kind != SMOOTH else 0
    where = "%s on C, %s on C'" % (c_action.name, cp_action.name)
    if rational_k4 != k_sigma4:
        raise InvariantError(
            "%s: the fiber gives k_sigma4 = %d, the rank-%d skeleton %d"
            % (where, rational_k4, rk_pic, k_sigma4))
    try:
        r, l, m = solve_ranks(m1, config.N, config.alpha, k_sigma2)
    except ValueError as err:
        raise InvariantError("%s: no eigenspace ranks (%s)"
                             % (where, err)) from None
    labels = (action_label(SMOOTH_SHAPE, c_action),
              action_label(cp_shape, cp_action))
    sort_key = (rk_pic, table_position(cp_shape, cp_action),
                table_position(SMOOTH_SHAPE, c_action))
    return sort_key, dict(r=r, l=l, m=m, k_sigma2=k_sigma2, num_c=num_c,
                          rk_pic=rk_pic, k_sigma4=k_sigma4, n2=config.n2,
                          n3=config.n3, n4=config.n4, k=config.k,
                          action=labels)


@lru_cache(maxsize=None)
def _build_cases() -> Tuple[ClassificationRow, ...]:
    """The enumeration itself, run once per process by enumerate_cases."""
    found = []
    for rk_pic, num_c, k_sigma4 in sigma4_skeletons():
        for c_action, cp_shape, cp_action in _candidates(rk_pic):
            built = _assemble(rk_pic, num_c, k_sigma4,
                              c_action, cp_shape, cp_action)
            if built is not None:
                found.append(built)
    found.sort(key=lambda item: item[0])
    return tuple(ClassificationRow(index=i + 1, **fields)
                 for i, (_, fields) in enumerate(found))


def enumerate_cases() -> List[ClassificationRow]:
    """All admissible cases in table order, sixteen for the full vocabulary:
    a new list per call of the frozen rows built once per process (a build
    that raises caches nothing)."""
    return list(_build_cases())


def _decompose(row: ClassificationRow):
    """Recover the (elliptic action, fiber shape, fiber action) of a row."""
    ell_label, fiber_label = row.action
    cp_shape, cp_name = parse_action_label(fiber_label)
    ell_name = parse_action_label(ell_label)[1]
    if cp_shape.kind == SMOOTH:
        # rank-10 block: the second curve takes the order-4 action and all
        # of the row's isolated (2,7)/(3,6) points sit on it
        cp_action = FiberAction(ORDER_4, (row.n2, row.n3))
        return FiberAction(ell_name), cp_shape, cp_action
    cp_action = FiberAction(cp_name)
    if ell_name == ORDER_4:
        fd_cp = fiber_fixed_data(cp_shape, cp_action)
        split = (row.n2 - fd_cp.points[0], row.n3 - fd_cp.points[1])
        c_action = FiberAction(ORDER_4, split)
    else:
        c_action = FiberAction(ell_name)
    return c_action, cp_shape, cp_action


def _square_locus(fd_c, fd_cp, k_sigma2: int) -> FixedLocusConfig:
    """The square's fixed locus: the two fibers' isolated points, k_sigma2
    rational curves and each elliptic curve the square fixes pointwise."""
    curves: Tuple[FixedCurve, ...] = (FixedCurve(0, 2),) * k_sigma2
    for fd in (fd_c, fd_cp):
        if fd.elliptic_fixed_by is not None and fd.elliptic_fixed_by <= 2:
            curves = (FixedCurve(1, 2),) + curves
    return FixedLocusConfig(curves, fd_c.n_sigma2 + fd_cp.n_sigma2, 0, 0)


def validate_row(row: ClassificationRow) -> Dict[str, bool]:
    """Re-check every relation a table row must satisfy; keys are stable."""
    checks: Dict[str, bool] = {}
    checks["rank-sum"] = row.r + row.l + 2 * row.m + 4 * row.m1 == 22
    checks["point-constraints"] = prop1_satisfied(row.n2, row.n3, row.n4, row.k)

    fd_c, fd_cp, config = _fixed_locus(*_decompose(row), row)
    checks["topological"] = topo_check(config, row.r, row.l)
    checks["holomorphic"] = holo_total(config, 1)[1]

    # induced order-4 data of the square
    square = _square_locus(fd_c, fd_cp, row.k_sigma2)
    checks["square-point-count"] = square.N == 2 * row.k_sigma2 + 4
    checks["square-holomorphic"] = holo_total(square, 2)[1]
    r2, l2, _ = power_ranks(EigenRanks(row.r, row.l, row.m, row.m1), 2)
    checks["square-topological"] = topo_check(square, r2, l2)

    try:
        solved: Optional[Tuple[int, int, int]] = \
            solve_ranks(row.m1, row.N, row.k, row.k_sigma2)
    except ValueError:
        solved = None
    checks["rank-solver"] = solved == (row.r, row.l, row.m)
    checks["square-rank-identity"] = \
        4 * row.k_sigma2 == (row.r + row.l) - 2 * row.m - 2
    return checks


def theorem1_groups(rows: Sequence[ClassificationRow]):
    """Partition the (k, N, rkPic) triples by which power of the action
    first fixes the smooth elliptic curve pointwise; duplicates dropped,
    first occurrence kept."""
    groups: Dict[int, List[Tuple[int, int, int]]] = {1: [], 2: [], 4: []}
    for row in rows:
        fixed_by = fiber_fixed_data(SMOOTH_SHAPE,
                                    _decompose(row)[0]).elliptic_fixed_by
        triple = (row.k, row.N, row.rk_pic)
        if triple not in groups[fixed_by]:
            groups[fixed_by].append(triple)
    return groups[1], groups[2], groups[4]


def match_row(rows: Sequence[ClassificationRow], elliptic_label: str,
              fiber_label: str) -> ClassificationRow:
    """The unique row carrying the given action label pair."""
    hits = [row for row in rows if row.action == (elliptic_label, fiber_label)]
    if len(hits) != 1:
        raise ValueError("action labels (%r, %r) match %d rows"
                         % (elliptic_label, fiber_label, len(hits)))
    return hits[0]


# ---------------------------------------------------------------------------
# rendering

CSV_HEADER = ",".join(key for _, key, _ in _COLUMNS[1:])


def _cells(row: ClassificationRow) -> List[str]:
    """The row's columns as text, the action pair joined by ", "."""
    return [str(getattr(row, attr)) for attr, _, _ in _COLUMNS[:-1]] \
        + [", ".join(row.action)]


def render_csv(rows: Sequence[ClassificationRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        cells = _cells(row)[1:]
        lines.append(",".join(cells[:-1]) + ',"%s"' % cells[-1])
    return "\n".join(lines) + "\n"


def render_table(rows: Sequence[ClassificationRow]) -> str:
    """Right-aligned columns but the action; the headings alone for no rows."""
    lines = [[heading for _, _, heading in _COLUMNS]]
    lines += [_cells(row) for row in rows]
    widths = [max(len(line[i]) for line in lines)
              for i in range(len(_COLUMNS) - 1)]
    return "".join("  ".join([cell.rjust(width) for cell, width
                              in zip(line, widths)] + [line[-1]]) + "\n"
                   for line in lines)


def rows_to_json(rows: Sequence[ClassificationRow]) -> List[Dict]:
    return [row.to_dict() for row in rows]


def rows_from_json(data: Sequence[Dict]) -> List[ClassificationRow]:
    return [ClassificationRow.from_dict(item) for item in data]
