"""Fiber dual graphs with a finite-order action: fixed components and points.

Shapes are smooth elliptic fibers, cycles I_n, and the star IV* (central
component of multiplicity 3, three arms middle+leaf).  An action is a
combinatorial label (preserve each component, reflection, rotation, or the
elliptic-curve actions).  Local eigenvalue exponents at the nodes then
propagate along invariant chains: if a fixed node has exponent pair (t, s)
the next node along the chain carries (t-1, s+1) mod 8, and the pair at an
isolated fixed point of the order-8 action sums to 1 mod 8 (determinant
condition on the 2-form eigenvalue).

Rather than trusting a by-hand orientation, fiber_fixed_data enumerates
the finitely many consistent exponent labelings (start pair around a
cycle, involution derivative on an axis or central component) and checks
they all produce the same counting data.  The same propagation with the
doubled or quadrupled multiplier yields the sigma^2 / sigma^4 data.

One table holds the action vocabulary: each (shape kind, action name) in
the classification table's order, with its label and the engine of its
fixed data.  Labels serialize as the table strings, e.g. "rotation of
order 2 on I_8" or "reflection of IV*"; action_label and
parse_action_label read it in both directions, fiber_fixed_data runs its
engines, and kind_actions and table_position give the enumerator the
actions of each kind and the order of the rows.

The fixed data of each (shape, action) is computed once per process, on
first use, and kept in a memo of up to 128 inputs (the classification
table uses 17); import computes none.  An input the engines refuse
raises on every call.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Iterable, List, Optional, Tuple

SMOOTH = "smooth-elliptic"
I_CYCLE = "I_n"
IV_STAR = "IV*"

# smooth-elliptic action names
IDENTITY = "identity"
TRANSLATION_2 = "translation-2"
TRANSLATION_4 = "translation-4"
INVOLUTION = "involution"
ORDER_4 = "order-4"

# degenerate-fiber action names
PRESERVE = "preserve-components"
REFLECTION = "reflection"
ROTATION_2 = "rotation-2"
ROTATION_4 = "rotation-4"
BRANCH_SWAP = "branch-swap"


class FiberShape(namedtuple("FiberShape", "kind n")):
    """A Kodaira fiber shape: smooth, a cycle I_n, or the star IV*."""

    __slots__ = ()

    def __new__(cls, kind: str, n: Optional[int] = None):
        if kind not in (SMOOTH, I_CYCLE, IV_STAR):
            raise ValueError("unknown fiber kind %r" % (kind,))
        if kind == I_CYCLE:
            if n is None or n < 1:
                raise ValueError("I_n needs n >= 1")
        elif n is not None:
            raise ValueError("only I_n carries a component count")
        return super().__new__(cls, kind, n)

    @classmethod
    def smooth_elliptic(cls) -> "FiberShape":
        return cls(SMOOTH)

    @classmethod
    def i_cycle(cls, n: int) -> "FiberShape":
        return cls(I_CYCLE, n)

    @classmethod
    def iv_star(cls) -> "FiberShape":
        return cls(IV_STAR)

    def __str__(self):
        if self.kind == I_CYCLE:
            return "I_%d" % self.n
        return "IV*" if self.kind == IV_STAR else "smooth"


SMOOTH_SHAPE = FiberShape.smooth_elliptic()


class FiberAction(namedtuple("FiberAction", "name split")):
    """Combinatorial action label; order-4 elliptic actions carry the split
    of their two fixed points between types (2,7) and (3,6)."""

    __slots__ = ()

    def __new__(cls, name: str, split: Optional[Tuple[int, int]] = None):
        if name == ORDER_4:
            if split is None or min(split) < 0 or sum(split) != 2:
                raise ValueError("order-4 action needs a point split summing to 2")
        elif split is not None:
            raise ValueError("only order-4 actions carry a point split")
        return super().__new__(cls, name, split)


class FiberFixedData(namedtuple("FiberFixedData", (
        "k_sigma points k_sigma2 k_sigma4 n_sigma2 elliptic_fixed_by"))):
    """Fixed-locus bookkeeping of one fiber under sigma, sigma^2, sigma^4.

    points = (count of (2,7), count of (3,6), count of (4,5)).
    n_sigma2 counts the isolated sigma^2-fixed points on the fiber.
    elliptic_fixed_by is the least power fixing a smooth fiber pointwise
    (None for degenerate fibers).
    """

    __slots__ = ()

    def __new__(cls, k_sigma: int, points: Tuple[int, int, int],
                k_sigma2: int, k_sigma4: int, n_sigma2: int,
                elliptic_fixed_by: Optional[int] = None):
        if not k_sigma <= k_sigma2 <= k_sigma4:
            raise ValueError("pointwise component counts must be monotone in the power")
        return super().__new__(cls, k_sigma, points, k_sigma2, k_sigma4,
                               n_sigma2, elliptic_fixed_by)

    @property
    def alpha_contrib(self) -> int:
        """The fiber's share of alpha = sum of 1 - g over sigma-fixed
        curves: a degenerate fiber's fixed components are rational, and a
        smooth fiber is a genus-1 curve, which adds 0."""
        return 0 if self.elliptic_fixed_by is not None else self.k_sigma


def chain_step(pair: Tuple[int, int]) -> Tuple[int, int]:
    """Successor local exponent pair along a chain of invariant curves."""
    t, s = pair
    return ((t - 1) % 8, (s + 1) % 8)


def _chain_step_power(pair: Tuple[int, int], m: int) -> Tuple[int, int]:
    # same propagation for sigma^m: pairs sum to m mod 8, derivative negates
    # across a node and the normal direction makes up the determinant
    _, s = pair
    return ((-s) % 8, (m + s) % 8)


def point_type(t: int, s: int) -> Optional[int]:
    """The type slot min(t, s) of an isolated fixed point with exponents
    (t, s) in 0..7: 2, 3 or 4 when t + s = 1 mod 8, else None."""
    low = min(t, s)
    return low if (t + s) % 8 == 1 and low in (2, 3, 4) else None


def type_counts(pairs: Iterable[Tuple[int, int]]) -> Tuple[int, int, int]:
    """(count of type 2, of type 3, of type 4) over the exponent pairs."""
    counts = [0, 0, 0]
    for pair in pairs:
        low = point_type(*pair)
        if low is None:
            raise ValueError("pair %r is not an order-8 isolated point type"
                             % (pair,))
        counts[low - 2] += 1
    return (counts[0], counts[1], counts[2])


# ---------------------------------------------------------------------------
# I_n engines


def _cycle_preserve_scan(n: int, m: int, anchor: int) -> Tuple[int, List[Tuple[int, int]]]:
    """Walk the I_n cycle for sigma^m preserving every component.

    anchor is the derivative exponent on the component right after node 0.
    Returns (pointwise component count, node pairs with both exponents
    nonzero).
    """
    if n * m % 8:
        raise ValueError("no consistent labeling: chain does not close")
    pointwise = 0
    isolated: List[Tuple[int, int]] = []
    s = anchor % 8
    for _ in range(n):
        t = (m - s) % 8  # node pair (t, s) sums to m
        if t != 0 and s != 0:
            isolated.append((t, s))
        if s == 0:
            pointwise += 1
        s = (m + s) % 8
    return pointwise, isolated


def _square_preserving_data(n: int, k_sigma: int,
                            points: Tuple[int, int, int]) -> FiberFixedData:
    """I_n data of an action whose square preserves every component."""
    k2, iso2 = _cycle_preserve_scan(n, 2, 0)
    return FiberFixedData(k_sigma=k_sigma, points=points, k_sigma2=k2,
                          k_sigma4=_cycle_preserve_scan(n, 4, 0)[0],
                          n_sigma2=len(iso2))


def _involution_derivative() -> int:
    """The derivative exponent of a curve involution at a fixed point: the
    one nonzero mu with 2 mu = 0 mod 8."""
    derivs = [mu for mu in range(8) if mu and 2 * mu % 8 == 0]
    if len(derivs) != 1:
        raise AssertionError("involution derivative not unique")
    return derivs[0]


def _i_n_preserve(n: int) -> FiberFixedData:
    if n % 8:
        raise ValueError("no consistent labeling: preserve-components needs 8 | n")
    # all 8 starting exponents give the same data up to rotating the cycle
    seen = set()
    for start in range(8):
        k, pts = _cycle_preserve_scan(n, 1, start)
        seen.add((k, type_counts(pts)))
    if len(seen) != 1:
        raise AssertionError("labeling ambiguity on I_%d" % n)
    k, counts = seen.pop()
    return _square_preserving_data(n, k, counts)


def _i_n_reflection(n: int) -> FiberFixedData:
    if n % 8:
        raise ValueError("no consistent labeling: reflection data needs 8 | n")
    # a reflection axis through a node would need branch-swap eigenvalues
    # mu, -mu with mu^2 = zeta^5, impossible inside the 8th roots of unity,
    # so the axis passes through two opposite components
    mu = _involution_derivative()  # 4: two (4,5) points per axis curve
    points = type_counts([(mu, (1 - mu) % 8)] * 4)
    # sigma^2 preserves each component, pointwise on the two axis curves
    return _square_preserving_data(n, 0, points)


def _i_n_rotation(n: int, order: int) -> FiberFixedData:
    if n % order:
        raise ValueError("rotation of order %d needs %d | n" % (order, order))
    if n % 8:
        raise ValueError("no consistent labeling: rotation data needs 8 | n")
    if order == 2:
        # square preserves every component (shift n/2 twice is the identity)
        return _square_preserving_data(n, 0, (0, 0, 0))
    # order 4: the square still rotates by n/2, so nothing on this fiber is
    # sigma^2-fixed
    k4, _ = _cycle_preserve_scan(n, 4, 0)
    return FiberFixedData(k_sigma=0, points=(0, 0, 0), k_sigma2=0,
                          k_sigma4=k4, n_sigma2=0)


# ---------------------------------------------------------------------------
# IV* engines


def _iv_star_sigma2_points() -> int:
    # sigma^2 fixes the central component pointwise; along each of the
    # three arms its derivative doubles to 2 then 4, leaving isolated
    # sigma^2 points at the middle/leaf node and on the leaf
    pairs, q = [], (0, 2)
    for _ in range(2):
        q = _chain_step_power(q, 2)
        pairs.append(q)
    return 3 * len([p for p in pairs if p[0] % 8 and p[1] % 8])


def _iv_star_preserve() -> FiberFixedData:
    # every component invariant: the central curve has three fixed points
    # (the arm junctions), hence is pointwise fixed; normal exponent 1
    p_junction = (0, 1)
    p_mid = chain_step(p_junction)   # node middle/leaf
    p_leaf = chain_step(p_mid)       # interior fixed point on the leaf
    points = type_counts([p_mid] * 3 + [p_leaf] * 3)
    # sigma^4 fixes the central component and the three leaves pointwise
    k4 = 1 + sum(1 for e in (4 * 1, 4 * 2) if e % 8 == 0) * 3
    return FiberFixedData(k_sigma=1, points=points, k_sigma2=1, k_sigma4=k4,
                          n_sigma2=_iv_star_sigma2_points())


def _iv_star_branch_swap() -> FiberFixedData:
    # two arms swapped, one preserved; the central curve keeps two fixed
    # points, and its square fixes four points, hence is an involution:
    # its derivative exponent is the involution's
    mu = _involution_derivative()
    z_free = (mu, (1 - mu) % 8)          # free fixed point on the center
    p_junction = (mu, (1 - mu) % 8)      # junction with the preserved arm
    p_mid = chain_step(p_junction)
    p_leaf = chain_step(p_mid)
    points = type_counts([z_free, p_junction, p_mid, p_leaf])
    k4 = 1 + 3  # center plus the three leaves (normal exponent doubles to 8)
    return FiberFixedData(k_sigma=0, points=points, k_sigma2=1, k_sigma4=k4,
                          n_sigma2=_iv_star_sigma2_points())


# ---------------------------------------------------------------------------
# the action table


def _elliptic(fixed_by: int,
              points: Optional[Tuple[int, int, int]] = (0, 0, 0),
              n_sigma2: int = 0):
    """The engine of an action on a smooth elliptic fiber that sigma^fixed_by
    fixes pointwise first (sigma^4 always does).  With points None the
    action's split types sigma's two fixed points."""
    def engine(n: Optional[int],
               split: Optional[Tuple[int, int]]) -> FiberFixedData:
        return FiberFixedData(
            k_sigma=int(fixed_by == 1),
            points=split + (0,) if points is None else points,
            k_sigma2=int(fixed_by <= 2), k_sigma4=1, n_sigma2=n_sigma2,
            elliptic_fixed_by=fixed_by)
    return engine


# The action vocabulary in the classification table's order: the actions on
# the elliptic curve C, then those on the second invariant fiber, from the
# IV* reflection to the actions preserving every component.  Each (shape
# kind, action name) maps to its table label, where a cycle puts in its
# component count, and to the engine of its fixed data, which takes the
# shape's component count and the action's point split.
_ACTIONS = {
    (SMOOTH, IDENTITY): ("identity", _elliptic(1)),
    (SMOOTH, TRANSLATION_2): ("translation of order two", _elliptic(2)),
    (SMOOTH, TRANSLATION_4): ("translation of order four", _elliptic(4)),
    # four fixed points, derivative -1, necessarily type (4,5); the square
    # fixes the curve pointwise so none survive as isolated
    (SMOOTH, INVOLUTION): ("involution", _elliptic(2, (0, 0, 4))),
    # the square is an involution of the curve: four isolated points
    (SMOOTH, ORDER_4): ("order four", _elliptic(4, None, n_sigma2=4)),
    (IV_STAR, BRANCH_SWAP): ("reflection of IV*",
                             lambda n, _: _iv_star_branch_swap()),
    (I_CYCLE, ROTATION_2): ("rotation of order 2 on I_%d",
                            lambda n, _: _i_n_rotation(n, 2)),
    (I_CYCLE, ROTATION_4): ("rotation of order 4 on I_%d",
                            lambda n, _: _i_n_rotation(n, 4)),
    (I_CYCLE, REFLECTION): ("reflection on I_%d",
                            lambda n, _: _i_n_reflection(n)),
    (IV_STAR, PRESERVE): ("preserves each curve of IV*",
                          lambda n, _: _iv_star_preserve()),
    (I_CYCLE, PRESERVE): ("preserves each curve of I_%d",
                          lambda n, _: _i_n_preserve(n)),
}
_REFUSALS = {SMOOTH: "not a smooth-elliptic action: %r",
             I_CYCLE: "action %r incompatible with I_n",
             IV_STAR: "action %r incompatible with IV*"}


# ---------------------------------------------------------------------------
# public entry points


def fiber_fixed_data(shape: FiberShape, action: FiberAction) -> FiberFixedData:
    """Fixed-locus data of the action on the given fiber shape."""
    if (shape.kind, action.name) not in _ACTIONS:
        raise ValueError(_REFUSALS[shape.kind] % (action.name,))
    return _fixed_data(shape.kind, action.name, shape.n, action.split)


@lru_cache(maxsize=128)
def _fixed_data(kind: str, name: str, n: Optional[int],
                split: Optional[Tuple[int, int]]) -> FiberFixedData:
    # an engine that refuses its input raises, and nothing is kept
    return _ACTIONS[kind, name][1](n, split)


def kind_actions(kind: str) -> List[str]:
    """The names of the actions on a fiber kind, in table order."""
    return [name for each_kind, name in _ACTIONS if each_kind == kind]


def table_position(shape: FiberShape, action: FiberAction) -> int:
    """The place of the action in the classification table's order."""
    return list(_ACTIONS).index((shape.kind, action.name))


def action_label(shape: FiberShape, action: FiberAction) -> str:
    """The classification table's name for the action."""
    label = _ACTIONS[shape.kind, action.name][0]
    return label % shape.n if shape.kind == I_CYCLE else label


@lru_cache(maxsize=128)
def parse_action_label(label: str) -> Tuple[FiberShape, str]:
    """The fiber shape and action name of a table label (inverse of
    action_label), parsed once per label and kept in a memo of up to 128
    labels; a label it refuses raises on every call."""
    for (kind, name), (template, _) in _ACTIONS.items():
        if kind == I_CYCLE:
            prefix = template[:-len("%d")]
            count = label[len(prefix):]
            if label.startswith(prefix) and count.isdigit():
                return FiberShape.i_cycle(int(count)), name
        elif label == template:
            return FiberShape(kind), name
    raise ValueError("unrecognized fiber action label %r" % (label,))
