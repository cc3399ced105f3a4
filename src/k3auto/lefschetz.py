"""Holomorphic and topological Lefschetz bookkeeping, exact over Q(zeta_8).

The order-8 automorphism acts on the 2-form by zeta_8, so the alternating
trace on H^*(O_X) of its j-th power is 1 + zeta^(8-j).  The fixed locus
side is a sum of isolated-point terms 1/((1-z^t)(1-z^s)) and fixed-curve
terms (1-g)(1+z^e)/(1-z^e)^2.  Everything is evaluated exactly; "matches"
is literal field equality, never a tolerance.

One table, _POINT_EXPONENTS, holds the local eigenvalue exponents of
the isolated points for each power the module handles: (2,7), (3,6) or
(4,5) under the automorphism (determinant condition t+s = 9), and (6,4)
for every isolated point of its square.  Fixed curves of the square have
normal exponent 2, so configurations for power_j=2 only use their total
point count.

The term vectors are constants: each point term and each genus-0 curve
term is built once per process, on first use, keyed by its exponents
mod 8, and a curve of genus g scales the genus-0 term by 1 - g.  So is
the target: holo_target builds 1 + zeta^(8-j) once per power, on first
use, and raises for any other power.  Import builds none of them.
holo_total, curve_term and the derivation below all read the same
cached vectors, and a point count or 1 - g multiplies them as a plain
int, which scales their integer coordinates over the one denominator.

The module also re-derives the two integer point-count constraints by
expanding the fixed-point sum on the power basis and reducing the
resulting integer matrix (saturation + Hermite form), instead of
hardcoding them; the derivation too runs once per process.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from . import refuse_unknown_keys
from .cyclotomic import ONE, ZERO, Cyc8Element, zeta_pow

# local exponents (t, s) of the isolated fixed points of sigma^j, keyed by
# the power j; the counts n2, n3, n4 follow the order of the j = 1 entry,
# and (6, 4) is the local type diag(-i, -1) of sigma^2
_POINT_EXPONENTS = {1: ((2, 7), (3, 6), (4, 5)), 2: ((6, 4),)}


def as_count(key: str, value) -> int:
    """value when it is a non-negative int (a bool is not), else
    ValueError naming the key."""
    if type(value) is not int or value < 0:
        raise ValueError("%r must be a non-negative integer, not %r"
                         % (key, value))
    return value


class FixedCurve(namedtuple("FixedCurve", "genus normal_exponent")):
    """A fixed curve: its genus and the normal-direction eigenvalue exponent,
    which is nonzero mod 8 at every genus."""

    __slots__ = ()

    def __new__(cls, genus: int, normal_exponent: int):
        for key, value in (("genus", genus), ("normal_exp", normal_exponent)):
            if type(value) is not int:
                raise ValueError("%r must be an integer, not %r"
                                 % (key, value))
        if genus < 0:
            raise ValueError("genus must be non-negative")
        if normal_exponent % 8 == 0:
            raise ValueError("fixed curve needs a nontrivial normal eigenvalue")
        return super().__new__(cls, genus, normal_exponent)


class FixedLocusConfig(namedtuple("FixedLocusConfig", "curves n2 n3 n4")):
    """Fixed locus data: curves plus counts of the three isolated point types.

    For power_j=2 configurations the split n2/n3/n4 carries no meaning
    (every isolated point has local type (6,4)); only the total N is used.
    Convention there: store the count in n2.
    """

    __slots__ = ()

    def __new__(cls, curves: Tuple[FixedCurve, ...], n2: int, n3: int,
                n4: int):
        return super().__new__(cls, curves, as_count("n2", n2),
                               as_count("n3", n3), as_count("n4", n4))

    @property
    def N(self) -> int:
        return self.n2 + self.n3 + self.n4

    @property
    def alpha(self) -> int:
        return sum(1 - c.genus for c in self.curves)

    @property
    def k(self) -> int:
        return sum(1 for c in self.curves if c.genus == 0)

    def to_json(self) -> Dict:
        return {
            "curves": [{"genus": c.genus, "normal_exp": c.normal_exponent}
                       for c in self.curves],
            "n2": self.n2, "n3": self.n3, "n4": self.n4,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "FixedLocusConfig":
        refuse_unknown_keys(data, ("curves", "n2", "n3", "n4"))
        curves = data.get("curves", [])
        if not isinstance(curves, list) \
                or not all(isinstance(c, dict) for c in curves):
            raise ValueError("'curves' must be a list of objects, not %r"
                             % (curves,))
        for c in curves:
            refuse_unknown_keys(c, ("genus", "normal_exp"), " in a curve")
        return cls(curves=tuple(FixedCurve(c["genus"], c["normal_exp"])
                                for c in curves),
                   n2=data["n2"], n3=data["n3"], n4=data["n4"])


@lru_cache(maxsize=None)
def holo_target(power_j: int) -> Cyc8Element:
    """1 + zeta^(8-j): trace of sigma^j on H^0 + H^2 of the structure sheaf."""
    if power_j not in _POINT_EXPONENTS:
        raise ValueError("supported powers are 1, 2")
    return ONE + zeta_pow(8 - power_j)


@lru_cache(maxsize=None)
def _point_term(t: int, s: int) -> Cyc8Element:
    # 1 / ((1 - z^t)(1 - z^s)) for t, s in 1..7
    return ((ONE - zeta_pow(t)) * (ONE - zeta_pow(s))).invert()


@lru_cache(maxsize=None)
def _unit_curve_term(e: int) -> Cyc8Element:
    # (1 + z^e) / (1 - z^e)^2 for e in 1..7: a genus-0 curve's term
    return (ONE + zeta_pow(e)) * ((ONE - zeta_pow(e)) ** 2).invert()


def curve_term(c: FixedCurve) -> Cyc8Element:
    """(1 - genus) * (1 + z^e) / (1 - z^e)^2 for normal exponent e."""
    return _unit_curve_term(c.normal_exponent % 8) * (1 - c.genus)


def holo_total(config: FixedLocusConfig,
               power_j: int = 1) -> Tuple[Cyc8Element, bool]:
    """Fixed-locus side of the holomorphic fixed point formula, plus match flag.

    power_j=1 sums the three point types with curve terms as given.
    power_j=2 treats all N isolated points as type (6,4); curves should
    carry normal exponent 2 (genus-1 curves contribute 0 regardless).
    """
    target = holo_target(power_j)
    counts = (config.n2, config.n3, config.n4) if power_j == 1 \
        else (config.N,)
    total = ZERO
    for count, exponents in zip(counts, _POINT_EXPONENTS[power_j]):
        if count:
            total = total + _point_term(*exponents) * count
    for c in config.curves:
        if c.genus != 1:  # the factor (1 - g) kills a genus-1 curve's term
            total = total + curve_term(c)
    return total, total == target


def topo_check(config: FixedLocusConfig, r: int, l: int) -> bool:
    """Topological count: chi(Fix) = 2 + r - l, i.e. N + 2*alpha = r - l + 2."""
    return config.N + 2 * config.alpha == r - l + 2


# ---------------------------------------------------------------------------
# integer linear algebra (small, exact)


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Row-style Hermite normal form of an integer matrix.

    Positive pivots, entries above a pivot reduced into [0, pivot).
    Zero rows are dropped.  Purely Euclidean row operations.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        live = [i for i in range(rank, len(work)) if work[i][col] != 0]
        while len(live) > 1:
            live.sort(key=lambda i: abs(work[i][col]))
            base = live[0]
            for i in live[1:]:
                q = work[i][col] // work[base][col]
                work[i] = [a - q * b for a, b in zip(work[i], work[base])]
            live = [i for i in range(rank, len(work)) if work[i][col] != 0]
        if not live:
            continue
        work[rank], work[live[0]] = work[live[0]], work[rank]
        if work[rank][col] < 0:
            work[rank] = [-a for a in work[rank]]
        for i in range(rank):
            q = work[i][col] // work[rank][col]
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return [row for row in work[:rank] if any(row)]


def integer_kernel(rows: Sequence[Sequence[int]], width: int) -> List[List[int]]:
    """Basis of {x in Z^width : M x = 0} for the matrix with the given rows."""
    m = len(rows)
    if m == 0:
        return [[1 if i == j else 0 for i in range(width)] for j in range(width)]
    # rows of [M^T | I]; HNF rows with zero M^T-part give the kernel
    aug = [[rows[i][j] for i in range(m)] + [1 if k == j else 0 for k in range(width)]
           for j in range(width)]
    out = []
    for row in hermite_normal_form(aug):
        if all(v == 0 for v in row[:m]):
            out.append(row[m:])
    return out


def saturate_rows(rows: Sequence[Sequence[int]], width: int) -> List[List[int]]:
    """Basis of (Q-span of rows) intersected with Z^width: kernel of the kernel."""
    kern = integer_kernel(rows, width)
    return integer_kernel(kern, width)


def derive_prop1_constraints() -> List[Tuple[int, int, int, int, int]]:
    """Re-derive the two point-count equations from the fixed point formula.

    Expands n2*P(2,7) + n3*P(3,6) + n4*P(4,5) + alpha*C(g=0,e=1) = 1 + z^7
    coordinatewise on the power basis, brings the integer coordinates of
    the five vectors over one common denominator, saturates the
    integer row lattice and returns its Hermite form as tuples
    (c_n2, c_n3, c_n4, c_alpha, rhs).  Exactly two independent equations
    survive; in expanded form they read

        n2 + n3 - 4*alpha = 2
        n4 + n2 - n3 - 2*alpha = 2

    The derivation runs once per process; each call returns a new list.
    """
    return list(_prop1_rows())


@lru_cache(maxsize=None)
def _prop1_rows() -> Tuple[Tuple[int, int, int, int, int], ...]:
    columns = [_point_term(*exponents) for exponents in _POINT_EXPONENTS[1]]
    columns.append(_unit_curve_term(1))
    columns.append(holo_target(1))
    vectors = [c.as_ints() for c in columns]
    # one common denominator clears every row; a row's positive scale
    # does not change the saturated lattice
    den = math.lcm(*(d for _, d in vectors))
    rows = ([a[i] * (den // d) for a, d in vectors] for i in range(4))
    raw = [row for row in rows if any(row)]
    sat = saturate_rows(raw, 5)
    hnf = hermite_normal_form(sat)
    if len(hnf) != 2:
        raise AssertionError("expected exactly 2 independent constraints, got %d"
                             % len(hnf))
    return tuple(tuple(r) for r in hnf)  # type: ignore[return-value]


def prop1_residuals(n2: int, n3: int, n4: int, alpha: int) -> List[int]:
    """Left minus right side of each derived equation, in their order."""
    return [c2 * n2 + c3 * n3 + c4 * n4 + ca * alpha - rhs
            for c2, c3, c4, ca, rhs in _prop1_rows()]


def prop1_satisfied(n2: int, n3: int, n4: int, alpha: int) -> bool:
    """Check a candidate count vector against the derived equations."""
    return not any(prop1_residuals(n2, n3, n4, alpha))
