"""Eigenspace ranks of the automorphism powers and involution fixed loci.

The order-8 action on second cohomology splits into eigenspaces of ranks
r, l, m, m1 for eigenvalues 1, -1, +-i and the primitive 8th roots (the
last four roots share one rank m1, so r + l + 2m + 4*m1 = 22).  Squaring
collapses the spectrum, which is pure bookkeeping, and the fourth power is
a non-symplectic involution whose fixed locus follows the 2-elementary
lattice classification: 2g = 22 - rkS - a, 2k = rkS - a, except at
(rkS, a) = (10, 10), where the fixed locus is empty, and at the tagged
member of (10, 8), where it is two elliptic curves.

solve_ranks inverts the three linear relations the fixed point counts
impose, so each classification row's (r, l, m) comes out of (m1, N, alpha,
k_sigma2) alone.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List, Optional, Tuple, Union


class EigenRanks(namedtuple("EigenRanks", "r l m m1")):
    """Ranks of the 1, -1, i, zeta_8 eigenspaces on H^2."""

    __slots__ = ()

    def __new__(cls, r: int, l: int, m: int, m1: int):
        if min(r, l, m, m1) < 0:
            raise ValueError("ranks must be non-negative")
        if r + l + 2 * m + 4 * m1 != 22:
            raise ValueError("ranks must satisfy r + l + 2m + 4*m1 = 22")
        if not 1 <= m1 <= 5:
            raise ValueError("m1 must lie in 1..5 (transcendental part is nonzero)")
        if r < 1:
            raise ValueError("an invariant ample class forces r >= 1")
        return super().__new__(cls, r, l, m, m1)


def power_ranks(e: EigenRanks, j: int) -> Tuple[int, int, int]:
    """(r, l, m) of the j-th power, j in {2, 4}.

    Squaring sends eigenvalue pairs {z, -z} to z^2, so
      j=2: (r+l, 2m, 2*m1)   j=4: (r+l+2m, 4*m1, 0)
    """
    if j == 2:
        return (e.r + e.l, 2 * e.m, 2 * e.m1)
    if j == 4:
        return (e.r + e.l + 2 * e.m, 4 * e.m1, 0)
    raise ValueError("power must be 2 or 4")


SPECIAL_TWO_ELLIPTIC = "two-elliptic-lattice"


class InvolutionFixData(namedtuple("InvolutionFixData", "rkS a special")):
    """Invariant lattice data (rank, determinant exponent) of an involution."""

    __slots__ = ()

    def __new__(cls, rkS: int, a: int, special: Optional[str] = None):
        if not 0 <= rkS <= 20:
            raise ValueError("rkS must lie in [0, 20]")
        if a < 0:
            raise ValueError("determinant exponent must be non-negative")
        if special == SPECIAL_TWO_ELLIPTIC and (rkS, a) != (10, 8):
            raise ValueError("two-elliptic tag requires (rkS, a) = (10, 8)")
        if special not in (None, SPECIAL_TWO_ELLIPTIC):
            raise ValueError("unknown special tag %r" % (special,))
        return super().__new__(cls, rkS, a, special)


NikulinShape = Union[str, Tuple[int, int]]


def nikulin_fixed_locus(d: InvolutionFixData) -> NikulinShape:
    """Fixed locus shape of a non-symplectic involution from lattice data.

    Returns "empty", "two-elliptic-curves", or (g, k): one curve of genus g
    plus k rational curves.  (10, 10) is the empty case: the unique
    2-elementary hyperbolic lattice with those invariants is the one with
    empty fixed locus.  (10, 8) untagged uses the general formulas; the
    two-elliptic member needs its tag.
    """
    if d.special == SPECIAL_TWO_ELLIPTIC:
        return "two-elliptic-curves"
    if (d.rkS, d.a) == (10, 10):
        return "empty"
    g2 = 22 - d.rkS - d.a
    k2 = d.rkS - d.a
    if g2 < 0 or k2 < 0 or g2 % 2 or k2 % 2:
        raise ValueError("not a valid 2-elementary datum")
    return (g2 // 2, k2 // 2)


def sigma4_skeletons() -> List[Tuple[int, int, int]]:
    """(rkPic, number of genus-1 curves, k) shapes compatible with the setup.

    rk Pic = 22 - 4*m1 must admit a genus-1 fixed curve for the fourth
    power, i.e. a = 20 - rkS with a <= rkS, which forces rkS >= 10; at
    (10, 10) the lattice has empty fixed locus and the genus-1 curve lives
    in the two-elliptic special member (10, 8) instead.
    """
    out: List[Tuple[int, int, int]] = []
    for m1 in range(1, 6):
        rk_pic = 22 - 4 * m1
        a = 20 - rk_pic
        if a > rk_pic:
            continue  # determinant exponent cannot exceed the rank
        shape = nikulin_fixed_locus(InvolutionFixData(rk_pic, a))
        if shape == "empty":
            out.append((rk_pic, 2, 0))
        else:
            g, k = shape  # type: ignore[misc]
            assert g == 1
            out.append((rk_pic, 1, k))
    return sorted(out)


def solve_ranks(m1: int, N: int, alpha: int, k_sigma2: int) -> Tuple[int, int, int]:
    """Solve for (r, l, m) from the three fixed point count relations:

        r + l + 2m = 22 - 4*m1        (rank bookkeeping)
        r - l      = N + 2*alpha - 2  (topological count)
        r + l - 2m = 4*k_sigma2 + 2   (square's fixed curve count)

    Raises on non-integral or negative solutions.
    """
    s1 = 22 - 4 * m1
    s2 = N + 2 * alpha - 2
    s3 = 4 * k_sigma2 + 2
    if (s1 + s3) % 2 or (s1 - s3) % 4:
        raise ValueError("inconsistent configuration")
    rl = (s1 + s3) // 2
    m = (s1 - s3) // 4
    if (rl + s2) % 2:
        raise ValueError("inconsistent configuration")
    r = (rl + s2) // 2
    l = rl - r
    if r < 1 or l < 0 or m < 0:
        raise ValueError("inconsistent configuration")
    return (r, l, m)
