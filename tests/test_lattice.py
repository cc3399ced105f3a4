"""Eigenspace rank bookkeeping and involution fixed loci."""

import pytest

from k3auto.lattice import (EigenRanks, InvolutionFixData,
                            SPECIAL_TWO_ELLIPTIC, nikulin_fixed_locus,
                            power_ranks, sigma4_skeletons, solve_ranks)

from fixtures import TABLE_ROWS


def test_rank_constraint_enforced():
    EigenRanks(3, 3, 2, 3)
    with pytest.raises(ValueError):
        EigenRanks(3, 3, 2, 2)
    with pytest.raises(ValueError):
        EigenRanks(4, 2, -1, 3)
    with pytest.raises(ValueError):
        EigenRanks(22, 0, 0, 0)  # m1 = 0 leaves no room for the 2-form


def test_power_ranks():
    e = EigenRanks(3, 3, 2, 3)
    assert power_ranks(e, 2) == (6, 4, 6)
    assert power_ranks(e, 4) == (10, 12, 0)
    with pytest.raises(ValueError):
        power_ranks(e, 3)


def test_power_ranks_total_is_preserved():
    for entry in TABLE_ROWS:
        r, l, m, rk_pic = entry[1], entry[2], entry[3], entry[6]
        m1 = (22 - rk_pic) // 4
        e = EigenRanks(r, l, m, m1)
        r2, l2, m2 = power_ranks(e, 2)
        assert r2 + l2 + 2 * m2 == 22
        r4, l4, m4 = power_ranks(e, 4)
        assert r4 + l4 + 2 * m4 == 22
        assert r4 == rk_pic


def test_nikulin_shapes():
    assert nikulin_fixed_locus(InvolutionFixData(10, 10)) == "empty"
    assert nikulin_fixed_locus(
        InvolutionFixData(10, 8, special=SPECIAL_TWO_ELLIPTIC)) \
        == "two-elliptic-curves"
    # smooth genus-1 curve plus k rational curves
    assert nikulin_fixed_locus(InvolutionFixData(14, 6)) == (1, 4)
    assert nikulin_fixed_locus(InvolutionFixData(18, 2)) == (1, 8)
    with pytest.raises(ValueError):
        nikulin_fixed_locus(InvolutionFixData(15, 6))


def test_sigma4_skeletons():
    assert sigma4_skeletons() == [(10, 2, 0), (14, 1, 4), (18, 1, 8)]


def test_solve_ranks_reproduces_table():
    for entry in TABLE_ROWS:
        r, l, m, k_sigma2 = entry[1], entry[2], entry[3], entry[4]
        rk_pic, N, k = entry[6], entry[8], entry[12]
        m1 = (22 - rk_pic) // 4
        assert solve_ranks(m1, N, k, k_sigma2) == (r, l, m)
        # the square's fixed curve relation, rearranged
        assert 4 * k_sigma2 == (r + l) - 2 * m - 2


def test_solve_ranks_rejects_inconsistent():
    with pytest.raises(ValueError):
        solve_ranks(3, 3, 0, 0)  # odd r - l target
    with pytest.raises(ValueError):
        solve_ranks(5, 14, 2, 4)  # negative eigenvalue rank
