"""The sixteen-case classification table."""

from collections import Counter

import pytest

from k3auto import InvariantError, classify, fibers, lefschetz
from k3auto.classify import (CSV_HEADER, _candidates, _decompose,
                             _fixed_locus, enumerate_cases, match_row,
                             render_csv,
                             render_table, rows_from_json, rows_to_json,
                             theorem1_groups, validate_row)
from k3auto.cyclotomic import Cyc8Element, zeta_pow
from k3auto.lattice import sigma4_skeletons
from k3auto.lefschetz import (FixedCurve, FixedLocusConfig, holo_total,
                              prop1_satisfied)

from fixtures import (GROUP_CURVE_FIXED, GROUP_NOT_FIXED,
                      GROUP_SQUARE_FIXED, TABLE_ROWS, classification_key,
                      row_key)


def test_sixteen_rows_match_fixture():
    rows = enumerate_cases()
    assert len(rows) == 16
    computed = Counter(classification_key(row) for row in rows)
    expected = Counter(row_key(entry) for entry in TABLE_ROWS)
    assert computed == expected


def _counter(calls):
    """A wrapper maker that counts each wrapped function's calls by name."""
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    return counted


def test_a_repeated_enumeration_inverts_nothing_and_runs_no_engine(
        monkeypatch):
    # the table is built once per process: a second enumeration sums
    # nothing, looks up no fixed data and runs no engine, and each call
    # hands out a new list of the same rows, so a caller that changes its
    # list changes no later call's.  The builder itself, run again, still
    # sums all 82 candidates over two fiber lookups each, without an
    # inverse in Q(zeta_8), a built target, a count embedded in Q(zeta_8)
    # or an engine run: the Lefschetz terms, the target and each fiber's
    # fixed data are computed once per process too
    first = enumerate_cases()
    calls = Counter()
    counted = _counter(calls)

    monkeypatch.setattr(Cyc8Element, "invert",
                        counted("invert", Cyc8Element.invert))
    monkeypatch.setattr(Cyc8Element, "from_rational", staticmethod(
        counted("from_rational", Cyc8Element.from_rational)))
    monkeypatch.setattr(lefschetz, "zeta_pow",
                        counted("zeta_pow", lefschetz.zeta_pow))
    monkeypatch.setattr(classify, "holo_total",
                        counted("holo_total", classify.holo_total))
    monkeypatch.setattr(classify, "fiber_fixed_data",
                        counted("fiber_fixed_data", classify.fiber_fixed_data))
    for key, (label, engine) in list(fibers._ACTIONS.items()):
        monkeypatch.setitem(fibers._ACTIONS, key,
                            (label, counted("engine", engine)))
    second = enumerate_cases()
    assert (calls["invert"], calls["engine"], calls["holo_total"],
            calls["fiber_fixed_data"]) == (0, 0, 0, 0)
    assert second == first and second is not first
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    second.pop()
    assert len(enumerate_cases()) == 16
    assert sum(calls.values()) == 0

    rebuilt = classify._build_cases.__wrapped__()
    assert list(rebuilt) == enumerate_cases()
    assert (calls["invert"], calls["engine"], calls["holo_total"],
            calls["fiber_fixed_data"]) == (0, 0, 82, 164)
    assert (calls["from_rational"], calls["zeta_pow"]) == (0, 0)


def _fresh_holo_total(config, power):
    # the field formula, built from scratch: 1/((1 - z^t)(1 - z^s)) per
    # point, (1 - g)(1 + z^e)/(1 - z^e)^2 per curve, against 1 + z^(8-j)
    one = Cyc8Element.one()
    pairs = [((2, 7), config.n2), ((3, 6), config.n3), ((4, 5), config.n4)] \
        if power == 1 else [((6, 4), config.N)]
    total = Cyc8Element.zero()
    for (t, s), count in pairs:
        total += ((one - zeta_pow(t)) * (one - zeta_pow(s))).invert() * count
    for c in config.curves:
        e = c.normal_exponent
        total += (one + zeta_pow(e)) * ((one - zeta_pow(e)) ** 2).invert() \
            * (1 - c.genus)
    return total, total == one + zeta_pow(8 - power)


def test_row_checks_and_sums_run_on_ints(monkeypatch):
    # holo_total sums the terms' integer coordinates and builds one
    # Cyc8Element, the total, and validate_row takes its fixed curves from
    # constants: after a warm-up, the sums of both powers and the checks of
    # all sixteen rows multiply, add and invert nothing in Q(zeta_8) and
    # build no FixedCurve, and every sum is the field formula's
    rows = enumerate_cases()
    configs = []
    for row in rows:
        fd_c, fd_cp, config = _fixed_locus(*_decompose(row), row)
        configs += [(config, 1),
                    (classify._square_locus(fd_c, fd_cp, row.k_sigma2), 2)]
    curves = (FixedCurve(1, 3), FixedCurve(0, 5), FixedCurve(2, -1))
    configs += [(FixedLocusConfig(curves[:size], n2, n3, n4), power)
                for size in range(4) for n2, n3, n4 in ((0, 0, 0), (3, 1, 2))
                for power in (1, 2)]
    expected = [_fresh_holo_total(config, power) for config, power in configs]
    for row in rows:
        validate_row(row)
    for config, power in configs:
        holo_total(config, power)
    calls = Counter()
    counted = _counter(calls)

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "invert"):
        monkeypatch.setattr(Cyc8Element, name,
                            counted(name, getattr(Cyc8Element, name)))
    monkeypatch.setattr(FixedCurve, "__new__", staticmethod(
        counted("FixedCurve", FixedCurve.__new__)))
    sums = [holo_total(config, power) for config, power in configs]
    checks = [validate_row(row) for row in rows]
    assert sum(calls.values()) == 0, calls
    assert sums == expected
    assert [sum(flag for _, flag in sums[2 * i:2 * i + 2])
            for i in range(16)] == [2] * 16
    assert all(all(row_checks.values()) for row_checks in checks)


def test_case_numbering_is_stable():
    rows = enumerate_cases()
    by_index = {row.index: row for row in rows}
    assert sorted(by_index) == list(range(1, 17))
    for entry in TABLE_ROWS:
        assert classification_key(by_index[entry[0]]) == row_key(entry)


def test_every_row_validates():
    for row in enumerate_cases():
        checks = validate_row(row)
        assert checks and all(checks.values()), (row.index, checks)


def test_point_constraints_agree_with_holomorphic_sum():
    # the enumerator tests only the holomorphic sum: the derived point
    # constraints must accept exactly the same candidates
    verdicts = []
    for rk_pic, _, _ in sigma4_skeletons():
        for candidate in _candidates(rk_pic):
            _, _, config = _fixed_locus(*candidate)
            verdict = holo_total(config, 1)[1]
            assert prop1_satisfied(config.n2, config.n3, config.n4,
                                   config.alpha) == verdict, candidate
            verdicts.append(verdict)
    assert len(verdicts) == 82 and 16 <= verdicts.count(True) < 82


def test_enumerator_funnel_and_the_abstract_bounds():
    """Per Picard rank: the candidates, those the holomorphic identity
    rejects, and the rows kept; every candidate it keeps is a row.  The
    abstract's bounds hold on the table, and each is attained."""
    rows = enumerate_cases()
    funnel = []
    for rk_pic, _, _ in sigma4_skeletons():
        candidates = list(_candidates(rk_pic))
        rejected = sum(not holo_total(_fixed_locus(*c)[2], 1)[1]
                       for c in candidates)
        kept = sum(row.rk_pic == rk_pic for row in rows)
        funnel.append((rk_pic, len(candidates), rejected, kept))
    assert funnel == [(10, 12, 8, 4), (14, 42, 34, 8), (18, 28, 24, 4)]
    assert {row.rk_pic for row in rows} == {10, 14, 18}
    elliptic = [sum(curve.genus == 1 for curve in
                    _fixed_locus(*_decompose(row), row)[2].curves)
                for row in rows]
    assert max(elliptic) == 1
    assert max(row.k for row in rows) == 2
    assert max(row.N for row in rows) == 14


def test_enumerator_refuses_a_kept_case_without_skeleton_or_ranks(
        monkeypatch):
    """A case the holomorphic identity keeps but that does not fit its
    skeleton, or has no eigenspace ranks, is a fault: it raises.  The
    uncached builder runs under each patch, so it raises whatever ran
    before; a public enumeration whose build raises caches nothing; and
    the table stays the fixture's."""
    enumerate_cases()
    build = classify._build_cases.__wrapped__

    def no_ranks(*args):
        raise ValueError("inconsistent configuration")
    with monkeypatch.context() as patch:
        patch.setattr(classify, "solve_ranks", no_ranks)
        with pytest.raises(InvariantError, match="no eigenspace ranks"):
            build()
    with monkeypatch.context() as patch:
        patch.setattr(classify, "sigma4_skeletons", lambda: [(18, 1, 7)])
        with pytest.raises(InvariantError, match="skeleton 7"):
            build()
    classify._build_cases.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(classify, "solve_ranks", no_ranks)
        with pytest.raises(InvariantError, match="no eigenspace ranks"):
            enumerate_cases()
    rows = enumerate_cases()
    assert len(rows) == 16
    assert Counter(classification_key(row) for row in rows) \
        == Counter(row_key(entry) for entry in TABLE_ROWS)


def test_theorem_groups():
    groups = theorem1_groups(enumerate_cases())
    assert len(groups) == 3
    assert groups[0] == GROUP_CURVE_FIXED
    assert groups[1] == GROUP_SQUARE_FIXED
    assert groups[2] == GROUP_NOT_FIXED


def test_match_row():
    rows = enumerate_cases()
    row = match_row(rows, "identity", "order four")
    assert row.index == 1
    row = match_row(rows, "order four", "reflection on I_16")
    assert row.index == 15
    with pytest.raises(ValueError):
        match_row(rows, "identity", "reflection on I_16")


def test_m1_and_derived_quantities():
    for row in enumerate_cases():
        assert row.m1 == (22 - row.rk_pic) // 4
        assert row.r + row.l + 2 * row.m + 4 * row.m1 == 22
        assert row.N == row.n2 + row.n3 + row.n4


def test_csv_round_trip_and_header():
    rows = enumerate_cases()
    text = render_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 17
    assert lines[0].split(",")[:4] == ["r", "l", "m", "k_sigma2"]


def test_csv_and_json_carry_the_same_columns():
    rows = enumerate_cases()
    lines = render_csv(rows).splitlines()
    keys = lines[0].split(",")
    for row, line in zip(rows, lines[1:]):
        data = row.to_dict()
        assert list(data) == ["index"] + keys
        cells = line.split(",", len(keys) - 1)
        assert cells[:-1] == [str(data[key]) for key in keys[:-1]]
        assert cells[-1] == '"%s"' % ", ".join(data["action"])


def test_json_round_trip():
    rows = enumerate_cases()
    again = rows_from_json(rows_to_json(rows))
    assert again == rows


def test_render_table_shape():
    text = render_table(enumerate_cases())
    lines = text.strip().split("\n")
    assert len(lines) == 17
    assert "action" in lines[0]
    assert "preserves each curve of I_16" in lines[-1]


def test_renderers_of_no_rows_give_the_header_line():
    assert render_csv([]) == CSV_HEADER + "\n"
    assert render_table([]) == ("case  r  l  m  k_s2  #C  rkPic  k_s4  N"
                                "  n2  n3  n4  k  action\n")
