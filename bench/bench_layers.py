"""Per-layer timings of the table layers, with pytest-benchmark.

Times the holomorphic Lefschetz sum at both powers, validate_row over the
sixteen rows, one uncached build of the table, and worked_example on
every preset.  Run it from the repository root:

    PYTHONPATH=src python -m pytest bench/bench_layers.py \\
        --benchmark-json=BENCH_<label>.json

or once, untimed, as a smoke test, with --benchmark-disable.  The file
name does not match test_*.py, so the Tier-1 suite does not collect it.

The timings of a shared machine spread widely (an interquartile range of
half the median is common), so compare two labels only through runs made
alternately on one machine, never against a file from elsewhere.
pytest-benchmark is a development tool here; the package needs nothing
at run time.
"""

import pytest

from k3auto import classify, weierstrass
from k3auto.classify import enumerate_cases, validate_row
from k3auto.lefschetz import holo_total

ROWS = enumerate_cases()


def _loci(row):
    """The row's fixed locus under sigma (power 1) and its square's."""
    fd_c, fd_cp, config = classify._fixed_locus(*classify._decompose(row),
                                                row)
    return {1: config, 2: classify._square_locus(fd_c, fd_cp, row.k_sigma2)}


# row 16, the largest loci: 2 rational curves and 14 points under sigma,
# 4 rational curves and 12 points under its square
LOCI = _loci(ROWS[-1])

# every (example, preset, second generator) the four families carry
PRESETS = [(example_id, preset, tau)
           for example_id, family in weierstrass._FAMILIES.items()
           for preset in family[-1]
           for tau in range(len(family[3]))]


@pytest.mark.parametrize("power", [1, 2])
def test_holo_total(benchmark, power):
    total, ok = benchmark(holo_total, LOCI[power], power)
    assert ok


def test_validate_row_over_the_table(benchmark):
    def check_all():
        return [validate_row(row) for row in ROWS]
    checks = benchmark(check_all)
    assert all(all(row.values()) for row in checks)


def test_build_the_table_uncached(benchmark):
    rows = benchmark(classify._build_cases.__wrapped__)
    assert list(rows) == ROWS


@pytest.mark.parametrize("example_id, preset, tau", PRESETS,
                         ids=["%d-%s%s" % (i, p, "-tau" * t)
                              for i, p, t in PRESETS])
def test_worked_example(benchmark, example_id, preset, tau):
    analysis = benchmark(weierstrass.worked_example, example_id, preset,
                         None, bool(tau))
    assert all(analysis.checks.values())
