"""Differential run of `k3auto analyze` on random invariant pairs.

Each draw is one of the generators the table admits (2 ey = 3 ex mod 8,
et odd, 2-form multiplier zeta), composed with the translation by (0, 0)
only in the 2-torsion form, and a fibration in either form whose a and b
use only the exponents that invariance under it allows, with small integer
coefficients.  Every run must end with exit code 0, 1 or 2 inside a fixed
time budget; a nonzero exit writes one `error:` or `invariant violated:`
line and nothing else to stderr, and exit 0 must carry passing checks and
the fiber counts of sympy's factorization read through Tate's table (the
oracle of test_oracle.py).  sympy and hypothesis are test-only
dependencies: without them this module is skipped.
"""

import contextlib
import io
import json
import time

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from k3auto.cli import main  # noqa: E402
from test_oracle import (DEGREE_CAPS, EXAMPLES, T,  # noqa: E402
                         oracle_inventory)

# seconds per analyze run; the inputs are small, so a run near this is a
# hang or a running time that is not polynomial
BUDGET_S = 5.0

GENERATORS = [(ex, ey, et, translate)
              for ex in range(8) for ey in range(8) for et in range(1, 8, 2)
              for translate in (False, True)
              if (2 * ey - 3 * ex) % 8 == 0 and (et + ex - ey) % 8 == 1]

coefficients = st.one_of(st.just(0), st.integers(-3, 3))


@st.composite
def invariant_pairs(draw):
    """(form, a pairs, b pairs, automorphism) of an invariant pair."""
    ex, ey, et, translate = draw(st.sampled_from(GENERATORS))
    form = "two-torsion" if translate \
        else draw(st.sampled_from(sorted(DEGREE_CAPS)))
    # a(zeta^et t) = zeta^ta a(t) and b(zeta^et t) = zeta^tb b(t)
    if form == "short":
        targets = (2 * ey - ex, 2 * ey)
    else:
        targets = (2 * ey - 2 * ex, 2 * ey - ex)
    polys = []
    for cap, target in zip(DEGREE_CAPS[form], targets):
        exponents = [e for e in range(cap + 1) if (et * e - target) % 8 == 0]
        pairs = [[str(draw(coefficients)), e] for e in exponents]
        polys.append([pair for pair in pairs if pair[0] != "0"])
    automorphism = {"ex": ex, "ey": ey, "et": et, "translate": translate}
    return form, polys[0], polys[1], automorphism


def to_sympy(pairs):
    return sum((int(c) * T ** e for c, e in pairs), sympy.Integer(0))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("analyze-fuzz")


@EXAMPLES
@given(invariant_pairs())
# presets of the worked examples 1, 3 (i8) and 4 (i16), and an input with
# no smooth invariant fiber
@example(("short", [["1", 0], ["1", 8]], [["3", 0], ["1", 8]],
          {"ex": 0, "ey": 0, "et": 1, "translate": False}))
@example(("short", [["1", 0], ["-3", 8]], [["1", 4], ["2", 12]],
          {"ex": 4, "ey": 2, "et": 7, "translate": False}))
@example(("two-torsion", [["1", 4]], [["1", 0]],
          {"ex": 4, "ey": 2, "et": 7, "translate": True}))
@example(("short", [["-3", 8]], [["1", 4], ["2", 12]],
          {"ex": 4, "ey": 2, "et": 7, "translate": False}))
def test_analyze_on_random_invariant_pairs(workdir, pair):
    form, a, b, automorphism = pair
    fib, aut = workdir / "f.json", workdir / "g.json"
    fib.write_text(json.dumps({"form": form, "a": a, "b": b}))
    aut.write_text(json.dumps(automorphism))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", "--fibration", str(fib),
                     "--automorphism", str(aut), "--format", "json"])
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, elapsed
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, err.getvalue()
        assert lines[0].startswith(("error:", "invariant violated:"))
        return
    assert not err.getvalue()
    report = json.loads(out.getvalue())
    assert all(report["checks"].values()), report["checks"]
    assert report["fiber_counts"] == oracle_inventory(
        to_sympy(a), to_sympy(b), form)
