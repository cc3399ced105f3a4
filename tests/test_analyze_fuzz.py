"""Differential run of `k3auto analyze` on random invariant pairs, and
`analyze` on malformed JSON.

Each draw is one of the generators the table admits (2 ey = 3 ex mod 8,
et odd, 2-form multiplier zeta), composed with the translation by (0, 0)
only in the 2-torsion form, and a fibration in either form whose a and b
use only the exponents that invariance under it allows, with small integer
coefficients.  Every run must end with exit code 0, 1 or 2 inside a fixed
time budget; a nonzero exit writes one `error:` or `invariant violated:`
line and nothing else to stderr, and exit 0 must carry passing checks and
the fiber counts of sympy's factorization read through Tate's table (the
oracle of test_oracle.py).  The malformed inputs are the golden analyze
inputs with seeded mutations, and they are held to the same exit codes,
error line and time budget.  sympy and hypothesis are test-only
dependencies: without them this module is skipped.
"""

import contextlib
import copy
import io
import json
import time
from pathlib import Path

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


# -- malformed input ----------------------------------------------------------

INPUTS = Path(__file__).parent / "golden" / "inputs"
FIBRATIONS = ["degree-9", "ex3", "ex4-generic", "ex4-i8", "iv-star",
              "not-invariant", "readme"]
AUTOMORPHISMS = ["scaling-001", "scaling-427", "translate-427",
                 "translate-427-x0", "translate-427-bad-x0"]
GOLDEN = {name: json.loads((INPUTS / (name + ".json")).read_text(
                               encoding="utf-8"))
          for name in FIBRATIONS + AUTOMORPHISMS}
PAIR_FIELDS = ("a", "b", "torsion_x0")

# values of the wrong type for most fields, pairs and pair entries
wrong_types = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False),
    st.text(max_size=4), st.just([]), st.just({}), st.just([[]]),
    st.just(["1", 2, 3]), st.just({"1": 0}), st.integers(-9, 9))
huge_exponents = st.one_of(
    st.sampled_from([10 ** 9, 2 ** 63, 10 ** 18, 10 ** 30]),
    st.integers(13, 10 ** 40))
# 30 digits, as a JSON int, an integer string or a fraction string
wide_coefficients = st.integers(10 ** 29, 10 ** 30 - 1).flatmap(
    lambda n: st.sampled_from(
        [n, -n, str(n), "-%d/%d" % (n, n // 7 + 1), "1/%d" % n]))
# exponent notation, refused whatever it denotes: "1e3000000" would be a
# 3-million-digit integer
exponent_coefficients = st.builds(
    "{}{}{}{}".format, st.sampled_from(["", "-", "+"]),
    st.sampled_from(["1", "2.5", "0.125", ".5", "7."]),
    st.sampled_from(["e", "E"]),
    st.sampled_from(["0", "3", "-7", "+12", "400", "3000000"]))


def _mutate(draw, doc):
    """doc with one mutation: a wrong type, NaN, a huge exponent, a
    30-digit coefficient, a coefficient in exponent notation, a missing
    field or an extra field."""
    kind = draw(st.sampled_from(
        ["wrong-type", "nan", "huge-exponent", "wide-coefficient",
         "exponent-coefficient", "missing", "extra"]))
    if kind == "missing":
        if doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        return
    if kind == "extra":
        doc[draw(st.text(max_size=10))] = draw(wrong_types)
        return
    pairs = [(key, i) for key in PAIR_FIELDS
             if isinstance(doc.get(key), list)
             for i, pair in enumerate(doc[key])
             if isinstance(pair, list) and len(pair) == 2]
    if kind in ("huge-exponent", "wide-coefficient",
                "exponent-coefficient") or (pairs and draw(st.booleans())):
        if not pairs:
            # a section field where none was: the automorphism's own
            doc["torsion_x0"] = [["1", 0]]
            pairs = [("torsion_x0", 0)]
        key, i = draw(st.sampled_from(pairs))
        slot = draw(st.sampled_from([0, 1])) if kind in (
            "wrong-type", "nan") else int(kind == "huge-exponent")
        value = {"wrong-type": wrong_types, "nan": st.just(float("nan")),
                 "huge-exponent": huge_exponents,
                 "wide-coefficient": wide_coefficients,
                 "exponent-coefficient": exponent_coefficients}[kind]
        doc[key][i][slot] = draw(value)
    elif doc:
        key = draw(st.sampled_from(sorted(doc)))
        doc[key] = float("nan") if kind == "nan" else draw(wrong_types)


@st.composite
def malformed_inputs(draw):
    """(fibration, automorphism): golden analyze inputs, each mutated 0 to 3
    times, with at least one mutation in all."""
    docs = [copy.deepcopy(GOLDEN[draw(st.sampled_from(FIBRATIONS))]),
            copy.deepcopy(GOLDEN[draw(st.sampled_from(AUTOMORPHISMS))])]
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, docs[draw(st.sampled_from([0, 1]))])
    # and, one time in ten, a document that is not an object at all
    if draw(st.sampled_from([False] * 9 + [True])):
        docs[draw(st.sampled_from([0, 1]))] = draw(wrong_types)
    return tuple(docs)


def _exponent_coefficient_read(docs):
    """Whether a pair field analyze reads (a and b of the fibration,
    torsion_x0 of the automorphism) has a coefficient in exponent
    notation."""
    return any(isinstance(doc, dict) and isinstance(doc.get(key), list)
               and any(isinstance(pair, list) and pair
                       and isinstance(pair[0], str) and "e" in pair[0].lower()
                       for pair in doc[key])
               for doc, keys in zip(docs, (("a", "b"), ("torsion_x0",)))
               for key in keys)


@EXAMPLES
@given(malformed_inputs())
def test_analyze_on_malformed_golden_inputs(workdir, docs):
    fib, aut = workdir / "mf.json", workdir / "mg.json"
    # NaN as the JSON extension `NaN`, which json.load reads back
    fib.write_text(json.dumps(docs[0]))
    aut.write_text(json.dumps(docs[1]))
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
        assert "Traceback" not in err.getvalue()
    else:
        assert not err.getvalue()
    # such a coefficient is refused, whatever it denotes
    assert code == 1 or not _exponent_coefficient_read(docs)
