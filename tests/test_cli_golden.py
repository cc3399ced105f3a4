"""Golden CLI runs: stdout, stderr and the exit code, byte for byte.

Each case calls ``cli.main`` in-process and compares against
``golden/<case>.stdout`` and the ``[exit code, stderr]`` pair stored under
the case id in ``golden/exits.json``.  Input files live in
``golden/inputs``; no output names a path, so the files are portable.

Regenerate (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from k3auto.cli import main

GOLDEN = Path(__file__).with_name("golden")
INPUTS = GOLDEN / "inputs"
FORMATS = ("table", "json", "csv")

_PRESETS = [(1, "generic"), (1, "iv-star"), (2, "generic"), (2, "iv-star"),
            (3, "generic"), (3, "i8"), (3, "i16"), (4, "generic"),
            (4, "i8"), (4, "i16")]

# (fibration, automorphism) input pairs for the analyze verb
_ANALYZE = {
    "readme": ("readme", "scaling-001"),
    "ex3": ("ex3", "scaling-427"),
    "ex4-generic": ("ex4-generic", "translate-427"),
    "ex4-i8": ("ex4-i8", "translate-427-x0"),
    "iv-star": ("iv-star", "scaling-001"),
    # exit 1: a bad degree, and a torsion_x0 that is not a section
    "degree-9": ("degree-9", "scaling-001"),
    "bad-x0": ("ex4-i8", "translate-427-bad-x0"),
    # exit 2: the scaling does not preserve the fibration
    "not-invariant": ("not-invariant", "scaling-001"),
}


def _cases():
    cases = {}
    for fmt in FORMATS:
        cases["classify-all-" + fmt] = ["classify", "--pic", "all",
                                        "--format", fmt]
        for name in ("check", "check-fail", "enumerate"):
            cases["lefschetz-%s-%s" % (name, fmt)] = [
                "lefschetz", "--config", "@" + name, "--format", fmt]
        for name in ("readme", "ex4-i8"):
            fib, aut = _ANALYZE[name]
            cases["analyze-%s-%s" % (name, fmt)] = [
                "analyze", "--fibration", "@" + fib,
                "--automorphism", "@" + aut, "--format", fmt]
        cases["examples-1-generic-" + fmt] = [
            "examples", "--id", "1", "--format", fmt]
    for pic in ("10", "14", "18"):
        cases["classify-%s-csv" % pic] = ["classify", "--pic", pic,
                                          "--format", "csv"]
    for example, preset in _PRESETS:
        cases["examples-%d-%s-json" % (example, preset)] = [
            "examples", "--id", str(example), "--preset", preset,
            "--format", "json"]
    for preset in ("generic", "i8", "i16"):
        cases["examples-3-%s-tau-json" % preset] = [
            "examples", "--id", "3", "--preset", preset, "--tau",
            "--format", "json"]
    cases["examples-4-params-table"] = [
        "examples", "--id", "4", "--params", "5,1,2"]
    for name, (fib, aut) in _ANALYZE.items():
        cases.setdefault("analyze-%s-json" % name, [
            "analyze", "--fibration", "@" + fib,
            "--automorphism", "@" + aut, "--format", "json"])
    return cases


CASES = _cases()


def _run(argv):
    argv = [str(INPUTS / (arg[1:] + ".json")) if arg.startswith("@")
            else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def exits():
    return json.loads((GOLDEN / "exits.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden(case, exits, monkeypatch):
    monkeypatch.delenv("K3AUTO_FORMAT", raising=False)
    code, out, err = _run(CASES[case])
    expected = (GOLDEN / (case + ".stdout")).read_text(encoding="utf-8")
    assert out == expected
    assert [code, err] == exits[case]


def test_golden_files_match_the_cases():
    stored = {path.name[:-len(".stdout")]
              for path in GOLDEN.glob("*.stdout")}
    assert stored == set(CASES)


def _regenerate():
    for path in GOLDEN.glob("*.stdout"):
        path.unlink()
    table = {}
    for case in sorted(CASES):
        code, out, err = _run(CASES[case])
        (GOLDEN / (case + ".stdout")).write_text(out, encoding="utf-8")
        table[case] = [code, err]
    (GOLDEN / "exits.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
