"""What importing the package and running one CLI verb loads.

Each case runs in a fresh interpreter and reports the modules it added to
sys.modules, so the interpreter's own start-up modules do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
INPUTS = Path(__file__).with_name("golden") / "inputs"
ENUMERATE = str(INPUTS / "enumerate.json")
README = str(INPUTS / "readme.json")
EX4 = str(INPUTS / "ex4-generic.json")
TRANSLATE = str(INPUTS / "translate-427.json")

# what fiber typing runs on: the Weierstrass layer and the three below it
TYPING = {"k3auto", "k3auto.cyclotomic", "k3auto.polynomial",
          "k3auto.fibers", "k3auto.weierstrass"}

_PROLOGUE = "import sys\nbefore = set(sys.modules)\n"
_EPILOGUE = ("\nloaded = sorted(set(sys.modules) - before)\n"
             "import json\nprint(json.dumps(loaded))\n")


def _loaded(body):
    """The modules a fresh interpreter loads while running body."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _PROLOGUE + body + _EPILOGUE],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _package(loaded):
    return {m for m in loaded if m == "k3auto" or m.startswith("k3auto.")}


def _read_fibration(path):
    return ("import json\n"
            "from k3auto.weierstrass import WeierstrassFibration\n"
            "with open(%r, encoding='utf-8') as handle:\n"
            "    f = WeierstrassFibration.from_json(json.load(handle))\n"
            % (path,))


def _run_verb(*argv):
    return ("import contextlib, io\n"
            "from k3auto import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(%r) == 0\n" % (list(argv),))


def test_package_import_loads_no_layer_and_no_dataclasses():
    loaded = _loaded("import k3auto")
    assert "k3auto" in loaded
    assert not {"dataclasses", "inspect"} & loaded
    assert not [m for m in loaded if m.startswith("k3auto.")]


def test_lefschetz_verb_loads_only_its_layers():
    loaded = _loaded(_run_verb("lefschetz", "--config", ENUMERATE))
    assert {"k3auto.cli", "k3auto.lefschetz", "k3auto.cyclotomic"} <= loaded
    for layer in ("classify", "fibers", "lattice", "polynomial", "maps",
                  "weierstrass"):
        assert "k3auto." + layer not in loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_classify_verb_leaves_the_weierstrass_layers_unloaded():
    loaded = _loaded(_run_verb("classify", "--pic", "18"))
    assert "k3auto.classify" in loaded
    for layer in ("polynomial", "maps", "weierstrass"):
        assert "k3auto." + layer not in loaded


def test_fiber_typing_loads_four_layers():
    loaded = _loaded(
        _read_fibration(README) +
        "from k3auto.weierstrass import fiber_inventory\n"
        "assert fiber_inventory(f) == {'I_1': 24}\n")
    # not the classification, Lefschetz, lattice or maps layers
    assert _package(loaded) == TYPING


def test_map_builders_add_only_the_maps_layer():
    loaded = _loaded(
        _read_fibration(EX4) +
        "from k3auto.weierstrass import (DiagonalAutomorphism,\n"
        "                                automorphism_map)\n"
        "g = DiagonalAutomorphism(4, 2, 7, translate=True)\n"
        "assert automorphism_map(f, g).x_den.terms\n")
    assert _package(loaded) == TYPING | {"k3auto.maps"}


def test_analysis_verbs_leave_the_maps_layer_unloaded():
    verbs = [("analyze", "--fibration", EX4, "--automorphism", TRANSLATE),
             ("examples", "--id", "4", "--preset", "i8")]
    for argv in verbs:
        loaded = _loaded(_run_verb(*argv))
        assert {"k3auto.classify", "k3auto.weierstrass"} <= loaded, argv
        assert "k3auto.maps" not in loaded, argv


def test_package_names_resolve_on_first_use():
    loaded = _loaded(
        "from k3auto import WeierstrassFibration, enumerate_cases\n"
        "import k3auto\n"
        "from k3auto import weierstrass\n"
        "assert WeierstrassFibration is weierstrass.WeierstrassFibration\n"
        "assert len(enumerate_cases()) == 16\n"
        "assert k3auto.InvariantError is weierstrass.InvariantError\n"
        "for name in k3auto.__all__:\n"
        "    getattr(k3auto, name)\n"
        "assert set(k3auto.__all__) <= set(dir(k3auto))\n"
        "try:\n"
        "    k3auto.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown name resolved')\n")
    assert "k3auto.weierstrass" in loaded


def test_no_verb_loads_a_test_only_dependency():
    # sympy and hypothesis serve the oracle tests; the package runs without
    verbs = [("classify", "--pic", "all"),
             ("lefschetz", "--config", ENUMERATE),
             ("examples", "--id", "4", "--preset", "i8"),
             ("analyze", "--fibration", str(INPUTS / "readme.json"),
              "--automorphism", str(INPUTS / "scaling-001.json"))]
    for argv in verbs:
        loaded = _loaded(_run_verb(*argv))
        assert "k3auto.cli" in loaded
        assert not [m for m in loaded
                    if m.split(".")[0] in ("sympy", "hypothesis")], argv
