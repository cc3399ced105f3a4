"""The names the benchmark under perfbench/ reaches into k3auto by.

The tracer wraps functions by dotted path and the operations build their
inputs from package internals, so a rename would otherwise surface only
when the benchmark runs.  These tests resolve each such name without
installing the tracer, and one installs it to check that calls through
in-function imports are still counted; none needs sympy.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, ROOT / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_path_resolves():
    for module, path, _, _ in _bench_module("tracing").TARGETS:
        owner = importlib.import_module("k3auto." + module)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, path)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_builds(workload):
    # no rounds: each builder still imports every name it uses
    assert _bench_module("ops").build(
        {"workload": workload, "rounds": []}) == []


def test_names_the_maps_workload_calls():
    from k3auto.maps import RationalMap, maps_equal
    from k3auto.weierstrass import WeierstrassFibration
    assert callable(WeierstrassFibration.curve_relation)
    assert callable(RationalMap.diagonal)
    assert "curve_cubic" in inspect.signature(maps_equal).parameters


def test_the_tracer_counts_calls_made_through_in_function_imports():
    # weierstrass loads the classification and the maps inside the
    # functions that use them; each such import reads the module attribute
    # at call time, so it gets the tracer's wrapper
    from k3auto import weierstrass
    from k3auto.polynomial import RationalPolynomial
    f = weierstrass.WeierstrassFibration(
        RationalPolynomial({4: 3}), RationalPolynomial({8: 1, 0: 1}),
        form="two-torsion")
    tracer = _bench_module("tracing").Tracer()
    tracer.install()
    try:
        weierstrass.worked_example(1)
        weierstrass.automorphism_map(
            f, weierstrass.DiagonalAutomorphism(4, 2, 7, translate=True))
        weierstrass.fiber_inventory(f)
    finally:
        tracer.uninstall()
    for name in ("classify.enumerate_cases", "maps.compose",
                 "weierstrass.fiber_reports"):
        assert tracer.calls[name] >= 1, name
