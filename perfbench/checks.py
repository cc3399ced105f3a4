"""Checks of every operation's output against the oracle.

`check_op(truth, workload, op, summary)` returns None when the output is
right and a one-line reason otherwise.  The truths come from oracle.py, never
from k3auto.
"""

import json

import oracle
from inputs import MAP_IDENTITIES

CSV_HEADER = "r,l,m,k_sigma2,num_C,rk_pic,k_sigma4,N,n2,n3,n4,k,action"

# the one operation that is known to fail: the program lumps the II and
# I_2 places of the counterexample into one place
KNOWN_FAILURE = "counterexample"


class Truth:
    """The oracle's answers, computed once per distinct input."""

    def __init__(self, root):
        self.table = oracle.table_rows(root)
        self.pins = oracle.example_pins(root)
        self._inventories = {}

    def inventory(self, a_pairs, b_pairs, form="short"):
        key = json.dumps([a_pairs, b_pairs, form])
        if key not in self._inventories:
            if form == "two-torsion":
                a_pairs, b_pairs = oracle.two_torsion_short(a_pairs, b_pairs)
            self._inventories[key] = oracle.fiber_inventory(a_pairs, b_pairs)
        return self._inventories[key]

    def row(self, case):
        return oracle.row_values(self.table[case])


def _point_type(pair):
    low = min(pair)
    if sum(pair) % 8 != 1 or low not in (2, 3, 4):
        raise ValueError("not an isolated point type: %r" % (pair,))
    return low


def _check_analysis(truth, key, summary):
    case, counts = truth.pins[key]
    if summary["row"] != truth.row(case):
        return "matched row %s, pinned row %d" % (summary["row"]["index"], case)
    if summary["inventory"] != counts:
        return "fiber counts %r, pinned %r" % (summary["inventory"], counts)
    euler = sum(v * degree for v, degree in summary["fibers"])
    if euler != 24:
        return "Euler numbers sum to %d" % euler
    totals = [0, 0, 0]
    for fiber in summary["invariant_fibers"]:
        if fiber["points_from"] == "coordinates":
            counts_here = [0, 0, 0]
            for pair in fiber["pairs"]:
                counts_here[_point_type(pair) - 2] += 1
        else:
            counts_here = fiber["point_counts"]
        totals = [t + c for t, c in zip(totals, counts_here)]
    expected = [summary["row"][k] for k in ("n2", "n3", "n4")]
    if totals != expected:
        return "fixed points give (n2, n3, n4) = %r, row has %r" % (
            totals, expected)
    if not all(summary["checks"].values()) \
            or not all(summary["row_checks"].values()):
        return "a reported check failed"
    return None


def _csv_rows(text):
    lines = text.rstrip("\n").split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError("csv header %r" % lines[0])
    rows = []
    for line in lines[1:]:
        numbers, action = line.split(',"', 1)
        rows.append([int(v) for v in numbers.split(",")]
                    + action.rstrip('"').split(", ", 1))
    return rows


def _csv_of(entry):
    return list(entry[1:13]) + [entry[13], entry[14]]


def _check_classify(truth, op, text):
    entries = [truth.table[c] for c in sorted(truth.table)
               if op["pic"] == "all" or truth.table[c][6] == int(op["pic"])]
    if op["format"] == "json":
        ok = json.loads(text) == [oracle.row_values(e) for e in entries]
    elif op["format"] == "csv":
        ok = _csv_rows(text) == [_csv_of(e) for e in entries]
    else:
        lines = text.rstrip("\n").split("\n")[1:]
        ok = [[int(v) for v in line.split()[:13]] for line in lines] \
            == [list(e[:13]) for e in entries] \
            and all(line.endswith("%s, %s" % e[13:]) for line, e in
                    zip(lines, entries))
    return None if ok else "classification table differs from the fixture"


def _check_cli_analysis(truth, op, text):
    family, preset, tau = op["key"]
    case, counts = truth.pins[(family, preset, tau)]
    fmt = op["format"]
    if fmt == "csv":
        ok = _csv_rows(text) == [_csv_of(truth.table[case])]
    elif op["verb"] == "examples" and fmt == "json":
        payload = json.loads(text)
        ok = payload["matched_row"] == case and payload["passed"] \
            and payload["fiber_counts"] == counts
    elif op["verb"] == "examples":
        lines = text.rstrip("\n").split("\n")
        ok = lines[0].endswith(": matched row %d" % case) \
            and lines[-1] == "result: pass"
    elif fmt == "json":
        payload = json.loads(text)
        fib = next(data for name, data in op["files"].items()
                   if name.startswith("fib-"))
        ok = payload["matched_row"] == truth.row(case) \
            and payload["fiber_counts"] == counts \
            and counts == truth.inventory(fib["a"], fib["b"], fib["form"]) \
            and all(payload["checks"].values())
    else:
        lines = text.rstrip("\n").split("\n")
        ok = "matched row: %d" % case in lines and all(
            line.endswith(": pass") for line in lines
            if line.startswith("check "))
    return None if ok else "%s output differs from the pinned row %d" % (
        op["verb"], case)


def _check_lefschetz(op, text):
    config = next(iter(op["files"].values()))
    pins = {k: v for k, v in config.items() if k != "alpha"}
    expected = [list(s) for s in
                oracle.point_count_solutions(config["alpha"], pins)]
    fmt = op["format"]
    if fmt == "json":
        got = json.loads(text)["solutions"]
    elif fmt == "csv":
        got = [[int(v) for v in line.split(",")[:3]]
               for line in text.rstrip("\n").split("\n")[1:]]
    else:
        got = [[int(part.split("=")[1].split()[0].rstrip(","))
                for part in line.split(", ")]
               for line in text.rstrip("\n").split("\n")
               if line.startswith("n2 = ")]
    return None if got == expected else "solutions %r, expected %r" % (
        got, expected)


def check_op(truth, workload, op, summary):
    """None if the summary is right, else a one-line reason."""
    if workload == "examples-sweep":
        return _check_analysis(truth, (op["family"], op["preset"], op["tau"]),
                               summary)
    if workload == "fiber-typing":
        expected = truth.inventory(op["a"], op["b"])
        return None if summary == expected else \
            "inventory %r, oracle %r" % (summary, expected)
    if workload == "maps-group-law":
        holds = op["identity"] != MAP_IDENTITIES[-1]
        return None if summary is holds else \
            "%s decided %r" % (op["identity"], summary)
    if summary["code"] != 0:
        return "exit code %d" % summary["code"]
    text = summary["stdout"]
    try:
        if op["verb"] == "classify":
            return _check_classify(truth, op, text)
        if op["verb"] == "lefschetz":
            return _check_lefschetz(op, text)
        return _check_cli_analysis(truth, op, text)
    except (ValueError, KeyError, IndexError) as err:
        return "unreadable %s output: %s" % (op["verb"], err)


def is_known_failure(workload, op):
    return workload == "fiber-typing" and op["design"] == KNOWN_FAILURE
