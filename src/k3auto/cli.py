"""Command line front end.

Four verbs:

* ``classify``   print the sixteen-case table (filter by Picard rank)
* ``analyze``    type an invariant fibration given as two JSON files
* ``examples``   run one of the built-in worked examples and check it
* ``lefschetz``  check or enumerate fixed-locus counts

Every verb honours ``--format {table,json,csv}``; the ``K3AUTO_FORMAT``
environment variable supplies the default.  Output is deterministic:
identical inputs give byte-identical output.

Exit codes: 0 success (and all reported checks pass), 1 bad input (a
usage error included) or a failed check, 2 a geometric invariant is
violated.

Each verb imports the layers it runs when it runs: ``lefschetz`` loads
only the Lefschetz and cyclotomic modules, ``classify`` not the
polynomial, maps or Weierstrass ones, and ``analyze`` and ``examples``
every layer but the maps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import MAX_DIGITS, InvariantError, UnknownKeyError, refuse_unknown_keys

FORMATS = ("table", "json", "csv")

PIC_CHOICES = ("10", "14", "18", "all")


def _resolve_format(flag_value: Optional[str]) -> str:
    value = flag_value if flag_value is not None \
        else os.environ.get("K3AUTO_FORMAT", "table")
    if value not in FORMATS:
        raise ValueError("format must be one of %s, not %r"
                         % ("/".join(FORMATS), value))
    return value


def _json_dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _load_json(path: str):
    """The JSON value in the file at path.  A number of more than
    MAX_DIGITS digits is refused; one within is read whatever the
    interpreter's limit."""
    def bounded_int(text: str) -> int:
        digits = len(text) - text.startswith("-")
        if digits > MAX_DIGITS:
            raise ValueError("%s holds a number of %d digits, more than the "
                             "%d a number may have"
                             % (path, digits, MAX_DIGITS))
        return int(text)

    try:
        with open(path, encoding="utf-8") as handle, _any_int_width():
            return json.load(handle, parse_int=bounded_int)
    except OSError as err:
        raise ValueError("cannot read %s: %s" % (path, err))
    except UnicodeDecodeError as err:
        raise ValueError("%s is not UTF-8 text: %s" % (path, err))
    except RecursionError:
        raise ValueError("%s is nested too deeply to read" % path) from None
    except json.JSONDecodeError as err:
        raise ValueError("%s is not valid JSON: %s" % (path, err))


@contextmanager
def _any_int_width():
    """Lift CPython's limit on int <-> string conversion inside the block,
    and restore it after.  Every number of an input file is counted
    against MAX_DIGITS before it is converted.  Python 3.10.0 to 3.10.6
    has no limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@contextmanager
def _keys_of(path: str):
    """Name the file in the refusal of a key it does not take."""
    try:
        yield
    except UnknownKeyError as err:
        raise ValueError("%s: %s" % (path, err)) from None


def _mark(ok: bool) -> str:
    return "pass" if ok else "FAIL"


# -- classify ---------------------------------------------------------------


def cmd_classify(args) -> int:
    from .classify import (enumerate_cases, render_csv, render_table,
                           rows_to_json)
    fmt = _resolve_format(args.format)
    if args.pic not in PIC_CHOICES:
        raise ValueError("usage: classify --pic {10|14|18|all}, not %r"
                         % args.pic)
    rows = enumerate_cases()
    if args.pic != "all":
        want = int(args.pic)
        rows = [row for row in rows if row.rk_pic == want]
    if fmt == "csv":
        sys.stdout.write(render_csv(rows))
    elif fmt == "json":
        sys.stdout.write(_json_dump(rows_to_json(rows)))
    else:
        sys.stdout.write(render_table(rows))
    return 0


# -- analyze ----------------------------------------------------------------


def _analysis_table(analysis) -> str:
    from .classify import render_csv
    f = analysis.fibration
    lines = ["form: %s" % f.form,
             "a(t) = %s" % f.a,
             "b(t) = %s" % f.b]
    inventory = ", ".join("%s x %d" % (tag, count)
                          for tag, count in analysis.inventory.items())
    lines.append("singular fibers: %s (Euler sum %d)"
                 % (inventory, analysis.euler_sum))
    lines.append("two-form multiplier: zeta^%d" % analysis.two_form_exponent)
    for rep in analysis.invariant_fibers:
        if rep.fixed_points:
            points = "; ".join("%s (%d,%d)"
                               % ((p.description,) + p.pair)
                               for p in rep.fixed_points)
        else:
            points = "from dual graph" if rep.points_from == "dual-graph" \
                else "none isolated"
        lines.append("fiber at %s: %s | %s | points %s | "
                     "(n2,n3,n4)=%s | fixed rational curves %d"
                     % (rep.place, rep.kodaira, rep.label, points,
                        rep.point_counts, rep.rational_fixed_curves))
    lines.append("action: (%s, %s)" % analysis.action)
    lines.append("matched row: %d" % analysis.matched_row.index)
    lines.append(render_csv([analysis.matched_row]).rstrip("\n"))
    for name in sorted(analysis.checks):
        lines.append("check %s: %s" % (name, _mark(analysis.checks[name])))
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    from .classify import render_csv
    from .weierstrass import (DiagonalAutomorphism, WeierstrassFibration,
                              analyze_action)
    fmt = _resolve_format(args.format)
    # the coefficient strings are read within MAX_DIGITS whatever the
    # interpreter's limit, and a place of an accepted input can have
    # about three times its coefficients' digits
    with _any_int_width():
        with _keys_of(args.fibration):
            fibration = WeierstrassFibration.from_json(
                _load_json(args.fibration))
        with _keys_of(args.automorphism):
            automorphism = DiagonalAutomorphism.from_json(
                _load_json(args.automorphism))
        analysis = analyze_action(fibration, automorphism)
        if fmt == "json":
            sys.stdout.write(_json_dump(analysis.to_json()))
        elif fmt == "csv":
            sys.stdout.write(render_csv([analysis.matched_row]))
        else:
            sys.stdout.write(_analysis_table(analysis))
    return 0 if all(analysis.checks.values()) else 1


# -- examples ---------------------------------------------------------------


def _parse_params(text: Optional[str]) -> Optional[List[Fraction]]:
    from .polynomial import parse_rational, quoted
    if text is None:
        return None
    try:
        return [parse_rational(piece) for piece in text.split(",")]
    except ValueError as err:
        raise ValueError("bad --params %s: %s" % (quoted(text), err))


def cmd_examples(args) -> int:
    from .classify import render_csv, validate_row
    from .weierstrass import worked_example
    fmt = _resolve_format(args.format)
    analysis = worked_example(args.id, preset=args.preset,
                              params=_parse_params(args.params),
                              use_tau=args.tau)
    row_checks = validate_row(analysis.matched_row)
    passed = all(analysis.checks.values()) and all(row_checks.values())
    if fmt == "json":
        payload = {"example": args.id, "preset": args.preset,
                   "tau": args.tau,
                   "matched_row": analysis.matched_row.index,
                   "action": list(analysis.action),
                   "fiber_counts": dict(analysis.inventory),
                   "checks": dict(analysis.checks),
                   "row_checks": dict(row_checks),
                   "passed": passed}
        sys.stdout.write(_json_dump(payload))
    elif fmt == "csv":
        sys.stdout.write(render_csv([analysis.matched_row]))
    else:
        tag = "example %d preset %s" % (args.id, args.preset)
        if args.tau:
            tag += " (second generator)"
        lines = ["%s: matched row %d" % (tag, analysis.matched_row.index),
                 "action: (%s, %s)" % analysis.action]
        for name in sorted(analysis.checks):
            lines.append("check %s: %s"
                         % (name, _mark(analysis.checks[name])))
        for name in sorted(row_checks):
            lines.append("row check %s: %s" % (name, _mark(row_checks[name])))
        lines.append("result: %s" % _mark(passed))
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if passed else 1


# -- lefschetz --------------------------------------------------------------


_COUNT_NAMES = ("n2", "n3", "n4", "alpha")


def _lefschetz_check(data, fmt: str) -> int:
    from .cyclotomic import format_sum
    from .lefschetz import (FixedLocusConfig, derive_prop1_constraints,
                            holo_target, holo_total, prop1_residuals)
    config = FixedLocusConfig.from_json(data)
    residuals = prop1_residuals(config.n2, config.n3, config.n4, config.alpha)
    entries = [{"equation": "%s = %d" % (
                    format_sum(zip(row[:4], _COUNT_NAMES)) or "0", row[4]),
                "residual": r, "ok": r == 0}
               for row, r in zip(derive_prop1_constraints(), residuals)]
    total, holo_ok = holo_total(config, 1)
    holo_residual = total - holo_target(1)
    passed = holo_ok and all(e["ok"] for e in entries)
    if fmt == "json":
        payload = {"mode": "check", "n2": config.n2, "n3": config.n3,
                   "n4": config.n4, "alpha": config.alpha, "N": config.N,
                   "constraints": entries,
                   "holomorphic": {"ok": holo_ok,
                                   "residual": repr(holo_residual)},
                   "passed": passed}
        sys.stdout.write(_json_dump(payload))
    elif fmt == "csv":
        lines = ["check,detail,residual,ok"]
        for e in entries:
            lines.append('constraint,"%s",%d,%s'
                         % (e["equation"], e["residual"],
                            "pass" if e["ok"] else "fail"))
        lines.append('holomorphic,"sum = 1 + zeta^7","%s",%s'
                     % (repr(holo_residual),
                        "pass" if holo_ok else "fail"))
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        lines = []
        for e in entries:
            lines.append("constraint %s: %s (residual %d)"
                         % (e["equation"], _mark(e["ok"]), e["residual"]))
        lines.append("holomorphic sum = 1 + zeta^7: %s (residual %s)"
                     % (_mark(holo_ok), repr(holo_residual)))
        lines.append("result: %s" % _mark(passed))
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if passed else 1


def enumerate_point_counts(alpha: int,
                           pins: Dict[str, int]) -> List[Tuple[int, int, int]]:
    """All (n2, n3, n4) >= 0 with N <= 14 satisfying the derived point
    constraints for the given curve-genus defect, honouring pinned counts."""
    from .lefschetz import prop1_satisfied
    return [(n2, n3, n4)
            for n2 in range(15) for n3 in range(15 - n2)
            for n4 in range(15 - n2 - n3)
            if prop1_satisfied(n2, n3, n4, alpha)
            and all(pins.get(k, v) == v
                    for k, v in (("n2", n2), ("n3", n3), ("n4", n4)))]


def _lefschetz_enumerate(data, fmt: str) -> int:
    from .lefschetz import as_count
    refuse_unknown_keys(data, ("alpha", "n2", "n3", "n4"))
    alpha = as_count("alpha", data["alpha"])
    pins = {key: as_count(key, data[key])
            for key in ("n2", "n3", "n4") if key in data}
    solutions = enumerate_point_counts(alpha, pins)
    if fmt == "json":
        payload = {"mode": "enumerate", "alpha": alpha, "pins": pins,
                   "solutions": [list(s) for s in solutions]}
        sys.stdout.write(_json_dump(payload))
    elif fmt == "csv":
        lines = ["n2,n3,n4,N"]
        for n2, n3, n4 in solutions:
            lines.append("%d,%d,%d,%d" % (n2, n3, n4, n2 + n3 + n4))
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        lines = ["alpha = %d" % alpha]
        if pins:
            lines.append("pinned: " + ", ".join(
                "%s = %d" % (k, pins[k]) for k in sorted(pins)))
        if solutions:
            for n2, n3, n4 in solutions:
                lines.append("n2 = %d, n3 = %d, n4 = %d (N = %d)"
                             % (n2, n3, n4, n2 + n3 + n4))
        else:
            lines.append("no solutions")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_lefschetz(args) -> int:
    fmt = _resolve_format(args.format)
    data = _load_json(args.config)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    # a genus or count within MAX_DIGITS can give a residual of more
    # digits than the interpreter's limit prints
    with _keys_of(args.config), _any_int_width():
        if "curves" in data:
            return _lefschetz_check(data, fmt)
        if "alpha" in data:
            return _lefschetz_enumerate(data, fmt)
    raise ValueError("config needs either curve data with point counts "
                     "or an 'alpha' value to enumerate")


# -- driver -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # a usage error is bad input like any other: one line and exit 1;
    # the verbs' parsers are of this class too
    def error(self, message):
        raise ValueError(message)


def _join_params(argv: Sequence[str]) -> List[str]:
    # "--params V" as "--params=V": argparse reads a V such as -2,1,1,3
    # as an option
    args = list(argv)
    if "--params" in args[:-1]:
        i = args.index("--params")
        if not args[i + 1].startswith("--"):
            args[i:i + 2] = ["--params=" + args[i + 1]]
    return args


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="k3auto",
        description="order-8 purely non-symplectic K3 automorphisms: "
                    "classification table, fibration analysis, fixed-point "
                    "accounting")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="print the classification table")
    p.add_argument("--pic", default="all",
                   help="Picard rank filter: 10, 14, 18 or all")
    p.add_argument("--format", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("analyze", help="type an invariant fibration")
    p.add_argument("--fibration", required=True,
                   help="JSON file with the Weierstrass data")
    p.add_argument("--automorphism", required=True,
                   help="JSON file with the scaling exponents")
    p.add_argument("--format", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("examples", help="run a built-in worked example")
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--preset", default="generic")
    p.add_argument("--params", default=None,
                   help="comma-separated rational parameters")
    p.add_argument("--tau", action="store_true",
                   help="use the second generator (example 3 only)")
    p.add_argument("--format", default=None)
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("lefschetz", help="fixed-point count bookkeeping")
    p.add_argument("--config", required=True,
                   help="JSON file: curve data with counts to check, or "
                        "an alpha value to enumerate")
    p.add_argument("--format", default=None)
    p.set_defaults(func=cmd_lefschetz)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_join_params(argv))
        return args.func(args)
    except InvariantError as err:
        sys.stderr.write("invariant violated: %s\n" % err)
        return 2
    except KeyError as err:
        sys.stderr.write("error: missing field %s\n" % err)
        return 1
    except ValueError as err:
        sys.stderr.write("error: %s\n" % err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
