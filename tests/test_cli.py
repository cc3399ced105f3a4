"""The command line verbs, their formats and exit codes."""

import itertools
import json
import re
import sys

import pytest

from k3auto.classify import enumerate_cases, rows_from_json
from k3auto.cli import enumerate_point_counts, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


EX1_FIBRATION = {"form": "short",
                 "a": [["1", 8], ["1", 0]],
                 "b": [["1", 8], ["3", 0]]}
EX1_AUTOMORPHISM = {"ex": 0, "ey": 0, "et": 1}


# -- classify -----------------------------------------------------------------


def test_classify_table_counts(capsys):
    code, out, _ = run(capsys, "classify", "--pic", "all")
    assert code == 0
    assert len(out.strip().split("\n")) == 17

    code, out, _ = run(capsys, "classify", "--pic", "18", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5  # header + the four Picard-18 rows
    assert all(",18," in line for line in lines[1:])


def test_classify_rejects_bad_rank(capsys):
    code, out, err = run(capsys, "classify", "--pic", "11")
    assert code == 1
    assert not out and "usage" in err


def test_classify_json_round_trips(capsys):
    code, out, _ = run(capsys, "classify", "--pic", "all",
                       "--format", "json")
    assert code == 0
    rows = rows_from_json(json.loads(out))
    assert rows == enumerate_cases()


def test_classify_output_is_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "classify", "--pic", "all",
                        "--format", "json")
        outputs.add(out)
    assert len(outputs) == 1


def test_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv("K3AUTO_FORMAT", "csv")
    code, out, _ = run(capsys, "classify", "--pic", "18")
    assert code == 0 and out.startswith("r,l,m,")
    # an explicit flag wins over the environment
    code, out, _ = run(capsys, "classify", "--pic", "18",
                       "--format", "table")
    assert code == 0 and not out.startswith("r,l,m,")
    monkeypatch.setenv("K3AUTO_FORMAT", "yaml")
    code, _, err = run(capsys, "classify", "--pic", "18")
    assert code == 1 and "format" in err


# -- analyze ------------------------------------------------------------------


def test_analyze_generic_example(capsys, tmp_path):
    fib = write_json(tmp_path, "f.json", EX1_FIBRATION)
    aut = write_json(tmp_path, "g.json", EX1_AUTOMORPHISM)
    code, out, _ = run(capsys, "analyze", "--fibration", fib,
                       "--automorphism", aut, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["fiber_counts"] == {"I_1": 24}
    assert report["matched_row"]["index"] == 1
    assert report["euler_sum"] == 24
    assert all(report["checks"].values())


def test_analyze_degenerate_example3(capsys, tmp_path):
    fib = write_json(tmp_path, "f.json", {
        "form": "short",
        "a": [["-3", 8], ["1", 0]],
        "b": [["-1", 4], ["2", 12]]})
    aut = write_json(tmp_path, "g.json", {"ex": 4, "ey": 2, "et": 7})
    code, out, _ = run(capsys, "analyze", "--fibration", fib,
                       "--automorphism", aut, "--format", "json")
    assert code == 0
    assert json.loads(out)["matched_row"]["index"] == 16


def test_analyze_parse_error_exits_1(capsys, tmp_path):
    fib = write_json(tmp_path, "f.json", {
        "form": "short", "a": [["1", 9]], "b": [["1", 0]]})
    aut = write_json(tmp_path, "g.json", EX1_AUTOMORPHISM)
    code, out, err = run(capsys, "analyze", "--fibration", fib,
                         "--automorphism", aut)
    assert code == 1
    assert "not a K3 Weierstrass datum" in err

    code, _, err = run(capsys, "analyze", "--fibration",
                       str(tmp_path / "missing.json"),
                       "--automorphism", aut)
    assert code == 1 and "cannot read" in err

    bad = tmp_path / "broken.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--fibration", str(bad),
                       "--automorphism", aut)
    assert code == 1 and "not valid JSON" in err

    # a UTF-16 byte order mark is not UTF-8: the line names the file
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, "analyze", "--fibration", str(utf16),
                       "--automorphism", aut)
    assert code == 1 and err.count("\n") == 1
    assert "utf16.json is not UTF-8 text" in err

    incomplete = write_json(tmp_path, "h.json", {"ex": 0, "ey": 0})
    code, _, err = run(capsys, "analyze", "--fibration",
                       write_json(tmp_path, "f2.json", EX1_FIBRATION),
                       "--automorphism", incomplete)
    assert code == 1 and "missing field" in err


@pytest.mark.parametrize("exponent", [10 ** 18, 10 ** 30])
@pytest.mark.parametrize("fibration, automorphism, message", [
    ({"form": "short", "a": [["1", "E"]], "b": [["1", 0]]},
     EX1_AUTOMORPHISM, "not a K3 Weierstrass datum"),
    ({"form": "two-torsion", "a": [["1", 0]], "b": [["1", "E"], ["1", 0]]},
     EX1_AUTOMORPHISM, "not a K3 Weierstrass datum"),
    ({"form": "two-torsion", "a": [["2", 4]], "b": [["1", 8], ["-1", 0]]},
     {"ex": 4, "ey": 2, "et": 7, "translate": True,
      "torsion_x0": [["-1", "E"], ["1", 0]]},
     "torsion_x0 is not a 2-torsion section"),
], ids=["a", "b", "torsion_x0"])
def test_huge_exponent_is_refused_by_its_degree(capsys, tmp_path, exponent,
                                               fibration, automorphism,
                                               message):
    # the degree is read from the sparse pairs: a dense list of
    # exponent + 1 coefficients would not fit in memory
    def fill(data):
        return {key: [[c, exponent if e == "E" else e] for c, e in value]
                if key in ("a", "b", "torsion_x0") else value
                for key, value in data.items()}
    code, out, err = run(
        capsys, "analyze",
        "--fibration", write_json(tmp_path, "f.json", fill(fibration)),
        "--automorphism", write_json(tmp_path, "g.json", fill(automorphism)))
    assert code == 1 and out == ""
    assert err.startswith("error: " + message) and err.count("\n") == 1


CHECK_CONFIG = {"curves": [{"genus": 1, "normal_exp": 1}],
                "n2": 2, "n3": 0, "n4": 0}


@pytest.mark.parametrize("depth", [1_100, 100_000])
@pytest.mark.parametrize("option", ["fibration", "automorphism", "config"])
def test_deep_json_gives_one_error_line(capsys, tmp_path, option, depth):
    # 1,100 levels passed the recursion limit of Python 3.10 and 3.11 and
    # printed a traceback; 100,000 pass every interpreter's JSON guard
    deep = tmp_path / "deep.json"
    deep.write_text("[" * depth + "]" * depth, encoding="utf-8")
    if option == "config":
        argv = ["lefschetz", "--config", str(deep)]
    else:
        files = {"fibration": write_json(tmp_path, "f.json", EX1_FIBRATION),
                 "automorphism": write_json(tmp_path, "g.json",
                                            EX1_AUTOMORPHISM),
                 option: str(deep)}
        argv = ["analyze", "--fibration", files["fibration"],
                "--automorphism", files["automorphism"]]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if depth > 10_000:
        assert err == "error: %s is nested too deeply to read\n" % deep


def _readme_surface(tmp_path, digits):
    # a = A + t^8, b = 3 + t^8 with an A of the given digits
    return ("--fibration",
            write_json(tmp_path, "f.json",
                       dict(EX1_FIBRATION, a=[["7" * digits, 0], ["1", 8]])),
            "--automorphism",
            write_json(tmp_path, "g.json", EX1_AUTOMORPHISM))


@pytest.mark.parametrize("limit", [None, 0])
def test_a_coefficient_beyond_the_digit_bound_is_refused(capsys, tmp_path,
                                                         limit):
    # counted before conversion, so lifting the interpreter's limit on
    # int-from-string conversion (0) does not lift the bound
    before = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        code, out, err = run(capsys, "analyze",
                             *_readme_surface(tmp_path, 4_301))
    finally:
        sys.set_int_max_str_digits(before)
    assert code == 1 and out == ""
    assert err == ("error: 'a': coefficient has 4301 digits, more than the "
                   "4300 a rational may have\n")


def _json_number_surface(tmp_path, digits):
    # the README surface with A written as a JSON number, not a string
    text = json.dumps(dict(EX1_FIBRATION, a=[[None, 0], ["1", 8]]))
    path = tmp_path / "f.json"
    path.write_text(text.replace("null", "7" * digits), encoding="utf-8")
    return ("--fibration", str(path), "--automorphism",
            write_json(tmp_path, "g.json", EX1_AUTOMORPHISM))


@pytest.mark.parametrize("limit", [None, 0])
def test_a_json_number_beyond_the_digit_bound_is_refused(capsys, tmp_path,
                                                         limit):
    # one line naming the file and the bound, whatever the interpreter's
    # limit on int-from-string conversion
    argv = _json_number_surface(tmp_path, 4_301)
    before = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        code, out, err = run(capsys, "analyze", *argv)
    finally:
        sys.set_int_max_str_digits(before)
    assert code == 1 and out == ""
    assert err == ("error: %s holds a number of 4301 digits, more than the "
                   "4300 a number may have\n" % argv[1])


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python 3.10.0 to 3.10.6 has no int-string limit")
@pytest.mark.parametrize("surface", [_readme_surface, _json_number_surface],
                         ids=["string", "json-number"])
def test_a_coefficient_within_the_bound_is_read_under_a_lower_limit(
        capsys, tmp_path, surface):
    # the digits are counted against MAX_DIGITS, so a lowered interpreter
    # limit refuses no coefficient within it, and is restored after
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "analyze", "--format", "csv",
                             *surface(tmp_path, 4_300))
        after = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(before)
    assert (code, err, after) == (0, "", 640)
    assert out.count("\n") == 2


@pytest.mark.parametrize("verb, first, second, culprit, message", [
    ("analyze", dict(EX1_FIBRATION, from_="short"), EX1_AUTOMORPHISM,
     "f.json", "unknown key 'from_'; the keys are form, a, b"),
    ("analyze", EX1_FIBRATION, dict(EX1_AUTOMORPHISM, translat=True),
     "g.json", "unknown key 'translat'; the keys are ex, ey, et, translate, "
     "torsion_x0"),
    ("lefschetz", dict(CHECK_CONFIG, n5=3), None,
     "c.json", "unknown key 'n5'; the keys are curves, n2, n3, n4"),
    ("lefschetz", dict(CHECK_CONFIG, alpha=0), None,
     "c.json", "unknown key 'alpha'; the keys are curves, n2, n3, n4"),
    ("lefschetz", dict(CHECK_CONFIG, curves=[{"genus": 1, "normal_exp": 1,
                                              "normal": 3}]), None,
     "c.json", "unknown key 'normal' in a curve; the keys are genus, "
     "normal_exp"),
    ("lefschetz", {"alpha": 1, "n5": 3}, None,
     "c.json", "unknown key 'n5'; the keys are alpha, n2, n3, n4"),
], ids=["fibration", "automorphism", "check", "check-with-alpha", "curve",
        "enumerate"])
def test_an_unknown_key_is_refused(capsys, tmp_path, verb, first, second,
                                   culprit, message):
    if verb == "analyze":
        argv = ("analyze",
                "--fibration", write_json(tmp_path, "f.json", first),
                "--automorphism", write_json(tmp_path, "g.json", second))
    else:
        argv = ("lefschetz", "--config", write_json(tmp_path, "c.json", first))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: %s: %s\n" % (tmp_path / culprit, message)


@pytest.mark.parametrize("digits", [1_500, 4_300])
def test_analyze_prints_places_wider_than_the_int_string_limit(
        capsys, tmp_path, digits):
    # the degree-24 place has about three times A's digits; the CLI lifts
    # the interpreter's limit only while it renders, and restores it
    before = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "analyze", "--format", "json",
                         *_readme_surface(tmp_path, digits))
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == before
    assert max(map(len, re.findall(r"\d+", out))) > before


@pytest.mark.parametrize("verb, first, second, field", [
    ("analyze", dict(EX1_FIBRATION, a=[["1/0", 8]]), EX1_AUTOMORPHISM, "'a'"),
    ("analyze", dict(EX1_FIBRATION, b=[["1", "8"]]), EX1_AUTOMORPHISM, "'b'"),
    ("analyze", dict(EX1_FIBRATION, a=[[1.5, 0]]), EX1_AUTOMORPHISM, "'a'"),
    ("analyze", [EX1_FIBRATION], EX1_AUTOMORPHISM, "fibration"),
    ("analyze", EX1_FIBRATION, [0, 0, 1], "automorphism"),
    ("analyze", EX1_FIBRATION, dict(EX1_AUTOMORPHISM, ex="0"), "'ex'"),
    ("analyze", EX1_FIBRATION, dict(EX1_AUTOMORPHISM, ex=4.5), "'ex'"),
    ("analyze", EX1_FIBRATION, dict(EX1_AUTOMORPHISM, translate="false"),
     "'translate'"),
    ("lefschetz", dict(CHECK_CONFIG, n2="2"), None, "'n2'"),
    ("lefschetz", dict(CHECK_CONFIG, n3="0"), None, "'n3'"),
    ("lefschetz", dict(CHECK_CONFIG, n4="0"), None, "'n4'"),
    ("lefschetz", dict(CHECK_CONFIG, n2=2.5), None, "'n2'"),
    ("lefschetz", dict(CHECK_CONFIG, curves=[{"genus": 1, "normal_exp": "1"}]),
     None, "'normal_exp'"),
    ("lefschetz", dict(CHECK_CONFIG, curves=5), None, "'curves'"),
    # refused at every genus, although a genus-1 curve's term is 0
    ("lefschetz", dict(CHECK_CONFIG, curves=[{"genus": 1, "normal_exp": 0}]),
     None, "nontrivial normal eigenvalue"),
    # JSON true/false are not read as 1 and 0, although bool is an int
    ("analyze", dict(EX1_FIBRATION, a=[["1", 8], [1, True]]),
     EX1_AUTOMORPHISM, "'a': exponent True is not a non-negative integer"),
    ("analyze", dict(EX1_FIBRATION, b=[["1", 8], ["3", False]]),
     EX1_AUTOMORPHISM, "'b': exponent False is not a non-negative integer"),
    ("analyze", dict(EX1_FIBRATION, b=[["1", 8], [True, 0]]),
     EX1_AUTOMORPHISM, "'b': coefficient True is not a rational number"),
    ("analyze", {"form": "two-torsion", "a": [["1", 0]],
                 "b": [["1", 8], ["-1", 0]]},
     dict(EX1_AUTOMORPHISM, translate=True, torsion_x0=[[True, 0]]),
     "'torsion_x0': coefficient True is not a rational number"),
], ids=["coefficient-1/0", "string-exponent", "float-coefficient",
        "fibration-not-object", "automorphism-not-object", "string-ex",
        "float-ex", "string-translate", "string-n2", "string-n3",
        "string-n4", "float-n2", "string-normal-exp", "curves-not-list",
        "zero-normal-exp-genus-1",
        "true-exponent", "false-exponent", "true-coefficient",
        "true-torsion-coefficient"])
def test_malformed_input_gives_one_error_line(capsys, tmp_path, verb, first,
                                              second, field):
    if verb == "analyze":
        argv = ("analyze",
                "--fibration", write_json(tmp_path, "f.json", first),
                "--automorphism", write_json(tmp_path, "g.json", second))
    else:
        argv = ("lefschetz", "--config", write_json(tmp_path, "c.json", first))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


def test_analyze_invariant_failure_exits_2(capsys, tmp_path):
    fib = write_json(tmp_path, "f.json", {
        "form": "short",
        "a": [["1", 7], ["1", 0]],
        "b": [["1", 8], ["3", 0]]})
    aut = write_json(tmp_path, "g.json", EX1_AUTOMORPHISM)
    code, out, err = run(capsys, "analyze", "--fibration", fib,
                         "--automorphism", aut)
    assert code == 2
    assert "invariant violated" in err and "does not preserve" in err


def test_analyze_without_a_smooth_invariant_fiber_exits_2(capsys, tmp_path):
    fib = write_json(tmp_path, "f.json", {
        "form": "short", "a": [["-3", 8]], "b": [["1", 4], ["2", 12]]})
    aut = write_json(tmp_path, "g.json", {"ex": 4, "ey": 2, "et": 7})
    code, out, err = run(capsys, "analyze", "--fibration", fib,
                         "--automorphism", aut)
    assert code == 2 and not out
    assert err == ("invariant violated: no smooth invariant fiber (IV* at "
                   "t=0, I_8 at t=infinity); outside the table\n")


def test_analyze_names_the_untyped_translated_involution(capsys, tmp_path):
    # y -> -y after the translation by T = (0, 0) is P -> -(P + T)
    fib = write_json(tmp_path, "f.json", {
        "form": "two-torsion", "a": [["1", 0]], "b": [["1", 0], ["1", 8]]})
    aut = write_json(tmp_path, "g.json",
                     {"ex": 0, "ey": 4, "et": 5, "translate": True})
    code, out, err = run(capsys, "analyze", "--fibration", fib,
                         "--automorphism", aut)
    assert code == 1 and not out
    assert err == ("error: chart exponents (0, 4) with translation act on "
                   "the smooth fiber as the involution P -> -(P + T), T the "
                   "2-torsion section; k3auto does not type this action "
                   "yet\n")


def test_analyze_refuses_the_translated_involution_on_a_cycle(capsys,
                                                              tmp_path):
    # a = 2, b = 1 + t^8: over t = 0 lies the nodal y^2 = x(x + 1)^2, an I_8
    fib = write_json(tmp_path, "f.json", {
        "form": "two-torsion", "a": [["2", 0]], "b": [["1", 0], ["1", 8]]})
    aut = write_json(tmp_path, "g.json",
                     {"ex": 0, "ey": 4, "et": 5, "translate": True})
    code, out, err = run(capsys, "analyze", "--fibration", fib,
                         "--automorphism", aut)
    assert code == 1 and not out
    assert err == ("error: chart exponents (0, 4) with translation on a "
                   "cycle fiber are outside the classified actions\n")


# -- examples -----------------------------------------------------------------


def test_examples_pass_and_report(capsys):
    code, out, _ = run(capsys, "examples", "--id", "2",
                       "--preset", "generic")
    assert code == 0
    assert "matched row 4" in out
    assert "result: pass" in out
    assert "FAIL" not in out


def test_examples_preset_i8(capsys):
    code, out, _ = run(capsys, "examples", "--id", "4", "--preset", "i8",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matched_row"] == 8 and payload["passed"]


def test_examples_tau_variant(capsys):
    code, out, _ = run(capsys, "examples", "--id", "3", "--tau",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["matched_row"] == 4


@pytest.mark.parametrize("text", ["1e400", "1E400", "-2.5e-3", "1e3000000"])
def test_both_verbs_refuse_exponent_notation(capsys, tmp_path, text):
    fibration = dict(EX1_FIBRATION, a=[[text, 8], ["1", 0]])
    code, out, err = run(capsys, "analyze",
                         "--fibration", write_json(tmp_path, "f.json",
                                                   fibration),
                         "--automorphism", write_json(tmp_path, "g.json",
                                                      EX1_AUTOMORPHISM))
    assert code == 1 and out == ""
    assert err == ("error: 'a': coefficient %r is in exponent notation; "
                   "write it as an integer, p/q or a decimal\n" % text)
    code, out, err = run(capsys, "examples", "--id", "1",
                         "--params=%s,1,1,3" % text)
    assert code == 1 and out == ""
    assert err.startswith("error: bad --params") and err.count("\n") == 1
    assert "exponent notation" in err


@pytest.mark.parametrize("text, shown", [
    # up to 40 characters a refused coefficient is quoted whole, beyond
    # that by its first 24 and last 8 characters and its length, so the
    # line stays short however long the input
    ("7" * 39 + "x", repr("7" * 39 + "x")),
    ("7" * 40 + "x", "'%s...%s' (41 characters)" % ("7" * 24, "7" * 7 + "x")),
    ("7" * 4299 + "x",
     "'%s...%s' (4300 characters)" % ("7" * 24, "7" * 7 + "x")),
    ("1/" + "0" * 4000, "'1/%s...%s' (4002 characters)" % ("0" * 22, "0" * 8)),
    ("7" * 5000 + "e3",
     "'%s...%s' (5002 characters)" % ("7" * 24, "7" * 6 + "e3")),
], ids=["40", "41", "4300", "zero-denominator", "exponent"])
def test_a_long_refused_coefficient_is_quoted_by_its_ends(
        capsys, tmp_path, text, shown):
    fibration = dict(EX1_FIBRATION, a=[[text, 8], ["1", 0]])
    code, out, err = run(capsys, "analyze",
                         "--fibration", write_json(tmp_path, "f.json",
                                                   fibration),
                         "--automorphism", write_json(tmp_path, "g.json",
                                                      EX1_AUTOMORPHISM))
    assert code == 1 and out == ""
    reason = ("is in exponent notation; write it as an integer, p/q or a "
              "decimal" if "e" in text else "is not a rational number")
    assert err == "error: 'a': coefficient %s %s\n" % (shown, reason)
    assert len(err) <= 160


LONG_LIST = list(range(3000))  # its repr has 16,890 characters
LONG_SHOWN = "[0, 1, 2, 3, 4, 5, 6, 7,...8, 2999] (16890 characters)"


@pytest.mark.parametrize("a, reason", [
    # a JSON value in the wrong slot is echoed by the same rule as a
    # refused coefficient string: whole up to 40 characters of its repr
    ([[[1, 2], 8]], "coefficient [1, 2] is not a rational number"),
    ([["1", "8"]], "exponent '8' is not a non-negative integer"),
    ([[1, 8, 0]],
     "expected [coefficient, exponent] pairs, not [[1, 8, 0]]"),
    ([[LONG_LIST, 8], ["1", 0]],
     "coefficient %s is not a rational number" % LONG_SHOWN),
    ([["1", LONG_LIST], ["1", 0]],
     "exponent %s is not a non-negative integer" % LONG_SHOWN),
    ([LONG_LIST], "expected [coefficient, exponent] pairs, not "
     "[[0, 1, 2, 3, 4, 5, 6, 7..., 2999]] (16892 characters)"),
], ids=["coefficient", "exponent", "pairs", "long-coefficient",
        "long-exponent", "long-pairs"])
def test_a_refused_json_value_is_quoted_by_its_ends(capsys, tmp_path, a,
                                                    reason):
    fibration = dict(EX1_FIBRATION, a=a)
    code, out, err = run(capsys, "analyze",
                         "--fibration", write_json(tmp_path, "f.json",
                                                   fibration),
                         "--automorphism", write_json(tmp_path, "g.json",
                                                      EX1_AUTOMORPHISM))
    assert code == 1 and out == ""
    assert err == "error: 'a': %s\n" % reason
    assert len(err) <= 160


@pytest.mark.parametrize("params, line", [
    ("1,zz,3,1", "bad --params '1,zz,3,1': 'zz' is not a rational number"),
    ("7" * 4299 + "x,1,1,3",
     "bad --params '%s...%s' (4306 characters): '%s...%s' (4300 "
     "characters) is not a rational number"
     % ("7" * 24, "7x,1,1,3", "7" * 24, "7" * 7 + "x")),
], ids=["short", "4306"])
def test_refused_params_are_quoted_by_their_ends(capsys, params, line):
    code, out, err = run(capsys, "examples", "--id", "1",
                         "--params=" + params)
    assert code == 1 and out == ""
    assert err == "error: %s\n" % line
    assert len(err) <= 160


def test_rational_strings_keep_their_values(capsys):
    # decimals, fractions and padded integers read as before
    code, out, _ = run(capsys, "examples", "--id", "1", "--params",
                       " 2 ,0.5,-3/4,3", "--format", "json")
    assert code == 0
    code, same, _ = run(capsys, "examples", "--id", "1", "--params",
                        "2,1/2,-0.75,3", "--format", "json")
    assert code == 0 and out == same


def test_examples_bad_inputs(capsys):
    code, _, err = run(capsys, "examples", "--id", "5")
    assert code == 1 and "must be one of" in err
    code, _, err = run(capsys, "examples", "--id", "4",
                       "--params", "1,zz,3")
    assert code == 1 and "bad --params" in err


@pytest.mark.parametrize("example_id, preset, params, needs, gives", [
    (1, "generic", "0,1,1,1", "I_1: 24", "I_1: 16, IV*: 1"),
    (1, "iv-star", "1,1,1,3", "I_1: 16, IV*: 1", "I_1: 24"),
    (2, "generic", "0,-3,0,2", "I_1: 24",
     "no K3 surface (discriminant vanishes identically"),
    (2, "iv-star", "0,1,0,1", "I_1: 16, IV*: 1",
     "no K3 surface (non-minimal Weierstrass datum"),
    (3, "generic", "-3,1,1,2", "I_1: 24", "I_1: 16, I_8: 1"),
    (3, "i8", "1,1,2,1", "I_1: 16, I_8: 1", "I_1: 24"),
    # non-minimal at t = infinity: it had passed the coefficient
    # conditions the preset was checked against, then exited 2
    (3, "i16", "0,1,1,0", "I_1: 8, I_16: 1",
     "no K3 surface (non-minimal Weierstrass datum"),
    (4, "generic", "2,1,-1", "I_1: 8, I_2: 8", "I_2: 8, I_8: 1"),
    (4, "i8", "3,1,1", "I_2: 8, I_8: 1", "I_1: 8, I_2: 8"),
    (4, "i16", "1,1,1", "I_1: 8, I_16: 1", "I_1: 8, I_2: 8"),
])
def test_examples_refuse_params_without_the_preset_fibers(
        capsys, example_id, preset, params, needs, gives):
    code, out, err = run(capsys, "examples", "--id", str(example_id),
                         "--preset", preset, "--params=" + params)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: example %d preset %r needs the singular "
                          "fibers %s; the parameters %s give %s"
                          % (example_id, preset, needs,
                             params.replace(",", ", "), gives))


def test_examples_i8_refuses_a_section_that_is_not_rational(capsys):
    # alpha^2 = 4 beta gives the I_8 fibers, but -gamma = -1 has no
    # rational root, so there is no translation section
    code, out, err = run(capsys, "examples", "--id", "4", "--preset", "i8",
                         "--params", "2,1,1")
    assert (code, out) == (1, "")
    assert err == ("error: example 4 preset 'i8' needs -gamma to be a "
                   "rational square for its translation section; the "
                   "parameters 2, 1, 1 give -gamma = -1\n")


def test_params_may_start_with_a_minus_sign(capsys):
    code, out, err = run(capsys, "examples", "--id", "1",
                         "--params", "-2,1,1,3")
    assert code == 0 and err == ""
    assert run(capsys, "examples", "--id", "1",
               "--params=-2,1,1,3") == (0, out, "")


@pytest.mark.parametrize("argv, words", [
    (("bogus",), "invalid choice: 'bogus'"),
    (("analyze", "--fibration", "f.json"), "required: --automorphism"),
    ((), "required: verb"),
    (("examples", "--id", "one"), "invalid int value: 'one'"),
    (("classify", "--pic", "18", "--extra"), "unrecognized arguments"),
], ids=["unknown-verb", "missing-option", "no-verb", "bad-int",
        "unknown-option"])
def test_usage_errors_give_one_error_line(capsys, argv, words):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert words in err


@pytest.mark.parametrize("argv", [("--help",), ("examples", "--help")])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == 0
    assert "usage: k3auto" in capsys.readouterr().out


# -- lefschetz ----------------------------------------------------------------


def test_lefschetz_check_mode(capsys, tmp_path):
    config = write_json(tmp_path, "c.json", {
        "curves": [{"genus": 1, "normal_exp": 1}],
        "n2": 2, "n3": 0, "n4": 0})
    code, out, _ = run(capsys, "lefschetz", "--config", config)
    assert code == 0
    assert out.count("pass") >= 3 and "FAIL" not in out

    config = write_json(tmp_path, "bad.json", {
        "curves": [{"genus": 1, "normal_exp": 1}],
        "n2": 1, "n3": 1, "n4": 0})
    code, out, _ = run(capsys, "lefschetz", "--config", config)
    assert code == 1
    assert "FAIL" in out


def test_lefschetz_enumerate_alpha0(capsys, tmp_path):
    config = write_json(tmp_path, "c.json", {"alpha": 0})
    code, out, _ = run(capsys, "lefschetz", "--config", config,
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["solutions"] == [[0, 2, 4], [1, 1, 2], [2, 0, 0]]


def test_lefschetz_enumerate_alpha2(capsys, tmp_path):
    config = write_json(tmp_path, "c.json", {"alpha": 2})
    code, out, _ = run(capsys, "lefschetz", "--config", config,
                       "--format", "json")
    assert code == 0
    solutions = [tuple(s) for s in json.loads(out)["solutions"]]
    assert solutions == [(6, 4, 4), (7, 3, 2), (8, 2, 0)]


def test_lefschetz_enumerate_with_incompatible_pin(capsys, tmp_path):
    # n2 + n3 must be even (= 2 + 4*alpha); pinning an odd split kills all
    config = write_json(tmp_path, "c.json", {"alpha": 0, "n2": 1, "n3": 2})
    code, out, _ = run(capsys, "lefschetz", "--config", config)
    assert code == 0
    assert "no solutions" in out


def test_lefschetz_bad_config(capsys, tmp_path):
    config = write_json(tmp_path, "c.json", {"n2": 1})
    code, _, err = run(capsys, "lefschetz", "--config", config)
    assert code == 1
    config = write_json(tmp_path, "c2.json", {"alpha": -1})
    code, _, err = run(capsys, "lefschetz", "--config", config)
    assert code == 1 and "non-negative" in err
    config = write_json(tmp_path, "c3.json", [1, 2, 3])
    code, _, err = run(capsys, "lefschetz", "--config", config)
    assert code == 1 and "JSON object" in err


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_lefschetz_checks_a_genus_wider_than_the_int_string_limit(
        capsys, tmp_path, fmt):
    # a genus of 4,300 nines is within MAX_DIGITS, and its residuals have
    # more digits than the interpreter's limit prints: the check still
    # answers, as a failed check, and the limit is restored after
    path = tmp_path / "wide.json"
    path.write_text('{"curves": [{"genus": %s, "normal_exp": 1}], '
                    '"n2": 0, "n3": 0, "n4": 0}' % ("9" * 4300),
                    encoding="utf-8")
    before = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "lefschetz", "--config", str(path),
                         "--format", fmt)
    assert (code, err) == (1, "")
    assert max(map(len, re.findall(r"\d+", out))) > 4300
    assert sys.get_int_max_str_digits() == before


def _paper_point_counts(alpha, pins):
    # n2 + n3 - 4 alpha = 2 and n4 + n2 - n3 - 2 alpha = 2, N <= 14
    return [(n2, n3, n4)
            for n2, n3, n4 in itertools.product(range(15), repeat=3)
            if n2 + n3 - 4 * alpha == 2 and n4 + n2 - n3 - 2 * alpha == 2
            and n2 + n3 + n4 <= 14
            and all(pins.get(k, v) == v
                    for k, v in zip(("n2", "n3", "n4"), (n2, n3, n4)))]


def test_enumerator_matches_the_paper_equations():
    names = ("n2", "n3", "n4")
    for alpha in range(8):
        free = _paper_point_counts(alpha, {})
        assert enumerate_point_counts(alpha, {}) == free
        for size in (1, 2, 3):
            for keys in itertools.combinations(range(3), size):
                # pins that hit a solution, pins shifted off it, and a pin
                # beyond N <= 14
                picks = [tuple(v + shift for v in sol)
                         for sol in free for shift in (0, 1)] + [(15,) * 3]
                for values in picks:
                    pins = {names[i]: values[i] for i in keys}
                    assert enumerate_point_counts(alpha, pins) \
                        == _paper_point_counts(alpha, pins)
