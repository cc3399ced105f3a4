"""The sympy side of a run, in its own process.

    python perfbench/truth.py spec WORKLOAD SEED OUT_DIR
    python perfbench/truth.py check SPEC_JSON RECORDS_JSON VERDICT_JSON

`spec` writes the seeded inputs (spec.json, and the JSON files the CLI
reads) into OUT_DIR.  `check` compares every recorded output with the
oracle and writes {"failed", "correct", "reasons"}.  Keeping sympy out of
the measuring process keeps its memory out of the CLI children's peak
resident set.
"""

import json
import os
import sys

import checks
import inputs


def write_spec(workload, seed, out_dir):
    spec = inputs.make_spec(workload, seed)
    with open(os.path.join(out_dir, "spec.json"), "w",
              encoding="utf-8") as handle:
        json.dump(spec, handle)
    for ops in spec["rounds"]:
        for op in ops:
            for name, data in op.get("files", {}).items():
                with open(os.path.join(out_dir, name), "w",
                          encoding="utf-8") as handle:
                    json.dump(data, handle)


def judge(spec, records, truth):
    """failed counts every operation that raised or disagrees with the
    oracle; correct is False if one of them is not the known failure, or
    if a repeated CLI call printed something else."""
    workload = spec["workload"]
    failed, correct, reasons, first_output = 0, True, [], {}
    for which, index, _, summary, error in records:
        op = spec["rounds"][which][index]
        reason = error or checks.check_op(truth, workload, op, summary)
        if workload == "cli-oneshot":
            seen = first_output.setdefault((which, index), summary["stdout"])
            if seen != summary["stdout"]:
                correct = False
                reason = reason or "stdout changed between identical calls"
        if reason is not None:
            failed += 1
            if not checks.is_known_failure(workload, op):
                correct = False
                reasons.append(reason)
    return {"failed": failed, "correct": correct, "reasons": reasons}


def main(argv):
    if argv[0] == "spec":
        write_spec(argv[1], int(argv[2]), argv[3])
        return 0
    spec_path, records_path, verdict_path = argv[1:4]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(records_path, encoding="utf-8") as handle:
        records = json.load(handle)["records"]
    verdict = judge(spec, records, checks.Truth(os.getcwd()))
    with open(verdict_path, "w", encoding="utf-8") as handle:
        json.dump(verdict, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
