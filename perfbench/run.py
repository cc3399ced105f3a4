"""k3auto benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/k3auto
and tests/).  The program is used from src/ as it is; there is nothing to
build.  Run outputs go to .perfbench-out/ under the root.

With --trace 0 the last line of standard output holds the end-to-end
metrics, every time in reference-speed units (see refclock.py); the line
before it gives the same figures raw.  With --trace 1 it holds the
per-layer metrics of a traced run and the tracing overhead.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import refclock

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("examples-sweep", "fiber-typing", "maps-group-law",
             "cli-oneshot")
SETUP_PROBES = 7
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 120
MIN_CLI_ROUNDS = 4


class Harness:
    """Paths, environment and child processes of one run."""

    def __init__(self, root, workload, seed, trace):
        self.root = root
        self.out = os.path.join(root, ".perfbench-out",
                                "%s-%d-%d" % (workload, seed, trace))
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        path = [os.path.join(root, "src")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.spec_path = os.path.join(self.out, "spec.json")

    def truth(self, *args):
        """Run truth.py (sympy: inputs and checks) in its own process."""
        subprocess.run([sys.executable, os.path.join(HERE, "truth.py")]
                       + list(args), cwd=self.root, check=True,
                       timeout=CHILD_TIMEOUT_S * 3)

    def worker(self, mode, seconds=0.0):
        """Run worker.py in a fresh interpreter and return its JSON."""
        out_path = os.path.join(self.out, "%s.json" % mode)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               self.spec_path, out_path, repr(seconds)]
        subprocess.run(cmd, env=self.env, cwd=self.out, check=True,
                       timeout=CHILD_TIMEOUT_S + seconds * 3)
        with open(out_path, encoding="utf-8") as handle:
            return json.load(handle)

    def cli(self, argv):
        """One `python -m k3auto.cli` process: (exit code, stdout, peak
        RSS in KB)."""
        err_path = os.path.join(self.out, "cli.stderr")
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "k3auto.cli"] + argv, env=self.env,
                cwd=self.out, stdout=subprocess.PIPE, stderr=err)
            try:
                stdout = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, stdout.decode("utf-8"), usage.ru_maxrss


def scaled_probe(result, key):
    """A probe's time, scaled by the kernel samples it took after it."""
    return refclock.scaled([result[key]], [[], result["between"][0]],
                           [[]])[0]


def run_cli_oneshot(harness, spec, seconds):
    """Closed loop of fresh CLI processes.

    At least MIN_CLI_ROUNDS rounds: every call is repeated, and a run
    holds enough calls (48) for a steady median.  After each call
    a fresh interpreter times the kernel: samples taken in this process
    do not follow the children's speed (it sleeps through each call, and
    a child may run on the other core).  A child's peak resident set
    includes its parent's at the time of the spawn, which is why this
    process keeps sympy out (see truth.py).
    """
    between = [harness.worker("kernel-probe")["between"][0]]
    records, peak_kb, done = [], 0, 0
    start = time.perf_counter()
    while done < MIN_CLI_ROUNDS or time.perf_counter() - start < seconds:
        which = done % len(spec["rounds"])
        for index, op in enumerate(spec["rounds"][which]):
            began = time.perf_counter()
            code, stdout, rss = harness.cli(op["argv"])
            elapsed = time.perf_counter() - began
            peak_kb = max(peak_kb, rss)
            records.append([which, index, elapsed,
                            {"code": code, "stdout": stdout}, None])
            between.append(harness.worker("kernel-probe")["between"][0])
        done += 1
    return {"records": records, "rounds": done, "between": between,
            "maxrss_kb": peak_kb}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "src", "k3auto", "cli.py"))
            and os.path.isfile(os.path.join(root, "tests", "fixtures.py"))):
        sys.stderr.write("error: run from the root of a k3auto checkout "
                         "(src/k3auto and tests/ not found in %s)\n" % root)
        return 2
    harness = Harness(root, args.workload, args.seed, args.trace)
    harness.truth("spec", args.workload, str(args.seed), harness.out)
    with open(harness.spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)

    setups = [] if args.trace else [harness.worker("probe")
                                    for _ in range(SETUP_PROBES)]
    if args.trace:
        result = harness.worker("trace", args.seconds)
    elif args.workload == "cli-oneshot":
        result = run_cli_oneshot(harness, spec, args.seconds)
        with open(os.path.join(harness.out, "run.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(result, handle)
    else:
        result = harness.worker("run", args.seconds)
    records = result["records"]
    records_path = os.path.join(harness.out, "records.json")
    verdict_path = os.path.join(harness.out, "verdict.json")
    with open(records_path, "w", encoding="utf-8") as handle:
        json.dump({"records": records}, handle)
    harness.truth("check", harness.spec_path, records_path, verdict_path)
    with open(verdict_path, encoding="utf-8") as handle:
        verdict = json.load(handle)
    for reason in verdict["reasons"][:5]:
        sys.stderr.write("wrong output: %s\n" % reason)

    if args.trace:
        imports = [harness.worker("import-probe")
                   for _ in range(IMPORT_PROBES)]
        metrics = dict(result["layers"])
        metrics["cli.import_ms"] = 1000 * statistics.median(
            scaled_probe(p, "import_s") for p in imports)
        units = {name: ("count" if name.endswith((".calls", ".terms"))
                        else "%" if name.endswith("_pct") else "ms")
                 for name in metrics}
    else:
        times = [r[2] for r in records]
        if args.workload == "cli-oneshot":
            scaled = refclock.scaled_by_run(times, result["between"])
        else:
            scaled = refclock.scaled(times, result["between"],
                                     result["inside"])
        raw = {"ops_per_s": len(times) / sum(times),
               "op_p50_ms": 1000 * statistics.median(times),
               "setup_s": statistics.median(p["setup_s"] for p in setups),
               "kernel_ms": 1000 * statistics.median(
                   t for group in result["between"] + result.get("inside", [])
                   for t in group)}
        metrics = {
            "ops_per_s": len(scaled) / sum(scaled),
            "op_p50_ms": 1000 * statistics.median(scaled),
            "setup_s": statistics.median(scaled_probe(p, "setup_s")
                                         for p in setups),
            "peak_rss_mb": result["maxrss_kb"] / 1024,
        }
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s",
                 "peak_rss_mb": "MB"}
        print("raw: %s rounds=%d ops=%d" % (
            " ".join("%s=%.4f" % kv for kv in raw.items()),
            result["rounds"], len(times)))
    print(json.dumps({
        "correct": verdict["correct"], "attempted": len(records),
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
