"""Runs one workload's operations in a fresh interpreter.

    python perfbench/worker.py MODE SPEC_JSON OUT_JSON [SECONDS]

MODE is one of
  probe         time set-up only: import k3auto, build the inputs
  import-probe  time `import k3auto.cli` only
  kernel-probe  nothing but the kernel samples every mode ends with
  run           set-up, then whole rounds of operations for SECONDS
  trace         set-up, untraced rounds for SECONDS / 2, then the same
                rounds again with every layer wrapped

Only harness modules are imported before the set-up clock starts; none of
them imports k3auto or sympy.  The reference kernel runs before, during
and after each operation (refclock.RefClock.timed).
"""

import json
import os
import resource
import sys
import time

import ops
import refclock
import tracing


def _setup(spec):
    start = time.perf_counter()
    import k3auto  # noqa: F401
    rounds = ops.build(spec)
    return rounds, time.perf_counter() - start


def measure(rounds, clock, seconds, min_rounds, ticks=True):
    """Whole rounds until SECONDS have passed and MIN_ROUNDS are done.

    Returns [round, index, raw seconds, summary, error] per operation.
    """
    records = []
    start = time.perf_counter()
    done = 0
    while done < min_rounds or time.perf_counter() - start < seconds:
        which = done % len(rounds)
        for index, (call, summarize) in enumerate(rounds[which]):
            outcome, elapsed = clock.timed(call, ticks)
            if isinstance(outcome, Exception):
                records.append([which, index, elapsed, None, "%s: %s" % (
                    type(outcome).__name__, outcome)])
            else:
                records.append([which, index, elapsed, summarize(outcome),
                                None])
        done += 1
    return records, done


def main(argv):
    mode, spec_path, out_path = argv[:3]
    seconds = float(argv[3]) if len(argv) > 3 else 0.0
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    clock = refclock.RefClock()
    if mode == "import-probe":
        start = time.perf_counter()
        import k3auto.cli  # noqa: F401
        result = {"import_s": time.perf_counter() - start}
    elif mode == "kernel-probe":
        result = {}
    else:
        rounds, setup_s = _setup(spec)
        result = {"setup_s": setup_s}
    clock.sample(5)
    if mode == "run":
        result["records"], result["rounds"] = measure(rounds, clock,
                                                      seconds, 1)
    elif mode == "trace":
        # no kernel ticks inside operations: they would land in the spans
        untraced, done = measure(rounds, clock, seconds / 2, 1, False)
        tracer = tracing.Tracer()
        tracer.install()
        traced, _ = measure(rounds, clock, 0, done, False)
        tracer.uninstall()
        scale = clock.scale()
        result["records"], result["rounds"] = traced, done
        result["layers"] = tracer.metrics(scale)
        both = refclock.scaled([r[2] for r in untraced + traced],
                               clock.between, clock.inside)
        untraced_s, traced_s = sum(both[:len(untraced)]), \
            sum(both[len(untraced):])
        result["layers"]["trace.overhead_ms"] = \
            (traced_s - untraced_s) * 1000
        result["layers"]["trace.overhead_pct"] = \
            100 * (traced_s - untraced_s) / untraced_s
        tracer.write_spans(os.path.join(os.path.dirname(out_path),
                                        "spans.jsonl"))
    result["between"], result["inside"] = clock.between, clock.inside
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
