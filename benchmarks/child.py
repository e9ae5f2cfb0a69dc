"""One measured run of a workload in a fresh interpreter, driven by run.py.

Protocol on the standard streams: once dynkindex is imported and the
workload's warm-up is done, the child prints ``ready`` and a JSON object
with what the speed gauge measured during set-up (see speed.py).  It then
reads one line from stdin: ``stop`` ends it there (a set-up-only run),
``go`` makes it run the workload body and print one JSON line with its
measurements.  Times in that line are at reference speed (speed.py): each
call is scaled by the gauge's samples taken during it and just around it,
and a pass's time is the sum of its calls'.

The body makes the workload's passes; the queries workload keeps making
passes for about ``--seconds`` (see stats.another_pass), and until its p99
has ten samples beyond it, or until its pool is used up.  Outputs are checked
against the goldens after each pass, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import speed

# Started before dynkindex is imported, so the set-up it gauges includes the
# import.
GAUGE = speed.Gauge()
GAUGE.start()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dynkindex  # noqa: E402

import stats  # noqa: E402
import workloads  # noqa: E402

MAX_MISMATCHES_REPORTED = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not Path(dynkindex.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported dynkindex from {dynkindex.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]()
    workload.warm_up()
    GAUGE.stop()
    setup = {"spent": GAUGE.spent, "scale": GAUGE.scale(GAUGE.created, perf_counter())}
    print("ready " + json.dumps(setup), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    check = workload.checker()
    GAUGE.start()
    start = perf_counter()
    latencies: list[float] = []
    pass_times: list[float] = []
    raw_pass_times: list[float] = []
    attempted = failed = 0
    mismatches: list[str] = []
    # Closing the passes stops the queries workload's feed.py process.
    with contextlib.closing(workload.passes(args.seed)) as passes:
        for ops in passes:
            results, calls = [], []
            pass_spent = GAUGE.spent
            pass_start = perf_counter()
            for _, fn in ops:
                call_spent = GAUGE.spent
                call_start = perf_counter()
                results.append(fn())
                call_end = perf_counter()
                calls.append((call_start, call_end, GAUGE.spent - call_spent))
            raw_pass_times.append(perf_counter() - pass_start - (GAUGE.spent - pass_spent))
            for (key, _), result in zip(ops, results):
                attempted += 1
                if not check(key, result):
                    failed += 1
                    mismatches.append(key)
            # Scaled after the checks, so the last call has samples after it.
            scaled = [(b - a - spent) * GAUGE.scale(a, b) for a, b, spent in calls]
            latencies += scaled
            pass_times.append(sum(scaled))
            more = stats.another_pass(perf_counter() - start, raw_pass_times, args.seconds)
            if not more and stats.tail_is_resolved(latencies):
                break

    GAUGE.stop()
    report = {
        "pass_s": pass_times,
        "raw_pass_s": raw_pass_times,
        "latency_s": latencies,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches[:MAX_MISMATCHES_REPORTED],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer)
        report["span_violations"] = tracer.span_violations()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        # A SIGALRM after the handler is gone would end the process.
        GAUGE.stop()
