"""dynkindex benchmark: two workloads, checked against goldens.

Run from the repository root, with the interpreter the library targets:

    python3 benchmarks/run.py --workload queries --seed 0 --seconds 45 --trace 0

Workloads (see README.md in this directory for why each was chosen):
verify-default, queries.

Every measured run is a fresh child interpreter (child.py), so the
``build``/``lru_cache`` state starts cold as it does for a CLI user; one
child runs at a time.  With ``--trace 0`` the run reports the end-to-end
metrics, every time at reference speed (speed.py: scaled by a reference
loop sampled in the child, so the host's changes of speed cancel out); with
``--trace 1`` it makes one untraced and one traced run and reports the
per-layer spans plus the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Exit code
0 when every output matched its golden, 1 when one did not, 2 when the
benchmark could not run at all (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import stats

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOAD_NAMES = ("verify-default", "queries")
# Set-up time is the median of this many child start-ups per run; one takes
# 0.1-0.2 s (0.5 s on queries, whose warm-up builds 65 root systems).
SETUP_SAMPLES = 21
# Whole-run limit, below the 180 s a run may take.
RUN_LIMIT_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, go: bool, deadline: float):
    """Start one child; returns (set-up seconds, raw set-up seconds, report
    or None).

    Set-up runs from just before the process is created until it prints
    ``ready``: interpreter start, ``import dynkindex`` and the warm-up.  It
    is reported at reference speed (speed.py) with the gauge figures the
    child prints after ``ready``.  Without go the child stops there.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [
        sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - perf_counter(), 0))
        line = proc.stdout.readline() if ready else ""
        raw_setup_s = perf_counter() - start
        word, _, gauge = line.partition(" ")
        if word != "ready":
            raise BenchmarkError(f"{workload} child did not become ready: {line!r}")
        gauge = json.loads(gauge)
        setup_s = (raw_setup_s - gauge["spent"]) * gauge["scale"]
        remaining = max(deadline - perf_counter(), 0)
        out, _ = proc.communicate("go\n" if go else "stop\n", timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} child exceeded the {RUN_LIMIT_S:.0f} s run limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} child exited with code {proc.returncode}")
    return setup_s, raw_setup_s, (json.loads(out.splitlines()[-1]) if go else None)


class Tally:
    """Correctness counts over every child of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def add(self, report: dict) -> None:
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.mismatches += report["mismatches"]


def timed_run(args, deadline: float, tally: Tally, lines: list[str]) -> dict:
    setups, raw_setups, pass_times, raw_pass_times, latencies, rss = [], [], [], [], [], []
    start = perf_counter()
    while True:
        budget = max(args.seconds - (perf_counter() - start), 0)
        setup_s, raw_setup_s, report = spawn(args.workload, args.seed, budget, 0, True, deadline)
        setups.append(setup_s)
        raw_setups.append(raw_setup_s)
        pass_times += report["pass_s"]
        raw_pass_times += report["raw_pass_s"]
        latencies += report["latency_s"]
        rss.append(report["rss_kb"])
        tally.add(report)
        if args.workload == "queries" or not stats.another_pass(
            perf_counter() - start, raw_pass_times, args.seconds
        ):
            break
    while len(setups) < SETUP_SAMPLES:
        setup_s, raw_setup_s, _ = spawn(args.workload, args.seed, 0, 0, False, deadline)
        setups.append(setup_s)
        raw_setups.append(raw_setup_s)

    # On verify-default the request a user makes is the whole pass: one
    # ``dynkindex verify``.  Queries are timed call by call.
    requests = latencies if args.workload == "queries" else pass_times
    p99 = stats.percentile(requests, 99)
    lines += [
        f"children {len(rss)}, passes {len(pass_times)}, calls {len(latencies)}, "
        f"slowest call {max(latencies) * 1000:.1f} ms",
        "pass_s        " + " ".join(f"{t:.3f}" for t in pass_times[:10]),
        "times below are at reference speed (speed.py); raw wall-clock medians: "
        f"setup {statistics.median(raw_setups):.4g} s, "
        f"pass {statistics.median(raw_pass_times):.4g} s, "
        f"host speed {statistics.median(pass_times) / statistics.median(raw_pass_times):.3f}",
        f"setup_s       median of {len(setups)} start-ups",
        f"run_s         median of {len(pass_times)} passes",
        f"query_p99_ms  {stats.beyond(requests, p99)} of {len(requests)} requests beyond"
        + ("" if stats.tail_is_resolved(requests) else " (fewer than ten: the slowest request)"),
        f"peak_rss_mb   median of {len(rss)} children",
    ]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(pass_times), "unit": "s"},
        "query_p50_ms": {"value": statistics.median(requests) * 1000, "unit": "ms"},
        "query_p99_ms": {"value": p99 * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(rss) / 1024, "unit": "MB"},
    }


def traced_run(args, deadline: float, tally: Tally, lines: list[str]) -> tuple[dict, bool]:
    plain = spawn(args.workload, args.seed, 0, 0, True, deadline)[2]
    traced = spawn(args.workload, args.seed, 0, 1, True, deadline)[2]
    tally.add(plain)
    tally.add(traced)
    overhead = statistics.median(traced["pass_s"]) / statistics.median(plain["pass_s"])
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    violations = traced["span_violations"]
    lines.append(f"trace.overhead traced run_s / untraced run_s = {overhead:.3f}")
    if violations:
        lines.append(f"spans with self_s > s: {', '.join(violations)}")
    return metrics, not violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dynkindex" / "__init__.py").is_file():
        print(f"error: no dynkindex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so spawn's cleanup stops the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = perf_counter() + RUN_LIMIT_S
    tally = Tally()
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    try:
        if args.trace:
            metrics, spans_ok = traced_run(args, deadline, tally, lines)
        else:
            metrics, spans_ok = timed_run(args, deadline, tally, lines), True
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = tally.failed == 0 and spans_ok
    lines.append(
        f"fail_ratio    {tally.failed / tally.attempted:.4g} "
        f"({tally.failed} failed of {tally.attempted} attempted)"
    )
    if tally.mismatches:
        lines.append(f"mismatched: {'; '.join(tally.mismatches)}")
    for name, metric in metrics.items():
        lines.append(f"{name:<40} {metric['value']:.6g} {metric['unit']}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
