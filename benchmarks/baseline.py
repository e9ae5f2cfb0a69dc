"""Measure every workload on several seeds and record the result.

    python3 benchmarks/baseline.py --label NAME

Runs ``run.py`` with tracing off once per seed in SEEDS for every workload
in ``BENCHMARK.json``, then once with tracing on per workload.  It writes the record to ``baseline.json`` under
NAME, next to the records already there.  A record holds the environment,
and for each workload and end-to-end metric the median, the quartiles and
the spread (q3 - q1) / median over the seeds.  It also holds the traced
per-layer values.  Quartiles are ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "baseline.json"
SEEDS = tuple(range(1, 11))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: "
          + ", ".join(f"{k}={v['value']:.5g}" for k, v in list(result["metrics"].items())[:6]),
          flush=True)
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median, "values": values,
    }


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    record = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
        },
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, seconds, 0) for seed in SEEDS]
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]
        }
        traced = run(workload, SEEDS[0], seconds, 1)
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": metrics,
            "traced": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, m in metrics.items():
            print(f"  {workload} {name}: median {m['median']:.5g}, spread {m['spread']:.4f}", flush=True)

    records = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
    records[args.label] = record
    RECORD.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {RECORD} [{args.label}]")


if __name__ == "__main__":
    main()
