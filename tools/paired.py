"""Paired benchmark runs of two checkouts of the repository: parent and change.

    python3 tools/paired.py PARENT_DIR CHANGE_DIR --workload queries \\
        --seeds 41-50 --label parse-cache-queries

The runs measure what the benchmark check of a fresh checkout measures:
every __pycache__ under each tree's src/ and benchmarks/ is deleted before
the first pair, and every run starts with PYTHONDONTWRITEBYTECODE=1, so
each child compiles the sources it imports and setup_s and peak_rss_mb
include that compilation.  The sha256 of each tree's sources (every file
under src/ and benchmarks/ but bytecode) is recorded; it is taken again
after every pair, and a tree whose sources changed mid-run stops the tool
with exit 1, naming the tree, since its runs no longer measure one version
of the code.  There is one pair per seed: it runs ``benchmarks/run.py
--trace 0`` with that seed once on each tree, for the run_seconds of the
parent's BENCHMARK.json, and the side that runs first alternates from pair
to pair.  Each run's metrics are the JSON object that run.py prints as its
last line.  Each run.py starts in a session of its own, and its whole
process group is killed when the run ends, times out, or the tool stops
(SIGTERM stops it as SystemExit), so no child outlives its run.

For each end-to-end metric of the parent's BENCHMARK.json the tool prints
each side's median with [q1, q3], the pairs the change wins (ties count for
neither), whether the medians are apart by more than the parent's quartile
spread in the better direction, and "breach" when the change's median is
worse than the parent's by more than the metric's bound (a fraction of the
parent's median).  It writes all of it, with every run, the Python version
and the bytecode condition, to BENCH_<label>.json in the current
directory.  Exit code 0, or 1 when a run failed, mismatched its goldens or
a metric breached its bound; also 1, with an error line naming the pair and
the side and no BENCH file, when a tree's sources changed, a run timed out
or run.py exited 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

# run.py stops itself after 170 s.
RUN_TIMEOUT_S = 200
# The directories of a tree whose files the runs read: the code and the benchmark.
SOURCES = ("src", "benchmarks")


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) of values, by linear interpolation between order
    statistics (statistics.quantiles' inclusive method)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent, change, better: str, bound: float) -> dict:
    """Paired runs of one metric, parent[i] against change[i]: each side's
    quartiles, the change's wins, whether the medians differ in the better
    direction by more than the parent's q3 - q1, and whether the change's
    median is worse by more than bound times the parent's."""
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: the change is better
    p1, p_median, p3 = quartiles(parent)
    c1, c_median, c3 = quartiles(change)
    gain = sign * (p_median - c_median)
    return {
        "parent": {"median": p_median, "q1": p1, "q3": p3},
        "change": {"median": c_median, "q1": c1, "q3": c3},
        "wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "beyond_iqr": gain > p3 - p1,
        "breach": -gain > bound * abs(p_median),
    }


def parse_seeds(text: str) -> list[int]:
    """"41-50" -> [41, ..., 50]; "7" -> [7]."""
    low, _, high = text.partition("-")
    seeds = list(range(int(low), int(high or low) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def source_digest(tree: Path) -> str:
    """sha256 over the relative path and the sha256 of every file under the
    tree's SOURCES, in path order; bytecode (__pycache__) is left out."""
    digest = hashlib.sha256()
    for sub in SOURCES:
        for path in sorted((tree / sub).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(path.relative_to(tree).as_posix().encode() + b"\0")
                digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``benchmarks/run.py`` run in tree: its correctness counts, each
    metric's value by name, and the host speed its report names."""
    command = [
        sys.executable, "benchmarks/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.Popen(
        command, cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        # run.py's children are in its group; a killed run.py cannot stop them.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    if proc.returncode not in (0, 1):  # 1: a golden mismatch, reported below
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}: {stderr.strip()}")
    result = json.loads(stdout.splitlines()[-1])
    speed = re.search(r"host speed ([0-9.]+)", stdout)
    return {
        **{key: result[key] for key in ("correct", "attempted", "failed")},
        "host_speed": float(speed.group(1)) if speed else None,
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="A-B, inclusive, or one seed")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(f"--seeds: {exc}")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        for sub in SOURCES:
            for cache in list((tree / sub).rglob("__pycache__")):
                shutil.rmtree(cache)
    digests = {side: source_digest(tree) for side, tree in trees.items()}
    benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    declared, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    runs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {"pair": i + 1, "seed": seed, "first": order[0]}
        for side in order:
            try:
                run[side] = bench_run(trees[side], args.workload, seed, seconds)
            except (subprocess.TimeoutExpired, RuntimeError) as exc:
                print(f"error: pair {i + 1} {side}: {exc}", file=sys.stderr)
                return 1
        print(f"pair {i + 1}/{len(seeds)} seed {seed}, {order[0]} first", file=sys.stderr)
        runs.append(run)
        changed = [side for side, tree in trees.items() if source_digest(tree) != digests[side]]
        if changed:
            named = ", ".join(f"{side} ({trees[side]})" for side in changed)
            print(f"error: sources changed during pair {i + 1}: {named}", file=sys.stderr)
            return 1

    metrics, ok = {}, True
    print(f"{'metric':<14} {'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} "
          "wins   gap>IQR bound")
    for spec in declared:
        name = spec["name"]
        parent, change = ([run[side]["metrics"][name] for run in runs] for side in trees)
        row = compare(parent, change, spec["better"], spec["bound"])
        metrics[name] = {key: spec[key] for key in ("unit", "better", "bound")} | row
        ok = ok and not row["breach"]
        cells = [
            f"{row[side]['median']:.4g} [{row[side]['q1']:.4g}, {row[side]['q3']:.4g}]"
            for side in trees
        ]
        print(f"{name:<14} {cells[0]:<32} {cells[1]:<32} "
              f"{row['wins']:>2}/{row['pairs']:<3} {'yes' if row['beyond_iqr'] else 'no':<7} "
              f"{'breach' if row['breach'] else 'ok'}")
    failed = [
        f"pair {run['pair']} {side}" for run in runs for side in trees
        if not run[side]["correct"] or run[side]["failed"]
    ]
    if failed:
        print(f"runs with a failed or mismatched query: {', '.join(failed)}")
    report = {
        "label": args.label,
        "workload": args.workload,
        "python": platform.python_version(),
        "bytecode": "none cached; every child compiles what it imports",
        "pairs": len(seeds),
        "seeds": seeds,
        "seconds": seconds,
        "metrics": metrics,
        "runs": runs,
    }
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok and not failed else 1


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit so bench_run's cleanup kills the running group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
