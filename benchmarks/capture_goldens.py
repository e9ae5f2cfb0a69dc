"""Write the goldens every benchmark run is checked against.

Run once from the repository root at the commit whose outputs are the
reference (the goldens in this directory were captured at the seed commit):

    python3 benchmarks/capture_goldens.py [workload ...]

Queries are captured for every entry of the pool, so any seed is covered;
the first pass of each of HELD_OUT_SEEDS is recorded as well.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from workloads import GOLDEN_DIR, call_cli, digest  # noqa: E402

HELD_OUT_SEEDS = (0, 7)


def _write(name: str, payload) -> None:
    path = GOLDEN_DIR / name
    with open(path, "w", encoding="utf-8") as handle:
        if isinstance(payload, str):
            handle.write(payload)
        else:
            json.dump(payload, handle, indent=0, sort_keys=True)
            handle.write("\n")
    print(f"wrote {path}")


def capture_verify_default() -> None:
    rc, out = call_cli(["verify"])
    if rc != 0:
        raise SystemExit(f"verify exited {rc}")
    _write("verify-default.txt", out)


def capture_queries() -> None:
    pool = workloads.query_pool()
    golden = []
    for category, argv in pool:
        result = call_cli(argv)
        expected_rc = 2 if category == "invalid" else 0
        if result[0] != expected_rc:
            raise SystemExit(f"{argv}: exit {result[0]}, expected {expected_rc}")
        golden.append(workloads.query_golden(result))
    streams = {
        str(seed): digest("\n".join(map(workloads.query_key, workloads.query_passes(seed, pool)[0])))
        for seed in HELD_OUT_SEEDS
    }
    _write("queries.json", {
        "pool_sha256": workloads.pool_digest(pool),
        "pool": golden,
        "streams": streams,
    })


CAPTURES = {
    "verify-default": capture_verify_default,
    "queries": capture_queries,
}

if __name__ == "__main__":
    for name in sys.argv[1:] or CAPTURES:
        CAPTURES[name]()
