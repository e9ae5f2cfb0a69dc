"""Print the query feed of one run of the queries workload.

    python3 benchmarks/feed.py SEED

The queries workload's measuring child starts it and reads the output as
it goes (see workloads.Queries.passes and workloads.query_feed).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    sys.stdout.write(workloads.query_feed(int(sys.argv[1])))
