"""The benchmark's two workloads: their inputs, bodies and golden checks.

Each workload gives passes of operations, each an in-process ``cli.main``
invocation keyed by its argv, plus a warm-up that runs before the workload
counts as set up.  verify-default has one fixed pass; the queries workload
reads its passes from a feed.py process (``query_feed``).  Outputs
are compared with the goldens in ``goldens/``, captured at the seed commit
by ``capture_goldens.py``.

Callers must put the repository's ``src`` directory on ``sys.path`` before
importing this module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

from dynkindex import cli, rootsystems, sl2

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
FEED = Path(__file__).resolve().parent / "feed.py"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI invocation in-process; returns (exit code, stdout).

    stderr is captured and dropped: the exit code already says whether the
    invocation was refused, and the goldens compare stdout only.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _load(name: str):
    with open(GOLDEN_DIR / name, encoding="utf-8") as handle:
        return handle.read() if name.endswith(".txt") else json.load(handle)


# -- verify-default ---------------------------------------------------------------


class VerifyDefault:
    """``dynkindex verify`` at default bounds, compared byte for byte."""

    name = "verify-default"

    def warm_up(self) -> None:
        pass

    def passes(self, seed: int):
        yield [("verify", lambda: call_cli(["verify"]))]

    def checker(self):
        text = _load("verify-default.txt")
        return lambda key, result: result == (0, text)


# -- queries ----------------------------------------------------------------------

# Queries per pass of the stream, by category.  Counts are exact rather than
# drawn, so every pass of every seed has the same mix.
QUERY_MIX = {
    "rep-index-exceptional": 300,
    "rep-index-classical": 250,
    "index-classical": 340,
    "index-simplest": 50,
    "table": 10,
    "invalid": 50,
}
PASS_LENGTH = sum(QUERY_MIX.values())

# Every seed draws its passes from one fixed pool, so the goldens (one exit
# code and stdout digest per pool entry) cover any seed.  The pool holds
# POOL_PASSES passes, more than a run makes here, so a run never sends the
# same rep-index, index or refused query twice.  The simplest and table
# categories have only SIMPLEST_PARTITIONS x 2 formats and 9 inputs, so they
# repeat (6 % of calls).  A run that uses up the pool stops early.
POOL_SEED = 1311
POOL_PASSES = 40
MAX_CLASSICAL_RANK = 16
MAX_WEIGHT_COORD = 300
MODULE_SIZES = (20, 200)
PART_COUNT_TIERS = ((0.6, 10), (0.9, 50), (1.0, 100))  # (cumulative share, max parts)

EXCEPTIONAL_RANKS = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_MATRIX_FORM = {
    "A": lambda n: ("sl", n + 1),
    "B": lambda n: ("so", 2 * n + 1),
    "C": lambda n: ("sp", 2 * n),
    "D": lambda n: ("so", 2 * n),
}

# Jordan types of nilpotents in the 7- and 26-dimensional modules of G2 and
# F4 (each accepted by ``--via simplest`` at the seed commit).
SIMPLEST_PARTITIONS = {
    "G2": ("7", "5,1,1", "3,3,1", "3,2,2", "3,1,1,1,1", "2,2,1,1,1"),
    "F4": (
        "23,3", "21,5", "21,2,2,1", "19,3,2,2", "17,9", "17,5,3,1",
        "17,3,3,3", "15,11", "15,7,2,2", "15,5,5,1", "13,9,2,2", "13,5,5,3",
        "11,11,3,1", "11,9,5,1", "11,7,5,3", "11,6,6,3", "11,3,3,3,3,3",
        "9,9,5,3", "9,8,8,1", "9,7,5,5", "9,6,6,5", "9,5,3,3,3,3",
        "8,8,7,3", "9,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1",
    ),
}
SIMPLEST_QUERIES = [
    ["index", "--algebra", label, "--partition", p, "--via", "simplest", "--format", fmt]
    for label, partitions in SIMPLEST_PARTITIONS.items()
    for p in partitions
    for fmt in ("json", "md")
]
TABLE_QUERIES = [
    ["table", "--format", fmt, "--rank", str(rank)]
    for fmt in ("md", "json", "csv")
    for rank in (4, 5, 6)
]


def _fmt(rng: random.Random) -> list[str]:
    roll = rng.random()
    return ["--format", "json" if roll < 0.8 else "md" if roll < 0.9 else "csv"]


def _weight(rng: random.Random, rank: int) -> str:
    coords = []
    for _ in range(rank):
        roll = rng.random()
        if roll < 0.55:
            coords.append(0)
        elif roll < 0.85:
            coords.append(rng.randint(1, 3))
        else:
            coords.append(rng.randint(4, MAX_WEIGHT_COORD))
    return ",".join(map(str, coords))


def _partition(rng: random.Random, kind: str) -> list[int]:
    """A random nonzero Jordan type admissible for kind, of size within
    MODULE_SIZES, with up to about 100 parts."""
    while True:
        size = rng.randint(*MODULE_SIZES)
        roll = rng.random()
        max_parts = next(limit for share, limit in PART_COUNT_TIERS if roll < share)
        count = min(rng.randint(1, max_parts), size)
        cuts = sorted(rng.sample(range(1, size), count - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [size])]
        if kind != "sl":
            # sp pairs its odd parts, so its even ones: drop one unpaired copy.
            unpaired_parity = 1 if kind == "sp" else 0
            for value in set(parts):
                if value % 2 == unpaired_parity and parts.count(value) % 2:
                    parts.remove(value)
        if parts and max(parts) >= 2 and sum(parts) >= MODULE_SIZES[0]:
            return sorted(parts, reverse=True)


# Each draw returns (key, argv).  Two queries with one key make the same
# computation (the output format, the algebra's spelling and the --via
# route aside), so the pool holds each key once.


def _rep_index_exceptional(rng: random.Random):
    label = rng.choice(sorted(EXCEPTIONAL_RANKS))
    weight = _weight(rng, EXCEPTIONAL_RANKS[label])
    return (label, weight), ["rep-index", "--algebra", label, "--weight", weight] + _fmt(rng)


def _rep_index_classical(rng: random.Random):
    family = rng.choice("ABCD")
    rank = rng.randint(_MIN_RANK[family], MAX_CLASSICAL_RANK)
    if rng.random() < 0.5:
        label = f"{family}{rank}"
    else:
        kind, dim = _MATRIX_FORM[family](rank)
        label = f"{kind}{dim}"
    weight = _weight(rng, rank)
    return (family, rank, weight), ["rep-index", "--algebra", label, "--weight", weight] + _fmt(rng)


def _index_classical(rng: random.Random):
    kind = rng.choice(sl2.KINDS)
    parts = _partition(rng, kind)
    roll = rng.random()
    via = "all" if roll < 0.7 else "partition" if roll < 0.85 else "adjoint"
    argv = ["index", "--algebra", f"{kind}{sum(parts)}",
            "--partition", ",".join(map(str, parts)), "--via", via] + _fmt(rng)
    return (kind, tuple(parts)), argv


def _invalid_argv(rng: random.Random) -> list[str]:
    """An input the CLI must refuse with exit code 2."""
    choice = rng.randrange(10)
    if choice == 0:  # weight of the wrong length
        label = rng.choice(sorted(EXCEPTIONAL_RANKS))
        length = EXCEPTIONAL_RANKS[label] + rng.choice((-1, 1))
        weight = ",".join(str(rng.randint(0, 9)) for _ in range(length))
        return ["rep-index", "--algebra", label, "--weight", weight]
    if choice == 1:  # no such algebra
        label = rng.choice(("H4", "E9", "F5", "Q2", "sl1", "so4", "sp7"))
        return ["rep-index", "--algebra", label, "--weight", str(rng.randint(1, MAX_WEIGHT_COORD))]
    if choice == 2:  # negative highest-weight coordinate
        a, b = rng.randint(0, MAX_WEIGHT_COORD), rng.randint(1, MAX_WEIGHT_COORD)
        return ["rep-index", "--algebra", "G2", "--weight", f"{a},-{b}"]
    if choice == 3:  # partition overfills the module by one
        n = rng.randint(*MODULE_SIZES)
        k = rng.randint(1, n // 2)
        return ["index", "--algebra", f"sl{n}", "--partition", f"{n - k},{k + 1}"]
    if choice == 4:  # two distinct odd parts, each unpaired, in sp
        n = 2 * rng.randint(10, 100)
        b = 2 * rng.randrange(n // 4) + 1
        return ["index", "--algebra", f"sp{n}", "--partition", f"{n - b},{b}"]
    if choice == 5:  # the zero orbit
        n = rng.randint(2, MODULE_SIZES[1])
        return ["index", "--algebra", f"sl{n}", "--partition", ",".join(["1"] * n)]
    if choice == 6:  # exceptional Jordan type without --via simplest
        label = rng.choice(sorted(SIMPLEST_PARTITIONS))
        p = rng.choice(SIMPLEST_PARTITIONS[label])
        return ["index", "--algebra", label, "--partition", p, "--via", "partition"]
    if choice == 7:  # unparsable parts
        a, b, c = (rng.randint(0, 99) for _ in range(3))
        return ["index", "--algebra", "sl8", "--partition", f"{a},x{b},{c}"]
    if choice == 8:  # table rank too small for the D column
        return ["table", "--rank", str(rng.randint(1, 3))] + _fmt(rng)
    return ["poset", "--kind", rng.choice(("gl", "su", "e8")), "--n", str(rng.randint(1, 300))]


def _invalid(rng: random.Random):
    argv = _invalid_argv(rng)
    return tuple(argv), argv


_DRAWS = {
    "rep-index-exceptional": _rep_index_exceptional,
    "rep-index-classical": _rep_index_classical,
    "index-classical": _index_classical,
    "invalid": _invalid,
}
_FIXED = {"index-simplest": SIMPLEST_QUERIES, "table": TABLE_QUERIES}


def query_pool() -> list[tuple[str, list[str]]]:
    """Every query any seed can send, as (category, argv); fixed by POOL_SEED.

    POOL_PASSES blocks of PASS_LENGTH, each with exactly QUERY_MIX, in
    category order.  Drawn categories never repeat a key; a draw whose key
    is taken is thrown away and drawn again.
    """
    rng = random.Random(POOL_SEED)
    seen = set()
    pool = []
    for _ in range(POOL_PASSES):
        for category, count in QUERY_MIX.items():
            if category in _FIXED:
                entries = _FIXED[category]
                chosen = (
                    rng.sample(entries, count) if count <= len(entries)
                    else [rng.choice(entries) for _ in range(count)]
                )
                pool += [(category, argv) for argv in chosen]
                continue
            for _ in range(count):
                key, argv = _DRAWS[category](rng)
                while (category, key) in seen:
                    key, argv = _DRAWS[category](rng)
                seen.add((category, key))
                pool.append((category, argv))
    return pool


def query_passes(seed: int, pool) -> list[list[list[str]]]:
    """The passes one run sends: every block of the pool once, in an order
    the seed picks, each block shuffled."""
    rng = random.Random(seed)
    passes = []
    for block in rng.sample(range(POOL_PASSES), POOL_PASSES):
        stream = [argv for _, argv in pool[block * PASS_LENGTH:(block + 1) * PASS_LENGTH]]
        rng.shuffle(stream)
        passes.append(stream)
    return passes


def query_key(argv: list[str]) -> str:
    return " ".join(argv)


def query_golden(result: tuple[int, str]) -> str:
    """The golden of one query: exit code and a 48-bit stdout digest."""
    rc, out = result
    return f"{rc} {digest(out)[:12]}"


def pool_digest(pool) -> str:
    return digest("\n".join(f"{category} {query_key(argv)}" for category, argv in pool))


def query_feed(seed: int) -> str:
    """What feed.py prints for a queries run: one line per query of the
    run, ``golden<TAB>argv``, pass after pass."""
    recorded = _load("queries.json")
    pool = query_pool()
    if pool_digest(pool) != recorded["pool_sha256"]:
        raise RuntimeError("the query pool differs from the one the goldens were captured for")
    golden = {query_key(argv): g for (_, argv), g in zip(pool, recorded["pool"])}
    return "".join(
        f"{golden[query_key(argv)]}\t{query_key(argv)}\n"
        for stream in query_passes(seed, pool)
        for argv in stream
    )


class Queries:
    """A closed loop with one client sending the seed's queries to cli.main,
    with every root system a query can name warm."""

    name = "queries"

    def __init__(self) -> None:
        self.expected: dict[str, str] = {}

    def warm_up(self) -> None:
        """Build every root system a query can touch and invert its Cartan
        matrix (``fundamental_weights``): classical up to MAX_CLASSICAL_RANK,
        which covers the simplest modules and the table, and exceptional."""
        LieType = rootsystems.LieType
        types = [
            LieType(family, rank)
            for family, low in _MIN_RANK.items()
            for rank in range(low, MAX_CLASSICAL_RANK + 1)
        ]
        types += [LieType.parse(label) for label in EXCEPTIONAL_RANKS]
        for lt in types:
            rootsystems.build(lt).fundamental_weights

    def passes(self, seed: int):
        """Passes of PASS_LENGTH queries, one at a time, read from a feed.py
        process until its feed ends.  The pool lives in that process, so
        this one's memory is the program's."""
        feeder = subprocess.Popen(
            [sys.executable, str(FEED), str(seed)], stdout=subprocess.PIPE, text=True
        )
        try:
            while True:
                lines = [feeder.stdout.readline() for _ in range(PASS_LENGTH)]
                if not lines[-1]:
                    break
                self.expected = {}
                ops = []
                for line in lines:
                    golden, key = line.rstrip("\n").split("\t")
                    self.expected[key] = golden
                    ops.append((key, lambda argv=key.split(" "): call_cli(argv)))
                yield ops
            if feeder.wait() != 0:
                raise RuntimeError(f"feed.py exited with code {feeder.returncode}")
        finally:
            feeder.kill()
            feeder.communicate()

    def checker(self):
        return lambda key, result: self.expected.get(key) == query_golden(result)


WORKLOADS = {cls.name: cls for cls in (VerifyDefault, Queries)}
