"""The statistics, source digests and run conditions of tools/paired.py on
fixed inputs and temporary trees; no benchmark is run."""

import importlib.util
import json
import signal
import subprocess
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "paired.py"
_SPEC = importlib.util.spec_from_file_location("paired", _PATH)
paired = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired)


def test_quartiles_interpolate_between_order_statistics():
    assert paired.quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)
    assert paired.quartiles([4, 3, 2, 1]) == (1.75, 2.5, 3.25)
    assert paired.quartiles([7]) == (7, 7, 7)


def test_compare_counts_wins_without_ties_and_the_gap_against_the_parent_spread():
    parent = [10, 11, 12, 13, 14]  # median 12, q1 11, q3 13
    row = paired.compare(parent, [9, 11, 10, 12, 13], "lower", 0.24)
    assert row["parent"] == {"median": 12, "q1": 11, "q3": 13}
    assert row["change"] == {"median": 11, "q1": 10, "q3": 12}
    assert (row["wins"], row["pairs"]) == (4, 5)  # 11 against 11 is a tie
    assert not row["beyond_iqr"]  # 12 - 11 is within 13 - 11
    assert not row["breach"]
    row = paired.compare(parent, [5] * 5, "lower", 0.24)
    assert (row["wins"], row["beyond_iqr"], row["breach"]) == (5, True, False)
    # The same runs read with higher as better: every pair lost, no gain.
    row = paired.compare(parent, [5] * 5, "higher", 0.24)
    assert (row["wins"], row["beyond_iqr"], row["breach"]) == (0, False, True)
    row = paired.compare(parent, [20] * 5, "higher", 0.24)
    assert (row["wins"], row["beyond_iqr"], row["breach"]) == (5, True, False)


@pytest.mark.parametrize(
    "change, bound, breach",
    [([20] * 5, 0.5, True), ([20] * 5, 0.7, False), ([14.8] * 5, 0.24, False),
     ([15] * 5, 0.24, True)],
)
def test_a_breach_is_a_worse_median_beyond_the_bound_as_a_share_of_the_parents(
    change, bound, breach
):
    assert paired.compare([10, 11, 12, 13, 14], change, "lower", bound)["breach"] is breach


def test_seed_ranges_are_inclusive():
    assert paired.parse_seeds("41-50") == list(range(41, 51))
    assert paired.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        paired.parse_seeds("5-3")


def _tree(root: Path, *, value: str = "1") -> Path:
    for name, text in {
        "src/pkg/mod.py": f"VALUE = {value}\n",
        "benchmarks/goldens/g.json": "{}\n",
        "BENCHMARK.json": json.dumps({"end_to_end": [], "run_seconds": 1}),
        "README.md": "not a source\n",
    }.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_the_source_digest_covers_src_and_benchmarks_but_not_bytecode(tmp_path):
    tree = _tree(tmp_path / "t")
    digest = paired.source_digest(tree)
    assert digest == paired.source_digest(_tree(tmp_path / "u"))  # paths are relative
    (tree / "src/pkg/__pycache__").mkdir()
    (tree / "src/pkg/__pycache__/mod.cpython-311.pyc").write_bytes(b"\0")
    (tree / "README.md").write_text("edited\n")
    assert paired.source_digest(tree) == digest
    (tree / "benchmarks/goldens/g.json").write_text("{ }\n")
    assert paired.source_digest(tree) != digest
    assert paired.source_digest(_tree(tmp_path / "v", value="2")) != digest
    moved = _tree(tmp_path / "w")  # the same bytes under another name
    (moved / "src/pkg/mod.py").rename(moved / "src/pkg/other.py")
    assert paired.source_digest(moved) != digest


def test_a_tree_edited_during_a_pair_stops_the_tool_and_is_named(tmp_path, monkeypatch, capsys):
    parent, change = _tree(tmp_path / "parent"), _tree(tmp_path / "change")
    calls = []

    def fake_run(tree, workload, seed, seconds):  # the second pair's change run edits its tree
        calls.append((tree.name, seed))
        if len(calls) == 3:
            (change / "src/pkg/mod.py").write_text("VALUE = 2\n")
        return {"correct": True, "attempted": 1, "failed": 0, "host_speed": 1.0, "metrics": {}}

    monkeypatch.setattr(paired, "bench_run", fake_run)
    monkeypatch.chdir(tmp_path)
    argv = [str(parent), str(change), "--workload", "w", "--seeds", "1-3", "--label", "x"]
    assert paired.main(argv) == 1
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: sources changed during pair 2: change ({change.resolve()})"
    )
    assert not (tmp_path / "BENCH_x.json").exists()


@pytest.mark.parametrize(
    "exc",
    [subprocess.TimeoutExpired(["run.py"], 200), RuntimeError("run.py exited 2: no samples yet")],
    ids=["timeout", "exit-2"],
)
def test_a_run_that_cannot_finish_ends_the_tool_with_an_error_line(
    tmp_path, monkeypatch, capsys, exc
):
    parent, change = _tree(tmp_path / "parent"), _tree(tmp_path / "change")
    calls = []

    def fake_run(tree, workload, seed, seconds):  # the second pair's change run fails
        calls.append((tree.name, seed))
        if len(calls) == 3:
            raise exc
        return {"correct": True, "attempted": 1, "failed": 0, "host_speed": 1.0, "metrics": {}}

    monkeypatch.setattr(paired, "bench_run", fake_run)
    monkeypatch.chdir(tmp_path)
    argv = [str(parent), str(change), "--workload", "w", "--seeds", "1-3", "--label", "x"]
    assert paired.main(argv) == 1
    assert calls == [("parent", 1), ("change", 1), ("change", 2)]
    assert capsys.readouterr().err.splitlines()[-1] == f"error: pair 2 change: {exc}"
    assert not (tmp_path / "BENCH_x.json").exists()


def _files(tree: Path) -> dict:
    return {
        path.relative_to(tree).as_posix(): (path.read_bytes(), path.stat().st_mtime_ns)
        for path in tree.rglob("*") if path.is_file()
    }


def test_the_bytecode_under_src_and_benchmarks_is_deleted_before_the_first_pair(
    tmp_path, monkeypatch
):
    trees = {"parent": _tree(tmp_path / "parent"), "change": _tree(tmp_path / "change")}
    caches = ["src/pkg/__pycache__/x.pyc", "benchmarks/__pycache__/y.pyc"]
    for tree in trees.values():
        for name in caches + ["tests/__pycache__/z.pyc"]:  # not a source: kept
            (tree / name).parent.mkdir(parents=True)
            (tree / name).write_bytes(b"\0")
    kept = {
        side: {name: entry for name, entry in _files(tree).items() if name not in caches}
        for side, tree in trees.items()
    }
    digests = {side: paired.source_digest(tree) for side, tree in trees.items()}
    left = []

    def fake_run(tree, workload, seed, seconds):
        left.extend(
            path for t in trees.values() for sub in paired.SOURCES
            for path in (t / sub).rglob("__pycache__")
        )
        return {"correct": True, "attempted": 1, "failed": 0, "host_speed": 1.0, "metrics": {}}

    monkeypatch.setattr(paired, "bench_run", fake_run)
    monkeypatch.chdir(tmp_path)
    argv = [str(trees["parent"]), str(trees["change"]), "--workload", "w", "--seeds", "1-2",
            "--label", "x"]
    assert paired.main(argv) == 0
    assert left == []
    for side, tree in trees.items():
        assert _files(tree) == kept[side]
        assert paired.source_digest(tree) == digests[side]
    report = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert report["bytecode"] == "none cached; every child compiles what it imports"


def test_each_run_starts_in_a_session_of_its_own_with_bytecode_writes_off(
    tmp_path, monkeypatch
):
    started, killed = [], []

    class FakePopen:
        pid = 4321
        returncode = 0

        def __init__(self, command, **options):
            started.append((command, options))

        def communicate(self, timeout=None):
            return (
                "raw wall-clock medians: host speed 0.800\n"
                '{"correct": true, "attempted": 3, "failed": 0, '
                '"metrics": {"setup_s": {"value": 0.1, "unit": "s"}}}\n',
                "",
            )

    monkeypatch.setattr(paired.subprocess, "Popen", FakePopen)
    monkeypatch.setattr(paired.os, "killpg", lambda pgid, sig: killed.append((pgid, sig)))
    result = paired.bench_run(tmp_path, "queries", 7, 45)
    assert result == {"correct": True, "attempted": 3, "failed": 0, "host_speed": 0.8,
                      "metrics": {"setup_s": 0.1}}
    [(command, options)] = started
    assert command[1:] == ["benchmarks/run.py", "--workload", "queries", "--seed", "7",
                           "--seconds", "45", "--trace", "0"]
    assert options["cwd"] == tmp_path
    assert options["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert options["start_new_session"] is True
    assert killed == [(4321, signal.SIGKILL)]


def _running(pid: int) -> bool:
    """Whether pid names a live process: one in /proc that is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


_SLEEPING_RUN = """\
import os, subprocess, sys, time
from pathlib import Path
sleeper = subprocess.Popen(  # holds no pipe of run.py's, so no read waits for it
    [sys.executable, "-c", "import time; time.sleep(60)"],
    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
)
Path("pids").write_text(f"{os.getpid()} {sleeper.pid}")
time.sleep(60)
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
def test_a_run_that_times_out_leaves_no_process_of_its_group(tmp_path, monkeypatch):
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks/run.py").write_text(_SLEEPING_RUN)
    monkeypatch.setattr(paired, "RUN_TIMEOUT_S", 3)
    with pytest.raises(subprocess.TimeoutExpired):
        paired.bench_run(tmp_path, "queries", 1, 1)
    pids = [int(pid) for pid in (tmp_path / "pids").read_text().split()]
    deadline = time.monotonic() + 5
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert [pid for pid in pids if _running(pid)] == []
