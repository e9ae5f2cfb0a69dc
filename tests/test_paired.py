"""The statistics and source digests of tools/paired.py on fixed inputs and
temporary trees; no benchmark is run."""

import importlib.util
import json
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
