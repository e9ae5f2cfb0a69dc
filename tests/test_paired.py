"""The statistics of tools/paired.py on fixed inputs; nothing is run."""

import importlib.util
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
