"""Orbit closure order and index monotonicity."""

import dataclasses
from fractions import Fraction

import pytest

from dynkindex import orbits
from dynkindex.orbits import (
    build_poset,
    comparable_pairs_strict,
    degeneration_moves,
    dominance_leq,
    enumerate_orbits,
    monotonicity_holds,
    partitions_of,
    poset_dot,
    poset_payload,
)

PARTITION_COUNTS = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def cubic_poset(kind, n):
    """Oracle: the dominance relation as an N x N bool matrix, and a pair is
    a cover unless some third node lies strictly between."""
    nodes = enumerate_orbits(kind, n)
    count = len(nodes)
    below = [[False] * count for _ in range(count)]
    for i, p in enumerate(nodes):
        for j, q in enumerate(nodes):
            if i != j and dominance_leq(p, q):
                below[i][j] = True
    covers = []
    for j, upper in enumerate(nodes):
        for i, lower in enumerate(nodes):
            if not below[i][j]:
                continue
            if any(below[i][k] and below[k][j] for k in range(count)):
                continue
            covers.append((upper, lower))
    return tuple(nodes), tuple(covers)


def test_partition_enumeration():
    for n, expected in enumerate(PARTITION_COUNTS, start=1):
        parts = list(partitions_of(n))
        assert len(parts) == expected
        assert parts == sorted(parts, reverse=True)  # reverse-lexicographic
        assert all(sum(p) == n for p in parts)


def test_enumerate_orbits():
    assert enumerate_orbits("sl", 4) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
    ]
    assert enumerate_orbits("sp", 4) == [(4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert enumerate_orbits("so", 5) == [
        (5,), (3, 1, 1), (2, 2, 1), (1, 1, 1, 1, 1)
    ]
    with pytest.raises(ValueError):
        enumerate_orbits("sp", 5)
    with pytest.raises(ValueError):
        enumerate_orbits("sl", 0)


def test_degeneration_moves():
    assert degeneration_moves((4,)) == [(3, 1)]
    assert degeneration_moves((3, 1)) == [(2, 2)]
    assert degeneration_moves((2, 2)) == [(2, 1, 1)]
    assert degeneration_moves((4, 2)) == [(4, 1, 1), (3, 3)]
    assert degeneration_moves((1, 1, 1)) == []
    # runs of equal parts: a box moves past the run to a part two smaller
    assert degeneration_moves((3, 3, 1)) == [(3, 2, 2)]
    assert degeneration_moves((5, 3, 3, 1)) == [(5, 3, 2, 2), (4, 4, 3, 1)]
    assert degeneration_moves((3, 2, 2, 2, 1)) == [(3, 2, 2, 1, 1, 1), (2, 2, 2, 2, 2)]
    # moves preserve the partition size and go strictly down in dominance
    for n in range(2, 11):
        for p in partitions_of(n):
            for q in degeneration_moves(p):
                assert sum(q) == n
                assert q != p and dominance_leq(q, p)


def test_dominance():
    assert dominance_leq((2, 2), (4,))
    assert not dominance_leq((4,), (2, 2))
    assert not dominance_leq((3, 3), (4, 1, 1))
    assert not dominance_leq((4, 1, 1), (3, 3))
    assert dominance_leq((3, 1), (3, 1))


def test_chain_poset():
    poset = build_poset("sl", 4)
    assert poset.covers == (
        ((4,), (3, 1)),
        ((3, 1), (2, 2)),
        ((2, 2), (2, 1, 1)),
        ((2, 1, 1), (1, 1, 1, 1)),
    )
    assert poset.indices == (10, 4, 2, 1, 0)
    assert type(poset.indices[-1]) is Fraction


def test_incomparable_pair_in_sl6():
    poset = build_poset("sl", 6)
    uppers = {u for u, _ in poset.covers}
    assert (4, 1, 1) in poset.nodes and (3, 3) in poset.nodes
    assert ((3, 3), (4, 1, 1)) not in poset.covers
    assert ((4, 1, 1), (3, 3)) not in poset.covers
    assert uppers  # sanity


def test_sp2_poset():
    poset = build_poset("sp", 2)
    assert poset.nodes == ((2,), (1, 1))
    assert poset.covers == (((2,), (1, 1)),)


def test_monotonicity_small_cases():
    assert monotonicity_holds(build_poset("sl", 4))
    assert monotonicity_holds(build_poset("sp", 6))
    assert monotonicity_holds(build_poset("so", 8))


def test_monotonicity_evaluates_each_orbit_index_once(monkeypatch):
    calls = []
    real = orbits.classical_index

    def counted(kind, p):
        calls.append(p)
        return real(kind, p)

    monkeypatch.setattr(orbits, "classical_index", counted)
    poset = build_poset("sl", 8)
    assert monotonicity_holds(poset)
    assert comparable_pairs_strict(poset)
    assert len(calls) <= len(poset.nodes) < len(poset.covers)


def test_monotonicity_sweep():
    for n in range(2, 13):
        assert monotonicity_holds(build_poset("sl", n))
        assert monotonicity_holds(build_poset("so", n))
        if n % 2 == 0:
            assert monotonicity_holds(build_poset("sp", n))


def test_comparable_pairs_sweep():
    for n in range(2, 11):
        assert comparable_pairs_strict(build_poset("sl", n))
        assert comparable_pairs_strict(build_poset("so", n))
        if n % 2 == 0:
            assert comparable_pairs_strict(build_poset("sp", n))


def test_comparable_pairs_scan_dominance_not_covers():
    # With the covers gone and 3,1,1,1 lifted above 3,2,1, which dominates
    # it, only a scan of dominance itself still finds the pair.
    poset = build_poset("sl", 6)
    indices = list(poset.indices)
    upper, lower = poset.nodes.index((3, 2, 1)), poset.nodes.index((3, 1, 1, 1))
    assert dominance_leq(poset.nodes[lower], poset.nodes[upper])
    indices[lower] = indices[upper] + 1
    broken = dataclasses.replace(poset, covers=(), indices=tuple(indices))
    assert monotonicity_holds(broken)  # no cover left to check
    assert not comparable_pairs_strict(broken)


def test_moves_match_dominance_for_sl():
    # Covers are the reduction of dominance, so moves generate dominance.
    for n in range(2, 19):
        poset = build_poset("sl", n)
        moves = {(p, m) for p in poset.nodes for m in degeneration_moves(p)}
        assert set(poset.covers) == moves, n


@pytest.mark.parametrize("kind", ["sl", "sp", "so"])
def test_covers_match_cubic_search(kind):
    for n in range(1, 15):
        if kind == "sp" and n % 2:
            continue
        poset = build_poset(kind, n)
        assert (poset.nodes, poset.covers) == cubic_poset(kind, n), (kind, n)


def test_move_that_is_not_a_cover_is_refused(monkeypatch):
    real_moves = orbits.degeneration_moves

    def moves_with_a_shortcut(p):
        extra = [(2, 2, 1, 1)] if p == (4, 2) else []  # dominated, not a cover
        return real_moves(p) + extra

    monkeypatch.setattr(orbits, "degeneration_moves", moves_with_a_shortcut)
    with pytest.raises(ArithmeticError):
        build_poset("sl", 6)


def test_very_even_partition_handled_once():
    nodes = enumerate_orbits("so", 8)
    assert nodes.count((4, 4)) == 1
    assert monotonicity_holds(build_poset("so", 8))


def test_dot_export():
    dot = poset_dot(build_poset("sl", 4))
    assert dot.startswith("digraph")
    assert '"4" [label="(4)\\nindex 10"];' in dot
    assert '"4" -> "3,1";' in dot
    assert dot.count("->") == 4


def test_poset_payload():
    payload = poset_payload(build_poset("sp", 4))
    assert payload["kind"] == "sp" and payload["n"] == 4
    assert payload["nodes"][0] == {"partition": [4], "index": "10"}
    assert all(set(c) == {"upper", "lower"} for c in payload["covers"])
