"""Closure order on nilpotent orbits of the classical algebras.

Orbits are admissible partitions ordered by dominance; for sl the covering
relations are exactly Brylawski's single box moves (a box moves from row i
down to row j where j = i + 1 or p_i = p_j + 2), and build_poset checks this
against the covers it finds.
The central fact checked here is that the sl2-index strictly decreases
toward the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, zip_longest

from .rootsystems import _require
from .sl2 import Partition, classical_index, normalize_partition, partition_is_admissible


def partitions_of(n: int, max_part: int | None = None):
    """All partitions of n in reverse-lexicographic (largest-first) order."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def enumerate_orbits(kind: str, n: int) -> list[Partition]:
    """Admissible partitions of n for the given classical kind."""
    if n < 1:
        raise ValueError("module dimension must be positive")
    if not partition_is_admissible(kind, (1,) * n):  # the zero orbit; sp pairs its 1s
        raise ValueError(f"{kind} requires an even module dimension")
    return [p for p in partitions_of(n) if partition_is_admissible(kind, p)]


def degeneration_moves(p: Partition) -> list[Partition]:
    """Partitions one box move below p, deduplicated: Brylawski's covers.

    A box moves from row i down to row j > i of the zero-padded partition
    when p_i - p_j = 2, or when j = i + 1 and p_i - p_j >= 2.
    """
    padded = normalize_partition(p) + (0,)
    seen: set[Partition] = set()
    for i, j in combinations(range(len(padded)), 2):
        gap = padded[i] - padded[j]
        if gap == 2 or (j == i + 1 and gap > 2):
            q = list(padded)
            q[i] -= 1
            q[j] += 1
            seen.add(tuple(sorted((x for x in q if x > 0), reverse=True)))
    return sorted(seen, reverse=True)


def dominance_leq(p: Partition, q: Partition) -> bool:
    """Whether p is below q in dominance order (same total assumed)."""
    lead = 0  # q's partial sum minus p's
    for a, b in zip_longest(p, q, fillvalue=0):
        lead += b - a
        if lead < 0:
            return False
    return lead == 0


@dataclass(frozen=True)
class OrbitPoset:
    kind: str
    n: int
    nodes: tuple[Partition, ...]
    covers: tuple[tuple[Partition, Partition], ...]  # (upper, lower) pairs
    indices: tuple[Fraction, ...]  # each node's sl2-index; 0 for the zero orbit


def build_poset(kind: str, n: int) -> OrbitPoset:
    """Admissible partitions of n under dominance, with covering relations
    and the index of each node.

    Reverse-lexicographic order is a linear extension of dominance, so every
    node below node j comes after it.  Filling the nodes from the last one
    up, each keeps the bitset of the nodes strictly below it; scanning the
    later nodes in order, a node not yet reached through an earlier find and
    dominated by j is a cover, and brings its own bitset.  For sl the covers
    must be the box moves from row i down to row j where j = i + 1 or
    p_i = p_j + 2 (Brylawski, 1973), as degeneration_moves makes them.
    """
    nodes = enumerate_orbits(kind, n)
    below = [0] * len(nodes)
    found: list[list[int]] = [[] for _ in nodes]
    for j in reversed(range(len(nodes))):
        reach = 0
        for k in range(j + 1, len(nodes)):
            if not reach >> k & 1 and dominance_leq(nodes[k], nodes[j]):
                found[j].append(k)
                reach |= 1 << k | below[k]
        below[j] = reach
    covers = [(nodes[j], nodes[k]) for j in range(len(nodes)) for k in found[j]]
    if kind == "sl":
        move_edges = {(p, m) for p in nodes for m in degeneration_moves(p)}
        _require(set(covers) == move_edges, "dominance covers are not the single moves")
    indices = tuple(classical_index(kind, p) if p[0] > 1 else Fraction(0) for p in nodes)
    return OrbitPoset(kind, n, tuple(nodes), tuple(covers), indices)


def monotonicity_holds(poset: OrbitPoset) -> bool:
    """Strict index decrease along every cover."""
    index = dict(zip(poset.nodes, poset.indices))
    return all(index[lower] < index[upper] for upper, lower in poset.covers)


def comparable_pairs_strict(poset: OrbitPoset) -> bool:
    """The stronger consequence: strict inequality for every comparable pair.

    The pairs come from a dominance scan of its own, not from the covers, so
    the check does not rest on how they were found.  A node can only
    dominate nodes after it in reverse-lexicographic order.
    """
    nodes, index = poset.nodes, poset.indices
    return all(
        index[k] < index[j]
        for j, p in enumerate(nodes)
        for k in range(j + 1, len(nodes))
        if dominance_leq(nodes[k], p)
    )


# -- exports -------------------------------------------------------------------


def _label(p: Partition) -> str:
    return ",".join(str(x) for x in p)


def poset_dot(poset: OrbitPoset) -> str:
    """Graphviz DOT rendering, one node per orbit labelled with its index."""
    lines = [f'digraph "{poset.kind}_{poset.n}_orbits" {{', "  rankdir=TB;"]
    for p, idx in zip(poset.nodes, poset.indices):
        lines.append(f'  "{_label(p)}" [label="({_label(p)})\\nindex {idx}"];')
    for upper, lower in poset.covers:
        lines.append(f'  "{_label(upper)}" -> "{_label(lower)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_payload(poset: OrbitPoset) -> dict:
    """JSON-ready description of the poset with per-node indices."""
    return {
        "kind": poset.kind,
        "n": poset.n,
        "nodes": [
            {"partition": list(p), "index": str(idx)}
            for p, idx in zip(poset.nodes, poset.indices)
        ],
        "covers": [
            {"upper": list(u), "lower": list(l)} for u, l in poset.covers
        ],
    }
