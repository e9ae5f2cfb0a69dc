"""Three families of binomial identities parameterised by partitions.

Each identity states that the sl2-index of the defining module V of sl/sp/so
(lhs) equals the index of the adjoint module, the sum of the squares S of V
in rootsystems.ClassicalKind.squares, over its ratio to ind V.  With ind
Sym^2 V = (n + 2) ind V and ind Lambda^2 V = (n - 2) ind V (n = dim V), that is
rhs = sum_S (cross + diag_S) / sum_S (n +- 2), where cross is the explicit
Clebsch-Gordan expansion of each pair of parts and diag_S the square S of
each part.  The statements are formal in the parts, so the sweeps run over
all partitions, not only the parity-admissible ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .orbits import partitions_of
from .rootsystems import classical_kind
from .sl2 import Partition, binom3, normalize_partition


def lhs(p: Partition) -> int:
    """Index on the defining module: sum of C(part+1, 3)."""
    return sum(binom3(part + 1) for part in normalize_partition(p))


def _cross_terms(p: Partition) -> int:
    # the Clebsch-Gordan expansion of each unordered pair of parts pi >= pj
    return sum(binom3(pi + pj - 2 * k) for pi, pj in combinations(p, 2) for k in range(pj))


def _rhs(family: str, p: Partition) -> Fraction:
    """sum_S (cross + diag_S) / sum_S (n + 2s) over the squares S of the
    family, s = 1 for Sym^2 and -1 for Lambda^2; the square S of a part k
    adds C(2k - 1 + s - 4j, 3) for j = 0 .. k//2; ``instance`` normalises p."""
    squares = classical_kind(family).squares
    denominator = sum(sum(p) + 2 * s for s in squares)
    if denominator == 0:
        raise ValueError("degenerate denominator: partitions of 2 are skipped for so")
    diag = sum(
        binom3(2 * k - 1 + s - 4 * j) for s in squares for k in p for j in range(k // 2 + 1)
    )
    return Fraction(len(squares) * _cross_terms(p) + diag, denominator)


@dataclass(frozen=True)
class IdentityInstance:
    family: str
    partition: Partition
    lhs: int
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def instance(family: str, p: Partition) -> IdentityInstance:
    p = normalize_partition(p)
    return IdentityInstance(family, p, lhs(p), _rhs(family, p))


def sweep(family: str, max_n: int) -> list[IdentityInstance]:
    """One instance per partition of every n up to max_n.

    The n whose denominator sum_S (n + 2s) is 0 are skipped (so at n = 2);
    ordering is by n, then reverse-lexicographic, so output is deterministic.
    """
    squares = classical_kind(family).squares
    return [
        instance(family, p)
        for n in range(1, max_n + 1)
        if sum(n + 2 * s for s in squares) != 0
        for p in partitions_of(n)
    ]


def to_json_lines(instances) -> str:
    """Serialise sweep results, one JSON object per line."""
    lines = [
        json.dumps(
            {
                "family": inst.family,
                "partition": list(inst.partition),
                "lhs": str(inst.lhs),
                "rhs": str(inst.rhs),
                "holds": inst.holds,
            }
        )
        for inst in instances
    ]
    return "\n".join(lines) + ("\n" if lines else "")
