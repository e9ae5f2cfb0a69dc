"""Three families of binomial identities parameterised by partitions.

Each identity states that the sl2-index computed on the defining module of
sl/sp/so equals the index computed through the adjoint module of the same
algebra, expanded explicitly with the Clebsch-Gordan rule and its symmetric
and exterior-square variants.  The statements are formal in the parts, so
the sweeps run over all partitions, not only the parity-admissible ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .orbits import partitions_of
from .sl2 import KINDS, Partition, binom3, normalize_partition

FAMILIES = KINDS


def lhs(p: Partition) -> int:
    """Index on the defining module: sum of C(part+1, 3)."""
    return sum(binom3(part + 1) for part in normalize_partition(p))


def _cross_terms(p: Partition) -> int:
    # sum over unordered pairs i < j of the Clebsch-Gordan expansion
    total = 0
    for i, pi in enumerate(p):
        for pj in p[i + 1 :]:
            total += sum(binom3(pi + pj - 2 * k) for k in range(pj))
    return total


def rhs_sl(p: Partition) -> Fraction:
    """Index through sl(V): cross terms twice plus the squares V_i (x) V_i, over 2 dim V."""
    p = normalize_partition(p)
    diag = sum(sum(binom3(2 * pi - 2 * k) for k in range(pi)) for pi in p)
    return Fraction(2 * _cross_terms(p) + diag, 2 * sum(p))


def rhs_sp(p: Partition) -> Fraction:
    """Index through sp(V): cross terms plus symmetric squares over dim V + 2."""
    p = normalize_partition(p)
    diag = sum(
        sum(binom3(2 * pi - 4 * k) for k in range((pi - 1) // 2 + 1)) for pi in p
    )
    return Fraction(_cross_terms(p) + diag, sum(p) + 2)


def rhs_so(p: Partition) -> Fraction:
    """Index through so(V): cross terms plus exterior squares over dim V - 2."""
    p = normalize_partition(p)
    if sum(p) == 2:
        raise ValueError("degenerate denominator: partitions of 2 are skipped for so")
    diag = sum(
        sum(binom3(2 * pi + 2 - 4 * k) for k in range(1, pi // 2 + 1)) for pi in p
    )
    return Fraction(_cross_terms(p) + diag, sum(p) - 2)


_RHS = {"sl": rhs_sl, "sp": rhs_sp, "so": rhs_so}


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
    return IdentityInstance(family, p, lhs(p), _RHS[family](p))


def sweep(family: str, max_n: int) -> list[IdentityInstance]:
    """One instance per partition of every n up to max_n.

    Partitions of 2 are skipped for so (zero denominator); ordering is by n,
    then reverse-lexicographic, so output is deterministic.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown identity family {family!r}")
    out = []
    for n in range(1, max_n + 1):
        if family == "so" and n == 2:
            continue
        for p in partitions_of(n):
            out.append(instance(family, p))
    return out


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
