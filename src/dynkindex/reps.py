"""Dynkin indices of finite-dimensional representations.

The index of an irreducible module is dim(V)/dim(g) times the invariant
pairing of the highest weight with itself shifted by twice the Weyl vector,
evaluated in the normalisation where long roots have squared length 2.  It
is additive over direct sums and always an integer.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from operator import add, mul

from .rootsystems import (
    LieType,
    RootSystem,
    _integers,
    _require,
    build,
    classical_type,
)


@dataclass(frozen=True)
class RepIndexReport:
    dimension: int
    index: Fraction
    is_integer: bool


def _check_weight(rs: RootSystem, weight) -> tuple[int, ...]:
    weight = tuple(_integers(weight, "weight coordinate"))
    if len(weight) != rs.rank:
        raise ValueError(
            f"weight has {len(weight)} coordinates, {rs.lie_type} has rank {rs.rank}"
        )
    if min(weight) < 0:
        raise ValueError("highest weight coordinates must be nonnegative")
    return weight


def weyl_dimension(rs: RootSystem, weight) -> int:
    """Dimension of the irreducible module with the given highest weight.

    Product over positive roots of (lambda+rho, gamma)/(rho, gamma), in
    integers scaled by the root-length ratio ``r``.  The denominator is a
    type constant stored by the root system; each numerator pairing is its
    parent root's plus (lambda_i + 1) * d_i, so the result is exact for
    arbitrarily large weights.
    """
    return dynkin_index(rs, weight).dimension


def dynkin_index(rs: RootSystem, weight) -> RepIndexReport:
    """Index of the irreducible module with the given highest weight.

    dim(V) (lambda, lambda + 2 rho) / dim(g), from the one root walk that
    gives the dimension: as sum_{gamma > 0} (mu, gamma)^2 = h* (mu, mu) (the
    Killing form), the squared scaled pairings (lambda + rho, gamma) less the
    stored (rho, gamma) ones sum to r^2 h* (lambda, lambda + 2 rho).  The
    zero weight yields the trivial module: dimension 1, index 0.
    """
    weight = _check_weight(rs, weight)
    shifted = list(map(add, map(mul, weight, rs._int_norms), rs._int_norms))
    return _index_report(rs, weight, rs._scaled_root_pairings(shifted))


def _index_report(rs: RootSystem, weight: tuple[int, ...], pairings: list[int]) -> RepIndexReport:
    # The one exact kernel, from the pairings r * (lambda + rho, gamma) over
    # the positive roots to the dimension and the index.
    dim, rem = divmod(prod(pairings), rs._rho_product)
    _require(rem == 0, "Weyl dimension of {} in {} is not an integer", weight, rs.lie_type)
    form = sum(map(mul, pairings, pairings)) - rs._rho_square_sum
    value = Fraction(dim * form, rs._index_denominator)
    return RepIndexReport(dim, value, value.denominator == 1)


def _lattice_reports(rs: RootSystem, top: int) -> Iterator[tuple[tuple[int, ...], RepIndexReport]]:
    """(weight, dynkin_index(rs, weight)) for every weight of
    product(range(top), repeat=rank), in that order.

    The pairings are affine in the weight: raising lambda_i by one adds
    column i, root coordinate i times r * d_i, to the pairings of rho.  The
    weights are walked as a prefix tree, depth first: a node at depth i
    fixes lambda_1..lambda_i, and its children differ by column i, one
    vector addition each.  The stack holds at most (top - 1) * rank nodes.
    """
    rank = rs.rank
    columns = [
        rs._scaled_root_pairings([d if j == i else 0 for j in range(rank)])
        for i, d in enumerate(rs._int_norms)
    ]
    stack = [(0, rs._scaled_root_pairings(rs._int_norms))]
    for weight in product(range(top), repeat=rank):
        depth, pairings = stack.pop()
        for level in range(depth, rank):  # down the first children to a leaf
            siblings = [pairings]
            for _ in range(1, top):
                siblings.append(list(map(add, siblings[-1], columns[level])))
            stack += [(level + 1, vector) for vector in reversed(siblings[1:])]
        yield weight, _index_report(rs, weight, pairings)


def embedding_index(ind_sub: Fraction, ind_ambient: Fraction) -> Fraction:
    """Index of a subalgebra from the two indices of one test module.

    Any nontrivial module M of the ambient algebra works: the subalgebra
    index is ind(sub, M) / ind(ambient, M).
    """
    ind_ambient = Fraction(ind_ambient)
    if ind_ambient == 0:
        raise ValueError("ambient index is zero: the test module is trivial")
    return Fraction(ind_sub) / ind_ambient


# Smallest faithful representations of the exceptional algebras, as
# fundamental-weight labels in Bourbaki numbering, with their dimension, the
# classical target they embed into and the index of that embedding.  Both the
# dimension and the index are recomputed and checked, so a numbering mistake
# here cannot survive.
_SIMPLEST = {
    "E6": ((1, 0, 0, 0, 0, 0), 27, "sl", 6),
    "E7": ((0, 0, 0, 0, 0, 0, 1), 56, "sp", 12),
    "E8": ((0, 0, 0, 0, 0, 0, 0, 1), 248, "so", 30),
    "F4": ((0, 0, 0, 1), 26, "so", 3),
    "G2": ((1, 0), 7, "so", 1),
}


def simplest_representation(lt: LieType) -> tuple[tuple[int, ...], int, str]:
    """Highest weight, dimension and classical target of the smallest
    faithful module of an exceptional algebra."""
    key = str(lt)
    if key not in _SIMPLEST:
        raise ValueError(f"{lt} is not exceptional")
    weight, dim, kind, _ = _SIMPLEST[key]
    _require(weyl_dimension(build(lt), weight) == dim, "{} module is not {}-dimensional", lt, dim)
    return weight, dim, kind


@lru_cache(maxsize=None)
def simplest_embedding_index(lt: LieType) -> int:
    """Index of the embedding of an exceptional algebra defined by its
    smallest faithful module, recomputed from both sides of the quotient."""
    weight, dim, kind = simplest_representation(lt)
    ind_top = dynkin_index(build(lt), weight).index
    target = build(classical_type(kind, dim))
    vector = (1,) + (0,) * (target.rank - 1)
    ind_target = dynkin_index(target, vector).index
    value = embedding_index(ind_top, ind_target)
    expected = _SIMPLEST[str(lt)][3]
    _require(value == expected, "{} embedding index {}, expected {}", lt, value, expected)
    return int(value)

