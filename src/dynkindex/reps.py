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
    classical_kind,
)


@dataclass(frozen=True)
class RepIndexReport:
    dimension: int
    index: Fraction
    is_integer: bool


def _check_weight(lt: LieType, weight) -> tuple[int, ...]:
    weight = tuple(_integers(weight, "weight coordinate"))
    if len(weight) != lt.rank:
        raise ValueError(f"weight has {len(weight)} coordinates, {lt} has rank {lt.rank}")
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
    product and the square sum are this walk's own; ``_index_numerator``
    divides.  The zero weight yields the trivial module: dimension 1, index 0.
    """
    weight = _check_weight(rs.lie_type, weight)
    shifted = list(map(add, map(mul, weight, rs._int_norms), rs._int_norms))
    pairings = rs._scaled_root_pairings(shifted)
    dim, numerator = _index_numerator(rs, weight, prod(pairings), sum(map(mul, pairings, pairings)))
    value = Fraction(numerator, rs._index_denominator)
    return RepIndexReport(dim, value, value.denominator == 1)


def _index_numerator(
    rs: RootSystem, weight: tuple[int, ...], product: int, square_sum: int
) -> tuple[int, int]:
    # The divide step both index computations share: from the product and square
    # sum of the r * (lambda + rho, gamma) to dim V and index * _index_denominator.
    dim, rem = divmod(product, rs._rho_product)
    _require(rem == 0, "Weyl dimension of {} in {} is not an integer", weight, rs.lie_type)
    return dim, dim * (square_sum - rs._rho_square_sum)


def _lattice_reports(rs: RootSystem, top: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(weight, dim V, index * rs._index_denominator) for every weight of
    product(range(top), repeat=rank), in that order: the integers that
    ``dynkin_index`` turns into its report, with no Fraction built.

    The pairings p = r (lambda + rho, gamma) are affine in the weight:
    raising lambda_i by one adds column c_i, root coordinate i times r d_i.
    The weights are walked as a prefix tree, depth first, each node at depth
    rank - 1 emitting its leaves in one loop.  A node multiplies in only the
    pairings its level i fixes, of the roots whose last nonzero coordinate
    is i, and passes the partial product down.  S = sum p^2 is a quadratic
    form in the weight, carried with D_j = p . c_j: an edge of level i adds
    2 D_i + G_ii to S and row i of the column Gram matrix G_ij = c_i . c_j
    to D.  ``dynkin_index`` squares its own pairings, so it shares only
    ``_index_numerator`` and the stored constants with this walk.
    """
    rank = rs.rank
    columns = [
        rs._scaled_root_pairings([d if j == i else 0 for j in range(rank)])
        for i, d in enumerate(rs._int_norms)
    ]
    gram = [[sum(map(mul, a, b)) for b in columns] for a in columns]
    # Level i fixes the first widths[i] pairings of its tail, passes the rest down.
    last = [max(i for i, c in enumerate(columns) if c[g]) for g in range(len(columns[0]))]
    order = sorted(range(len(last)), key=last.__getitem__)
    widths = [last.count(i) for i in range(rank)]
    tails = [[c[g] for g in order if last[g] >= i] for i, c in enumerate(columns)]
    rho = rs._scaled_root_pairings(rs._int_norms)
    dots = [sum(map(mul, rho, c)) for c in columns]
    stack = [(0, 1, rs._rho_square_sum, dots, [rho[g] for g in order])]
    for prefix in product(range(top), repeat=rank - 1):
        depth, partial, square, dots, tail = stack.pop()
        for level in range(depth, rank - 1):  # down the first children to depth rank - 1
            column, width, row = tails[level], widths[level], gram[level]
            nodes = []
            for value in range(top):
                if value:
                    tail = list(map(add, tail, column))
                    square += 2 * dots[level] + row[level]
                    dots = list(map(add, dots, row))
                nodes.append((level + 1, partial * prod(tail[:width]), square, dots, tail[width:]))
            stack += reversed(nodes[1:])
            _, partial, square, dots, tail = nodes[0]
        column, step, dot = tails[-1], gram[-1][-1], dots[-1]
        for value in range(top):
            if value:
                tail = list(map(add, tail, column))
                square += 2 * dot + step
                dot += step
            weight = prefix + (value,)
            dim, numerator = _index_numerator(rs, weight, partial * prod(tail), square)
            yield weight, dim, numerator


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
# classical target they embed into and the index of that embedding.  Both are
# checked: the dimension and ind(g, V) come from one walk of the module's roots,
# and the embedding index is ind(g, V) over the target kind's ind(V).
_SIMPLEST = {
    "E6": ((1, 0, 0, 0, 0, 0), 27, "sl", 6),
    "E7": ((0, 0, 0, 0, 0, 0, 1), 56, "sp", 12),
    "E8": ((0, 0, 0, 0, 0, 0, 0, 1), 248, "so", 30),
    "F4": ((0, 0, 0, 1), 26, "so", 3),
    "G2": ((1, 0), 7, "so", 1),
}


@lru_cache(maxsize=None)
def simplest_representation(lt: LieType) -> tuple[tuple[int, ...], int, str, int]:
    """Highest weight, dimension, classical target and embedding index of the
    smallest faithful module of an exceptional algebra: one record per type,
    checked on the first call and kept.  One walk of the module's roots gives
    its dimension and index, divided by the target kind's ``vector_index``.
    A refused type is not cached and raises on every call."""
    key = str(lt)
    if key not in _SIMPLEST:
        raise ValueError(f"{lt} is not exceptional; use classical_index")
    weight, dim, kind, expected = _SIMPLEST[key]
    module = dynkin_index(build(lt), weight)
    _require(module.dimension == dim, "{} module is not {}-dimensional", lt, dim)
    value = embedding_index(module.index, classical_kind(kind).vector_index)
    _require(value == expected, "{} embedding index {}, expected {}", lt, value, expected)
    return weight, dim, kind, expected


def simplest_embedding_index(lt: LieType) -> int:
    """Index of the embedding of an exceptional algebra defined by its
    smallest faithful module: the last field of its record."""
    return simplest_representation(lt)[3]
