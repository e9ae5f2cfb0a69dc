"""Dynkin indices of finite-dimensional representations.

The index of an irreducible module is dim(V)/dim(g) times the invariant
pairing of the highest weight with itself shifted by twice the Weyl vector,
evaluated in the normalisation where long roots have squared length 2.  It
is additive over direct sums and always an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .rootsystems import (
    EXCEPTIONAL,
    LieType,
    RootSystem,
    _int_bilinear,
    _integer,
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
    weight = tuple(_integer(w, "weight coordinate") for w in weight)
    if len(weight) != rs.rank:
        raise ValueError(
            f"weight has {len(weight)} coordinates, {rs.lie_type} has rank {rs.rank}"
        )
    if any(w < 0 for w in weight):
        raise ValueError("highest weight coordinates must be nonnegative")
    return weight


def weyl_dimension(rs: RootSystem, weight) -> int:
    """Dimension of the irreducible module with the given highest weight.

    Product over positive roots of (lambda+rho, gamma)/(rho, gamma), in
    integers scaled by ``_scale``.  The denominator is a type constant
    stored by the root system; each numerator pairing is its parent root's
    plus (lambda_i + 1) * d_i, so the result is exact for arbitrarily large
    weights.
    """
    return _weyl_dimension(rs, _check_weight(rs, weight))


def _weyl_dimension(rs: RootSystem, weight: tuple[int, ...]) -> int:
    # weyl_dimension on a weight that _check_weight has already returned.
    shifted = [(wi + 1) * d for wi, d in zip(weight, rs._int_norms)]
    dim, rem = divmod(prod(rs._scaled_root_pairings(shifted)), rs._rho_product)
    _require(rem == 0, f"Weyl dimension of {weight} in {rs.lie_type} is not an integer")
    return dim


def dynkin_index(rs: RootSystem, weight) -> RepIndexReport:
    """Index of the irreducible module with the given highest weight.

    dim(V) (lambda, lambda + 2 rho) / dim(g), with the form summed in
    integers over the weight Gram matrix scaled by det C * ``_scale``, so
    the quotient is one Fraction.  The zero weight yields the trivial
    module, reported with index 0.
    """
    weight = _check_weight(rs, weight)
    if not any(weight):
        return RepIndexReport(1, Fraction(0), True)
    dim = _weyl_dimension(rs, weight)
    shifted = [w + 2 for w in weight]
    form = _int_bilinear(rs._weight_gram, weight, shifted)
    value = Fraction(dim * form, rs.dimension * rs._det * rs._scale)
    return RepIndexReport(dim, value, value.denominator == 1)


def adjoint_index(rs: RootSystem) -> int:
    """Index of the adjoint module: twice the dual Coxeter number."""
    return 2 * rs.dual_coxeter_number()


def embedding_index(ind_sub: Fraction, ind_ambient: Fraction) -> Fraction:
    """Index of a subalgebra from the two indices of one test module.

    Any nontrivial module M of the ambient algebra works: the subalgebra
    index is ind(sub, M) / ind(ambient, M).
    """
    ind_ambient = Fraction(ind_ambient)
    if ind_ambient == 0:
        raise ValueError("ambient index is zero: the test module is trivial")
    return Fraction(ind_sub) / ind_ambient


def index_chain_rule_holds(
    rs_mid: RootSystem, ind_sub_mid, ind_mid_big, ind_sub_big
) -> bool:
    """Check ind(s,M) = ind(s,g) * ind(g,M) / (2 h*(g)) for a chain s < g.

    Here rs_mid is the root system of the intermediate algebra g, the second
    and third arguments are the indices of g as an s-module and of M as a
    g-module, and the last is the index of M as an s-module.
    """
    lhs = Fraction(ind_sub_big)
    rhs = (
        Fraction(ind_sub_mid)
        * Fraction(ind_mid_big)
        / (2 * rs_mid.dual_coxeter_number())
    )
    return lhs == rhs


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
    _require(
        weyl_dimension(build(lt), weight) == dim, f"{lt} module is not {dim}-dimensional"
    )
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
    _require(value == expected, f"{lt} embedding index {value}, expected {expected}")
    return int(value)


def exceptional_simplest_indices() -> dict[str, int]:
    """All five recomputed exceptional embedding indices."""
    return {key: simplest_embedding_index(LieType.parse(key)) for key in EXCEPTIONAL}
