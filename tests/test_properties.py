"""Property-based checks on randomly drawn partitions and module labels."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dynkindex.identities import instance, lhs
from dynkindex.orbits import degeneration_moves, dominance_leq
from dynkindex.sl2 import (
    classical_index,
    clebsch_gordan,
    index_via_adjoint,
    module_dimension,
    normalize_partition,
)

partitions = st.lists(st.integers(1, 40), min_size=1, max_size=10).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@given(partitions)
def test_sl_identity_formal(p):
    assert instance("sl", p).rhs == lhs(p)


@given(partitions)
def test_sp_identity_formal(p):
    assert instance("sp", p).rhs == lhs(p)


@given(partitions)
def test_so_identity_formal(p):
    if sum(p) != 2:
        assert instance("so", p).rhs == lhs(p)


@given(st.integers(0, 60), st.integers(0, 60))
def test_clebsch_gordan_dimension(a, b):
    assert module_dimension(clebsch_gordan(a, b)) == (a + 1) * (b + 1)


@given(partitions)
def test_moves_go_strictly_down(p):
    for q in degeneration_moves(p):
        assert sum(q) == sum(p)
        assert q != p and dominance_leq(q, p)


@given(partitions)
@settings(max_examples=60)
def test_route_equivalence_on_symplectised_partitions(p):
    # duplicating every odd part produces an admissible symplectic partition
    parts = []
    for part in p:
        parts.extend([part, part] if part % 2 else [part])
    q = normalize_partition(parts)
    if q[0] >= 2:
        assert classical_index("sp", q) == index_via_adjoint("sp", q)


@given(partitions)
@settings(max_examples=60)
def test_route_equivalence_on_orthogonalised_partitions(p):
    # duplicating every even part produces an admissible orthogonal partition
    parts = []
    for part in p:
        parts.extend([part, part] if part % 2 == 0 else [part])
    q = normalize_partition(parts)
    if q[0] >= 2 and sum(q) > 2:
        value = classical_index("so", q)
        assert value == index_via_adjoint("so", q)
        assert value.denominator == 1


@given(partitions)
def test_index_is_monotone_under_single_moves(p):
    q = normalize_partition(p)
    if q[0] < 2:
        return
    base = classical_index("sl", q)
    for m in degeneration_moves(q):
        if m[0] >= 2:
            assert classical_index("sl", m) < base
