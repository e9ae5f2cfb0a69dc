"""Dynkin indices of irreducible representations."""

import re
from fractions import Fraction
from itertools import product

import pytest

from dynkindex.reps import (
    adjoint_index,
    dynkin_index,
    embedding_index,
    exceptional_simplest_indices,
    index_chain_rule_holds,
    simplest_embedding_index,
    simplest_representation,
    weyl_dimension,
)
from dynkindex.rootsystems import LieType, build, classical_type
from dynkindex.sl2 import branch_adjoint, module_index


def sl_dimension_oracle(weight):
    """A-type dimension via the ratio product over row pairs of the
    associated partition; independent of the positive-root product."""
    n = len(weight) + 1
    mu = [sum(weight[i:]) for i in range(len(weight))] + [0]
    num, den = 1, 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= mu[i] - mu[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    assert r == 0
    return q


def test_weyl_dimension_against_sl_oracle():
    for rank in range(1, 5):
        rs = build(LieType("A", rank))
        for weight in product(range(4), repeat=rank):
            assert weyl_dimension(rs, weight) == sl_dimension_oracle(weight)


KNOWN_DIMENSIONS = [
    ("A1", (2,), 3),
    ("A2", (1, 1), 8),
    ("A3", (0, 1, 0), 6),
    ("B3", (1, 0, 0), 7),
    ("B3", (0, 0, 1), 8),      # spinor
    ("C3", (1, 0, 0), 6),
    ("D4", (1, 0, 0, 0), 8),
    ("D5", (0, 0, 0, 0, 1), 16),
    ("G2", (1, 0), 7),
    ("G2", (0, 1), 14),
    ("F4", (0, 0, 0, 1), 26),
    ("E6", (1, 0, 0, 0, 0, 0), 27),
    ("E7", (0, 0, 0, 0, 0, 0, 1), 56),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 248),
]


@pytest.mark.parametrize("label,weight,dim", KNOWN_DIMENSIONS)
def test_known_dimensions(label, weight, dim):
    assert weyl_dimension(build(label), weight) == dim


def test_sl2_module_dimensions_and_indices():
    a1 = build("A1")
    for d in range(0, 9):
        report = dynkin_index(a1, (d,))
        assert report.dimension == d + 1
        # C(d+2, 3)
        assert report.index == (d + 2) * (d + 1) * d // 6
        assert report.is_integer


def test_index_examples():
    assert dynkin_index(build("A1"), (2,)).index == 4
    e6 = dynkin_index(build("E6"), (1, 0, 0, 0, 0, 0))
    assert (e6.dimension, e6.index) == (27, 6)
    a2 = dynkin_index(build("A2"), (1, 1))
    assert (a2.dimension, a2.index) == (8, 6)


def test_zero_weight_is_trivial():
    report = dynkin_index(build("B3"), (0, 0, 0))
    assert report.dimension == 1 and report.index == 0


def test_bad_weights_rejected():
    with pytest.raises(ValueError):
        weyl_dimension(build("A2"), (1, -1))
    with pytest.raises(ValueError):
        weyl_dimension(build("A2"), (1, 1, 1))


@pytest.mark.parametrize("bad", [1.9, Fraction(1, 2), "1"], ids=repr)
def test_weight_coordinates_must_be_integers(bad):
    message = re.escape(f"weight coordinate {bad!r} is not an integer")
    with pytest.raises(ValueError, match=message):
        dynkin_index(build("A2"), (bad, 0))
    with pytest.raises(ValueError, match=message):
        weyl_dimension(build("A2"), (0, bad))


def test_adjoint_index_is_twice_dual_coxeter():
    assert adjoint_index(build("A2")) == 6
    assert adjoint_index(build("C3")) == 8
    assert adjoint_index(build("E8")) == 60
    for label in ("A1", "A4", "B3", "C4", "D5", "E6", "E7", "F4", "G2"):
        rs = build(label)
        theta_weight = rs.coroot_pairings(rs.theta.coords)
        report = dynkin_index(rs, theta_weight)
        assert report.dimension == rs.dimension
        assert report.index == adjoint_index(rs)


def test_defining_module_indices_for_sp_and_so():
    for n in range(2, 9):
        rs = build(classical_type("sp", 2 * n))
        assert dynkin_index(rs, (1,) + (0,) * (rs.rank - 1)).index == 1
    for dim in range(5, 17):
        rs = build(classical_type("so", dim))
        assert dynkin_index(rs, (1,) + (0,) * (rs.rank - 1)).index == 2
    for dim in range(2, 10):
        rs = build(classical_type("sl", dim))
        assert dynkin_index(rs, (1,) + (0,) * (rs.rank - 1)).index == 1


def test_embedding_index_quotients():
    assert embedding_index(1, 1) == 1
    assert embedding_index(2, 1) == 2
    assert embedding_index(60, 2) == 30
    with pytest.raises(ValueError):
        embedding_index(3, 0)


def test_index_additivity_contract():
    # index of a direct sum is the sum of the component reports
    a1 = build("A1")
    reports = [dynkin_index(a1, (d,)) for d in (16, 8)]
    assert sum(r.index for r in reports) == 936


def test_chain_rule():
    # principal sl2 inside sl4, probed on the defining module
    a3 = build("A3")
    ind_in_adjoint = module_index(branch_adjoint("sl", (4,)))
    assert ind_in_adjoint == 80
    assert index_chain_rule_holds(a3, ind_in_adjoint, 1, 10)
    assert not index_chain_rule_holds(a3, ind_in_adjoint, 1, 11)
    # the identity embedding collapses the rule
    for label in ("A2", "B3", "G2"):
        rs = build(label)
        assert index_chain_rule_holds(rs, adjoint_index(rs), 7, 7)
    # principal sl2 inside sp6
    c3 = build("C3")
    assert module_index(branch_adjoint("sp", (6,))) == 280
    assert index_chain_rule_holds(c3, 280, 1, 35)


def test_simplest_representations():
    expected = {"E6": 27, "E7": 56, "E8": 248, "F4": 26, "G2": 7}
    for label, dim in expected.items():
        weight, d, kind = simplest_representation(LieType.parse(label))
        assert d == dim
        assert weyl_dimension(build(label), weight) == dim
        assert kind in ("sl", "sp", "so")
    with pytest.raises(ValueError):
        simplest_representation(LieType.parse("B4"))


def test_exceptional_embedding_indices():
    assert simplest_embedding_index(LieType.parse("E7")) == 12
    assert simplest_embedding_index(LieType.parse("F4")) == 3
    assert simplest_embedding_index(LieType.parse("G2")) == 1
    assert exceptional_simplest_indices() == {
        "E6": 6, "E7": 12, "E8": 30, "F4": 3, "G2": 1,
    }


def test_integrality_of_small_weights():
    for label in ("A4", "B4", "C4", "D4", "F4", "G2"):
        rs = build(label)
        for weight in product(range(3), repeat=rs.rank):
            if not any(weight):
                continue
            report = dynkin_index(rs, weight)
            assert report.is_integer, (label, weight, report.index)


def test_integrality_exhaustive_up_to_rank_three():
    for label in ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"):
        rs = build(label)
        for weight in product(range(4), repeat=rs.rank):
            if any(weight):
                assert dynkin_index(rs, weight).is_integer, (label, weight)


def test_integrality_sampled_at_high_rank():
    # corners of the coordinate box at ranks where the full sweep is too big
    for label in ("A8", "B8", "C7", "D8", "E7", "E8"):
        rs = build(label)
        weights = []
        for i in range(rs.rank):
            for vi in (1, 2, 3):
                base = [0] * rs.rank
                base[i] = vi
                weights.append(tuple(base))
                for j in range(i + 1, rs.rank):
                    for vj in (1, 3):
                        two = list(base)
                        two[j] = vj
                        weights.append(tuple(two))
        weights.append((3,) * rs.rank)
        for weight in weights:
            assert dynkin_index(rs, weight).is_integer, (label, weight)


def test_multiplicativity_of_simplest_embeddings():
    # table value times the index of the classical defining module equals the
    # index of the exceptional algebra on that same module
    for label, table_value in exceptional_simplest_indices().items():
        weight, dim, kind = simplest_representation(LieType.parse(label))
        top = dynkin_index(build(label), weight).index
        target = build(classical_type(kind, dim))
        vector = (1,) + (0,) * (target.rank - 1)
        assert top == table_value * dynkin_index(target, vector).index


def test_large_weight_is_exact():
    # exactness survives astronomically large dimensions
    rs = build("A2")
    report = dynkin_index(rs, (10**6, 10**6))
    assert report.is_integer
    assert report.dimension == sl_dimension_oracle((10**6, 10**6))
