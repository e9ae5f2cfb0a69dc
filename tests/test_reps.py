"""Dynkin indices of irreducible representations."""

import re
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from dynkindex import reps, rootsystems
from dynkindex.reps import (
    _lattice_reports,
    dynkin_index,
    embedding_index,
    simplest_embedding_index,
    simplest_representation,
    weyl_dimension,
)
from dynkindex.rootsystems import (
    EXCEPTIONAL,
    LieType,
    RootSystem,
    all_types,
    build,
    classical_kind,
    classical_type,
)
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
    for lt in all_types(8):
        rs = build(lt)
        report = dynkin_index(rs, (0,) * rs.rank)
        assert (report.dimension, report.index, report.is_integer) == (1, 0, True), lt


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


def test_a_weight_is_read_once_from_any_iterable():
    rs = build("A2")
    assert dynkin_index(rs, iter((1, 1))) == dynkin_index(rs, [1, 1])
    with pytest.raises(ValueError, match=re.escape("weight coordinate 1.5 is not an integer")):
        dynkin_index(rs, (w for w in (0, 1.5)))


def test_adjoint_index_is_twice_dual_coxeter():
    assert 2 * build("A2").dual_coxeter_number == 6
    assert 2 * build("C3").dual_coxeter_number == 8
    assert 2 * build("E8").dual_coxeter_number == 60
    for label in ("A1", "A4", "B3", "C4", "D5", "E6", "E7", "F4", "G2"):
        rs = build(label)
        theta_weight = rs.coroot_pairings(rs.theta.coords)
        report = dynkin_index(rs, theta_weight)
        assert report.dimension == rs.dimension
        assert report.index == 2 * rs.dual_coxeter_number


def test_defining_module_indices_for_sp_and_so():
    # The kind record's vector_index is the index of the defining module; the
    # embedding check of the smallest exceptional modules divides by it
    # without building the target, so its five targets are walked here.
    sizes = [("sp", 2 * n) for n in range(2, 9)] + [("so", d) for d in range(5, 17)]
    sizes += [("sl", d) for d in range(2, 10)]
    sizes += [(kind, dim) for _, dim, kind, _ in reps._SIMPLEST.values()]
    targets = []
    for kind, dim in sizes:
        rs = build(classical_type(kind, dim))
        targets.append(str(rs.lie_type))
        index = dynkin_index(rs, (1,) + (0,) * (rs.rank - 1)).index
        assert index == classical_kind(kind).vector_index, (kind, dim)
    assert targets[-5:] == ["A26", "C28", "D124", "D13", "B3"]


def test_a_wrong_kind_record_is_refused_by_the_embedding_check(monkeypatch):
    so = rootsystems._KIND_TABLE["so"]
    monkeypatch.setitem(rootsystems._KIND_TABLE, "so", replace(so, vector_index=1))
    simplest_representation.cache_clear()
    with pytest.raises(ArithmeticError, match="^E8 embedding index 60, expected 30$"):
        simplest_representation(LieType.parse("E8"))


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
    # ind(s, M) = ind(s, g) * ind(g, M) / (2 h*(g)) for a chain s < g and a
    # g-module M; principal sl2 inside sl4, probed on the defining module
    a3 = build("A3")
    ind_in_adjoint = module_index(branch_adjoint("sl", (4,)))
    assert ind_in_adjoint == 80
    assert Fraction(10) == Fraction(ind_in_adjoint) * 1 / (2 * a3.dual_coxeter_number)
    assert Fraction(11) != Fraction(ind_in_adjoint) * 1 / (2 * a3.dual_coxeter_number)
    # principal sl2 in A2, B3 and G2, probed on the first fundamental module
    # M, where the principal nilpotent is one Jordan block: ind(s, M) from
    # dim M alone, ind(s, g) from Kostant's decomposition over the exponents
    # and ind(g, M) from the weight
    for label, expected in (("A2", (4, 24, 1)), ("B3", (56, 280, 2)), ("G2", (56, 224, 2))):
        rs = build(label)
        ind_g_m = dynkin_index(rs, (1,) + (0,) * (rs.rank - 1))
        ind_s_m = comb(ind_g_m.dimension + 1, 3)
        ind_s_g = sum(comb(2 * m + 2, 3) for m in rs.exponents)
        hstar = rs.dual_coxeter_number
        assert Fraction(ind_s_m) == Fraction(ind_s_g) * ind_g_m.index / (2 * hstar), label
        assert (ind_s_m, ind_s_g, ind_g_m.index) == expected
    # principal sl2 inside sp6
    c3 = build("C3")
    assert module_index(branch_adjoint("sp", (6,))) == 280
    assert Fraction(35) == Fraction(280) * 1 / (2 * c3.dual_coxeter_number)


def test_simplest_representations():
    expected = {"E6": 27, "E7": 56, "E8": 248, "F4": 26, "G2": 7}
    for label, dim in expected.items():
        weight, d, kind, _ = simplest_representation(LieType.parse(label))
        assert d == dim
        assert weyl_dimension(build(label), weight) == dim
        assert kind in ("sl", "sp", "so")
    with pytest.raises(ValueError):
        simplest_representation(LieType.parse("B4"))


def test_simplest_representation_formats_its_message_only_on_failure():
    class Unformattable(LieType):
        def __format__(self, spec):
            raise AssertionError("formatted the message of a check that held")

    assert simplest_representation(Unformattable("E", 6))[1] == 27


def test_exceptional_embedding_indices():
    assert simplest_embedding_index(LieType.parse("E7")) == 12
    assert simplest_embedding_index(LieType.parse("F4")) == 3
    assert simplest_embedding_index(LieType.parse("G2")) == 1
    assert {k: simplest_embedding_index(LieType.parse(k)) for k in EXCEPTIONAL} == {
        "E6": 6, "E7": 12, "E8": 30, "F4": 3, "G2": 1,
    }


def test_a_first_simplest_call_walks_each_module_once(monkeypatch):
    # One cached record per type holds the module's dimension and embedding
    # index, both read off one walk of its roots and the target kind's record:
    # no root system is built or walked for the classical target.
    assert not hasattr(simplest_embedding_index, "cache_clear")
    simplest_representation.cache_clear()
    types = [LieType.parse(label) for label in EXCEPTIONAL]
    for lt in types:
        build(lt)  # construction walks the roots once of its own
    walks, built = [], []

    def counted(self, shifted):
        walks.append(str(self.lie_type))
        return walk(self, shifted)

    def fetched(lt):
        built.append(str(lt))
        return fetch(lt)

    walk, fetch = RootSystem._scaled_root_pairings, rootsystems._build_cached
    entries = fetch.cache_info().currsize
    monkeypatch.setattr(RootSystem, "_scaled_root_pairings", counted)
    monkeypatch.setattr(rootsystems, "_build_cached", fetched)
    for lt in types:
        record = simplest_representation(lt)
        assert simplest_embedding_index(lt) == record[3]
    assert walks == list(EXCEPTIONAL)
    assert built == list(EXCEPTIONAL)
    assert fetch.cache_info().currsize == entries


def test_integrality_of_small_weights():
    for label in ("A4", "B4", "C4", "D4", "F4", "G2"):
        rs = build(label)
        for weight in product(range(3), repeat=rs.rank):
            if not any(weight):
                continue
            report = dynkin_index(rs, weight)
            assert report.is_integer, (label, weight, report.index)


def batch_triple(rs, weight):
    """The lattice batch's triple for one weight, read off dynkin_index."""
    report = dynkin_index(rs, weight)
    return weight, report.dimension, report.index * rs._index_denominator


def test_lattice_batch_equals_dynkin_index_on_the_default_set():
    # Every weight the default integrality check sweeps, zero weights
    # included, as (weight, dimension, index numerator) triples in the order
    # of product.
    count = 0
    for lt in all_types(6):
        rs = build(lt)
        expected = [batch_triple(rs, w) for w in product(range(3), repeat=rs.rank)]
        assert list(_lattice_reports(rs, 3)) == expected, lt
        count += len(expected)
    assert count == 13917


@pytest.mark.parametrize("top", [0, 1, 2, 4])
def test_lattice_batch_equals_dynkin_index_at_other_tops(top):
    # Top 0 yields nothing, also at rank 1, where the walk's prefixes are
    # one empty tuple.  F4 and E6 at top 4 reach the leaf value 3, and F4's
    # root columns have a Gram matrix with two root lengths.
    for label in ("A1", "G2", "B3", "D4", "F4", "E6"):
        rs = build(label)
        expected = [batch_triple(rs, w) for w in product(range(top), repeat=rs.rank)]
        assert len(expected) == top**rs.rank
        assert list(_lattice_reports(rs, top)) == expected, label


def test_lattice_batch_is_a_computation_of_its_own(monkeypatch):
    # The equality tests above compare two computations only while the
    # batch neither calls dynkin_index nor walks the roots per weight: it
    # walks them once for rho and once for each column.
    def refuse(*args):
        raise AssertionError("the lattice batch called dynkin_index")

    walks = []
    scaled_root_pairings = RootSystem._scaled_root_pairings

    def counted(rs, shifted):
        walks.append(rs)
        return scaled_root_pairings(rs, shifted)

    monkeypatch.setattr(reps, "dynkin_index", refuse)
    monkeypatch.setattr(RootSystem, "_scaled_root_pairings", counted)
    for label in ("B3", "E6"):
        rs = build(label)
        walks.clear()
        reports = list(_lattice_reports(rs, 3))
        assert len(reports) == 3**rs.rank, label
        assert 0 < len(walks) <= rs.rank + 1, label


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
    indices = {k: simplest_embedding_index(LieType.parse(k)) for k in EXCEPTIONAL}
    for label, table_value in indices.items():
        weight, dim, kind, _ = simplest_representation(LieType.parse(label))
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
