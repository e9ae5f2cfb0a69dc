"""Partition formulas, branchings, principal/subregular data."""

import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynkindex import sl2
from dynkindex.rootsystems import LieType, build
from dynkindex.sl2 import (
    IndexReport,
    ab_closed_form,
    KINDS,
    branch_adjoint,
    branch_adjoint_multiplicities,
    branch_vector_rep,
    classical_index,
    clebsch_gordan,
    difference_observations,
    difference_observations_ok,
    index_via_adjoint,
    index_via_simplest_rep,
    mckay_data,
    module_dimension,
    module_index,
    normalize_partition,
    partition_is_admissible,
    principal_index,
    principal_minus_subregular,
    subregular_module,
    sweep_types,
    sym2,
    wedge2,
)
from dynkindex.orbits import enumerate_orbits

SRC = Path(__file__).resolve().parents[1] / "src"


def pairwise_branch_adjoint(kind, p):
    """Oracle: Clebsch-Gordan over every pair of parts, one at a time."""
    v = branch_vector_rep(normalize_partition(p))
    out = []
    if kind == "sl":
        for a in v:
            for b in v:
                out.extend(clebsch_gordan(a, b))
        out.remove(0)
    else:
        square = sym2 if kind == "sp" else wedge2
        for i, a in enumerate(v):
            for b in v[i + 1 :]:
                out.extend(clebsch_gordan(a, b))
            out.extend(square(a))
    return tuple(sorted(out, reverse=True))


def test_sweep_types_keep_the_conventional_ranks():
    expected = (
        [LieType("A", n) for n in range(2, 11)]
        + [LieType("B", n) for n in range(2, 11)]
        + [LieType("C", n) for n in range(3, 11)]
        + [LieType("D", n) for n in range(4, 11)]
        + [LieType.parse(label) for label in ("E6", "E7", "E8", "F4", "G2")]
    )
    assert list(sweep_types(10)) == expected


def test_index_report_routes_are_read_only():
    routes = {"a": Fraction(3)}
    report = IndexReport(Fraction(3), routes)
    with pytest.raises(TypeError):
        report.routes["x"] = 1
    routes["b"] = Fraction(4)  # the report keeps its own copy
    assert report.routes == {"a": Fraction(3)}
    assert sorted(report.routes.items()) == [("a", Fraction(3))]
    assert report == IndexReport(Fraction(3), {"a": Fraction(3)})
    assert principal_index(build("A3")).routes["kostant"] == 10


def test_index_report_disagreement_lists_sorted_routes_as_fractions():
    report = IndexReport(Fraction(1, 2), {"z": Fraction(1, 2), "a": Fraction(3, 4), "m": 2})
    assert report.disagreement("B2 principal-index") == (
        "route disagreement for B2 principal-index: a=3/4, m=2, z=1/2"
    )


def test_difference_sweep_names_every_route_of_a_disagreement(monkeypatch):
    real = sl2.principal_minus_subregular

    def with_broken_route(rs):
        report = real(rs)
        return IndexReport(report.value, {**report.routes, "broken": report.value + 1})

    monkeypatch.setattr(sl2, "principal_minus_subregular", with_broken_route)
    with pytest.raises(ArithmeticError) as exc:
        difference_observations(3)
    assert str(exc.value) == (
        "route disagreement for A2 difference: broken=4, closed-form=3, "
        "group-order=3, module-difference=3, raw-binomial=3"
    )


def test_broken_degree_pair_raises_under_python_O():
    code = (
        "from dynkindex import sl2, verify\n"
        "from dynkindex.rootsystems import LieType\n"
        "sl2._AB_EXCEPTIONAL['G2'] = (4, 6)\n"
        "try:\n"
        "    sl2.mckay_data(LieType('G', 2))\n"
        "except ArithmeticError as exc:\n"
        "    print('raised', exc)\n"
        "result = verify.check_mckay(verify.VerifyConfig(max_classical_rank=3))\n"
        "print(result.passed, result.failures)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("raised G2: degrees 4 + 6")
    assert lines[1].startswith("False ['G2: degrees 4 + 6")


def test_module_index_values():
    assert module_index((1,)) == 1
    assert module_index((2,)) == 4
    assert module_index((16, 8)) == 816 + 120
    # Equal labels need not be adjacent: each run is counted on its own.
    assert module_index((2, 1, 2, 2, 0, 1)) == 3 * 4 + 2 * 1
    assert module_index(()) == 0


def test_partition_normalisation():
    assert normalize_partition([1, 3, 2]) == (3, 2, 1)
    with pytest.raises(ValueError):
        normalize_partition([])
    with pytest.raises(ValueError):
        normalize_partition([2, 0])


@pytest.mark.parametrize("bad", [2.7, Fraction(1, 2), "1"], ids=repr)
def test_partition_parts_must_be_integers(bad):
    message = re.escape(f"partition part {bad!r} is not an integer")
    with pytest.raises(ValueError, match=message):
        normalize_partition([bad, 1])
    with pytest.raises(ValueError, match=message):
        classical_index("sl", (bad, 1))


def test_admissibility():
    assert partition_is_admissible("sp", (4, 2))
    assert not partition_is_admissible("sp", (3, 2, 1))
    assert not partition_is_admissible("sp", (2, 2, 1))  # odd total
    assert partition_is_admissible("so", (2, 2, 1))
    assert not partition_is_admissible("so", (4, 1))
    assert partition_is_admissible("sl", (3, 2, 1))


def test_branch_vector_rep():
    assert branch_vector_rep((5,)) == (4,)
    assert branch_vector_rep((3, 2, 2, 1)) == (2, 1, 1, 0)
    assert branch_vector_rep((2, 1, 1, 1)) == (1, 0, 0, 0)
    p = (6, 3, 1)
    assert module_dimension(branch_vector_rep(p)) == sum(p)


def test_classical_index_values():
    assert classical_index("sl", (4,)) == 10
    assert classical_index("sl", (2, 1, 1)) == 1
    assert classical_index("so", (7, 1)) == 28
    assert classical_index("sp", (6,)) == 35


def test_classical_index_rejections():
    with pytest.raises(ValueError):
        classical_index("sl", (1, 1, 1))  # zero nilpotent
    with pytest.raises(ValueError):
        classical_index("sp", (3, 1))  # parity
    with pytest.raises(ValueError):
        classical_index("so", (4, 1))  # parity


def test_clebsch_gordan():
    assert clebsch_gordan(0, 5) == (5,)
    assert clebsch_gordan(1, 1) == (2, 0)
    assert clebsch_gordan(2, 1) == (3, 1)
    for a in range(8):
        for b in range(8):
            comps = clebsch_gordan(a, b)
            assert len(comps) == min(a, b) + 1
            assert module_dimension(comps) == (a + 1) * (b + 1)


def test_squares():
    assert sym2(1) == (2,)
    assert wedge2(1) == (0,)
    assert sym2(2) == (4, 0)
    assert wedge2(3) == (4, 0)
    assert wedge2(0) == ()
    for m in range(13):
        assert module_dimension(sym2(m)) == (m + 1) * (m + 2) // 2
        assert module_dimension(wedge2(m)) == m * (m + 1) // 2
        # tensor square = symmetric plus exterior parts
        assert tuple(sorted(sym2(m) + wedge2(m), reverse=True)) == clebsch_gordan(m, m)


def test_branch_adjoint():
    assert branch_adjoint("sl", (2,)) == (2,)
    assert branch_adjoint("sp", (2, 2)) == (2, 2, 2, 0)
    assert branch_adjoint("so", (7, 1)) == (10, 6, 6, 2)
    # dimension conservation across a sweep
    for n in range(2, 9):
        for kind in ("sl", "sp", "so"):
            if kind == "sp" and n % 2:
                continue
            for p in enumerate_orbits(kind, n):
                comps = branch_adjoint(kind, p)
                if kind == "sl":
                    assert module_dimension(comps) == n * n - 1
                elif kind == "sp":
                    assert module_dimension(comps) == n * (n + 1) // 2
                else:
                    assert module_dimension(comps) == n * (n - 1) // 2


def test_adjoint_route_examples():
    assert index_via_adjoint("sl", (4,)) == 10
    assert index_via_adjoint("sp", (2, 2)) == 2
    assert index_via_adjoint("so", (2, 2, 1)) == 1


def assert_grouped_branching_matches_pairwise(kind, p):
    expected = pairwise_branch_adjoint(kind, p)
    pairs = tuple(sorted(Counter(expected).items(), reverse=True))
    assert branch_adjoint_multiplicities(kind, p) == pairs, (kind, p)
    assert branch_adjoint(kind, p) == expected, (kind, p)


def test_grouped_branching_matches_pairwise_to_n_14():
    for kind in KINDS:
        for n in range(1, 15):
            if kind == "sp" and n % 2:
                continue
            for p in enumerate_orbits(kind, n):
                assert_grouped_branching_matches_pairwise(kind, p)


# Part sizes up to 25, each repeated up to 50 // size times: at most 200 boxes
# in four groups, so long runs of equal parts are common.
PART_GROUPS = st.lists(
    st.integers(1, 25).flatmap(lambda a: st.tuples(st.just(a), st.integers(1, 50 // a))),
    min_size=1,
    max_size=4,
)


@given(st.sampled_from(KINDS), PART_GROUPS)
@settings(max_examples=60, deadline=None)
def test_grouped_branching_matches_pairwise_on_repeated_parts(kind, groups):
    # Parts of the parity sp or so must pair up get an even multiplicity.
    paired = {"sl": None, "sp": 1, "so": 0}[kind]
    parts = []
    for a, m in groups:
        parts += [a] * (m - m % 2 if a % 2 == paired else m)
    assume(parts)
    assert_grouped_branching_matches_pairwise(kind, tuple(parts))


def test_minimal_orbits_with_many_parts_have_index_one():
    # Dynkin (1952): the minimal orbit has index 1; here with up to 1999 parts.
    assert index_via_adjoint("sl", (2,) + (1,) * 1998) == 1
    assert index_via_adjoint("sp", (2,) + (1,) * 198) == 1
    assert index_via_adjoint("so", (2, 2) + (1,) * 196) == 1


def test_route_equivalence_sweep():
    for kind in ("sl", "sp", "so"):
        for n in range(2, 13):
            if kind == "sp" and n % 2:
                continue
            if kind == "so" and n == 2:
                continue
            for p in enumerate_orbits(kind, n):
                if p[0] < 2:
                    continue
                assert classical_index(kind, p) == index_via_adjoint(kind, p), (kind, p)


def test_so_indices_are_integral_on_admissible_partitions():
    for n in range(3, 15):
        for p in enumerate_orbits("so", n):
            if p[0] >= 2:
                assert classical_index("so", p).denominator == 1, p


# Jordan types of principal nilpotents in the smallest faithful modules.
# Frozen from the embedding indices: the partition sum of C(part+1, 3)
# (halved for orthogonal targets) must equal embedding index times the
# principal index, and the block sizes are 2*exponent + 1 alternates folded
# into the module; each case is checked against that product below.
PRINCIPAL_JORDAN_TYPES = {
    "G2": ("so", (7,), 1),
    "F4": ("so", (17, 9), 3),
    "E6": ("sl", (17, 9, 1), 6),
    "E7": ("sp", (28, 18, 10), 12),
    "E8": ("so", (59, 47, 39, 35, 27, 23, 15, 3), 30),
}


def test_index_via_simplest_rep_on_principal_orbits():
    for label, (kind, p, emb) in PRINCIPAL_JORDAN_TYPES.items():
        lt = LieType.parse(label)
        value = index_via_simplest_rep(lt, p)
        principal = principal_index(build(lt)).value
        assert value == principal
        assert classical_index(kind, p) == emb * principal


def test_index_via_simplest_rep_validation():
    e6 = LieType.parse("E6")
    assert index_via_simplest_rep(e6, (9, 9, 5, 3, 1)) == 44
    with pytest.raises(ValueError):
        index_via_simplest_rep(e6, (9, 9, 5, 3))  # wrong size
    with pytest.raises(ValueError):
        index_via_simplest_rep(e6, (2,) + (1,) * 25)  # not a Jordan type, 1/6
    with pytest.raises(ValueError):
        index_via_simplest_rep(LieType.parse("E7"), (28, 17, 11))  # sp parity
    with pytest.raises(ValueError):
        index_via_simplest_rep(LieType.parse("A3"), (4,))  # not exceptional


def test_principal_index_reports():
    e8 = principal_index(build("E8"))
    assert e8.value == 1240 and e8.consistent
    assert e8.routes["kostant"] == Fraction(74400, 60)
    assert principal_index(build("A1")).value == 1
    for n in range(2, 9):
        report = principal_index(build(LieType("B", n)))
        assert report.consistent
        assert report.value == Fraction(comb(2 * n + 2, 3), 2)
    for label in ("A5", "C4", "D6", "F4", "G2", "E6", "E7"):
        assert principal_index(build(label)).consistent


def test_mckay_data():
    e8 = mckay_data(LieType.parse("E8"))
    assert (e8.a, e8.b, e8.h, e8.group_order) == (12, 20, 30, 120)
    g2 = mckay_data(LieType.parse("G2"))
    assert (g2.a, g2.b, g2.h, g2.group_order) == (4, 4, 6, 8)
    for n in range(2, 11):
        data = mckay_data(LieType("A", n))
        assert (data.a, data.b, data.h) == (2, n + 1, n + 1)
    with pytest.raises(ValueError):
        mckay_data(LieType.parse("A1"))


def test_mckay_data_consistent_across_presentations():
    # C2 and D3 give the same degrees as B2 and A3
    assert mckay_data(LieType.parse("C2")) == mckay_data(LieType.parse("B2"))
    assert mckay_data(LieType.parse("D3")) == mckay_data(LieType.parse("A3"))


def test_subregular_module():
    assert subregular_module(build("D4")) == (6, 6, 4, 2, 2, 2)
    assert subregular_module(build("A2")) == (2, 1, 1, 0)
    assert subregular_module(build("B2")) == (2, 2, 2, 0)
    for label in ("A5", "B5", "C5", "D5", "E6", "E7", "E8", "F4", "G2"):
        rs = build(label)
        assert module_dimension(subregular_module(rs)) == rs.dimension
    with pytest.raises(ValueError):
        subregular_module(build("A1"))


def test_difference_values():
    assert principal_minus_subregular(build("G2")).value == 24
    assert principal_minus_subregular(build("C3")).value == 24
    assert principal_minus_subregular(build("E7")).value == 168
    for n in range(3, 11):
        report = principal_minus_subregular(build(LieType("C", n)))
        assert report.consistent and report.value == 4 * n * (n - 1)
    for label in ("A4", "B6", "D7", "E6", "E8", "F4"):
        assert principal_minus_subregular(build(label)).consistent
    with pytest.raises(ValueError, match="^A1: rank 1 has no subregular orbit"):
        principal_minus_subregular(build("A1"))


def test_difference_observation_rows():
    rows = {obs.label: obs for obs in difference_observations(7)}
    a5 = rows["A5"]
    assert a5.d == 15 and a5.d / (a5.b * a5.rank) == Fraction(1, 2) and 2 * a5.h * a5.rank == 60
    f4 = rows["F4"]
    assert f4.d == 96 and f4.d == 2 * f4.h * f4.rank == 3 * f4.b * f4.rank
    b7 = rows["B7"]
    assert b7.d == 98 and b7.h % 2 == 0 and b7.d / b7.rank == 14


def test_difference_claims_are_read_from_the_observed_numbers():
    rows = {obs.label: obs for obs in difference_observations(5)}
    f4, a5 = rows["F4"], rows["A5"]
    off = replace(f4, d=f4.d - 4)  # below both bounds, so no equality case
    assert difference_observations_ok([off]) == (False, [
        "F4: equality with 2h*rank mismatch",
        "F4: equality with 3b*rank mismatch",
    ])
    assert difference_observations_ok([replace(a5, d=a5.d + 1)]) == (False, [
        "A5: ratio 8/15 off series constant",
        "A5: D/rank not integral though h is even",
    ])
    assert difference_observations_ok([replace(a5, d=Fraction(95))]) == (False, [
        "A5: D > 2h*rank", "A5: D > 3b*rank", "A5: ratio 19/6 off series constant",
    ])


def test_difference_bounds_hold_to_rank_20():
    ok, failures = difference_observations_ok(difference_observations(20))
    assert ok, failures


def test_ab_closed_forms_match_degree_table():
    for family, n, expected in [("A", 6, (2, 7)), ("B", 4, (2, 8)),
                                ("C", 5, (4, 8)), ("D", 6, (4, 8))]:
        assert ab_closed_form(family, n) == expected
        data = mckay_data(LieType(family, n))
        assert (data.a, data.b) == tuple(sorted(expected))
