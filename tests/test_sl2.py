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
from hypothesis import assume, example, given, settings
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
    difference_failures,
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
    summary_row,
    sweep_types,
    sym2,
    wedge2,
)
from dynkindex.orbits import enumerate_orbits, partitions_of

SRC = Path(__file__).resolve().parents[1] / "src"


def weight_branch_adjoint(kind, p):
    """Oracle from weights: V has the weights 1 - a, 3 - a, ..., a - 1 for
    each part a; the adjoint's weights are every x - y less one 0 for sl, and
    x + y over pairs i <= j (sp) or i < j (so); label L occurs m_L - m_{L+2}
    times.  Only weights L >= 0 are read, so sl counts x - y for x >= y."""
    v = Counter(w for part in p for w in range(1 - part, part, 2))
    ascending = sorted(v)
    weights = Counter()
    for i, x in enumerate(ascending):
        for y in ascending[i:]:
            if kind == "sl":
                weights[y - x] += v[x] * v[y]
            elif x < y:
                weights[x + y] += v[x] * v[y]
            else:
                weights[2 * x] += v[x] * (v[x] + 1 if kind == "sp" else v[x] - 1) // 2
    weights[0] -= kind == "sl"
    top = max(weights, default=-1)
    return tuple(
        label for label in range(top, -1, -1) for _ in range(weights[label] - weights[label + 2])
    )


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

    def with_broken_route(rs, principal, data):
        report = real(rs, principal, data)
        return IndexReport(report.value, {**report.routes, "broken": report.value + 1})

    monkeypatch.setattr(sl2, "principal_minus_subregular", with_broken_route)
    with pytest.raises(ArithmeticError) as exc:
        [summary_row(lt) for lt in sweep_types(3)]
    assert str(exc.value) == (
        "route disagreement for A2 difference: broken=4, closed-form=3, "
        "group-order=3, module-difference=3, raw-binomial=3"
    )


def test_a_refused_row_is_not_kept(monkeypatch):
    real = sl2.principal_minus_subregular

    def with_broken_route(rs, principal, data):
        report = real(rs, principal, data)
        return IndexReport(report.value, {**report.routes, "broken": report.value + 1})

    monkeypatch.setattr(sl2, "principal_minus_subregular", with_broken_route)
    a2 = LieType("A", 2)
    for _ in range(2):
        with pytest.raises(ArithmeticError) as exc:
            summary_row(a2)
        assert str(exc.value).startswith("route disagreement for A2 difference: broken=4,")
    assert summary_row.cache_info().currsize == 0
    monkeypatch.undo()
    assert summary_row(a2) == sl2.SummaryRow("A2", 2, Fraction(4), Fraction(3), 3, 2, 3)


def test_broken_degree_pair_raises_under_python_O():
    code = (
        "from dynkindex import sl2, verify\n"
        "from dynkindex.rootsystems import LieType\n"
        # (2, 6) keeps a + b = h + 2; only a*b/2 differs from D4's marks.
        "for pair in ((4, 6), (2, 6)):\n"
        "    sl2._AB_EXCEPTIONAL['G2'] = pair\n"
        "    try:\n"
        "        sl2.mckay_data(LieType('G', 2))\n"
        "    except ArithmeticError as exc:\n"
        "        print('raised', exc)\n"
        "    result = verify.check_mckay(verify.VerifyConfig(max_classical_rank=3))\n"
        "    print(result.passed, result.counterexamples)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("raised G2: degrees 4 + 6")
    assert lines[1].startswith("False ('G2: degrees 4 + 6")
    assert lines[2:] == ["raised G2: group order 6 != 8", "False ('G2: group order 6 != 8',)"]


def test_module_index_values():
    assert module_index((1,)) == 1
    assert module_index((2,)) == 4
    assert module_index((16, 8)) == 816 + 120
    # Equal labels need not be adjacent: each run is counted on its own.
    assert module_index((2, 1, 2, 2, 0, 1)) == 3 * 4 + 2 * 1
    assert module_index(()) == 0


def test_partition_normalisation():
    assert normalize_partition([1, 3, 2]) == (3, 2, 1)
    assert normalize_partition(x for x in (1, 3, 2)) == (3, 2, 1)
    with pytest.raises(ValueError):
        normalize_partition([])
    with pytest.raises(ValueError):
        normalize_partition([2, 0])


@pytest.mark.parametrize("bad", [2.0, 2.7, Fraction(1, 2), "1"], ids=repr)
def test_partition_parts_must_be_integers(bad):
    message = re.escape(f"partition part {bad!r} is not an integer")
    with pytest.raises(ValueError, match=message):
        normalize_partition([bad, 1])
    # A generator is read once: a second pass would find the bad part gone.
    with pytest.raises(ValueError, match=message):
        normalize_partition(x for x in (3, bad, 1))
    with pytest.raises(ValueError, match=message):
        classical_index("sl", (bad, 1))


def textbook_admissible(kind, p):
    """The parity conditions as usually stated: for sp the total is even and
    every odd part has even multiplicity, for so every even part has even
    multiplicity, for sl there is no condition."""
    mult = Counter(p)
    if kind == "sp":
        return sum(p) % 2 == 0 and all(m % 2 == 0 for k, m in mult.items() if k % 2)
    if kind == "so":
        return all(m % 2 == 0 for k, m in mult.items() if k % 2 == 0)
    return True


def test_admissibility():
    assert partition_is_admissible("sp", (4, 2))
    assert not partition_is_admissible("sp", (3, 2, 1))
    assert not partition_is_admissible("sp", (2, 2, 1))  # odd total
    assert partition_is_admissible("so", (2, 2, 1))
    assert not partition_is_admissible("so", (4, 1))
    assert partition_is_admissible("sl", (3, 2, 1))
    # Every partition of n <= 16 against the textbook rule, whose sp
    # even-total condition the implementation does not test: pairing the
    # odd parts already makes the total even.
    checked = Counter()
    for n in range(1, 17):
        for p in partitions_of(n):
            for kind in KINDS:
                expected = textbook_admissible(kind, p)
                assert partition_is_admissible(kind, p) == expected, (kind, p)
                checked[kind] += expected
    assert checked["sl"] == sum(1 for n in range(1, 17) for _ in partitions_of(n))
    assert 0 < checked["sp"] < checked["so"] < checked["sl"]
    with pytest.raises(ValueError, match=re.escape("unknown kind 'xx'")):
        partition_is_admissible("xx", (1,))


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


@pytest.mark.parametrize(
    "call",
    [lambda: clebsch_gordan(-1, 2), lambda: clebsch_gordan(2, -1), lambda: sym2(-1),
     lambda: wedge2(-1)],
    ids=["clebsch_gordan-first", "clebsch_gordan-second", "sym2", "wedge2"],
)
def test_a_negative_component_label_is_refused(call):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == "component labels must be nonnegative"


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


def test_sl_branching_sums_the_two_squares(monkeypatch):
    # sl(V) = Sym^2 V + Lambda^2 V - 1: for five distinct part sizes, C(5, 2)
    # cross terms and 5 diagonal terms, and each square once a size.
    calls = Counter()
    for name in ("_cg_labels", "_sym2_labels", "_wedge2_labels"):
        def counted(*args, _name=name, _f=getattr(sl2, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(sl2, name, counted)
    branch_adjoint_multiplicities("sl", (5, 4, 3, 2, 1))
    assert calls == {"_cg_labels": 15, "_sym2_labels": 5, "_wedge2_labels": 5}


def test_branching_records_label_progressions_without_expanding_them(monkeypatch):
    cases = [
        ("sl", (5, 4, 3, 2, 1)),
        ("sl", (7, 7, 3, 1, 1)),
        ("sp", (6, 4, 4, 3, 3)),
        ("so", (5, 4, 4, 1, 1, 1)),
    ]
    expected = {case: weight_branch_adjoint(*case) for case in cases}

    def refuse(*args):
        raise AssertionError(f"a label tuple was expanded for {args}")

    for name in ("clebsch_gordan", "sym2", "wedge2"):
        monkeypatch.setattr(sl2, name, refuse)
    for (kind, p), module in expected.items():
        pairs = tuple(sorted(Counter(module).items(), reverse=True))
        assert branch_adjoint_multiplicities(kind, p) == pairs, (kind, p)


def test_adjoint_route_examples():
    assert index_via_adjoint("sl", (4,)) == 10
    assert index_via_adjoint("sp", (2, 2)) == 2
    assert index_via_adjoint("so", (2, 2, 1)) == 1


def assert_grouped_branching_matches_pairwise(kind, p):
    expected = weight_branch_adjoint(kind, p)
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


# Up to 30 distinct part sizes up to 200: labels up to 398, in both parities.
@given(st.sampled_from(KINDS), st.sets(st.integers(1, 200), min_size=1, max_size=30))
@example("sl", set(range(200, 50, -5)))
@example("sp", set(range(200, 50, -5)))
@example("so", set(range(200, 50, -5)))
@settings(max_examples=60, deadline=None)
def test_grouped_branching_matches_pairwise_on_wide_label_ranges(kind, sizes):
    paired = {"sl": None, "sp": 1, "so": 0}[kind]
    parts = tuple(a for a in sizes for _ in range(2 if a % 2 == paired else 1))
    assert_grouped_branching_matches_pairwise(kind, parts)


EDGE_SHAPES = [
    (1,), (2,), (3,), (4,), (17,), (40,),  # a single part
    (2, 2, 1, 1), (2, 2, 2, 2, 1, 1, 1, 1), (2,) * 6,  # parts of size 1 and 2
    (1, 1), (1,) * 7, (3, 1, 1, 1), (5, 3, 1),  # in so, wedge2(0) is empty
]


@pytest.mark.parametrize(
    "kind, parts",
    [(kind, p) for kind in KINDS for p in EDGE_SHAPES if partition_is_admissible(kind, p)],
    ids=str,
)
def test_grouped_branching_matches_pairwise_on_edge_shapes(kind, parts):
    assert_grouped_branching_matches_pairwise(kind, parts)


def test_minimal_orbit_branching_with_1998_trivial_parts():
    # V = V_1 + k V_0.  sl: V (x) V - 1 = V_2 + 2k V_1 + k^2 V_0; sp: Sym^2 V =
    # V_2 + k V_1 + C(k+1, 2) V_0; so on V = 2 V_1 + k V_0: Lambda^2 V =
    # V_2 + 2k V_1 + (C(k, 2) + 3) V_0.  Checked against the pairwise oracle
    # at k = 20, then read at k = 1998, where the oracle's square is too large.
    def minimal(kind, k):
        if kind == "sl":
            return (2,) + (1,) * k, ((2, 1), (1, 2 * k), (0, k * k))
        if kind == "sp":
            return (2,) + (1,) * k, ((2, 1), (1, k), (0, comb(k + 1, 2)))
        return (2, 2) + (1,) * k, ((2, 1), (1, 2 * k), (0, comb(k, 2) + 3))

    for kind in KINDS:
        parts, pairs = minimal(kind, 20)
        assert_grouped_branching_matches_pairwise(kind, parts)
        assert branch_adjoint_multiplicities(kind, parts) == pairs
        parts, pairs = minimal(kind, 1998)
        assert branch_adjoint_multiplicities(kind, parts) == pairs, kind


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
    assert (e8.a, e8.b, e8.group_order) == (12, 20, 120)
    g2 = mckay_data(LieType.parse("G2"))
    assert (g2.a, g2.b, g2.group_order) == (4, 4, 8)
    for n in range(2, 11):
        data = mckay_data(LieType("A", n))
        assert (data.a, data.b) == (2, n + 1)
    with pytest.raises(ValueError):
        mckay_data(LieType.parse("A1"))


def test_mckay_data_consistent_across_presentations():
    # C2 and D3 give the same degrees as B2 and A3
    assert mckay_data(LieType.parse("C2")) == mckay_data(LieType.parse("B2"))
    assert mckay_data(LieType.parse("D3")) == mckay_data(LieType.parse("A3"))


def _subregular(label):
    rs = build(label)
    return subregular_module(rs, mckay_data(rs.lie_type))


def test_subregular_module():
    assert _subregular("D4") == (6, 6, 4, 2, 2, 2)
    assert _subregular("A2") == (2, 1, 1, 0)
    assert _subregular("B2") == (2, 2, 2, 0)
    for label in ("A5", "B5", "C5", "D5", "E6", "E7", "E8", "F4", "G2"):
        assert module_dimension(_subregular(label)) == build(label).dimension
    refusal = r"^A1: rank 1 has no subregular orbit and no degree pair$"
    with pytest.raises(ValueError, match=refusal):
        _subregular("A1")


def _difference(label):
    # Each value evaluated once and passed along, as the CLI and the sweep do.
    rs = build(label)
    data = mckay_data(rs.lie_type)
    return principal_minus_subregular(rs, principal_index(rs).value, data)


def test_difference_values():
    assert _difference("G2").value == 24
    assert _difference("C3").value == 24
    assert _difference("E7").value == 168
    for n in range(3, 11):
        report = _difference(LieType("C", n))
        assert report.consistent and report.value == 4 * n * (n - 1)
    for label in ("A4", "B6", "D7", "E6", "E8", "F4"):
        assert _difference(label).consistent
    with pytest.raises(ValueError, match="^A1: rank 1 has no subregular orbit"):
        _difference("A1")


def test_a_wrong_principal_value_is_a_difference_disagreement():
    rs = build("A5")
    value, data = principal_index(rs).value, mckay_data(rs.lie_type)
    assert principal_minus_subregular(rs, value, data).consistent
    report = principal_minus_subregular(rs, value + 1, data)
    assert not report.consistent
    assert report.routes["module-difference"] == report.value + 1


def test_difference_observation_rows():
    rows = {row.label: row for row in map(summary_row, sweep_types(7))}
    a5 = rows["A5"]
    assert a5.d == 15 and a5.d / (a5.b * a5.rank) == Fraction(1, 2) and 2 * a5.h * a5.rank == 60
    f4 = rows["F4"]
    assert f4.d == 96 and f4.d == 2 * f4.h * f4.rank == 3 * f4.b * f4.rank
    b7 = rows["B7"]
    assert b7.d == 98 and b7.h % 2 == 0 and b7.d / b7.rank == 14


def test_difference_claims_are_read_from_the_observed_numbers():
    rows = {row.label: row for row in map(summary_row, sweep_types(5))}
    f4, a5 = rows["F4"], rows["A5"]
    off = replace(f4, d=f4.d - 4)  # below both bounds, so no equality case
    assert difference_failures(off) == [
        "F4: equality with 2h*rank mismatch",
        "F4: equality with 3b*rank mismatch",
    ]
    assert difference_failures(replace(a5, d=a5.d + 1)) == [
        "A5: ratio 8/15 off series constant",
        "A5: D/rank not integral though h is even",
    ]
    assert difference_failures(replace(a5, d=Fraction(95))) == [
        "A5: D > 2h*rank", "A5: D > 3b*rank", "A5: ratio 19/6 off series constant",
    ]


def test_difference_bounds_hold_to_rank_20():
    failures = [f for lt in sweep_types(20) for f in difference_failures(summary_row(lt))]
    assert failures == []


def test_ab_closed_forms_match_degree_table():
    for family, n, expected in [("A", 6, (2, 7)), ("B", 4, (2, 8)),
                                ("C", 5, (4, 8)), ("D", 6, (4, 8))]:
        assert ab_closed_form(family, n) == expected
        data = mckay_data(LieType(family, n))
        assert (data.a, data.b) == tuple(sorted(expected))
