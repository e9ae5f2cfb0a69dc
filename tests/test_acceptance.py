"""Acceptance criteria for the library, one test per criterion.

Every check is exact (tolerance zero).  Each test prints a single
PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s` to see
them as they complete.
"""

from fractions import Fraction
from itertools import product
from math import comb

import pytest

from dynkindex.identities import sweep
from dynkindex.orbits import (
    comparable_pairs_strict,
    enumerate_orbits,
    monotonicity_holds,
)
from dynkindex.reps import dynkin_index, exceptional_simplest_indices
from dynkindex.rootsystems import LieType, build
from dynkindex.sl2 import (
    ab_closed_form,
    classical_index,
    difference_observations,
    difference_observations_ok,
    index_via_adjoint,
    mckay_data,
    principal_index,
    principal_minus_subregular,
)

EXCEPTIONAL = ("E6", "E7", "E8", "F4", "G2")


def _report(number: int, text: str, passed: bool = True) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {text}")
    assert passed


def _classical_types(max_rank=10):
    for family, lo in (("A", 2), ("B", 2), ("C", 2), ("D", 3)):
        for n in range(lo, max_rank + 1):
            yield LieType(family, n)


CLOSED_PRINCIPAL = {
    "A": lambda n: Fraction(comb(n + 2, 3)),
    "B": lambda n: Fraction(comb(2 * n + 2, 3), 2),
    "C": lambda n: Fraction(comb(2 * n + 1, 3)),
    "D": lambda n: Fraction(comb(2 * n, 3), 2),
}
CLOSED_DIFFERENCE = {
    "A": lambda n: comb(n + 1, 2),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 4 * n * (n - 1),
    "D": lambda n: 2 * n * (n - 2),
}
EXC_TABLE = {  # principal index, difference, a, b, ratio
    "E6": (156, 72, 6, 8, Fraction(3, 2)),
    "E7": (399, 168, 8, 12, Fraction(2)),
    "E8": (1240, 480, 12, 20, Fraction(3)),
    "F4": (156, 96, 6, 8, Fraction(3)),
    "G2": (28, 24, 4, 4, Fraction(3)),
}
RATIO_CONSTANT = {"A": Fraction(1, 2), "B": Fraction(1), "C": Fraction(2), "D": Fraction(1)}


def test_criterion_1_summary_table():
    for lt in _classical_types():
        fam, n = lt.family, lt.rank
        rs = build(lt)
        assert principal_index(rs).value == CLOSED_PRINCIPAL[fam](n), lt
        d_report = principal_minus_subregular(rs)
        assert d_report.consistent
        assert d_report.value == CLOSED_DIFFERENCE[fam](n), lt
        a, b = ab_closed_form(fam, n)
        data = mckay_data(lt)
        assert {data.a, data.b} == {a, b}
        assert d_report.value / (b * n) == RATIO_CONSTANT[fam], lt
    for label, (principal, diff, a, b, ratio) in EXC_TABLE.items():
        rs = build(label)
        assert principal_index(rs).value == principal
        d_report = principal_minus_subregular(rs)
        assert d_report.value == diff
        data = mckay_data(LieType.parse(label))
        assert (data.a, data.b) == (a, b)
        assert d_report.value / (b * rs.rank) == ratio
    _report(1, "summary table reproduced from closed forms, ranks 2..10")


def test_criterion_2_exceptional_embedding_indices():
    assert exceptional_simplest_indices() == {
        "E6": 6, "E7": 12, "E8": 30, "F4": 3, "G2": 1,
    }
    _report(2, "smallest-module embedding indices recomputed for E6..G2")


def test_criterion_3_route_equivalence():
    checked = 0
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
                checked += 1
    assert checked > 400
    _report(3, f"partition and adjoint routes agree on {checked} orbits, n <= 12")


def test_criterion_4_principal_routes_agree():
    count = 0
    for lt in list(_classical_types()) + [LieType.parse(s) for s in EXCEPTIONAL]:
        report = principal_index(build(lt))
        assert report.consistent, (lt, report.routes)
        count += 1
    e8 = principal_index(build("E8"))
    assert e8.routes["kostant"] == Fraction(74400, 60) == 1240
    _report(4, f"principal-index routes agree on {count} types")


def test_criterion_5_identity_sweeps():
    total = 0
    for family in ("sl", "sp", "so"):
        instances = sweep(family, 12)
        bad = [inst for inst in instances if not inst.holds]
        assert not bad, bad[:3]
        total += len(instances)
    _report(5, f"all {total} identity instances hold, n <= 12")


def test_criterion_6_monotonicity():
    for kind in ("sl", "sp", "so"):
        for n in range(2, 13):
            if kind == "sp" and n % 2:
                continue
            assert monotonicity_holds(kind, n), (kind, n)
            if n <= 10:
                assert comparable_pairs_strict(kind, n), (kind, n)
    _report(6, "index strictly decreases along covers (n <= 12) and chains (n <= 10)")


def test_criterion_7_structural_invariants():
    for lt in list(_classical_types()) + [LieType.parse(s) for s in EXCEPTIONAL]:
        rs = build(lt)
        assert rs.strange_formula_holds(), lt
        for root in rs.positive_roots:
            assert rs.form(rs.rho_check, root.coords) == root.height, lt
    pairs = (
        [(LieType("C", n), LieType("A", 2 * n - 1)) for n in range(2, 9)]
        + [(LieType("B", n), LieType("D", n + 1)) for n in range(2, 9)]
        + [(LieType.parse("F4"), LieType.parse("E6"))]
        + [(LieType.parse("G2"), LieType.parse("D4"))]
    )
    for folded_type, partner_type in pairs:
        folded = build(folded_type)
        long_sum, short_sum = folded.height_sums()
        total = sum(r.height for r in build(partner_type).positive_roots)
        assert long_sum + folded.r * short_sum == total, folded_type
    _report(7, "strange formula, height pairing, and unfolding equalities")


def test_criterion_8_difference_bounds_to_rank_50():
    observations = difference_observations(50)
    ok, failures = difference_observations_ok(observations)
    assert ok, failures
    equalities = {o.label for o in observations if o.d in (2 * o.h * o.rank, 3 * o.b * o.rank)}
    assert equalities == {"G2", "F4", "E8"}
    _report(8, f"difference bounds and ratios hold for {len(observations)} types")


def test_criterion_9_integrality_audit():
    checked = 0
    types = [LieType("A", n) for n in range(1, 7)]
    types += [LieType("B", n) for n in range(2, 7)]
    types += [LieType("C", n) for n in range(2, 7)]
    types += [LieType("D", n) for n in range(3, 7)]
    types += [LieType.parse(s) for s in ("E6", "F4", "G2")]
    for lt in types:
        rs = build(lt)
        for weight in product(range(3), repeat=rs.rank):
            if not any(weight):
                continue
            report = dynkin_index(rs, weight)
            assert report.is_integer, (lt, weight, report.index)
            checked += 1
    _report(9, f"{checked} irreducible indices are integers (coords <= 2, rank <= 6)")


def test_criterion_10_minimal_orbits():
    for n in range(2, 21):
        assert classical_index("sl", (2,) + (1,) * (n - 2)) == 1
        if n % 2 == 0:
            assert classical_index("sp", (2,) + (1,) * (n - 2)) == 1
        if n >= 4:
            assert classical_index("so", (2, 2) + (1,) * (n - 4)) == 1
    _report(10, "minimal orbits have index 1 up to module dimension 20")
