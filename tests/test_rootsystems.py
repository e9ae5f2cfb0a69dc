"""Root system construction and its exact invariants."""

from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import pytest

import dynkindex
from dynkindex.rootsystems import (
    EXCEPTIONAL,
    KINDS,
    LieType,
    all_types,
    build,
    classical_kind,
    classical_type,
    defining_module,
)

ALL_SAMPLE_TYPES = [
    "A1", "A2", "A3", "A5", "A8",
    "B2", "B3", "B5", "B8",
    "C2", "C3", "C5", "C8",
    "D3", "D4", "D5", "D8",
    "E6", "E7", "E8", "F4", "G2",
]

POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
}
EXCEPTIONAL_COUNTS = {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}


def reflection_closure(cartan):
    """Oracle: close the simple roots under all simple reflections.

    Independent of the string-addition generator used by the library.
    """
    n = len(cartan)
    roots = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = set(roots)
    while frontier:
        new = set()
        for gamma in frontier:
            for i in range(n):
                pairing = sum(g * cartan[k][i] for k, g in enumerate(gamma))
                image = list(gamma)
                image[i] -= pairing
                image = tuple(image)
                if image not in roots:
                    roots.add(image)
                    new.add(image)
        frontier = new
    return {g for g in roots if all(c >= 0 for c in g)}


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4", "E6", "E8"])
def test_generated_roots_match_reflection_closure(label):
    rs = build(label)
    oracle = reflection_closure(rs.cartan)
    assert {r.coords for r in rs.positive_roots} == oracle


def test_positive_root_counts_and_dimensions():
    for label in ALL_SAMPLE_TYPES:
        rs = build(label)
        fam, n = rs.lie_type.family, rs.lie_type.rank
        expected = (
            EXCEPTIONAL_COUNTS[label]
            if label in EXCEPTIONAL_COUNTS
            else POSITIVE_ROOT_COUNTS[fam](n)
        )
        assert len(rs.positive_roots) == expected
        assert rs.dimension == n + 2 * expected
        assert len({r.coords for r in rs.positive_roots}) == expected


def test_small_examples():
    a2 = build("A2")
    assert len(a2.positive_roots) == 3 and a2.dimension == 8
    g2 = build("G2")
    assert len(g2.positive_roots) == 6 and g2.dimension == 14 and g2.r == 3
    e8 = build("E8")
    assert len(e8.positive_roots) == 120 and e8.dimension == 248


@pytest.mark.parametrize(
    "label", ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "F5", "G1", "G3", "H2"]
)
def test_invalid_types_rejected(label):
    with pytest.raises(ValueError):
        build(label)


def test_an_unknown_family_is_refused_by_the_constructor():
    # The label parser admits only A..G, so only a direct construction reaches
    # this refusal.
    with pytest.raises(ValueError) as refused:
        LieType("H", 4)
    assert str(refused.value) == "unknown family 'H', expected one of ABCDEFG"


def test_type_parsing():
    assert LieType.parse("e8") == LieType("E", 8)
    assert LieType.parse("B_3") == LieType("B", 3)
    with pytest.raises(ValueError):
        LieType.parse("X1")
    with pytest.raises(ValueError):
        LieType.parse("")


def textbook_classical_type(kind, dim):
    """The usual names of the simple matrix algebras, None where there is
    none: sl_n is A_{n-1}, sp_2n is C_n (and sp2 = sl2 = A1), so_2n+1 is B_n
    and so_2n is D_n, each from its family's smallest rank."""
    if kind == "sl" and dim >= 2:
        return LieType("A", dim - 1)
    if kind == "sp" and dim == 2:
        return LieType("A", 1)
    if kind == "sp" and dim >= 4 and dim % 2 == 0:
        return LieType("C", dim // 2)
    if kind == "so" and dim >= 5 and dim % 2:
        return LieType("B", dim // 2)
    if kind == "so" and dim >= 6 and dim % 2 == 0:
        return LieType("D", dim // 2)
    return None


def test_classical_type_mapping():
    assert classical_type("sl", 8) == LieType("A", 7)
    assert classical_type("sp", 6) == LieType("C", 3)
    assert classical_type("sp", 2) == LieType("A", 1)
    assert classical_type("so", 13) == LieType("B", 6)
    assert classical_type("so", 8) == LieType("D", 4)
    assert classical_type("so", 6) == LieType("D", 3)
    accepted = 0
    for kind in KINDS + ("xx",):
        for dim in range(-1, 65):
            expected = textbook_classical_type(kind, dim)
            if expected is None:
                with pytest.raises(ValueError):
                    classical_type(kind, dim)
                continue
            accepted += 1
            assert classical_type(kind, dim) == expected, (kind, dim)
            if (kind, dim) != ("sp", 2):  # sp2 is A1, whose defining module is sl2
                assert defining_module(expected) == (kind, dim)
    assert accepted == 63 + 32 + 30 + 30  # sl; sp with sp2; so odd; so even


def test_classical_kind_records_are_frozen_tuples():
    for kind in KINDS:
        record = classical_kind(kind)
        for field in fields(record):
            value = getattr(record, field.name)
            assert isinstance(value, (tuple, int)), field.name
            with pytest.raises(FrozenInstanceError):
                setattr(record, field.name, value)
    # The record and its validator are internal: no exported name is added.
    assert not {"ClassicalKind", "classical_kind"} & set(dynkindex.__all__)


def test_defining_module_inverts_classical_type():
    classical = [lt for lt in all_types(12) if not lt.is_exceptional]
    assert len(classical) == 12 + 11 + 11 + 10
    for lt in classical:
        assert classical_type(*defining_module(lt)) == lt
    assert defining_module(LieType("D", 4)) == ("so", 8)
    for label in EXCEPTIONAL:
        assert defining_module(LieType.parse(label)) is None


def test_all_types_lists_every_family_from_its_smallest_rank():
    expected = (
        [LieType("A", n) for n in range(1, 11)]
        + [LieType("B", n) for n in range(2, 11)]
        + [LieType("C", n) for n in range(2, 11)]
        + [LieType("D", n) for n in range(3, 11)]
        + [LieType.parse(label) for label in ("E6", "E7", "E8", "F4", "G2")]
    )
    assert list(all_types(10)) == expected


def test_gram_matrix_normalised_and_positive_definite():
    for label in ALL_SAMPLE_TYPES:
        rs = build(label)
        n = rs.rank
        assert rs.theta.norm2 == 2
        for root in rs.positive_roots:
            assert root.norm2 == (2 if root.is_long else Fraction(2, rs.r))
        # leading principal minors of the Gram matrix, rebuilt as Fractions
        # from its scaled integers, by elimination on a copy
        m = [[Fraction(rs._int_gram[i][j], rs.r) for j in range(n)] for i in range(n)]
        det = Fraction(1)
        for col in range(n):
            assert m[col][col] != 0
            det *= m[col][col]
            assert det > 0
            for row in range(col + 1, n):
                f = m[row][col] / m[col][col]
                m[row] = [a - f * b for a, b in zip(m[row], m[col])]


COXETER = {"A": lambda n: n + 1, "B": lambda n: 2 * n, "C": lambda n: 2 * n,
           "D": lambda n: 2 * n - 2, "E6": 12, "E7": 18, "E8": 30, "F4": 12, "G2": 6}
DUAL_COXETER = {"A": lambda n: n + 1, "B": lambda n: 2 * n - 1, "C": lambda n: n + 1,
                "D": lambda n: 2 * n - 2, "E6": 12, "E7": 18, "E8": 30, "F4": 9, "G2": 4}


def test_coxeter_numbers():
    for label in ALL_SAMPLE_TYPES:
        rs = build(label)
        fam, n = rs.lie_type.family, rs.lie_type.rank
        h = COXETER[label] if label in COXETER else COXETER[fam](n)
        hstar = DUAL_COXETER[label] if label in DUAL_COXETER else DUAL_COXETER[fam](n)
        assert rs.coxeter_number == h, label
        assert rs.dual_coxeter_number == hstar, label
    assert build("B3").dual_coxeter_number == 5
    assert build("C4").dual_coxeter_number == 5
    assert build("G2").dual_coxeter_number == 4


def test_dual_coxeter_number_of_dual():
    # dualising swaps B and C; simply-laced types are self-dual
    assert build("C3").dual_coxeter_number_of_dual == 5  # = h*(B3)
    assert build("B3").dual_coxeter_number_of_dual == 4  # = h*(C3)
    assert build("F4").dual_coxeter_number_of_dual == 9
    assert build("G2").dual_coxeter_number_of_dual == 4
    for label in ("A4", "D5", "E6", "E7", "E8"):
        rs = build(label)
        assert rs.dual_coxeter_number_of_dual == rs.dual_coxeter_number


EXCEPTIONAL_EXPONENTS = {
    "G2": (1, 5),
    "F4": (1, 5, 7, 11),
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
}


def test_exponents():
    assert build("A3").exponents == (1, 2, 3)
    for label, exps in EXCEPTIONAL_EXPONENTS.items():
        assert build(label).exponents == exps
    for n in range(2, 9):
        assert build(LieType("A", n)).exponents == tuple(range(1, n + 1))
        assert build(LieType("B", n)).exponents == tuple(range(1, 2 * n, 2))
        assert build(LieType("C", n)).exponents == tuple(range(1, 2 * n, 2))
        if n >= 3:
            expected = sorted(list(range(1, 2 * n - 2, 2)) + [n - 1])
            assert list(build(LieType("D", n)).exponents) == expected
    for label in ALL_SAMPLE_TYPES:
        rs = build(label)
        exps = rs.exponents
        assert sum(2 * m + 1 for m in exps) == rs.dimension
        assert exps[-1] == rs.coxeter_number - 1
        assert list(exps) == sorted(exps)


def test_height_sums():
    assert build("G2").height_sums == (10, 6)
    assert build("A2").height_sums == (4, 0)
    long_sum, short_sum = build("C3").height_sums
    assert long_sum + 2 * short_sum == 35
    for label in ("A4", "D5", "E7"):  # simply laced: every root is long
        rs = build(label)
        assert rs.height_sums[1] == 0


def coroot_norm2_doubled(rs):
    return 2 * rs.form(rs.rho_check, rs.rho_check)


def test_coroot_half_sum_norm():
    assert coroot_norm2_doubled(build("G2")) == 28
    assert coroot_norm2_doubled(build("E6")) == 156
    assert coroot_norm2_doubled(build("B2")) == 10
    for label in ALL_SAMPLE_TYPES:
        rs = build(label)
        long_sum, short_sum = rs.height_sums
        combined = long_sum + rs.r * short_sum
        assert coroot_norm2_doubled(rs) == combined
        assert combined == Fraction(
            rs.dimension * rs.dual_coxeter_number_of_dual * rs.r, 6
        )


def test_height_pairing_with_coroot_half_sum():
    for label in ALL_SAMPLE_TYPES:
        rs = build(label)
        for root in rs.positive_roots:
            assert rs.form(rs.rho_check, root.coords) == root.height


def test_strange_formula():
    a1 = build("A1")
    assert a1.form(a1.rho, a1.rho) == Fraction(1, 2)
    f4 = build("F4")
    assert f4.form(f4.rho, f4.rho) == 39
    e7 = build("E7")
    assert e7.form(e7.rho, e7.rho) == Fraction(399, 2)
    for label in ALL_SAMPLE_TYPES:
        rs = build(label)
        expected = Fraction(rs.dimension * rs.dual_coxeter_number, 12)
        assert rs.form(rs.rho, rs.rho) == expected, label


def test_weyl_vector_has_unit_coroot_pairings():
    for label in ("A3", "B4", "C4", "D5", "G2", "F4", "E6"):
        rs = build(label)
        for i in range(rs.rank):
            alpha = tuple(1 if j == i else 0 for j in range(rs.rank))
            assert 2 * rs.form(rs.rho, alpha) / rs.simple_norms[i] == 2


UNFOLDINGS = (
    [("C%d" % n, "A%d" % (2 * n - 1)) for n in range(2, 9)]
    + [("B%d" % n, "D%d" % (n + 1)) for n in range(2, 9)]
    + [("F4", "E6"), ("G2", "D4")]
)


@pytest.mark.parametrize("folded,unfolded", UNFOLDINGS)
def test_unfolding_preserves_weighted_height_sum(folded, unfolded):
    rs = build(folded)
    partner = build(unfolded)
    long_sum, short_sum = rs.height_sums
    assert long_sum + rs.r * short_sum == sum(
        r.height for r in partner.positive_roots
    )


def test_b2_and_c2_present_the_same_algebra():
    b2, c2 = build("B2"), build("C2")
    assert b2.dimension == c2.dimension == 10
    assert b2.coxeter_number == c2.coxeter_number == 4
    assert b2.dual_coxeter_number == c2.dual_coxeter_number == 3
    assert b2.exponents == c2.exponents == (1, 3)
    assert coroot_norm2_doubled(b2) == coroot_norm2_doubled(c2) == 10


def test_d3_presents_a3():
    d3, a3 = build("D3"), build("A3")
    assert d3.dimension == a3.dimension == 15
    assert d3.exponents == a3.exponents
    assert coroot_norm2_doubled(d3) == coroot_norm2_doubled(a3) == 10


def test_build_caches_and_accepts_both_spellings():
    assert build("E6") is build(LieType("E", 6))


def test_cached_root_system_rejects_assignment():
    rs = build("A3")
    with pytest.raises(AttributeError):
        rs.positive_roots = ()
    with pytest.raises(AttributeError):
        rs.extra = 1
    assert len(build("A3").positive_roots) == 6
    assert not hasattr(rs, "extra")


def test_cached_root_system_rejects_deletion():
    rs = build("A3")
    with pytest.raises(AttributeError):
        del rs.positive_roots
    assert len(build("A3").positive_roots) == 6
