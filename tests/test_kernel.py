"""The scaled-integer kernel of the root systems against independent oracles.

The library inverts the Cartan matrix in integers on the Dynkin tree,
evaluates the forms over integer matrices, takes the Weyl dimension and the
index from one walk of scaled root pairings, and finds the positive roots by
reading string lengths off recorded edges.  The oracles here take other
routes: Gauss-Jordan over Fractions, the closed-form inverses of Bourbaki's
Planches, the direct products over the roots, a closure that probes each
string length against the set of known roots, and, for the dual Coxeter
number and the height sums stored at construction, the Fraction form and
sums root by root.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynkindex import rootsystems, verify
from dynkindex.reps import RepIndexReport, _lattice_reports, dynkin_index, weyl_dimension
from dynkindex.rootsystems import (
    LieType,
    RootSystem,
    _cartan_adjugate,
    _cartan_matrix,
    _positive_root_coords,
    _simple_norms,
    all_types,
    build,
)
from dynkindex.sl2 import mckay_data, principal_index, principal_minus_subregular

TYPES_TO_RANK_12 = [
    LieType(family, rank)
    for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for rank in range(low, 13)
] + [LieType.parse(label) for label in ("E6", "E7", "E8", "F4", "G2")]

# Every type up to rank 20, and two large ones.
ORACLE_TYPES = [*all_types(20), LieType("D", 50), LieType("A", 60)]

SAMPLE_TYPES = [
    "A1", "A4", "B3", "B5", "C3", "C5", "D4", "D6", "E6", "E7", "E8", "F4", "G2",
]


def invert_rational(matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Oracle: Gauss-Jordan over Fractions."""
    n = len(matrix)
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)]
        + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def probed_root_coords(cartan):
    """Oracle: height-by-height closure that measures each alpha_i-string
    below a root by stepping down and looking the tuples up among the known
    roots.  Returns the roots in order, their coroot pairings, and each
    non-simple root's parent index and step."""
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    pairing = {simple[i]: list(cartan[i]) for i in range(n)}
    known = set(simple)
    layer = list(simple)
    ordered = list(simple)
    parents, steps = [], []
    while layer:
        nxt = []
        for index, coords in enumerate(layer, len(ordered) - len(layer)):
            p = pairing[coords]
            for i in range(n):
                if p[i] >= 0:
                    if coords[i] <= p[i]:
                        continue
                    steps_down = 0
                    probe = list(coords)
                    while steps_down <= p[i]:
                        probe[i] -= 1
                        if tuple(probe) not in known:
                            break
                        steps_down += 1
                    if steps_down <= p[i]:
                        continue
                up = list(coords)
                up[i] += 1
                new = tuple(up)
                if new in known:
                    continue
                known.add(new)
                pairing[new] = [p[j] + cartan[i][j] for j in range(n)]
                nxt.append(new)
                parents.append(index)
                steps.append(i)
        ordered.extend(nxt)
        layer = nxt
    return ordered, [pairing[c] for c in ordered], tuple(parents), tuple(steps)


@pytest.mark.parametrize("lt", ORACLE_TYPES, ids=str)
def test_root_closure_matches_string_probe(lt):
    cartan = _cartan_matrix(lt)
    assert _positive_root_coords(cartan) == probed_root_coords(cartan)


def test_root_closure_of_an_affine_matrix_raises():
    # The Cartan matrix of affine A1 has infinitely many real roots; the
    # closure stops at its bound instead of looping.
    with pytest.raises(ArithmeticError, match="passes 120 roots"):
        _positive_root_coords(((2, -2), (-2, 2)))


@pytest.mark.parametrize(
    "cartan",
    [((2, -3), (-3, 2)), ((2, -1, 0), (-2, 2, -2), (0, -1, 2))],
    ids=["hyperbolic", "affine-C2"],
)
def test_root_closure_over_packed_keys_ends_on_non_finite_matrices(cartan):
    # At rank 2 and 3 the roots' keys pack several coordinates; the closure
    # still stops at its bound instead of looping or merging two roots.
    with pytest.raises(ArithmeticError, match="passes 120 roots"):
        _positive_root_coords(cartan)


def bourbaki_inverse(family: str, n: int, i: int, j: int) -> Fraction:
    """Oracle: entry (i, j), 1-based, of the inverse Cartan matrix, i.e. the
    alpha_j-coordinate of the fundamental weight omega_i (Bourbaki, Planches)."""
    low = min(i, j)
    if family == "A":
        return Fraction(low * (n + 1 - max(i, j)), n + 1)
    if family == "B":
        return Fraction(j, 2) if i == n else Fraction(low)
    if family == "C":
        return Fraction(i, 2) if j == n else Fraction(low)
    # D: the two spin nodes n-1 and n both hang off node n-2.
    if i <= n - 2 and j <= n - 2:
        return Fraction(low)
    if i <= n - 2 or j <= n - 2:
        return Fraction(low, 2)
    return Fraction(n if i == j else n - 2, 4)


@pytest.mark.parametrize("lt", TYPES_TO_RANK_12, ids=str)
def test_fundamental_weights_match_gauss_jordan(lt):
    rs = build(lt)
    assert rs.fundamental_weights == invert_rational(rs.cartan)


@pytest.mark.parametrize("family", "ABCD")
def test_integer_inverse_matches_bourbaki_at_rank_124(family):
    n = 124
    det, adjugate = _cartan_adjugate(_cartan_matrix(LieType(family, n)))
    assert det == {"A": n + 1, "B": 2, "C": 2, "D": 4}[family]
    for i, row in enumerate(adjugate, 1):
        for j, value in enumerate(row, 1):
            assert Fraction(value, det) == bourbaki_inverse(family, n, i, j), (i, j)


# Both users of the one walk of the Dynkin tree refuse what is not a Dynkin tree.
@pytest.mark.parametrize("walk", [_cartan_adjugate, _simple_norms], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "cartan",
    [
        ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),  # affine A2: a cycle
        ((2, -2), (-2, 2)),  # affine A1: a tree, but det C = 0
    ],
)
def test_integer_inverse_rejects_non_dynkin_matrices(cartan, walk):
    with pytest.raises(ArithmeticError):
        walk(cartan)


@pytest.mark.parametrize("label", ["D5", "F4"])
def test_inexact_adjugate_is_refused(monkeypatch, label):
    # A fresh object; one pivot of the tree walk is then off by one, so the
    # back-substitution's rows fail the check C X = det I.
    rs = RootSystem(LieType.parse(label))
    walk = rootsystems._dynkin_tree

    def off_by_one(cartan):
        nbrs, parent, order, children, sub, below = walk(cartan)
        sub = list(sub)
        sub[order[-1]] += 1
        return nbrs, parent, order, children, sub, below

    monkeypatch.setattr(rootsystems, "_dynkin_tree", off_by_one)
    with pytest.raises(ArithmeticError, match="^inexact inverse of the Cartan matrix$"):
        rs.fundamental_weights
    with pytest.raises(ArithmeticError, match="^inexact inverse of the Cartan matrix$"):
        rs.weight_form((1,) * rs.rank, (0,) * rs.rank)


def test_construction_errors_name_the_type(monkeypatch):
    # Fresh objects, so the cached root systems stay intact.
    norms = rootsystems._simple_norms
    monkeypatch.setattr(rootsystems, "_simple_norms", lambda c: tuple(2 * d for d in norms(c)))
    with pytest.raises(ArithmeticError, match=r"^B3: normalisation failed$"):
        RootSystem(LieType("B", 3))
    monkeypatch.undo()
    # A message of the walk of the Dynkin tree: affine A1 is not positive definite.
    monkeypatch.setattr(rootsystems, "_simple_norms", lambda c: norms(((2, -2), (-2, 2))))
    with pytest.raises(ArithmeticError, match=r"^G2: Cartan matrix is not positive definite$"):
        RootSystem(LieType("G", 2))


def test_root_length_ratio_is_bounded_and_tied_to_the_highest_short_root(monkeypatch):
    # r is read off the simple norms; the short roots must then be 2/r long.
    monkeypatch.setattr(rootsystems, "_simple_norms", lambda c: (Fraction(1, 4),))
    with pytest.raises(ArithmeticError, match=r"^A1: root length ratio 4 is not 1, 2 or 3$"):
        RootSystem(LieType("A", 1))
    monkeypatch.undo()
    root = rootsystems.Root

    def halve_short(coords, height, is_long, norm2):
        return root(coords, height, is_long, norm2 if is_long else norm2 / 2)

    monkeypatch.setattr(rootsystems, "Root", halve_short)
    with pytest.raises(ArithmeticError, match=r"^B2: \(theta_s, theta_s\) \* r is not 2$"):
        RootSystem(LieType("B", 2))


def test_construction_and_the_index_never_invert_the_cartan_matrix(monkeypatch):
    def refuse(cartan):
        raise AssertionError("inverted the Cartan matrix")

    monkeypatch.setattr(rootsystems, "_cartan_adjugate", refuse)
    rs = RootSystem(LieType("E", 7))  # a fresh object, not the cached one
    omega7 = (0, 0, 0, 0, 0, 0, 1)
    assert weyl_dimension(rs, omega7) == 56
    assert dynkin_index(rs, omega7) == RepIndexReport(56, Fraction(12), True)


def test_construction_walks_the_dynkin_tree_once(monkeypatch):
    calls = []
    walk = rootsystems._dynkin_tree
    monkeypatch.setattr(rootsystems, "_dynkin_tree", lambda c: calls.append(c) or walk(c))
    RootSystem(LieType("F", 4))
    assert len(calls) == 1


def test_require_formats_its_message_only_on_failure():
    class Unformattable:
        def __format__(self, spec):
            raise AssertionError("formatted the message of a check that held")

    rootsystems._require(True, "{} failed", Unformattable())
    with pytest.raises(ArithmeticError, match=r"^G2: degrees 4 \+ 6 differ$"):
        rootsystems._require(False, "{}: degrees {} + {} differ", "G2", 4, 6)
    with pytest.raises(ArithmeticError, match=r"^braces {} kept$"):
        rootsystems._require(False, "braces {} kept")


def weyl_product_oracle(rs, weight) -> int:
    """Oracle: prod (lambda+rho, gamma) / prod (rho, gamma), each pairing
    summed coordinate by coordinate in Fractions."""
    num = den = Fraction(1)
    for root in rs.positive_roots:
        pairs = zip(root.coords, weight, rs.simple_norms)
        num *= sum(c * (w + 1) * d for c, w, d in pairs)
        den *= sum(c * d for c, d in zip(root.coords, rs.simple_norms))
    quotient = num / den
    assert quotient.denominator == 1
    return int(quotient)


def weight_form_oracle(rs, a, b) -> Fraction:
    """Oracle: b in root coordinates through the Fraction inverse, then
    (a, b) = sum_k y_k a_k d_k, since (omega_k, alpha_k) = d_k."""
    rows = invert_rational(rs.cartan)
    y = [sum(bi * rows[i][k] for i, bi in enumerate(b)) for k in range(rs.rank)]
    return sum((yk * ak * dk for yk, ak, dk in zip(y, a, rs.simple_norms)), Fraction(0))


def weights(low: int, high: int, count: int = 1):
    """A sample type label and `count` weights of its rank."""
    return st.sampled_from(SAMPLE_TYPES).flatmap(
        lambda label: st.tuples(
            st.just(label),
            *(
                st.tuples(*[st.integers(low, high)] * LieType.parse(label).rank)
                for _ in range(count)
            ),
        )
    )


@given(weights(0, 40))
def test_weyl_dimension_matches_root_product(case):
    label, weight = case
    rs = build(label)
    assert weyl_dimension(rs, weight) == weyl_product_oracle(rs, weight)


@given(weights(-20, 20, count=2))
def test_weight_form_matches_fraction_reference(case):
    label, a, b = case
    rs = build(label)
    assert rs.weight_form(a, b) == weight_form_oracle(rs, a, b)
    assert rs.weight_form(a, b) == rs.weight_form(b, a)


@given(weights(0, 40))
def test_dynkin_index_matches_fraction_oracles(case):
    # Neither oracle walks the root pairings: ind V = dim V (lambda, lambda +
    # 2 rho) / dim g, with rho = sum of the fundamental weights.
    label, weight = case
    rs = build(label)
    form = weight_form_oracle(rs, weight, tuple(x + 2 for x in weight))
    expected = weyl_product_oracle(rs, weight) * form / rs.dimension
    assert dynkin_index(rs, weight).index == expected


def fraction_gram(rs):
    """Oracle: the Gram matrix of the simple roots, one Fraction per entry."""
    return [[Fraction(g, rs.r) for g in row] for row in rs._int_gram]


def test_form_matches_fraction_gram():
    for label in SAMPLE_TYPES:
        rs = build(label)
        gram = fraction_gram(rs)
        for x in (rs.rho, rs.rho_check, rs.theta.coords):
            for y in (rs.rho, rs.theta.coords, rs.theta_short.coords):
                expected = sum(
                    xi * yj * gram[i][j]
                    for i, xi in enumerate(x)
                    for j, yj in enumerate(y)
                )
                assert rs.form(x, y) == expected


@pytest.mark.parametrize("lt", ORACLE_TYPES, ids=str)
def test_dual_coxeter_number_matches_fraction_form(lt):
    # Oracle: 1 + (rho, theta) through the Fraction path of form.
    rs = build(lt)
    oracle = 1 + rs.form(rs.rho, rs.theta.coords)
    assert oracle.denominator == 1
    assert type(rs.dual_coxeter_number) is int
    assert rs.dual_coxeter_number == int(oracle)


@pytest.mark.parametrize("lt", ORACLE_TYPES, ids=str)
def test_height_sums_match_per_root_sums(lt):
    # Oracle: the heights of the positive roots, summed root by root.
    rs = build(lt)
    long_sum = sum(r.height for r in rs.positive_roots if r.is_long)
    short_sum = sum(r.height for r in rs.positive_roots if not r.is_long)
    assert rs.height_sums == (long_sum, short_sum)
    assert all(type(total) is int for total in rs.height_sums)


def test_raised_dual_coxeter_number_is_a_route_disagreement():
    # A fresh object, so the cached root system stays intact.
    rs = RootSystem(LieType("B", 4))
    object.__setattr__(rs, "dual_coxeter_number", rs.dual_coxeter_number + 1)
    principal = principal_index(rs)
    assert not principal.consistent
    assert principal.routes["kostant"] != principal.value
    assert "kostant=" in principal.disagreement("B4 principal-index")
    difference = principal_minus_subregular(rs, principal.value, mckay_data(rs.lie_type))
    assert not difference.consistent
    assert difference.routes["module-difference"] != difference.routes["closed-form"]
    assert "closed-form=" in difference.disagreement("B4 difference")


def test_root_system_is_not_written_after_construction():
    rs = RootSystem(LieType("B", 3))
    before = dict(vars(rs))
    rs.fundamental_weights
    rs.weight_form((1, 0, 2), (0, 1, 1))
    rs.form(rs.rho, rs.theta.coords)
    weyl_dimension(rs, (1, 1, 0))
    dynkin_index(rs, (0, 2, 1))
    list(_lattice_reports(rs, 2))
    after = vars(rs)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_corrupted_weyl_denominator_is_caught():
    # A fresh object, so the cached root system stays intact.
    rs = RootSystem(LieType("A", 2))
    dim = weyl_dimension(rs, (1, 0))
    object.__setattr__(rs, "_rho_product", rs._rho_product * (dim + 1))
    with pytest.raises(ArithmeticError):
        weyl_dimension(rs, (1, 0))


def test_corrupted_weyl_denominator_is_caught_by_the_lattice_batch():
    rs = RootSystem(LieType("A", 2))
    object.__setattr__(rs, "_rho_product", rs._rho_product * 2)
    with pytest.raises(ArithmeticError):
        list(_lattice_reports(rs, 3))


def test_corrupted_index_denominator_fails_the_integrality_check(monkeypatch):
    # Fresh objects with r^2 h* dim g doubled, served to the check as built.
    systems = {}
    for lt in all_types(2):
        rs = systems[lt] = RootSystem(lt)
        object.__setattr__(rs, "_index_denominator", 2 * rs._index_denominator)
    monkeypatch.setattr(verify, "build", systems.__getitem__)
    result = verify.check_integrality(verify.VerifyConfig(max_classical_rank=2))
    # The failure lines of a dynkin_index call per nonzero weight, in order.
    expected = []
    for lt, rs in systems.items():
        for weight in product(range(3), repeat=rs.rank):
            report = dynkin_index(rs, weight)
            if any(weight) and not report.is_integer:
                expected.append(f"{lt} {weight}: index {report.index}")
    assert expected
    assert not result.passed
    assert result.counterexamples == tuple(expected)
