"""The scaled-integer kernel of the root systems against independent oracles.

The library inverts the Cartan matrix in integers on the Dynkin tree,
evaluates the forms and the Weyl dimension over integer matrices, and finds
the positive roots by reading string lengths off recorded edges.  The
oracles here take other routes: Gauss-Jordan over Fractions, the closed-form
inverses of Bourbaki's Planches, the direct products over the roots, and a
closure that probes each string length against the set of known roots.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynkindex import rootsystems
from dynkindex.reps import dynkin_index, weyl_dimension
from dynkindex.rootsystems import (
    LieType,
    RootSystem,
    _cartan_adjugate,
    _cartan_matrix,
    _positive_root_coords,
    all_types,
    build,
)

TYPES_TO_RANK_12 = [
    LieType(family, rank)
    for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for rank in range(low, 13)
] + [LieType.parse(label) for label in ("E6", "E7", "E8", "F4", "G2")]

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


@pytest.mark.parametrize(
    "lt", [*all_types(20), LieType("D", 50), LieType("A", 60)], ids=str
)
def test_root_closure_matches_string_probe(lt):
    cartan = _cartan_matrix(lt)
    assert _positive_root_coords(cartan) == probed_root_coords(cartan)


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


@pytest.mark.parametrize(
    "cartan",
    [
        ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),  # affine A2: a cycle
        ((2, -2), (-2, 2)),  # affine A1: a tree, but det C = 0
    ],
)
def test_integer_inverse_rejects_non_dynkin_matrices(cartan):
    with pytest.raises(ArithmeticError):
        _cartan_adjugate(cartan)


def test_construction_errors_name_the_type(monkeypatch):
    # Fresh objects, so the cached root systems stay intact.
    norms, adjugate = rootsystems._simple_norms, rootsystems._cartan_adjugate
    monkeypatch.setattr(rootsystems, "_simple_norms", lambda c: tuple(2 * d for d in norms(c)))
    with pytest.raises(ArithmeticError, match=r"^B3: normalisation failed$"):
        RootSystem(LieType("B", 3))
    monkeypatch.undo()
    # A message of _cartan_adjugate: affine A1 is not positive definite.
    monkeypatch.setattr(rootsystems, "_cartan_adjugate", lambda c: adjugate(((2, -2), (-2, 2))))
    with pytest.raises(ArithmeticError, match=r"^G2: Cartan matrix is not positive definite$"):
        RootSystem(LieType("G", 2))


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


def fraction_gram(rs):
    """Oracle: the Gram matrix of the simple roots, one Fraction per entry."""
    return [[Fraction(g, rs._scale) for g in row] for row in rs._int_gram]


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


def test_root_system_is_not_written_after_construction():
    rs = RootSystem(LieType("B", 3))
    before = dict(vars(rs))
    rs.fundamental_weights
    rs.weight_form((1, 0, 2), (0, 1, 1))
    rs.form(rs.rho, rs.theta.coords)
    weyl_dimension(rs, (1, 1, 0))
    dynkin_index(rs, (0, 2, 1))
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
