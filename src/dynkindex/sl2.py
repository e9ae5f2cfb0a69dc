"""Indices of the sl2-subalgebras attached to nilpotent orbits.

Nilpotent orbits of the classical algebras are labelled by partitions (the
Jordan type on the defining module), subject to parity conditions for sp and
so.  Each orbit determines an sl2-subalgebra up to conjugacy, and its index
can be computed along several independent routes:

* directly from the partition,
* by branching the adjoint module to sl2 and dividing by twice the dual
  Coxeter number,
* for exceptional algebras, from a user-supplied Jordan type in the smallest
  faithful module,
* for the principal orbit, from the root system alone (three ways),
* for the subregular orbit, from the exponents and the pair of invariant
  degrees (a, b) with a + b = h + 2.

Every public operation returns exact integers or Fractions, and the routes
are kept separate so that any disagreement is visible as data.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, groupby, repeat
from math import comb
from operator import add, mul
from types import MappingProxyType

from . import reps
from .rootsystems import LieType, RootSystem, _cartan_matrix, _integers, _require, all_types, build
from .rootsystems import KINDS, classical_kind, defining_module  # KINDS is re-exported

Partition = tuple[int, ...]
Sl2Module = tuple[int, ...]
Sl2Multiset = tuple[tuple[int, int], ...]  # (label, multiplicity) pairs


def binom3(m: int) -> int:
    """C(m, 3), zero below the diagonal (needed for small partition parts)."""
    return comb(m, 3) if m >= 3 else 0


def normalize_partition(parts) -> Partition:
    p = _integers(parts, "partition part")
    p.sort(reverse=True)
    if not p:
        raise ValueError("empty partition")
    if p[-1] < 1:
        raise ValueError(f"partition parts must be positive: {parts}")
    return tuple(p)


def partition_is_admissible(kind: str, p: Partition) -> bool:
    """Parity test for the Jordan types occurring in sl/sp/so: the parts of
    each of the kind's paired parities come in pairs.  sp's even total then
    follows: once its odd parts come in pairs, the total is even."""
    paired = classical_kind(kind).paired
    return not paired or all(m % 2 == 0 for k, m in Counter(p).items() if k % 2 in paired)


def _require_admissible(kind: str, p: Partition) -> None:
    if not partition_is_admissible(kind, p):
        raise ValueError(f"partition {p} violates the {kind} parity conditions")


def _require_nonzero(p: Partition) -> None:
    if p[0] < 2:
        raise ValueError(
            "the zero nilpotent (all parts 1) has no attached sl2-subalgebra"
        )


# -- sl2-module bookkeeping --------------------------------------------------


def module_dimension(components: Sl2Module) -> int:
    """Total dimension: each entry d stands for one irreducible of dim d+1."""
    return sum(d + 1 for d in components)


def module_index(components: Sl2Module) -> int:
    """Index of a direct sum of sl2-irreducibles: sum of C(d+2, 3), taken
    once per run of equal labels (a descending module has one run a label)."""
    return sum(binom3(d + 2) * len(list(run)) for d, run in groupby(components))


def branch_vector_rep(p: Partition) -> Sl2Module:
    """Restriction of the defining module to the sl2 of Jordan type p."""
    return tuple([part - 1 for part in p])  # from a list, as cli.parse_parts


# The labels of CG(a, b), Sym^2 V_m and Lambda^2 V_m, each a progression,
# largest first; the public functions below expand them.


def _cg_labels(a: int, b: int) -> range:
    return range(a + b, abs(a - b) - 1, -2)


def _sym2_labels(m: int) -> range:
    return range(2 * m, -1, -4)


def _wedge2_labels(m: int) -> range:
    return range(2 * m - 2, -1, -4)


def _expanded(labels, *components: int) -> Sl2Module:
    if any(c < 0 for c in components):
        raise ValueError("component labels must be nonnegative")
    return tuple(labels(*components))


def clebsch_gordan(a: int, b: int) -> Sl2Module:
    """Tensor product of two sl2-irreducibles."""
    return _expanded(_cg_labels, a, b)


def sym2(m: int) -> Sl2Module:
    """Symmetric square of one irreducible: 2m, 2m-4, ... down to 0 or 2."""
    return _expanded(_sym2_labels, m)


def wedge2(m: int) -> Sl2Module:
    """Exterior square of one irreducible: 2m-2, 2m-6, ... (empty for m=0)."""
    return _expanded(_wedge2_labels, m)


# -- indices from partitions -------------------------------------------------


def classical_index(kind: str, p: Partition) -> Fraction:
    """Index of the orbit's sl2 inside sl/sp/so, from the Jordan type.

    The index of V under the sl2, sum C(part+1, 3), over that of V in the
    kind.  Valid orthogonal partitions always give an integer; the result
    is a Fraction, so a half-integer would show.
    """
    p = normalize_partition(p)
    _require_nonzero(p)
    _require_admissible(kind, p)
    total = sum(binom3(part + 1) for part in p)
    return Fraction(total, classical_kind(kind).vector_index)


def branch_adjoint_multiplicities(kind: str, p: Partition) -> Sl2Multiset:
    """Restriction of sl/sp/so (on the module of Jordan type p) to the sl2,
    as (label, multiplicity) pairs with labels descending.

    The adjoint module is the sum of the squares of V in the kind's record
    (less one trivial summand for sl), so one loop serves all three kinds.
    V is grouped by part size.  Each square of V gives CG(a, b) m_a m_b times
    for two distinct sizes a, b with multiplicities m_a, m_b, and, for one
    size a with multiplicity m, CG(a, a) C(m, 2) times plus m copies of the
    square of V_a itself.

    The labels of each such term form a progression, of step 2 for CG(a, b)
    and step 4 for a square, so a term is two updates of a difference array
    of its step: +times at its top label and -times one step below its
    bottom label.  The arrays are indexed by 2 a_max - label (a_max the
    largest label of V), so the slot below a bottom label of 0 is 2 a_max + 2
    or 2 a_max + 4, never a negative index.  Running sums within each residue
    class of the step then give the multiplicity of every label, largest
    first.  The work is quadratic in the number of distinct part sizes plus
    linear in the largest part; it does not grow with the length of each
    Clebsch-Gordan series.
    """
    p = normalize_partition(p)
    _require_admissible(kind, p)
    squares = [_sym2_labels if s > 0 else _wedge2_labels for s in classical_kind(kind).squares]
    counts = Counter(branch_vector_rep(p))
    sizes = sorted(counts, reverse=True)
    top = 2 * sizes[0]
    diffs = {2: [0] * (top + 5), 4: [0] * (top + 5)}  # label top - i at slot i

    def record(labels: range, times: int) -> None:
        diff = diffs[-labels.step]
        diff[top - labels.start] += times
        diff[top - labels.start - len(labels) * labels.step] -= times

    for i, a in enumerate(sizes):
        m = counts[a]
        for b in sizes[i + 1 :]:
            record(_cg_labels(a, b), len(squares) * m * counts[b])
        record(_cg_labels(a, a), len(squares) * comb(m, 2))
        for square in squares:
            record(square(a), m)
    multiplicities = [0] * (top + 5)
    for step, diff in diffs.items():
        for r in range(step):  # running sums within each residue class
            run = accumulate(diff[r::step])
            multiplicities[r::step] = map(add, multiplicities[r::step], run)
    del multiplicities[top + 1 :]
    n = sum(p)
    if kind == "sl":
        multiplicities[top] -= 1  # gl(V) = V (x) V* less its centre, the scalars
    expected = {"sl": n * n - 1, "sp": n * (n + 1) // 2, "so": n * (n - 1) // 2}[kind]
    dimension = sum(map(mul, range(top + 1, 0, -1), multiplicities))
    _require(dimension == expected, "{} branching of {}: wrong dimension", kind, p)
    # From a list, as cli.parse_parts and branch_vector_rep build their tuples.
    return tuple(list(compress(zip(range(top, -1, -1), multiplicities), multiplicities)))


def branch_adjoint(kind: str, p: Partition) -> Sl2Module:
    """Restriction of sl/sp/so to the sl2 of Jordan type p, one entry per
    irreducible, descending: the expansion of branch_adjoint_multiplicities."""
    pairs = branch_adjoint_multiplicities(kind, p)
    return tuple(chain.from_iterable(repeat(d, m) for d, m in pairs))


def index_via_adjoint(kind: str, p: Partition) -> Fraction:
    """Index of the orbit's sl2 from the adjoint branching.

    Divides the index of the branched adjoint module by twice the dual
    Coxeter number of sl/sp/so, which only depends on the module size.
    """
    p = normalize_partition(p)
    _require_nonzero(p)
    module = branch_adjoint(kind, p)
    n = sum(p)
    if kind == "sl":
        dual_coxeter = n
    elif kind == "sp":
        dual_coxeter = n // 2 + 1
    else:
        dual_coxeter = n - 2  # positive: so has no nonzero orbit at n <= 2
    return Fraction(module_index(module), 2 * dual_coxeter)


def index_via_simplest_rep(lt: LieType, p: Partition) -> Fraction:
    """Index of an exceptional orbit's sl2 from its Jordan type in the
    smallest faithful module.

    The Jordan type is caller-supplied (such data is tabulated in the
    literature); only its size and the parity conditions of the classical
    target are validated here.  A non-integral result means the partition is
    not the Jordan type of any nilpotent of this algebra and is rejected.
    """
    _, dim, kind, embedding = reps.simplest_representation(lt)
    p = normalize_partition(p)
    _require_nonzero(p)
    if sum(p) != dim:
        raise ValueError(
            f"partition of {sum(p)} does not match the {dim}-dimensional module of {lt}"
        )
    value = classical_index(kind, p) / embedding
    if value.denominator != 1:
        raise ValueError(
            f"non-integral index {value}: {p} is not a nilpotent Jordan type of {lt}"
        )
    return value


# -- multi-route reports -------------------------------------------------------

# The two routes of a classical orbit's index, by the names every report uses.
PARTITION_ROUTE = "partition-formula"
ADJOINT_ROUTE = "adjoint-branching"


@dataclass(frozen=True)
class IndexReport:
    """An index value together with every route that produced it."""

    value: Fraction
    routes: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "routes", MappingProxyType(dict(self.routes)))

    @property
    def consistent(self) -> bool:
        return all(v == self.value for v in self.routes.values())

    def disagreement(self, subject: str) -> str:
        """The one report of a route disagreement: every route, by name, with
        its value as p/q."""
        routes = ", ".join(f"{k}={Fraction(v)}" for k, v in sorted(self.routes.items()))
        return f"route disagreement for {subject}: {routes}"


def principal_index(rs: RootSystem) -> IndexReport:
    """Index of a principal sl2-subalgebra, along every available route.

    The closed route dim(g)/6 * h*(dual) * r, the weighted height sum (equal
    to twice the squared length of the coroot half-sum), and Kostant's
    decomposition of the adjoint module over the exponents must agree; for
    classical types the partition route is added as well.
    """
    long_sum, short_sum = rs.height_sums
    routes = {
        "dual-coxeter-uniform": Fraction(
            rs.dimension * rs.dual_coxeter_number_of_dual * rs.r, 6
        ),
        "coroot-norm": Fraction(long_sum + rs.r * short_sum),
        "kostant": Fraction(
            sum(comb(2 * m + 2, 3) for m in rs.exponents),
            2 * rs.dual_coxeter_number,
        ),
    }
    module = defining_module(rs.lie_type)
    if module is not None:
        kind, dim = module
        p = (dim,) if partition_is_admissible(kind, (dim,)) else (dim - 1, 1)
        routes[PARTITION_ROUTE] = classical_index(kind, p)
    return IndexReport(routes["dual-coxeter-uniform"], routes)


# -- invariant degrees and the subregular orbit -------------------------------


@dataclass(frozen=True)
class McKayData:
    """Invariant degrees (a, b) with a + b = h + 2 and the order a*b/2 of
    McKay's (1980) subgroup of SL2, read from the partner's highest root."""

    a: int
    b: int
    group_order: int


# Degrees (a, b) per family; mckay_data checks a + b = h + 2 and a*b/2
# against the partner's group order, subregular_module the dimension count.
_AB_EXCEPTIONAL = {"E6": (6, 8), "E7": (8, 12), "E8": (12, 20), "F4": (6, 8), "G2": (4, 4)}


def ab_closed_form(family: str, n: int) -> tuple[int, int]:
    """Raw per-family degrees; for C2/D3 the pair comes out reversed and is
    reordered by mckay_data."""
    if family == "A":
        return 2, n + 1
    if family == "B":
        return 2, 2 * n
    if family == "C":
        return 4, 2 * n - 2
    if family == "D":
        return 4, 2 * n - 4
    return _AB_EXCEPTIONAL[f"{family}{n}"]


def _unfolding(lt: LieType) -> LieType:
    """Slodowy's (1980) simply-laced unfolding: C_n -> A_2n-1, B_n -> D_n+1,
    F4 -> E6, G2 -> D4, and a simply-laced type is its own."""
    n = lt.rank
    partners = {"C": ("A", 2 * n - 1), "B": ("D", n + 1), "F": ("E", 6), "G": ("D", 4)}
    return LieType(*partners.get(lt.family, (lt.family, n)))


def _mckay_partner(lt: LieType) -> LieType:
    """The unfolding of the Langlands dual, so B_n -> A_2n-1 and C_n -> D_n+1."""
    return _unfolding(LieType({"B": "C", "C": "B"}.get(lt.family, lt.family), lt.rank))


def _highest_root(cartan, label) -> list[int]:
    """theta of a simply-laced Cartan matrix, its only dominant root: from
    alpha_1, add alpha_i while <beta, alpha_i-check> < 0 (each step gives a
    root) and the height is at most rank^2; then (beta, beta) must be 2."""
    beta, pairings = [1] + [0] * (len(cartan) - 1), list(cartan[0])
    while min(pairings) < 0 and sum(beta) <= len(cartan) ** 2:
        i = pairings.index(min(pairings))
        beta[i] += 1
        pairings = [p + c for p, c in zip(pairings, cartan[i])]
    dominant = min(pairings) >= 0 and sum(b * p for b, p in zip(beta, pairings)) == 2
    _require(dominant, "{}: the climb ends at no dominant root of norm 2", label)
    return beta


@lru_cache(maxsize=None)
def mckay_data(lt: LieType) -> McKayData:
    """Degrees of a simple type of rank at least 2, and a*b/2 checked against
    1 + the squared marks of the partner's highest root; cached per type."""
    if lt.rank < 2:
        raise ValueError(f"{lt}: rank 1 has no subregular orbit and no degree pair")
    h = build(lt).coxeter_number
    a, b = sorted(ab_closed_form(lt.family, lt.rank))
    _require(a + b == h + 2, "{}: degrees {} + {} differ from h + 2 = {}", lt, a, b, h + 2)
    partner = _mckay_partner(lt)
    order = 1 + sum(c * c for c in _highest_root(_cartan_matrix(partner), partner))
    _require(a * b == 2 * order, "{}: group order {} != {}", lt, Fraction(a * b, 2), order)
    return McKayData(a, b, order)


def subregular_module(rs: RootSystem, data: McKayData) -> Sl2Module:
    """Restriction of the adjoint module to a subregular sl2.

    Drops the top exponent from the principal decomposition and adds the
    three pieces of degrees a-2, b-2 and h-2.
    """
    exps = rs.exponents
    h = rs.coxeter_number
    exps_ok = exps[0] == 1 and exps[0] < exps[1] and exps[-2] < exps[-1] == h - 1
    _require(exps_ok, "{}: exponents {} do not fit h = {}", rs.lie_type, exps, h)
    components = tuple(
        sorted(
            [2 * m for m in exps[:-1]] + [data.a - 2, data.b - 2, h - 2],
            reverse=True,
        )
    )
    _require(module_dimension(components) == rs.dimension, "{}: wrong dimension", rs.lie_type)
    return components


def principal_minus_subregular(
    rs: RootSystem, principal: Fraction, data: McKayData
) -> IndexReport:
    """Difference D of the principal and subregular indices, four ways.

    Closed form (h/h*)(C(h,2) + (a-2)(b-2)/4), the variant through the group
    order (the partner's marks), the raw binomial difference of the two
    adjoint branchings, and the literal difference of the two index
    computations, the one route that reads the principal value.  Each is a
    Fraction of two integers.
    """
    h = rs.coxeter_number
    hstar = rs.dual_coxeter_number
    a, b = data.a, data.b
    routes = {
        "closed-form": Fraction(h * (4 * comb(h, 2) + (a - 2) * (b - 2)), 4 * hstar),
        "group-order": Fraction(h * (h * (h - 2) + data.group_order), 2 * hstar),
        "raw-binomial": Fraction(
            binom3(2 * h) - binom3(h) - binom3(a) - binom3(b), 2 * hstar
        ),
        "module-difference": Fraction(
            2 * hstar * principal.numerator
            - module_index(subregular_module(rs, data)) * principal.denominator,
            2 * hstar * principal.denominator,
        ),
    }
    return IndexReport(routes["closed-form"], routes)


# -- the summary row and the empirical bounds on D ---------------------------


_RATIO_CONSTANT = {
    "A": Fraction(1, 2),
    "B": Fraction(1),
    "C": Fraction(2),
    "D": Fraction(1),
}

_EQUALITY_TYPES = frozenset(("G2", "F4", "E8"))


@dataclass(frozen=True)
class SummaryRow:
    """One type's row of the summary table, which the sweep over D reads."""

    label: str
    rank: int
    principal: Fraction
    d: Fraction
    h: int
    a: int
    b: int

    @property
    def ratio(self) -> Fraction:
        return self.d / (self.b * self.rank)


@lru_cache(maxsize=None)
def summary_row(lt: LieType) -> SummaryRow:
    """The principal index, D, and the degree pair of lt; a report whose
    routes disagree raises its disagreement and is not cached."""
    rs = build(lt)
    data = mckay_data(lt)  # first: it refuses rank 1 and a broken degree pair
    principal = principal_index(rs)
    difference = principal_minus_subregular(rs, principal.value, data)
    for quantity, report in (("principal-index", principal), ("difference", difference)):
        if not report.consistent:
            raise ArithmeticError(report.disagreement(f"{lt} {quantity}"))
    values = (principal.value, difference.value, rs.coxeter_number, data.a, data.b)
    return SummaryRow(str(lt), lt.rank, *values)


def sweep_types(max_classical_rank: int):
    """Types covered by the empirical sweeps: the types of all_types with
    rank at least 2, without C2 and D3 (the same algebras as B2 and A3)."""
    for lt in all_types(max_classical_rank):
        if lt.rank >= 2 and str(lt) not in ("C2", "D3"):
            yield lt


def difference_failures(row: SummaryRow) -> list[str]:
    """A message for each empirical claim about D that row breaks."""
    label, d, n, ratio = row.label, row.d, row.rank, row.ratio
    expect_eq = label in _EQUALITY_TYPES
    failures = []
    for bound, factor in (("2h", 2 * row.h), ("3b", 3 * row.b)):
        if d > factor * n:
            failures.append(f"{label}: D > {bound}*rank")
        if (d == factor * n) != expect_eq:
            failures.append(f"{label}: equality with {bound}*rank mismatch")
    if label[0] in _RATIO_CONSTANT and ratio != _RATIO_CONSTANT[label[0]]:
        failures.append(f"{label}: ratio {ratio} off series constant")
    if row.h % 2 == 0 and (d / n).denominator != 1:
        failures.append(f"{label}: D/rank not integral though h is even")
    return failures
