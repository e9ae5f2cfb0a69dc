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
from itertools import chain, groupby, repeat
from math import comb
from types import MappingProxyType

from . import reps
from .rootsystems import LieType, RootSystem, _integer, _require, all_types, build, defining_module

KINDS = ("sl", "sp", "so")

Partition = tuple[int, ...]
Sl2Module = tuple[int, ...]
Sl2Multiset = tuple[tuple[int, int], ...]  # (label, multiplicity) pairs


def binom3(m: int) -> int:
    """C(m, 3), zero below the diagonal (needed for small partition parts)."""
    return comb(m, 3) if m >= 3 else 0


def normalize_partition(parts) -> Partition:
    p = tuple(sorted((_integer(x, "partition part") for x in parts), reverse=True))
    if not p:
        raise ValueError("empty partition")
    if p[-1] < 1:
        raise ValueError(f"partition parts must be positive: {parts}")
    return p


def partition_is_admissible(kind: str, p: Partition) -> bool:
    """Parity test for the Jordan types occurring in sl/sp/so.

    sp: odd parts come in pairs (and the total is even); so: even parts come
    in pairs; sl: no condition.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "sl":
        return True
    if kind == "sp":
        if sum(p) % 2:
            return False
        bad_parity = 1
    else:
        bad_parity = 0
    counts: dict[int, int] = {}
    for part in p:
        counts[part] = counts.get(part, 0) + 1
    return all(n % 2 == 0 for part, n in counts.items() if part % 2 == bad_parity)


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
    return tuple(part - 1 for part in p)


def clebsch_gordan(a: int, b: int) -> Sl2Module:
    """Tensor product of two sl2-irreducibles."""
    if a < 0 or b < 0:
        raise ValueError("component labels must be nonnegative")
    return tuple(a + b - 2 * k for k in range(min(a, b) + 1))


def sym2(m: int) -> Sl2Module:
    """Symmetric square of one irreducible: 2m, 2m-4, ... down to 0 or 2."""
    if m < 0:
        raise ValueError("component labels must be nonnegative")
    return tuple(2 * m - 4 * k for k in range(m // 2 + 1))


def wedge2(m: int) -> Sl2Module:
    """Exterior square of one irreducible: 2m-2, 2m-6, ... (empty for m=0)."""
    if m < 0:
        raise ValueError("component labels must be nonnegative")
    return tuple(2 * m - 2 - 4 * k for k in range((m + 1) // 2))


# -- indices from partitions -------------------------------------------------


def classical_index(kind: str, p: Partition) -> Fraction:
    """Index of the orbit's sl2 inside sl/sp/so, from the Jordan type.

    sl and sp share the value sum C(part+1, 3); for so it is halved.  Valid
    orthogonal partitions always give an integer; the Fraction is returned
    unreduced to ints so sweeps can flag any half-integer occurrence.
    """
    p = normalize_partition(p)
    _require_nonzero(p)
    _require_admissible(kind, p)
    total = sum(binom3(part + 1) for part in p)
    return Fraction(total, 2 if kind == "so" else 1)


def branch_adjoint_multiplicities(kind: str, p: Partition) -> Sl2Multiset:
    """Restriction of sl/sp/so (on the module of Jordan type p) to the sl2,
    as (label, multiplicity) pairs with labels descending.

    sl(V) is V tensor V* minus one trivial summand, sp(V) the symmetric
    square, so(V) the exterior square.  V is grouped by part size: two
    distinct sizes a, b with multiplicities m_a, m_b give CG(a, b) m_a m_b
    times; one size with multiplicity m gives CG(a, a) C(m, 2) times in the
    cross terms and m copies of Sym^2 or Lambda^2 of itself.  The
    Clebsch-Gordan work is quadratic in the number of distinct part sizes,
    not in the number of parts.
    """
    p = normalize_partition(p)
    _require_admissible(kind, p)
    counts = Counter(branch_vector_rep(p))
    sizes = sorted(counts, reverse=True)
    out: Counter[int] = Counter()

    def add(components: Sl2Module, times: int) -> None:
        for d in components:
            out[d] += times

    n = sum(p)
    if kind == "sl":
        for a in sizes:
            for b in sizes:
                add(clebsch_gordan(a, b), counts[a] * counts[b])
        out[0] -= 1
        expected = n * n - 1
    else:
        square = sym2 if kind == "sp" else wedge2
        for i, a in enumerate(sizes):
            m = counts[a]
            for b in sizes[i + 1 :]:
                add(clebsch_gordan(a, b), m * counts[b])
            add(clebsch_gordan(a, a), comb(m, 2))
            add(square(a), m)
        expected = n * (n + 1) // 2 if kind == "sp" else n * (n - 1) // 2
    pairs = tuple(sorted(((d, m) for d, m in out.items() if m), reverse=True))
    dimension = sum((d + 1) * m for d, m in pairs)
    _require(dimension == expected, f"{kind} branching of {p}: wrong dimension")
    return pairs


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
    n = sum(p)
    if kind == "sl":
        dual_coxeter = n
    elif kind == "sp":
        dual_coxeter = n // 2 + 1
    else:
        dual_coxeter = n - 2
        if dual_coxeter <= 0:
            raise ValueError("so requires module dimension at least 3")
    return Fraction(module_index(branch_adjoint(kind, p)), 2 * dual_coxeter)


def index_via_simplest_rep(lt: LieType, p: Partition) -> Fraction:
    """Index of an exceptional orbit's sl2 from its Jordan type in the
    smallest faithful module.

    The Jordan type is caller-supplied (such data is tabulated in the
    literature); only its size and the parity conditions of the classical
    target are validated here.  A non-integral result means the partition is
    not the Jordan type of any nilpotent of this algebra and is rejected.
    """
    if not lt.is_exceptional:
        raise ValueError(f"{lt} is not exceptional; use classical_index")
    p = normalize_partition(p)
    _require_nonzero(p)
    _, dim, kind = reps.simplest_representation(lt)
    if sum(p) != dim:
        raise ValueError(
            f"partition of {sum(p)} does not match the {dim}-dimensional module of {lt}"
        )
    value = classical_index(kind, p) / reps.simplest_embedding_index(lt)
    if value.denominator != 1:
        raise ValueError(
            f"non-integral index {value}: {p} is not a nilpotent Jordan type of {lt}"
        )
    return value


# -- multi-route reports -------------------------------------------------------


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
    long_sum, short_sum = rs.height_sums()
    routes = {
        "dual-coxeter-uniform": Fraction(
            rs.dimension * rs.dual_coxeter_number_of_dual() * rs.r, 6
        ),
        "coroot-norm": Fraction(long_sum + rs.r * short_sum),
        "kostant": Fraction(
            sum(binom3(2 * m + 2) for m in rs.exponents()),
            2 * rs.dual_coxeter_number(),
        ),
    }
    module = defining_module(rs.lie_type)
    if module is not None:
        kind, dim = module
        p = (dim,) if partition_is_admissible(kind, (dim,)) else (dim - 1, 1)
        routes["partition-formula"] = classical_index(kind, p)
    return IndexReport(routes["dual-coxeter-uniform"], routes)


# -- invariant degrees and the subregular orbit -------------------------------


@dataclass(frozen=True)
class McKayData:
    """Invariant degrees (a, b, h) with a + b = h + 2 and the order a*b/2 of
    the attached finite subgroup of SL2."""

    a: int
    b: int
    h: int
    group_order: int


# Degrees (a, b) per family; validated against a + b = h + 2 here and the
# dimension count of the subregular decomposition in subregular_module.
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


def mckay_data(lt: LieType) -> McKayData:
    """Invariant degrees attached to a simple type of rank at least 2."""
    if lt.rank < 2:
        raise ValueError(f"{lt}: rank 1 has no subregular orbit and no degree pair")
    rs = build(lt)
    h = rs.coxeter_number()
    a, b = sorted(ab_closed_form(lt.family, lt.rank))
    _require(a + b == h + 2, f"{lt}: degrees {a} + {b} differ from h + 2 = {h + 2}")
    _require((a * b) % 2 == 0, f"{lt}: degree product {a * b} is odd")
    return McKayData(a, b, h, a * b // 2)


def subregular_module(rs: RootSystem) -> Sl2Module:
    """Restriction of the adjoint module to a subregular sl2.

    Drops the top exponent from the principal decomposition and adds the
    three pieces of degrees a-2, b-2 and h-2.
    """
    if rs.rank < 2:
        raise ValueError(f"{rs.lie_type}: rank 1 has no subregular orbit")
    exps = rs.exponents()
    h = rs.coxeter_number()
    exps_ok = exps[0] == 1 and exps[0] < exps[1] and exps[-2] < exps[-1] == h - 1
    _require(exps_ok, f"{rs.lie_type}: exponents {exps} do not fit h = {h}")
    data = mckay_data(rs.lie_type)
    components = tuple(
        sorted(
            [2 * m for m in exps[:-1]] + [data.a - 2, data.b - 2, h - 2],
            reverse=True,
        )
    )
    _require(module_dimension(components) == rs.dimension, f"{rs.lie_type}: wrong dimension")
    return components


def principal_minus_subregular(rs: RootSystem) -> IndexReport:
    """Difference D of the principal and subregular indices, four ways.

    Closed form (h/h*)(C(h,2) + (a-2)(b-2)/4), the variant through the group
    order, the raw binomial difference of the two adjoint branchings, and the
    literal difference of the two index computations.
    """
    data = mckay_data(rs.lie_type)  # refuses rank 1, which has no subregular orbit
    h = rs.coxeter_number()
    hstar = rs.dual_coxeter_number()
    a, b = data.a, data.b
    routes = {
        "closed-form": Fraction(h, hstar)
        * (comb(h, 2) + Fraction((a - 2) * (b - 2), 4)),
        "group-order": Fraction(h, hstar)
        * Fraction(h * (h - 2) + data.group_order, 2),
        "raw-binomial": Fraction(
            binom3(2 * h) - binom3(h) - binom3(a) - binom3(b), 2 * hstar
        ),
        "module-difference": principal_index(rs).value
        - Fraction(module_index(subregular_module(rs)), 2 * hstar),
    }
    return IndexReport(routes["closed-form"], routes)


# -- empirical bounds on the difference ---------------------------------------


_RATIO_CONSTANT = {
    "A": Fraction(1, 2),
    "B": Fraction(1),
    "C": Fraction(2),
    "D": Fraction(1),
}

_EQUALITY_TYPES = frozenset(("G2", "F4", "E8"))


@dataclass(frozen=True)
class DifferenceObservation:
    """One row of the empirical sweep over the difference D."""

    label: str
    rank: int
    d: Fraction
    h: int
    b: int


def _observe(lt: LieType) -> DifferenceObservation:
    rs = build(lt)
    report = principal_minus_subregular(rs)
    if not report.consistent:
        raise ArithmeticError(report.disagreement(f"{lt} difference"))
    h, b = rs.coxeter_number(), mckay_data(lt).b
    return DifferenceObservation(str(lt), lt.rank, report.value, h, b)


def sweep_types(max_classical_rank: int):
    """Types covered by the empirical sweeps: the types of all_types with
    rank at least 2, without C2 and D3 (the same algebras as B2 and A3)."""
    for lt in all_types(max_classical_rank):
        if lt.rank >= 2 and str(lt) not in ("C2", "D3"):
            yield lt


def difference_observations(max_classical_rank: int) -> list[DifferenceObservation]:
    return [_observe(lt) for lt in sweep_types(max_classical_rank)]


def difference_observations_ok(observations) -> tuple[bool, list[str]]:
    """Check every empirical claim about D; returns (ok, failure messages)."""
    failures = []
    for obs in observations:
        label, d, n = obs.label, obs.d, obs.rank
        expect_eq = label in _EQUALITY_TYPES
        for bound, factor in (("2h", 2 * obs.h), ("3b", 3 * obs.b)):
            if d > factor * n:
                failures.append(f"{label}: D > {bound}*rank")
            if (d == factor * n) != expect_eq:
                failures.append(f"{label}: equality with {bound}*rank mismatch")
        ratio = d / (obs.b * n)
        if label[0] in _RATIO_CONSTANT and ratio != _RATIO_CONSTANT[label[0]]:
            failures.append(f"{label}: ratio {ratio} off series constant")
        if obs.h % 2 == 0 and (d / n).denominator != 1:
            failures.append(f"{label}: D/rank not integral though h is even")
    return not failures, failures
