"""Verification sweeps aggregating the cross-route invariants of the library.

Each check runs an exhaustive sweep at configurable desk-scale bounds and
reports counterexamples as data; a passing run means every identity held
exactly, with no tolerance anywhere.

A check is written as a generator over its cases that yields each case's
failure messages, an empty list when the case holds.  The ``_check(name,
counted)`` decorator turns it into a function from ``VerifyConfig`` to
``CheckResult`` and registers that function in ``CHECKS`` under ``name``, in
the order of definition; the result's detail is ``"<cases> <counted>"`` and
its failures are listed in sweep order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import wraps
from itertools import product

from . import identities, orbits, reps, sl2
from .rootsystems import LieType, all_types, build


@dataclass(frozen=True)
class VerifyConfig:
    """The sweep bounds, each also a CLI flag and config key, and the checks."""

    max_classical_rank: int = 10
    max_partition_size: int = 12
    max_identity_n: int = 12
    families: tuple[str, ...] | None = None  # None means every check

    def __post_init__(self) -> None:
        for name in BOUNDS:
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")


BOUNDS = tuple(f.name for f in fields(VerifyConfig) if f.name != "families")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    failures: list[str] = field(default_factory=list)


Sweep = Callable[[VerifyConfig], Iterator[list[str]]]
Check = Callable[[VerifyConfig], CheckResult]
CHECKS: dict[str, Check] = {}


def _check(name: str, counted: str) -> Callable[[Sweep], Check]:
    """Register a sweep as the check ``name``; see the module docstring."""

    def register(sweep: Sweep) -> Check:
        @wraps(sweep)
        def check(config: VerifyConfig) -> CheckResult:
            failures: list[str] = []
            cases = 0
            for case_failures in sweep(config):
                cases += 1
                failures += case_failures
            return CheckResult(name, not failures, f"{cases} {counted}", failures)

        CHECKS[name] = check
        return check

    return register


def _orbit_sizes(max_n: int) -> Iterator[tuple[str, int]]:
    """(kind, n) for every classical kind and 2 <= n <= max_n; n is even for sp."""
    for kind in sl2.KINDS:
        for n in range(2, max_n + 1):
            if kind != "sp" or n % 2 == 0:
                yield kind, n


@_check("structure", "root systems checked")
def check_structure(config: VerifyConfig) -> Iterator[list[str]]:
    """Root lengths, height pairing, top exponent, strange formula, and the
    equality of the coroot-norm expression with the weighted height sums
    (RootSystem itself requires (theta, theta) = 2 and the exponent sum;
    check_principal compares the sums with the closed expression)."""
    for lt in all_types(config.max_classical_rank):
        rs = build(lt)
        failures = []
        allowed = {Fraction(2), Fraction(2, rs.r)}
        if any(root.norm2 not in allowed for root in rs.positive_roots):
            failures.append(f"{lt}: unexpected root length")
        if any(
            rs.form(rs.rho_check, root.coords) != root.height
            for root in rs.positive_roots
        ):
            failures.append(f"{lt}: coroot half-sum pairing is not the height")
        if rs.exponents()[-1] != rs.coxeter_number() - 1:
            failures.append(f"{lt}: exponent consistency failed")
        if not rs.strange_formula_holds():
            failures.append(f"{lt}: strange formula failed")
        long_sum, short_sum = rs.height_sums()
        if rs.rho_check_norm2_doubled() != long_sum + rs.r * short_sum:
            failures.append(f"{lt}: coroot norm differs from weighted height sum")
        yield failures


_UNFOLDING_PAIRS = (
    ("C", lambda n: LieType("A", 2 * n - 1)),
    ("B", lambda n: LieType("D", n + 1)),
)


@_check("unfolding", "pairs checked")
def check_unfolding(config: VerifyConfig) -> Iterator[list[str]]:
    """Weighted height sum of a multiply-laced type equals the plain height
    sum of its simply-laced unfolding."""
    bound = min(config.max_classical_rank, 8)
    pairs = [
        (LieType(family, n), partner(n))
        for family, partner in _UNFOLDING_PAIRS
        for n in range(2, bound + 1)
    ] + [(LieType("F", 4), LieType("E", 6)), (LieType("G", 2), LieType("D", 4))]
    for folded_type, unfolded_type in pairs:
        folded = build(folded_type)
        unfolded = build(unfolded_type)
        long_sum, short_sum = folded.height_sums()
        total = sum(r.height for r in unfolded.positive_roots)
        differ = long_sum + folded.r * short_sum != total
        yield [f"{folded_type} vs {unfolded_type}: height sums differ"] if differ else []


@_check("routes", "partitions checked")
def check_routes(config: VerifyConfig) -> Iterator[list[str]]:
    """Partition formula equals adjoint branching on every admissible orbit."""
    for kind, n in _orbit_sizes(config.max_partition_size):
        for p in orbits.enumerate_orbits(kind, n):
            if p[0] < 2:  # the zero orbit
                continue
            routes = {"partition-formula": sl2.classical_index(kind, p)}
            routes["adjoint-branching"] = sl2.index_via_adjoint(kind, p)
            report = sl2.IndexReport(routes["partition-formula"], routes)
            yield [] if report.consistent else [report.disagreement(f"{kind} {p}")]


@_check("principal", "types checked")
def check_principal(config: VerifyConfig) -> Iterator[list[str]]:
    """All principal-index routes agree for every type."""
    for lt in all_types(config.max_classical_rank):
        report = sl2.principal_index(build(lt))
        yield [] if report.consistent else [report.disagreement(f"{lt} principal-index")]


@_check("identities", "instances checked")
def check_identities(config: VerifyConfig) -> Iterator[list[str]]:
    """The three identity families over all partitions up to the bound."""
    for family in identities.FAMILIES:
        for inst in identities.sweep(family, config.max_identity_n):
            yield [] if inst.holds else [f"{family} {inst.partition}: {inst.lhs} != {inst.rhs}"]


@_check("monotonicity", "posets checked")
def check_monotonicity(config: VerifyConfig) -> Iterator[list[str]]:
    """Strict index decrease along covers, and across comparable pairs."""
    for kind, n in _orbit_sizes(config.max_partition_size):
        failures = []
        if not orbits.monotonicity_holds(kind, n):
            failures.append(f"{kind} n={n}: cover with non-decreasing index")
        if n <= 10 and not orbits.comparable_pairs_strict(kind, n):
            failures.append(f"{kind} n={n}: comparable pair out of order")
        yield failures


@_check("integrality", "irreducibles checked")
def check_integrality(config: VerifyConfig) -> Iterator[list[str]]:
    """Dynkin index of small-coordinate irreducibles is an integer."""
    for lt in all_types(min(config.max_classical_rank, 6)):
        rs = build(lt)
        for weight in product(range(3), repeat=rs.rank):
            if not any(weight):
                continue
            report = reps.dynkin_index(rs, weight)
            yield [] if report.is_integer else [f"{lt} {weight}: index {report.index}"]


@_check("minimal-orbit", "minimal orbits checked")
def check_minimal_orbit(config: VerifyConfig) -> Iterator[list[str]]:
    """The minimal orbit has index exactly 1 in every classical algebra."""
    for n in range(2, 21):
        minimal = [("sl", (2,) + (1,) * (n - 2))]
        if n % 2 == 0:
            minimal.append(("sp", (2,) + (1,) * (n - 2)))
        if n >= 4:
            minimal.append(("so", (2, 2) + (1,) * (n - 4)))
        for kind, p in minimal:
            yield [] if sl2.classical_index(kind, p) == 1 else [f"{kind} {p}"]


@_check("difference-bounds", "types observed")
def check_difference_bounds(config: VerifyConfig) -> Iterator[list[str]]:
    """Empirical bounds and series constants for the difference D."""
    for observation in sl2.difference_observations(config.max_classical_rank):
        yield sl2.difference_observations_ok([observation])[1]


@_check("mckay", "types checked")
def check_mckay(config: VerifyConfig) -> Iterator[list[str]]:
    """Degree pairs and subregular dimensions, checked where sl2 builds them."""
    for lt in sl2.sweep_types(config.max_classical_rank):
        rs = build(lt)
        try:
            sl2.subregular_module(rs)  # it requires the degree pair of mckay_data
        except (ValueError, ArithmeticError) as exc:
            yield [str(exc)]  # the messages of sl2 name the type
        else:
            yield []


def run_checks(config: VerifyConfig) -> list[CheckResult]:
    """Run the named checks (every check by default), each once, in the
    order of first mention."""
    names = tuple(dict.fromkeys(config.families)) if config.families else tuple(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(
            f"unknown checks {unknown}; available: {', '.join(CHECKS)}"
        )
    return [CHECKS[name](config) for name in names]
