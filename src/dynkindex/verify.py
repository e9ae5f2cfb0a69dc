"""Verification sweeps aggregating the cross-route invariants of the library.

Each check runs an exhaustive sweep at configurable desk-scale bounds and
reports counterexamples as data; a passing run means every identity held
exactly, with no tolerance anywhere.

A check is written as a generator over its cases that yields each case's
failure messages, an empty list when the case holds.  The ``_check(name,
counted)`` decorator turns it into a function from ``VerifyConfig`` to
``CheckResult`` and registers that function in ``CHECKS`` under ``name``, in
the order of definition; the result's detail is ``"<cases> <counted>"`` and
its counterexamples are listed in sweep order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import wraps
from itertools import product

from . import identities, orbits, reps, sl2
from .rootsystems import all_types, build, classical_kind


@dataclass(frozen=True)
class VerifyConfig:
    """The sweep bounds and the checks to run; each field is also a CLI flag
    and a config key, named as the field with dashes."""

    max_classical_rank: int = 10
    max_partition_size: int = 12
    max_identity_n: int = 12
    only: tuple[str, ...] | None = None  # None means every check

    def __post_init__(self) -> None:
        for name in BOUNDS:
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        if self.only is not None:  # a list would make the config mutable
            object.__setattr__(self, "only", tuple(self.only))


BOUNDS = tuple(f.name for f in fields(VerifyConfig) if f.name != "only")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexamples: tuple[str, ...] = ()


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
            return CheckResult(name, not failures, f"{cases} {counted}", tuple(failures))

        CHECKS[name] = check
        return check

    return register


def _orbit_sizes(max_n: int) -> Iterator[tuple[str, int]]:
    """(kind, n) for each kind and 2 <= n <= max_n at which 1^n is admissible."""
    for kind, n in product(sl2.KINDS, range(2, max_n + 1)):
        if sl2.partition_is_admissible(kind, (1,) * n):
            yield kind, n


@_check("structure", "root systems checked")
def check_structure(config: VerifyConfig) -> Iterator[list[str]]:
    """Root lengths, height pairing, strange formula, and the equality of the
    coroot-norm expression with the weighted height sums (RootSystem requires
    (theta, theta) = 2 and the exponent sum, subregular_module the top
    exponent; check_principal compares the sums with the closed expression).
    Both (rho-check, gamma) and ht(gamma) are linear in gamma, so the height
    pairing is checked on the simple roots, which the closure lists first."""
    for lt in all_types(config.max_classical_rank):
        rs = build(lt)
        failures = []
        allowed = {Fraction(2), Fraction(2, rs.r)}
        if any(root.norm2 not in allowed for root in rs.positive_roots):
            failures.append(f"{lt}: unexpected root length")
        simple = rs.positive_roots[: rs.rank]
        if any(rs.form(rs.rho_check, root.coords) != root.height for root in simple):
            failures.append(f"{lt}: coroot half-sum pairing is not the height")
        if rs.form(rs.rho, rs.rho) != Fraction(rs.dimension * rs.dual_coxeter_number, 12):
            failures.append(f"{lt}: strange formula failed")
        long_sum, short_sum = rs.height_sums
        if 2 * rs.form(rs.rho_check, rs.rho_check) != long_sum + rs.r * short_sum:
            failures.append(f"{lt}: coroot norm differs from weighted height sum")
        yield failures


@_check("unfolding", "pairs checked")
def check_unfolding(config: VerifyConfig) -> Iterator[list[str]]:
    """Weighted height sum of a multiply-laced type equals the plain height
    sum of its simply-laced unfolding."""
    for folded_type in all_types(min(config.max_classical_rank, 8)):
        unfolded_type = sl2._unfolding(folded_type)
        if unfolded_type == folded_type:
            continue
        folded, unfolded = build(folded_type), build(unfolded_type)
        long_sum, short_sum = folded.height_sums
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
            routes = {sl2.PARTITION_ROUTE: sl2.classical_index(kind, p)}
            routes[sl2.ADJOINT_ROUTE] = sl2.index_via_adjoint(kind, p)
            report = sl2.IndexReport(routes[sl2.PARTITION_ROUTE], routes)
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
    for family in sl2.KINDS:
        for inst in identities.sweep(family, config.max_identity_n):
            yield [] if inst.holds else [f"{family} {inst.partition}: {inst.lhs} != {inst.rhs}"]


@_check("monotonicity", "posets checked")
def check_monotonicity(config: VerifyConfig) -> Iterator[list[str]]:
    """Strict index decrease along covers, and across comparable pairs."""
    for kind, n in _orbit_sizes(config.max_partition_size):
        poset = orbits.build_poset(kind, n)
        failures = []
        if not orbits.monotonicity_holds(poset):
            failures.append(f"{kind} n={n}: cover with non-decreasing index")
        if n <= 10 and not orbits.comparable_pairs_strict(poset):
            failures.append(f"{kind} n={n}: comparable pair out of order")
        yield failures


@_check("integrality", "irreducibles checked")
def check_integrality(config: VerifyConfig) -> Iterator[list[str]]:
    """Each nontrivial small-coordinate irreducible has an integer index and
    dimension >= 2: one lattice walk through dynkin_index's divide step gives
    the index times the denominator, and only a failure line builds a Fraction."""
    for lt in all_types(min(config.max_classical_rank, 6)):
        rs = build(lt)
        den = rs._index_denominator
        for weight, dim, numerator in reps._lattice_reports(rs, 3):
            if any(weight):
                failures = [] if dim > 1 else [f"{lt} {weight}: dimension {dim}"]
                if numerator % den:
                    failures.append(f"{lt} {weight}: index {Fraction(numerator, den)}")
                yield failures


@_check("minimal-orbit", "minimal orbits checked")
def check_minimal_orbit(config: VerifyConfig) -> Iterator[list[str]]:
    """The minimal orbit, 2 1^(n-2), or 2^2 1^(n-4) where 2s pair, has index
    exactly 1 in every classical algebra in which it is admissible."""
    for n, kind in product(range(2, 21), sl2.KINDS):
        p = (2, 2) if 0 in classical_kind(kind).paired else (2,)  # a paired 2 comes twice
        p += (1,) * (n - sum(p))
        if sum(p) == n and sl2.partition_is_admissible(kind, p):
            yield [] if sl2.classical_index(kind, p) == 1 else [f"{kind} {p}"]


@_check("difference-bounds", "types observed")
def check_difference_bounds(config: VerifyConfig) -> Iterator[list[str]]:
    """Empirical bounds and series constants for the difference D; a type
    whose routes disagree, or whose data sl2 refuses, is a counterexample."""
    for lt in sl2.sweep_types(config.max_classical_rank):
        try:
            row = sl2.summary_row(lt)
        except (ValueError, ArithmeticError) as exc:
            yield [str(exc)]  # the messages of sl2 name the type
        else:
            yield sl2.difference_failures(row)


@_check("mckay", "types checked")
def check_mckay(config: VerifyConfig) -> Iterator[list[str]]:
    """Degree pairs, group orders and subregular dimensions, each checked
    where sl2 builds it: mckay_data compares a*b/2 with the partner's marks."""
    for lt in sl2.sweep_types(config.max_classical_rank):
        try:
            sl2.subregular_module(build(lt), sl2.mckay_data(lt))
        except (ValueError, ArithmeticError) as exc:
            yield [str(exc)]  # each message names its type
        else:
            yield []


def run_checks(config: VerifyConfig) -> list[CheckResult]:
    """Run the named checks (every check by default), each once, in the
    order of first mention."""
    names = tuple(dict.fromkeys(config.only)) if config.only else tuple(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(
            f"unknown checks {unknown}; available: {', '.join(CHECKS)}"
        )
    return [CHECKS[name](config) for name in names]
