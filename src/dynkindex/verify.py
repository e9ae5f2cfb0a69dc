"""Verification sweeps aggregating the cross-route invariants of the library.

Each check runs an exhaustive sweep at configurable desk-scale bounds and
reports counterexamples as data; a passing run means every identity held
exactly, with no tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import identities, orbits, reps, sl2
from .rootsystems import LieType, all_types, build


@dataclass(frozen=True)
class VerifyConfig:
    max_classical_rank: int = 10
    max_partition_size: int = 12
    max_identity_n: int = 12
    families: tuple[str, ...] | None = None  # None means every check

    def __post_init__(self) -> None:
        for name in ("max_classical_rank", "max_partition_size", "max_identity_n"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    failures: list[str] = field(default_factory=list)


def check_structure(config: VerifyConfig) -> CheckResult:
    """Normalisation, height pairing, exponents, strange formula, and the
    equality of the coroot-norm expression with the weighted height sums."""
    failures = []
    count = 0
    for lt in all_types(config.max_classical_rank):
        rs = build(lt)
        count += 1
        if rs.theta.norm2 != 2:
            failures.append(f"{lt}: highest root not normalised")
        allowed = {Fraction(2), Fraction(2, rs.r)}
        if any(root.norm2 not in allowed for root in rs.positive_roots):
            failures.append(f"{lt}: unexpected root length")
        if any(
            rs.form(rs.rho_check, root.coords) != root.height
            for root in rs.positive_roots
        ):
            failures.append(f"{lt}: coroot half-sum pairing is not the height")
        exps = rs.exponents()
        if sum(2 * m + 1 for m in exps) != rs.dimension or exps[-1] != rs.coxeter_number() - 1:
            failures.append(f"{lt}: exponent consistency failed")
        if not rs.strange_formula_holds():
            failures.append(f"{lt}: strange formula failed")
        long_sum, short_sum = rs.height_sums()
        combined = long_sum + rs.r * short_sum
        if rs.rho_check_norm2_doubled() != combined:
            failures.append(f"{lt}: coroot norm differs from weighted height sum")
        if combined != Fraction(rs.dimension * rs.dual_coxeter_number_of_dual() * rs.r, 6):
            failures.append(f"{lt}: closed expression differs from height sum")
    return CheckResult(
        "structure", not failures, f"{count} root systems checked", failures
    )


_UNFOLDING_PAIRS = (
    ("C", lambda n: LieType("A", 2 * n - 1)),
    ("B", lambda n: LieType("D", n + 1)),
)


def check_unfolding(config: VerifyConfig) -> CheckResult:
    """Weighted height sum of a multiply-laced type equals the plain height
    sum of its simply-laced unfolding."""
    failures = []
    pairs: list[tuple[LieType, LieType]] = []
    bound = min(config.max_classical_rank, 8)
    for family, partner in _UNFOLDING_PAIRS:
        for n in range(2, bound + 1):
            pairs.append((LieType(family, n), partner(n)))
    pairs.append((LieType.parse("F4"), LieType.parse("E6")))
    pairs.append((LieType.parse("G2"), LieType.parse("D4")))
    for folded_type, unfolded_type in pairs:
        folded = build(folded_type)
        unfolded = build(unfolded_type)
        long_sum, short_sum = folded.height_sums()
        total = sum(r.height for r in unfolded.positive_roots)
        if long_sum + folded.r * short_sum != total:
            failures.append(f"{folded_type} vs {unfolded_type}: height sums differ")
    return CheckResult(
        "unfolding", not failures, f"{len(pairs)} pairs checked", failures
    )


def check_routes(config: VerifyConfig) -> CheckResult:
    """Partition formula equals adjoint branching on every admissible orbit."""
    failures = []
    count = 0
    for kind in sl2.KINDS:
        for n in range(2, config.max_partition_size + 1):
            if kind == "sp" and n % 2:
                continue
            if kind == "so" and n == 2:
                continue
            for p in orbits.enumerate_orbits(kind, n):
                if p[0] < 2:
                    continue
                count += 1
                direct = sl2.classical_index(kind, p)
                branched = sl2.index_via_adjoint(kind, p)
                if direct != branched:
                    failures.append(f"{kind} {p}: {direct} != {branched}")
    return CheckResult(
        "routes", not failures, f"{count} partitions checked", failures
    )


def check_principal(config: VerifyConfig) -> CheckResult:
    """All principal-index routes agree for every type."""
    failures = []
    count = 0
    for lt in all_types(config.max_classical_rank):
        count += 1
        report = sl2.principal_index(build(lt))
        if not report.consistent:
            failures.append(f"{lt}: {dict(report.routes)}")
    return CheckResult(
        "principal", not failures, f"{count} types checked", failures
    )


def check_identities(config: VerifyConfig) -> CheckResult:
    """The three identity families over all partitions up to the bound."""
    failures = []
    count = 0
    for family in identities.FAMILIES:
        for inst in identities.sweep(family, config.max_identity_n):
            count += 1
            if not inst.holds:
                failures.append(
                    f"{family} {inst.partition}: {inst.lhs} != {inst.rhs}"
                )
    return CheckResult(
        "identities", not failures, f"{count} instances checked", failures
    )


def check_monotonicity(config: VerifyConfig) -> CheckResult:
    """Strict index decrease along covers, and across comparable pairs."""
    failures = []
    posets = 0
    for kind in sl2.KINDS:
        for n in range(2, config.max_partition_size + 1):
            if kind == "sp" and n % 2:
                continue
            posets += 1
            if not orbits.monotonicity_holds(kind, n):
                failures.append(f"{kind} n={n}: cover with non-decreasing index")
            if n <= 10 and not orbits.comparable_pairs_strict(kind, n):
                failures.append(f"{kind} n={n}: comparable pair out of order")
    return CheckResult(
        "monotonicity", not failures, f"{posets} posets checked", failures
    )


def check_integrality(config: VerifyConfig) -> CheckResult:
    """Dynkin index of small-coordinate irreducibles is an integer."""
    failures = []
    count = 0
    for lt in all_types(min(config.max_classical_rank, 6)):
        rs = build(lt)
        for weight in product(range(3), repeat=rs.rank):
            if not any(weight):
                continue
            count += 1
            report = reps.dynkin_index(rs, weight)
            if not report.is_integer:
                failures.append(f"{lt} {weight}: index {report.index}")
    return CheckResult(
        "integrality", not failures, f"{count} irreducibles checked", failures
    )


def check_minimal_orbit(config: VerifyConfig) -> CheckResult:
    """The minimal orbit has index exactly 1 in every classical algebra."""
    failures = []
    count = 0
    for n in range(2, 21):
        for kind, p in (("sl", (2,) + (1,) * (n - 2)), ("sp", (2,) + (1,) * (n - 2))):
            if kind == "sp" and n % 2:
                continue
            count += 1
            if sl2.classical_index(kind, p) != 1:
                failures.append(f"{kind} {p}")
        if n >= 4:
            p = (2, 2) + (1,) * (n - 4)
            count += 1
            if sl2.classical_index("so", p) != 1:
                failures.append(f"so {p}")
    return CheckResult(
        "minimal-orbit", not failures, f"{count} minimal orbits checked", failures
    )


def check_difference_bounds(config: VerifyConfig) -> CheckResult:
    """Empirical bounds and series constants for the difference D."""
    observations = sl2.difference_observations(config.max_classical_rank)
    ok, failures = sl2.difference_observations_ok(observations)
    return CheckResult(
        "difference-bounds",
        ok,
        f"{len(observations)} types observed",
        failures,
    )


def check_mckay(config: VerifyConfig) -> CheckResult:
    """Degree pairs, group orders, subregular dimensions, series coefficients."""
    failures = []
    count = 0
    for lt in sl2.sweep_types(config.max_classical_rank):
        count += 1
        rs = build(lt)
        try:
            data = sl2.mckay_data(lt)
            sub = sl2.subregular_module(rs)
        except (ValueError, ArithmeticError) as exc:
            failures.append(str(exc))  # the messages of sl2 name the type
            continue
        if data.a + data.b != data.h + 2 or data.group_order != data.a * data.b // 2:
            failures.append(f"{lt}: degree arithmetic off")
        if sl2.module_dimension(sub) != rs.dimension:
            failures.append(f"{lt}: subregular dimension off")
        coeffs = sl2.invariant_series_coefficients(data, 2 * data.h)
        if any(c < 0 for c in coeffs) or coeffs[0] != 1:
            failures.append(f"{lt}: invariant series coefficients off")
    return CheckResult("mckay", not failures, f"{count} types checked", failures)


CHECKS = {
    "structure": check_structure,
    "unfolding": check_unfolding,
    "routes": check_routes,
    "principal": check_principal,
    "identities": check_identities,
    "monotonicity": check_monotonicity,
    "integrality": check_integrality,
    "minimal-orbit": check_minimal_orbit,
    "difference-bounds": check_difference_bounds,
    "mckay": check_mckay,
}


def run_checks(config: VerifyConfig) -> list[CheckResult]:
    names = config.families if config.families else tuple(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(
            f"unknown checks {unknown}; available: {', '.join(CHECKS)}"
        )
    return [CHECKS[name](config) for name in names]
