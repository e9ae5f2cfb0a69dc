"""Verify checks driven into failure through the library they sweep."""

from fractions import Fraction

from dynkindex import orbits, sl2, verify
from dynkindex.sl2 import KINDS


def test_minimal_orbit_reports_every_broken_sl_case(monkeypatch):
    real = sl2.classical_index

    def broken(kind, p):
        return Fraction(2) if kind == "sl" else real(kind, p)

    monkeypatch.setattr(sl2, "classical_index", broken)
    result = verify.check_minimal_orbit(verify.VerifyConfig())
    assert result.name == "minimal-orbit"
    assert result.passed is False
    assert result.detail == "46 minimal orbits checked"
    assert result.failures == [f"sl {(2,) + (1,) * (n - 2)}" for n in range(2, 21)]


def test_monotonicity_reports_both_failures_per_poset(monkeypatch):
    monkeypatch.setattr(orbits, "monotonicity_holds", lambda kind, n: False)
    monkeypatch.setattr(orbits, "comparable_pairs_strict", lambda kind, n: False)
    result = verify.check_monotonicity(verify.VerifyConfig())
    expected = []
    for kind in KINDS:
        for n in range(2, 13):
            if kind == "sp" and n % 2:
                continue
            expected.append(f"{kind} n={n}: cover with non-decreasing index")
            if n <= 10:
                expected.append(f"{kind} n={n}: comparable pair out of order")
    assert result.name == "monotonicity"
    assert result.passed is False
    assert result.detail == "28 posets checked"
    assert result.failures == expected
    assert len(expected) == 51


def test_principal_names_every_route_of_a_disagreement(monkeypatch):
    real = sl2.principal_index

    def with_broken_route(rs):
        report = real(rs)
        return sl2.IndexReport(report.value, {**report.routes, "broken": report.value + 1})

    monkeypatch.setattr(sl2, "principal_index", with_broken_route)
    result = verify.check_principal(verify.VerifyConfig(max_classical_rank=2))
    assert result.passed is False
    assert result.failures[0] == (
        "route disagreement for A1 principal-index: broken=2, coroot-norm=1, "
        "dual-coxeter-uniform=1, kostant=1, partition-formula=1"
    )


def test_routes_reports_a_disagreement_in_the_one_form(monkeypatch):
    real = sl2.index_via_adjoint
    monkeypatch.setattr(sl2, "index_via_adjoint", lambda kind, p: real(kind, p) + 1)
    result = verify.check_routes(verify.VerifyConfig(max_partition_size=2))
    assert result.passed is False
    assert result.failures[0] == (
        "route disagreement for sl (2,): adjoint-branching=2, partition-formula=1"
    )
