"""Verify checks driven into failure through the library they sweep, and
the immutability of their results."""

from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from dynkindex import orbits, rootsystems, sl2, verify
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
    assert result.counterexamples == tuple(f"sl {(2,) + (1,) * (n - 2)}" for n in range(2, 21))


def test_monotonicity_reports_both_failures_per_poset(monkeypatch):
    monkeypatch.setattr(orbits, "monotonicity_holds", lambda poset: False)
    monkeypatch.setattr(orbits, "comparable_pairs_strict", lambda poset: False)
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
    assert result.counterexamples == tuple(expected)
    assert len(expected) == 51


def test_monotonicity_builds_each_poset_once_and_each_index_once(monkeypatch):
    sizes = list(verify._orbit_sizes(verify.VerifyConfig().max_partition_size))
    nodes = sum(len(orbits.enumerate_orbits(kind, n)) for kind, n in sizes)
    calls = Counter()
    real_index, real_orbits = orbits.classical_index, orbits.enumerate_orbits

    def counted_index(kind, p):
        calls["classical_index"] += 1
        return real_index(kind, p)

    def counted_orbits(kind, n):
        calls["enumerate_orbits"] += 1
        return real_orbits(kind, n)

    monkeypatch.setattr(orbits, "classical_index", counted_index)
    monkeypatch.setattr(orbits, "enumerate_orbits", counted_orbits)
    result = verify.check_monotonicity(verify.VerifyConfig())
    assert result.passed and result.detail == "28 posets checked"
    assert calls["enumerate_orbits"] <= len(sizes) == 28
    assert calls["classical_index"] <= nodes == 472


def test_principal_names_every_route_of_a_disagreement(monkeypatch):
    real = sl2.principal_index

    def with_broken_route(rs):
        report = real(rs)
        return sl2.IndexReport(report.value, {**report.routes, "broken": report.value + 1})

    monkeypatch.setattr(sl2, "principal_index", with_broken_route)
    result = verify.check_principal(verify.VerifyConfig(max_classical_rank=2))
    assert result.passed is False
    assert result.counterexamples[0] == (
        "route disagreement for A1 principal-index: broken=2, coroot-norm=1, "
        "dual-coxeter-uniform=1, kostant=1, partition-formula=1"
    )


def test_routes_reports_a_disagreement_in_the_one_form(monkeypatch):
    real = sl2.index_via_adjoint
    monkeypatch.setattr(sl2, "index_via_adjoint", lambda kind, p: real(kind, p) + 1)
    result = verify.check_routes(verify.VerifyConfig(max_partition_size=2))
    assert result.passed is False
    assert result.counterexamples[0] == (
        "route disagreement for sl (2,): adjoint-branching=2, partition-formula=1"
    )


def test_config_stores_only_as_a_tuple():
    config = verify.VerifyConfig(only=["minimal-orbit"])
    assert config.only == ("minimal-orbit",)
    assert hash(config) == hash(verify.VerifyConfig(only=("minimal-orbit",)))
    with pytest.raises(AttributeError):
        config.only.append("routes")
    assert verify.VerifyConfig().only is None


def test_check_results_are_immutable():
    (result,) = verify.run_checks(verify.VerifyConfig(only=("unfolding",)))
    assert result.passed and type(result.counterexamples) is tuple
    with pytest.raises(FrozenInstanceError):
        result.counterexamples = ("added later",)


def test_the_climb_reaches_the_highest_root_of_every_partner():
    for partner in {sl2._mckay_partner(lt) for lt in sl2.sweep_types(12)}:
        climbed = sl2._highest_root(rootsystems._cartan_matrix(partner), partner)
        assert tuple(climbed) == rootsystems.build(partner).theta.coords, partner


@pytest.mark.parametrize(
    "cartan",
    [((2, -2), (-2, 2)), ((2, -3), (-3, 2))],
    ids=["affine-A1", "hyperbolic"],
)
def test_the_climb_on_an_infinite_type_raises_and_ends(cartan):
    # Affine A1 stops at the null root delta, dominant of norm 0; the
    # hyperbolic matrix climbs without end until the height bound.
    with pytest.raises(ArithmeticError, match="^X: the climb ends at no dominant root"):
        sl2._highest_root(cartan, "X")


def test_mckay_builds_no_partner():
    # Only the 38 swept types are built; A17, A19 and D11 are partners only.
    # The cache starts empty, so every partner is climbed here.
    rootsystems._build_cached.cache_clear()
    assert verify.check_mckay(verify.VerifyConfig()).passed
    assert rootsystems._build_cached.cache_info().currsize == len(list(sl2.sweep_types(10))) == 38


def test_mckay_lists_a_partner_with_no_highest_root(monkeypatch):
    monkeypatch.setattr(sl2, "_cartan_matrix", lambda lt: ((2, -2), (-2, 2)))
    result = verify.check_mckay(verify.VerifyConfig(max_classical_rank=2))
    assert result.passed is False
    assert result.counterexamples == tuple(
        f"{sl2._mckay_partner(lt)}: the climb ends at no dominant root of norm 2"
        for lt in sl2.sweep_types(2)
    )


class _RootSystemWith:
    """A root system with some attributes replaced; the rest, methods
    included, are read from the real one."""

    def __init__(self, rs, **changed):
        self.__dict__.update(changed, _rs=rs)

    def __getattr__(self, name):
        return getattr(self._rs, name)


@pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
def test_structure_sees_a_coroot_half_sum_off_in_one_coordinate(monkeypatch, last):
    real = verify.build

    def off_by_one(lt):
        rs = real(lt)
        rho_check = list(rs.rho_check)
        rho_check[-1 if last else 0] += 1
        return _RootSystemWith(rs, rho_check=tuple(rho_check))

    monkeypatch.setattr(verify, "build", off_by_one)
    result = verify.check_structure(verify.VerifyConfig(max_classical_rank=4))
    assert result.passed is False
    pairing = [f for f in result.counterexamples if f.endswith("pairing is not the height")]
    assert pairing == [
        f"{lt}: coroot half-sum pairing is not the height" for lt in verify.all_types(4)
    ]


def test_structure_sees_a_short_root_of_the_wrong_length(monkeypatch):
    # One short root other than theta_s, whose length the constructor itself
    # requires, has its squared length halved, in a copy of the roots.
    real = verify.build
    changed = []

    def halved(lt):
        rs = real(lt)
        roots = list(rs.positive_roots)
        for i, root in enumerate(roots):
            if not root.is_long and root != rs.theta_short:
                roots[i] = replace(root, norm2=root.norm2 / 2)
                changed.append(lt)
                break
        return _RootSystemWith(rs, positive_roots=tuple(roots))

    monkeypatch.setattr(verify, "build", halved)
    result = verify.check_structure(verify.VerifyConfig(max_classical_rank=4))
    assert result.passed is False
    assert changed == [lt for lt in verify.all_types(4) if real(lt).r != 1]
    assert sorted(map(str, changed)) == ["B2", "B3", "B4", "C2", "C3", "C4", "F4", "G2"]
    assert result.counterexamples == tuple(f"{lt}: unexpected root length" for lt in changed)


def test_structure_sees_a_wrong_norm_of_rho(monkeypatch):
    real = verify.build

    def off(lt):
        rs = real(lt)

        def form(x, y):
            value = rs.form(x, y)
            return value + 1 if x == y == rs.rho else value

        return _RootSystemWith(rs, form=form)

    monkeypatch.setattr(verify, "build", off)
    result = verify.check_structure(verify.VerifyConfig(max_classical_rank=4))
    assert result.passed is False
    strange = [f for f in result.counterexamples if f.endswith("strange formula failed")]
    assert strange == [f"{lt}: strange formula failed" for lt in verify.all_types(4)]


def test_integrality_lists_a_nontrivial_irreducible_of_dimension_zero(monkeypatch):
    # Leaf dimensions of 0 make every index 0, an integer; the dimension
    # guard still names the weight.
    real = verify.reps._lattice_reports

    def zero_dimension(rs, top):
        if rs.lie_type == rootsystems.LieType("A", 2):
            yield (1, 0), 0, 0
        else:
            yield from real(rs, top)

    monkeypatch.setattr(verify.reps, "_lattice_reports", zero_dimension)
    result = verify.check_integrality(verify.VerifyConfig(max_classical_rank=2))
    assert result.passed is False
    assert result.counterexamples == ("A2 (1, 0): dimension 0",)


def test_integrality_builds_no_fraction_and_no_report_when_it_passes(monkeypatch):
    # The sweep decides each index by the remainder of its numerator.
    def refuse(*args):
        raise AssertionError("a passing integrality sweep built a Fraction or a report")

    monkeypatch.setattr(verify.reps, "RepIndexReport", refuse)
    monkeypatch.setattr(verify.reps, "Fraction", refuse)
    monkeypatch.setattr(verify, "Fraction", refuse)
    result = verify.check_integrality(verify.VerifyConfig())
    assert result.passed is True
    assert result.detail == "13892 irreducibles checked"
