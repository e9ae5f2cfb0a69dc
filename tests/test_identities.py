"""The three identity families and their principal specializations."""

import ast
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from dynkindex import identities
from dynkindex.identities import instance, lhs, sweep
from dynkindex.orbits import build_poset, enumerate_orbits, partitions_of
from dynkindex.rootsystems import classical_type
from dynkindex.sl2 import (
    branch_adjoint,
    classical_index,
    index_via_adjoint,
    partition_is_admissible,
)


def c3(m):
    return comb(m, 3) if m >= 3 else 0


def test_lhs():
    assert lhs((4,)) == 10
    assert lhs((2, 1, 1)) == 1
    assert lhs((3, 2, 2, 1)) == 6


def test_rhs_sl_examples():
    assert instance("sl", (4,)).rhs == Fraction(c3(8) + c3(6) + c3(4) + c3(2), 8) == 10
    assert instance("sl", (1,)).rhs == 0
    assert instance("sl", (2, 2)).rhs == 2


def test_rhs_sp_examples():
    # single-row case reduces to the even-part principal specialization
    assert instance("sp", (4,)).rhs == Fraction(c3(8) + c3(4), 6) == 10
    assert instance("sp", (1, 1)).rhs == 0


def test_rhs_so_examples():
    assert instance("so", (5, 1)).rhs == lhs((5, 1)) == c3(6)
    with pytest.raises(ValueError):
        instance("so", (2,))
    with pytest.raises(ValueError):
        instance("so", (1, 1))


def test_principal_specializations():
    # single block of size N inside sl_N
    for n in range(1, 31):
        assert Fraction(sum(c3(2 * n - 2 * k) for k in range(n)), 2 * n) == c3(n + 1)
    # single block of size 2n inside sp_2n
    for n in range(1, 16):
        assert Fraction(
            sum(c3(4 * n - 4 * k) for k in range(n)), 2 * n + 2
        ) == c3(2 * n + 1)
    # blocks (2n-1, 1) inside so_2n
    for n in range(2, 16):
        total = c3(2 * n) + sum(c3(4 * n - 4 * k) for k in range(1, n))
        assert Fraction(total, 2 * n - 2) == c3(2 * n)


@pytest.mark.parametrize("family", ["sl", "sp", "so"])
def test_sweeps_have_no_counterexamples(family):
    instances = sweep(family, 12)
    assert all(inst.holds for inst in instances)
    # every partition present except the so degenerations at n = 2
    expected = sum(
        len(list(partitions_of(n)))
        for n in range(1, 13)
        if not (family == "so" and n == 2)
    )
    assert len(instances) == expected


def test_sweep_is_deterministic():
    first = sweep("sp", 8)
    second = sweep("sp", 8)
    assert first == second


def test_identities_agree_with_adjoint_route_on_admissible_partitions():
    for kind in ("sl", "sp", "so"):
        for n in range(3, 11):
            if kind == "sp" and n % 2:
                continue
            for p in enumerate_orbits(kind, n):
                if p[0] < 2:
                    continue
                # the expanded right side equals the adjoint-route value up
                # to the kind factor (1 for sl/sp, 1/2 for so)
                factor = Fraction(1, 2) if kind == "so" else Fraction(1)
                assert factor * instance(kind, p).rhs == index_via_adjoint(kind, p), (kind, p)


def test_unknown_family_is_a_value_error():
    # Every entry point that takes a kind refuses an unknown one with the
    # same full message, whatever its other arguments.
    message = "unknown kind 'xx', expected sl, sp or so"
    calls = {
        "partition_is_admissible": lambda: partition_is_admissible("xx", (2, 1)),
        "classical_index": lambda: classical_index("xx", (2, 1)),
        "branch_adjoint": lambda: branch_adjoint("xx", (2, 1)),
        "index_via_adjoint": lambda: index_via_adjoint("xx", (2,)),
        "classical_type": lambda: classical_type("xx", 5),
        "instance": lambda: instance("xx", (2, 1)),
        "_rhs": lambda: identities._rhs("xx", (2, 1)),
        "sweep": lambda: sweep("xx", 0),
        "enumerate_orbits": lambda: enumerate_orbits("xx", 4),
        "build_poset": lambda: build_poset("xx", 4),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message, name


def test_identities_take_only_data_and_validation_from_sl2():
    # The identities are a route of their own: they expand the binomials
    # themselves and may not reach the adjoint builder's label ranges,
    # branchings or module sums.
    allowed = {"KINDS", "binom3", "normalize_partition", "Partition"}
    forbidden = {
        "_cg_labels", "_sym2_labels", "_wedge2_labels", "branch_adjoint",
        "branch_adjoint_multiplicities", "module_index", "clebsch_gordan",
        "sym2", "wedge2",
    }
    tree = ast.parse(Path(identities.__file__).read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any("sl2" in alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            assert "sl2" not in names  # no module handle: every name is listed
            if (node.module or "").endswith("sl2"):
                taken |= names
    assert taken and taken <= allowed, taken - allowed
    assert not taken & forbidden
    assert not {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} & forbidden


def test_instance_record():
    inst = instance("sl", (3, 1))
    assert inst.family == "sl" and inst.partition == (3, 1)
    assert inst.lhs == 4 and inst.rhs == 4 and inst.holds


def test_json_lines_export():
    import json

    from dynkindex.identities import to_json_lines

    text = to_json_lines(sweep("so", 4))
    rows = [json.loads(line) for line in text.strip().splitlines()]
    assert all(set(r) == {"family", "partition", "lhs", "rhs", "holds"} for r in rows)
    assert rows[0] == {
        "family": "so", "partition": [1], "lhs": "0", "rhs": "0", "holds": True,
    }
    assert all(r["holds"] for r in rows)
    assert to_json_lines([]) == ""
