"""The package root re-exports the working surface."""

import ast
from pathlib import Path

import dynkindex

SRC = Path(__file__).resolve().parents[1] / "src" / "dynkindex"


def test_root_level_api():
    rs = dynkindex.build("E8")
    assert dynkindex.principal_index(rs).value == 1240
    assert dynkindex.dynkin_index(rs, (0,) * 7 + (1,)).index == 60
    assert dynkindex.classical_index("so", (7, 1)) == 28
    assert dynkindex.classical_index("so", (7, 1)) == dynkindex.index_via_adjoint(
        "so", (7, 1)
    )
    assert dynkindex.mckay_data(dynkindex.LieType("E", 8)).group_order == 120
    assert dynkindex.__version__


def test_all_names_resolve():
    for name in dynkindex.__all__:
        assert getattr(dynkindex, name) is not None


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements; invariants must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# The only top-level statements of the library that may name a classical kind
# by a literal: the kind table, classical_type's sp2 = sl2 line, the target
# kinds of the exceptional algebras (data), and the facts kept on purpose
# beside the table because each is a route or an independent check of its own.
KIND_LITERAL_SITES = {
    ("rootsystems", "_KIND_TABLE"),
    ("rootsystems", "classical_type"),
    ("reps", "_SIMPLEST"),
    ("sl2", "branch_adjoint_multiplicities"),
    ("sl2", "index_via_adjoint"),
    ("orbits", "build_poset"),
    ("identities", "rhs_sl"),
    ("identities", "rhs_sp"),
    ("identities", "rhs_so"),
}


def _site(statement: ast.stmt) -> str:
    if isinstance(statement, ast.Assign):
        return ast.unparse(statement.targets[0])
    return getattr(statement, "name", f"line {statement.lineno}")


def test_kind_names_are_literals_only_in_the_table_and_the_route_facts():
    # Both ways: a new literal elsewhere fails, and so does a listed site that
    # no longer holds one, so the list cannot go stale.
    found = {
        (path.stem, _site(statement))
        for path in sorted(SRC.glob("*.py"))
        for statement in ast.parse(path.read_text(), str(path)).body
        if any(
            isinstance(node, ast.Constant) and node.value in ("sl", "sp", "so")
            for node in ast.walk(statement)
        )
    }
    assert found == KIND_LITERAL_SITES
