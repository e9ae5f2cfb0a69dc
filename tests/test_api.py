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
