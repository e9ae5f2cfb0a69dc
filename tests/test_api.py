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


# Public functions and methods that neither cli.main nor a verify check
# reaches, each kept for the reason given.  Any other one restates a public
# call or is dead code; a name that becomes reachable must leave the list.
UNREACHED_PUBLIC = {
    "clebsch_gordan": "validated public form of the label ranges the adjoint builder reads",
    "sym2": "validated public form of the label ranges the adjoint builder reads",
    "wedge2": "validated public form of the label ranges the adjoint builder reads",
    "coroot_pairings": "root coordinates to Dynkin labels",
    "to_json_lines": "shown in the README",
    "difference_observations": "shown in the README",
    "fundamental_weights": "pinned by benchmarks/",
    "weight_form": "pinned by benchmarks/",
}


def test_every_public_function_is_reached_or_allow_listed():
    # A call graph by bare name: a function or method points at every name
    # its body loads, and a class at its dunders, which calling it runs.
    graph: dict[str, set[str]] = {}
    functions: set[str] = set()
    roots = {"main"}
    for path in sorted(SRC.glob("*.py")):
        module = ast.parse(path.read_text(), str(path))
        classes = [node for node in module.body if isinstance(node, ast.ClassDef)]
        for cls in classes:
            graph.setdefault(cls.name, set()).update(
                fn.name for fn in cls.body if isinstance(fn, ast.FunctionDef)
                and fn.name.startswith("__")
            )
        for fn in (node for scope in (module, *classes) for node in scope.body):
            if isinstance(fn, ast.FunctionDef):
                functions.add(fn.name)
                graph.setdefault(fn.name, set()).update(
                    node.id if isinstance(node, ast.Name) else node.attr
                    for statement in fn.body
                    for node in ast.walk(statement)
                    if isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load)
                )
                if any(ast.unparse(d).startswith("_check(") for d in fn.decorator_list):
                    roots.add(fn.name)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(graph.get(name, ()))
    unreached = {name for name in functions - reached if not name.startswith("_")}
    assert unreached == set(UNREACHED_PUBLIC)
