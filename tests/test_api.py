"""The package root re-exports the working surface."""

import ast
import inspect
import sys
from pathlib import Path
from types import ModuleType

import dynkindex
from dynkindex.rootsystems import RootSystem, all_types, build

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
    assert dynkindex.mckay_data(dynkindex.LieType("G", 2)) == dynkindex.McKayData(4, 4, 8)
    assert dynkindex.__version__


def test_all_is_every_public_name_the_root_binds():
    # Both ways: a name imported at the root but missing from __all__ fails,
    # and so does a name in __all__ that the root does not bind.
    exported = dynkindex.__all__
    assert exported == sorted(exported)
    assert not [name for name in exported if isinstance(getattr(dynkindex, name), ModuleType)]
    assert set(exported) == {
        name
        for name, value in vars(dynkindex).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    for name in exported:
        obj = getattr(dynkindex, name)
        assert vars(sys.modules[obj.__module__])[name] is obj, name


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
    "fundamental_weights": "pinned by benchmarks/",
    "weight_form": "pinned by benchmarks/",
    "weyl_dimension": "pinned by benchmarks/",
    "simplest_embedding_index": "pinned by benchmarks/",
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
        # A module-level table, such as cli's subcommand table, points at
        # every name its value loads.
        for table in (node for node in module.body if isinstance(node, ast.Assign)):
            for target in (t for t in table.targets if isinstance(t, ast.Name)):
                graph.setdefault(target.id, set()).update(
                    node.id for node in ast.walk(table.value)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
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


# (coxeter_number, dual_coxeter_number, dual_coxeter_number_of_dual,
# exponents, height_sums) for every type of all_types(12), as the library
# computed them when they were still read through zero-argument methods.
TYPE_CONSTANTS = {
    "A1": (2, 2, 2, (1,), (1, 0)),
    "A2": (3, 3, 3, (1, 2), (4, 0)),
    "A3": (4, 4, 4, (1, 2, 3), (10, 0)),
    "A4": (5, 5, 5, (1, 2, 3, 4), (20, 0)),
    "A5": (6, 6, 6, (1, 2, 3, 4, 5), (35, 0)),
    "A6": (7, 7, 7, (1, 2, 3, 4, 5, 6), (56, 0)),
    "A7": (8, 8, 8, (1, 2, 3, 4, 5, 6, 7), (84, 0)),
    "A8": (9, 9, 9, (1, 2, 3, 4, 5, 6, 7, 8), (120, 0)),
    "A9": (10, 10, 10, (1, 2, 3, 4, 5, 6, 7, 8, 9), (165, 0)),
    "A10": (11, 11, 11, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), (220, 0)),
    "A11": (12, 12, 12, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), (286, 0)),
    "A12": (13, 13, 13, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), (364, 0)),
    "B2": (4, 3, 3, (1, 3), (4, 3)),
    "B3": (6, 5, 4, (1, 3, 5), (16, 6)),
    "B4": (8, 7, 5, (1, 3, 5, 7), (40, 10)),
    "B5": (10, 9, 6, (1, 3, 5, 7, 9), (80, 15)),
    "B6": (12, 11, 7, (1, 3, 5, 7, 9, 11), (140, 21)),
    "B7": (14, 13, 8, (1, 3, 5, 7, 9, 11, 13), (224, 28)),
    "B8": (16, 15, 9, (1, 3, 5, 7, 9, 11, 13, 15), (336, 36)),
    "B9": (18, 17, 10, (1, 3, 5, 7, 9, 11, 13, 15, 17), (480, 45)),
    "B10": (20, 19, 11, (1, 3, 5, 7, 9, 11, 13, 15, 17, 19), (660, 55)),
    "B11": (22, 21, 12, (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21), (880, 66)),
    "B12": (24, 23, 13, (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23), (1144, 78)),
    "C2": (4, 3, 3, (1, 3), (4, 3)),
    "C3": (6, 4, 5, (1, 3, 5), (9, 13)),
    "C4": (8, 5, 7, (1, 3, 5, 7), (16, 34)),
    "C5": (10, 6, 9, (1, 3, 5, 7, 9), (25, 70)),
    "C6": (12, 7, 11, (1, 3, 5, 7, 9, 11), (36, 125)),
    "C7": (14, 8, 13, (1, 3, 5, 7, 9, 11, 13), (49, 203)),
    "C8": (16, 9, 15, (1, 3, 5, 7, 9, 11, 13, 15), (64, 308)),
    "C9": (18, 10, 17, (1, 3, 5, 7, 9, 11, 13, 15, 17), (81, 444)),
    "C10": (20, 11, 19, (1, 3, 5, 7, 9, 11, 13, 15, 17, 19), (100, 615)),
    "C11": (22, 12, 21, (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21), (121, 825)),
    "C12": (24, 13, 23, (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23), (144, 1078)),
    "D3": (4, 4, 4, (1, 2, 3), (10, 0)),
    "D4": (6, 6, 6, (1, 3, 3, 5), (28, 0)),
    "D5": (8, 8, 8, (1, 3, 4, 5, 7), (60, 0)),
    "D6": (10, 10, 10, (1, 3, 5, 5, 7, 9), (110, 0)),
    "D7": (12, 12, 12, (1, 3, 5, 6, 7, 9, 11), (182, 0)),
    "D8": (14, 14, 14, (1, 3, 5, 7, 7, 9, 11, 13), (280, 0)),
    "D9": (16, 16, 16, (1, 3, 5, 7, 8, 9, 11, 13, 15), (408, 0)),
    "D10": (18, 18, 18, (1, 3, 5, 7, 9, 9, 11, 13, 15, 17), (570, 0)),
    "D11": (20, 20, 20, (1, 3, 5, 7, 9, 10, 11, 13, 15, 17, 19), (770, 0)),
    "D12": (22, 22, 22, (1, 3, 5, 7, 9, 11, 11, 13, 15, 17, 19, 21), (1012, 0)),
    "E6": (12, 12, 12, (1, 4, 5, 7, 8, 11), (156, 0)),
    "E7": (18, 18, 18, (1, 5, 7, 9, 11, 13, 17), (399, 0)),
    "E8": (30, 30, 30, (1, 7, 11, 13, 17, 19, 23, 29), (1240, 0)),
    "F4": (12, 9, 9, (1, 5, 7, 11), (64, 46)),
    "G2": (6, 4, 4, (1, 5), (10, 6)),
}


def test_root_system_facts_are_attributes():
    # A public method of RootSystem computes from an argument; a fact of the
    # type is an attribute.  fundamental_weights stays a property, since the
    # benchmarks read it that way.
    getters = sorted(
        name
        for name, member in vars(RootSystem).items()
        if not name.startswith("_")
        and name != "fundamental_weights"
        and (isinstance(member, property) or len(inspect.signature(member).parameters) < 2)
    )
    assert not getters, "zero-argument methods: " + ", ".join(getters)
    assert [str(lt) for lt in all_types(12)] == list(TYPE_CONSTANTS)
    for lt in all_types(12):
        rs = build(lt)
        constants = (
            rs.coxeter_number,
            rs.dual_coxeter_number,
            rs.dual_coxeter_number_of_dual,
            rs.exponents,
            rs.height_sums,
        )
        assert constants == TYPE_CONSTANTS[str(lt)], lt
