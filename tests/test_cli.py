"""Command-line interface: formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from collections import namedtuple
from dataclasses import asdict, fields
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynkindex import cli, orbits, reps, rootsystems, sl2, verify
from dynkindex.cli import (
    build_parser,
    index_report,
    main,
    parse_algebra,
    read_config_file,
    rep_index_report,
    table_payload,
)
from dynkindex.rootsystems import LieType
from dynkindex.verify import CheckResult

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python(*args):
    """sys.executable run with args, src first on PYTHONPATH; text output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_parse_algebra():
    assert parse_algebra("sl8") == (LieType("A", 7), "sl", 8)
    assert parse_algebra("so13") == (LieType("B", 6), "so", 13)
    assert parse_algebra("C3") == (LieType("C", 3), "sp", 6)
    assert parse_algebra("E6") == (LieType("E", 6), None, None)
    assert parse_algebra("SO8") == (LieType("D", 4), "so", 8)
    assert index_report("SO8", (3, 3, 1, 1))[1]["consistent"] is True
    assert parse_algebra(" sl8 ") == parse_algebra("sl_8") == (LieType("A", 7), "sl", 8)
    assert parse_algebra("so 13") == (LieType("B", 6), "so", 13)
    assert parse_algebra("e6") == (LieType("E", 6), None, None)
    with pytest.raises(ValueError):
        parse_algebra("sq9")


def test_a_label_is_resolved_once_and_a_bad_label_every_time():
    for label in ("sl8", "SO8", " sl8 ", "so 13", "e6"):
        assert parse_algebra(label) is parse_algebra(label), label
    bad = {
        "sq9": "cannot parse Lie type label 'sq9'",
        "sl1": "no simple type sl1: sl is A_n (n >= 1) at dim n+1",
    }
    cached = parse_algebra.cache_info().currsize
    for label, message in bad.items():
        for _ in range(3):
            with pytest.raises(ValueError) as raised:
                parse_algebra(label)
            assert str(raised.value) == message
    assert parse_algebra.cache_info().currsize == cached


def test_index_classical(capsys):
    code, out, _ = run(capsys, "index", "--algebra", "sl4", "--partition", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "10"
    assert payload["routes"] == {
        "adjoint-branching": "10",
        "partition-formula": "10",
    }
    assert payload["consistent"] is True


def test_index_orthogonal(capsys):
    code, out, _ = run(capsys, "index", "--algebra", "so8", "--partition", "7,1")
    assert code == 0
    assert json.loads(out)["value"] == "28"


def test_index_via_simplest(capsys):
    code, out, _ = run(
        capsys, "index", "--algebra", "F4", "--partition", "17,9", "--via", "simplest"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "156" and payload["routes"] == {"simplest-rep": "156"}


def test_index_single_route(capsys):
    code, out, _ = run(
        capsys, "index", "--algebra", "sp6", "--partition", "6", "--via", "adjoint"
    )
    assert code == 0
    assert json.loads(out)["routes"] == {"adjoint-branching": "35"}


def test_index_usage_errors(capsys):
    cases = [
        ("index", "--algebra", "sl4", "--partition", "3,2"),  # wrong size
        ("index", "--algebra", "sp6", "--partition", "3,2,1"),  # parity
        ("index", "--algebra", "so8", "--partition", "1,1,1,1,1,1,1,1"),  # zero
        ("index", "--algebra", "E6", "--partition", "27", "--via", "adjoint"),
        ("index", "--algebra", "sl4", "--partition", "4", "--via", "simplest"),
        ("index", "--algebra", "sl4", "--partition", "x,y"),
        ("index", "--algebra", "Q4", "--partition", "4"),
        *(("index", "--algebra", algebra, "--partition", "1")  # no simple type
          for algebra in ("sl1", "sp5", "so3", "so4")),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:")


def test_rep_index(capsys):
    code, out, _ = run(capsys, "rep-index", "--algebra", "A1", "--weight", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 4 and payload["index"] == "10"

    code, out, _ = run(
        capsys, "rep-index", "--algebra", "E6", "--weight", "1,0,0,0,0,0"
    )
    payload = json.loads(out)
    assert payload["dimension"] == 27 and payload["index"] == "6"

    code, out, _ = run(capsys, "rep-index", "--algebra", "A2", "--weight", "1,1")
    payload = json.loads(out)
    assert payload["dimension"] == 8 and payload["index"] == "6"


def test_rep_index_arity_error(capsys):
    code, _, err = run(capsys, "rep-index", "--algebra", "A2", "--weight", "1,1,1")
    assert code == 2 and "rank" in err


@pytest.mark.parametrize("weight, message", [
    (["--weight", "1"], "weight has 1 coordinates, A300 has rank 300"),
    (["--weight=-1" + ",0" * 299], "highest weight coordinates must be nonnegative"),
], ids=["arity", "negative"])
def test_a_bad_weight_is_refused_before_the_root_system_is_built(
    capsys, monkeypatch, weight, message
):
    # A300 takes seconds to build; the weight is checked against the type first.
    def refuse(self, lie_type):
        raise AssertionError(f"{lie_type} was built")

    monkeypatch.setattr(rootsystems.RootSystem, "__init__", refuse)
    code, out, err = run(capsys, "rep-index", "--algebra", "A300", *weight)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_warm_rep_index_checks_its_weight_before_the_build_and_in_dynkin_index(
    capsys, monkeypatch
):
    # The pre-build check keeps a large rank from being built for a bad weight;
    # the public dynkin_index checks again.  An entry that skipped the second
    # check gained nothing in paired runs (BENCH_weight-split-queries.json).
    argv = ("rep-index", "--algebra", "E6", "--weight", "1,0,0,0,0,0")
    run(capsys, *argv)  # warm: the label and the root system are cached
    checks = []

    def counted(lt, weight):
        checks.append(weight)
        return check(lt, weight)

    check = reps._check_weight
    monkeypatch.setattr(reps, "_check_weight", counted)
    code, out, _ = run(capsys, *argv)
    assert (code, json.loads(out)["index"]) == (0, "6")
    assert checks == [(1, 0, 0, 0, 0, 0)] * 2


def test_a_second_simplest_call_walks_no_roots(capsys, monkeypatch):
    argv = ("index", "--algebra", "F4", "--partition", "17,9", "--via", "simplest")
    first = run(capsys, *argv)
    walks = []

    def counted(self, shifted):
        walks.append(self.lie_type)
        return walk(self, shifted)

    walk = rootsystems.RootSystem._scaled_root_pairings
    monkeypatch.setattr(rootsystems.RootSystem, "_scaled_root_pairings", counted)
    assert run(capsys, *argv) == first
    assert walks == []
    for _ in range(2):  # a refused type is not cached: it raises every time
        with pytest.raises(ValueError, match="B4 is not exceptional"):
            reps.simplest_representation(LieType.parse("B4"))


def test_table_values(capsys):
    code, out, _ = run(capsys, "table", "--format", "json")
    assert code == 0
    columns = json.loads(out)["columns"]
    assert [col["label"] for col in columns] == [
        "A_n (n=5)", "B_n (n=5)", "C_n (n=5)", "D_n (n=5)", "E6", "E7", "E8", "F4", "G2"
    ]
    values = {q: ",".join(col["cells"][q]["value"] for col in columns) for q in columns[0]["cells"]}
    assert values == {
        "principal-index": "35,110,165,60,156,399,1240,156,28",
        "difference": "15,50,80,30,72,168,480,96,24",
        "a": "2,2,4,4,6,8,12,6,4",
        "b": "6,10,8,6,8,12,20,8,4",
        "ratio": "1/2,1,2,1,3/2,2,3,3,3",
    }


def parse_markdown_table(text):
    lines = [line for line in text.strip().splitlines()]
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    columns = [{"label": label, "cells": {}} for label in header[1:]]
    quantities = []
    for line in lines[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        quantities.append(cells[0])
        for col, text_cell in zip(columns, cells[1:]):
            if " = " in text_cell:
                form, value = text_cell.split(" = ", 1)
            else:
                form, value = None, text_cell
            col["cells"][cells[0]] = {"form": form, "value": value}
    return {"quantities": quantities, "columns": columns}


def test_table_markdown_round_trips_to_json(capsys):
    _, md_out, _ = run(capsys, "table", "--format", "md")
    _, json_out, _ = run(capsys, "table", "--format", "json")
    payload = json.loads(json_out)
    parsed = parse_markdown_table(md_out)
    assert parsed["quantities"] == payload["quantities"]
    assert parsed["columns"] == payload["columns"]


def test_table_csv_matches_markdown_cells(capsys):
    _, csv_out, _ = run(capsys, "table", "--format", "csv")
    _, md_out, _ = run(capsys, "table", "--format", "md")
    csv_rows = [line.split(",") for line in csv_out.strip().splitlines()]
    assert csv_rows[0][0] == "quantity"
    assert len(csv_rows) == len(md_out.strip().splitlines()) - 1  # minus ruler


def test_table_rank_guard(capsys):
    code, _, err = run(capsys, "table", "--rank", "3")
    assert code == 2 and "rank" in err


def test_out_of_memory_exits_2_without_a_traceback(capsys, monkeypatch):
    # The builder is patched to raise: a real allocation of 10^12 slots
    # could be granted by an overcommitting host and then killed.
    def refuse(kind, p):
        raise MemoryError

    monkeypatch.setattr(sl2, "branch_adjoint_multiplicities", refuse)
    huge = "1000000000000"
    code, _, err = run(capsys, "index", "--algebra", f"sl{huge}", "--partition", huge)
    assert (code, err) == (2, "error: out of memory\n")


def test_table_route_disagreement_exits_1(capsys, monkeypatch):
    real = sl2.principal_index

    def inconsistent(rs):
        report = real(rs)
        routes = {**report.routes, "broken": report.value + 1}
        return sl2.IndexReport(report.value, routes)

    monkeypatch.setattr(sl2, "principal_index", inconsistent)
    code, out, err = run(capsys, "table")
    assert code == 1 and out == ""
    assert err.startswith("error: route disagreement for A5 principal-index:")
    assert "broken=36" in err and "Traceback" not in err


def test_table_difference_disagreement_exits_1(capsys, monkeypatch):
    real = sl2.principal_minus_subregular

    def inconsistent(rs, principal, data):
        report = real(rs, principal, data)
        routes = {**report.routes, "broken": report.value + 1}
        return sl2.IndexReport(report.value, routes)

    monkeypatch.setattr(sl2, "principal_minus_subregular", inconsistent)
    code, out, err = run(capsys, "table")
    assert code == 1 and out == ""
    assert err.startswith("error: route disagreement for A5 difference:")
    assert "broken=16" in err and "Traceback" not in err


def test_index_and_verify_name_the_routes_alike(capsys, monkeypatch):
    real = sl2.index_via_adjoint
    monkeypatch.setattr(sl2, "index_via_adjoint", lambda kind, p: real(kind, p) + 1)
    code, out, err = run(capsys, "index", "--algebra", "sl4", "--partition", "2,2", "--via", "all")
    assert code == 1
    assert err == (
        "error: route disagreement for sl4 (2, 2): adjoint-branching=3, partition-formula=2\n"
    )
    index_names = set(json.loads(out)["routes"])
    code, out, _ = run(
        capsys, "verify", "--only", "routes", "--max-partition-size", "3", "--format", "json"
    )
    assert code == 1
    counterexamples = json.loads(out)["checks"][0]["counterexamples"]
    assert counterexamples[0].startswith("route disagreement for sl (2,):")
    for message in counterexamples:
        assert set(re.findall(r"([a-z-]+)=", message)) == index_names
    assert index_names == {sl2.PARTITION_ROUTE, sl2.ADJOINT_ROUTE}


# A verify small enough for a test: the sweeps of difference-bounds and mckay
# still reach every exceptional type.
SMALL_VERIFY = (
    "verify", "--max-classical-rank", "3", "--max-partition-size", "4", "--max-identity-n", "4"
)


def test_verify_lists_a_difference_disagreement_under_difference_bounds(capsys, monkeypatch):
    real = sl2.principal_minus_subregular

    def with_broken_route(rs, principal, data):
        report = real(rs, principal, data)
        return sl2.IndexReport(report.value, {**report.routes, "broken": report.value + 1})

    monkeypatch.setattr(sl2, "principal_minus_subregular", with_broken_route)
    code, out, err = run(capsys, *SMALL_VERIFY, "--format", "json")
    assert (code, err) == (1, "")
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == list(verify.CHECKS)
    assert [c["name"] for c in checks if not c["passed"]] == ["difference-bounds"]
    (bounds,) = (c for c in checks if c["name"] == "difference-bounds")
    assert bounds["detail"] == "10 types observed"
    assert len(bounds["counterexamples"]) == 10
    assert bounds["counterexamples"][0] == (
        "route disagreement for A2 difference: broken=4, closed-form=3, "
        "group-order=3, module-difference=3, raw-binomial=3"
    )


def test_verify_lists_a_refused_degree_pair_under_both_sweeps(capsys, monkeypatch):
    monkeypatch.setitem(sl2._AB_EXCEPTIONAL, "G2", (4, 6))
    code, out, err = run(capsys, *SMALL_VERIFY)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    status = [line.split()[:2] for line in lines if line[:4] in ("ok  ", "FAIL")]
    assert [name for _, name in status] == list(verify.CHECKS)
    assert [name for flag, name in status if flag == "FAIL"] == ["difference-bounds", "mckay"]
    message = "       counterexample: G2: degrees 4 + 6 differ from h + 2 = 8"
    assert lines.count(message) == 2
    assert lines[-1] == "8/10 checks passed"


def test_verify_mckay_compares_the_group_order_with_the_partner_marks(capsys, monkeypatch):
    # (2, 6) keeps a + b = h + 2 and the subregular dimension; only the group
    # order a*b/2 = 6 differs from 1 + the squared marks of D4's highest root.
    monkeypatch.setitem(sl2._AB_EXCEPTIONAL, "G2", (2, 6))
    code, out, err = run(capsys, "verify", "--only", "mckay")
    assert (code, err) == (1, "")
    assert out == (
        "FAIL mckay              38 types checked\n"
        "       counterexample: G2: group order 6 != 8\n"
        "0/1 checks passed\n"
    )


def _g2_pair_off_the_marks(monkeypatch):
    monkeypatch.setitem(sl2._AB_EXCEPTIONAL, "G2", (2, 6))


def _c_pair_off_the_marks(monkeypatch):
    real = sl2.ab_closed_form
    monkeypatch.setattr(
        sl2, "ab_closed_form", lambda family, n: (2, 2 * n) if family == "C" else real(family, n)
    )


@pytest.mark.parametrize(
    "patch,message",
    [(_g2_pair_off_the_marks, "G2: group order 6 != 8"),
     (_c_pair_off_the_marks, "C5: group order 10 != 16")],
    ids=["G2", "C"],
)
def test_table_refuses_a_degree_pair_off_the_group_order(capsys, monkeypatch, patch, message):
    # Both pairs keep a + b = h + 2 and the subregular dimension; only a*b/2
    # differs from 1 + the squared marks of the partner's highest root.
    patch(monkeypatch)
    assert run(capsys, "table") == (1, "", f"error: {message}\n")


def test_a_second_table_climbs_no_partner(capsys, monkeypatch):
    climbs = []

    def counted(cartan, label):
        climbs.append(str(label))
        return climb(cartan, label)

    climb = sl2._highest_root
    monkeypatch.setattr(sl2, "_highest_root", counted)
    first = run(capsys, "table", "--rank", "5")
    assert climbs == ["A5", "A9", "D6", "D5", "E6", "E7", "E8", "E6", "D4"]
    assert run(capsys, "table", "--rank", "5") == first
    assert len(climbs) == 9


def test_table_evaluates_each_route_once_per_column(monkeypatch):
    # The principal value and the degree pair are evaluated once and passed
    # along; the counter wraps mckay_data's cache, so the counts are per call.
    # summary_row keeps each row, so a type is evaluated on its first use only.
    counts = {}
    for name in ("principal_index", "mckay_data", "classical_index"):
        counts[name] = 0

        def counted(*args, real=getattr(sl2, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(sl2, name, counted)
    table_payload(5)
    assert counts == {"principal_index": 9, "mckay_data": 9, "classical_index": 4}
    counts.update(principal_index=0, mckay_data=0, classical_index=0)
    table_payload(5)
    assert counts == {"principal_index": 0, "mckay_data": 0, "classical_index": 0}
    sweep = list(sl2.sweep_types(10))
    [sl2.summary_row(lt) for lt in sweep]
    # The 38 swept types less the table's 9, whose rows are kept.
    assert (counts["mckay_data"], counts["principal_index"]) == (29, 29)
    counts.update(principal_index=0, mckay_data=0)
    sl2.summary_row.cache_clear()
    [sl2.summary_row(lt) for lt in sweep]
    assert (counts["mckay_data"], counts["principal_index"]) == (38, 38)


@pytest.mark.parametrize("fmt", ["md", "json", "csv"])
def test_a_second_table_reads_the_kept_rows(capsys, monkeypatch, fmt):
    first = run(capsys, "table", "--format", fmt)
    assert first[0] == 0
    calls = []
    for name in ("principal_index", "principal_minus_subregular"):
        monkeypatch.setattr(sl2, name, lambda *args, name=name: calls.append(name))
    second = run(capsys, "table", "--format", fmt)
    assert second == first
    assert calls == []


def test_table_checks_the_principal_value_it_passes_along(capsys, monkeypatch):
    # Every route shifted alike: the principal report agrees with itself, so
    # only the difference's module-difference route can see the error.
    real = sl2.principal_index

    def shifted(rs):
        report = real(rs)
        return sl2.IndexReport(report.value + 1, {k: v + 1 for k, v in report.routes.items()})

    monkeypatch.setattr(sl2, "principal_index", shifted)
    code, out, err = run(capsys, "table")
    assert (code, out) == (1, "")
    assert err == (
        "error: route disagreement for A5 difference: closed-form=15, group-order=15, "
        "module-difference=16, raw-binomial=15\n"
    )


def test_difference_bounds_lists_a_principal_route_disagreement(capsys, monkeypatch):
    # One route off: the value passed along is right, so D agrees, and only
    # the principal report itself shows the error.
    real = sl2.principal_index

    def with_broken_route(rs):
        report = real(rs)
        return sl2.IndexReport(report.value, {**report.routes, "broken": report.value + 1})

    monkeypatch.setattr(sl2, "principal_index", with_broken_route)
    argv = ("verify", "--only", "difference-bounds", "--max-classical-rank", "3")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert out.startswith("FAIL difference-bounds  10 types observed\n")
    assert (
        "       counterexample: route disagreement for A2 principal-index: broken=5, "
        "coroot-norm=4, dual-coxeter-uniform=4, kostant=4, partition-formula=4\n"
    ) in out


# Each closed form that table prints for a classical column, as a function of n.
CLOSED_FORMS = {
    "C(n+2,3)": lambda n: comb(n + 2, 3),
    "C(n+1,2)": lambda n: comb(n + 1, 2),
    "n+1": lambda n: n + 1,
    "C(2n+2,3)/2": lambda n: Fraction(comb(2 * n + 2, 3), 2),
    "2n^2": lambda n: 2 * n * n,
    "2n": lambda n: 2 * n,
    "C(2n+1,3)": lambda n: comb(2 * n + 1, 3),
    "4n(n-1)": lambda n: 4 * n * (n - 1),
    "2n-2": lambda n: 2 * n - 2,
    "C(2n,3)/2": lambda n: Fraction(comb(2 * n, 3), 2),
    "2n(n-2)": lambda n: 2 * n * (n - 2),
    "2n-4": lambda n: 2 * n - 4,
}


@pytest.mark.parametrize("rank", range(4, 9))
def test_table_closed_forms_are_true_equations(rank):
    printed = []
    for column in table_payload(rank)["columns"]:
        for quantity, cell in column["cells"].items():
            if cell["form"] is not None:
                printed.append(cell["form"])
                expected = CLOSED_FORMS[cell["form"]](rank)
                assert Fraction(cell["value"]) == expected, (column["label"], quantity)
    assert sorted(printed) == sorted(CLOSED_FORMS)


# argv vocabulary for the exit-code contract: each subcommand's flags with a
# few good and bad values each (None leaves the flag out), then, one time in
# four, a stray token.  Every number is at most 6, so no draw starts a large
# build or poset.  verify always names the cheap routes check (a drawn --only
# adds to it): without --only it would run every check, the integrality
# sweep over the E6-E8 irreducibles among them, on every draw.
_NUMBERS = ("-1", "0", "1", "2", "4", "5", "6", "x", None)
_LISTS = ("4", "3,1", "2,2", "2,1,1", "3,2,1", "1,1,1,1", "4,3", "1,0,0", "1,0,0,0,0,0", "", None)
_LABELS = ("A3", "sl4", "sp6", "so7", "E6", "G2", "Z9", None)
_REPORT_FORMATS = ("json", "csv", "md", "dot", None)
_COMMANDS = {
    ("table",): {"--format": _REPORT_FORMATS, "--rank": _NUMBERS},
    ("index",): {
        "--algebra": _LABELS,
        "--partition": _LISTS,
        "--via": ("partition", "adjoint", "simplest", "all", "none", None),
        "--format": _REPORT_FORMATS,
    },
    ("rep-index",): {"--algebra": _LABELS, "--weight": _LISTS, "--format": _REPORT_FORMATS},
    ("verify", "--only", "routes"): {
        "--only": ("structure", "mckay", "unfolding", "A3", None),
        "--max-classical-rank": _NUMBERS,
        "--max-partition-size": _NUMBERS,
        "--max-identity-n": _NUMBERS,
        "--config": ("/nonexistent/dynkindex.cfg", None, None, None),
        "--format": ("text", "json", "md", None),
    },
    ("poset",): {
        "--kind": ("sl", "sp", "so", "gl", None),
        "--n": _NUMBERS,
        "--format": ("dot", "json", "csv", None),
    },
    ("bogus",): {},
}
_STRAY = ("--help", "--rank", "--n", "--algebra", "E6", "3,2,1", "--format", "--bogus", "extra")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = list(command)
    for flag, values in _COMMANDS[command].items():
        value = draw(st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
    if not draw(st.sampled_from(range(4))):
        argv.append(draw(st.sampled_from(_STRAY)))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_exit_code_contract_holds_for_drawn_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
            from_argparse = False
        except SystemExit as exc:
            code, from_argparse = exc.code, True
    # On unmodified code no route or invariant fails, so 1 never occurs.
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2 and not from_argparse:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())


# A drawn argv, its stray token kept only half of the time, and half of the
# time one of its flag-value pairs rewritten into a form that only argparse
# reads, or left out (which makes verify without --only plain, and leaves a
# required flag out elsewhere).
_REWRITES = ("abbreviate", "equals", "repeat", "dash", "empty", "drop")


@st.composite
def _rewritten_argv(draw):
    argv = draw(_argv())
    if len(argv) % 2 == 0 and draw(st.booleans()):
        argv.pop()  # the stray token
    pairs = range(1, len(argv) - 1, 2)
    rewrite = draw(st.sampled_from(_REWRITES)) if draw(st.booleans()) else None
    if rewrite is None or not pairs:
        return argv
    i = draw(st.sampled_from(pairs))
    flag = argv[i]
    if rewrite == "abbreviate":
        argv[i] = flag[: draw(st.integers(3, max(3, len(flag) - 1)))]
    elif rewrite == "equals":
        argv[i : i + 2] = [f"{flag}={argv[i + 1]}"]
    elif rewrite == "repeat":
        argv += [flag, draw(st.sampled_from(("1", "4", "A3", "json", "routes")))]
    elif rewrite == "dash":
        argv[i + 1] = draw(st.sampled_from(("-1,2", "--", "-1", "-")))
    elif rewrite == "empty":
        argv[i + 1] = ""
    else:
        del argv[i : i + 2]
    return argv


def _main_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(_rewritten_argv())
@example(["verify", "--max-classical-rank", "2", "--format", "json"])
@example(["poset", "--kind", "so", "--n", "5"])
@example(["rep-index", "--algebra", "A2", "--weight", "-1,2"])
@example(["index", "--algebra", "sl4", "--partition", "--"])
@example(["table", "--rank", "-1"])
def test_the_plain_reading_is_the_argparse_reading(argv):
    plain = cli._parse_canonical(argv)
    if plain is not None:
        parsed, extras = build_parser().parse_known_args(argv)
        assert (vars(plain), extras) == (vars(parsed), []), argv
    outcome = _main_outcome(argv)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_parse_canonical", lambda argv: None)
        assert outcome == _main_outcome(argv), argv


def test_verify_subset(capsys):
    code, out, _ = run(
        capsys, "verify", "--only", "identities", "--max-identity-n", "10"
    )
    assert code == 0
    assert "identities" in out and "1/1 checks passed" in out


def test_verify_runs_a_repeated_check_once(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--only", "minimal-orbit", "--only", "minimal-orbit")
    assert code == 0
    assert out == "ok   minimal-orbit      46 minimal orbits checked\n1/1 checks passed\n"
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("only = routes, unfolding, routes\nmax-partition-size = 4\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--format", "json")
    assert code == 0
    assert [c["name"] for c in json.loads(out)["checks"]] == ["routes", "unfolding"]


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--only", "minimal-orbit", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["checks"][0]["name"] == "minimal-orbit"


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--only", "nonsense")
    assert code == 2 and "unknown checks" in err


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(
        "# comment line\nmax-identity-n = 6\nonly = identities, minimal-orbit\n"
    )
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert "2/2 checks passed" in out
    bad = tmp_path / "bad.cfg"
    bad.write_text("max-identity-n 6\n")
    code, _, err = run(capsys, "verify", "--config", str(bad))
    assert code == 2 and "expected" in err


def test_poset_dot(capsys):
    code, out, _ = run(capsys, "poset", "--kind", "sl", "--n", "4")
    assert code == 0
    assert out.count("->") == 4
    assert '"4" [label="(4)\\nindex 10"];' in out


def test_poset_json(capsys):
    code, out, _ = run(capsys, "poset", "--kind", "so", "--n", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 4


def test_poset_usage_error(capsys):
    for n in ("5", "7"):
        code, _, err = run(capsys, "poset", "--kind", "sp", "--n", n)
        assert code == 2 and "even" in err, n


def test_output_is_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "table", "--format", "json")
        outputs.add(out)
    for _ in range(2):
        _, out, _ = run(capsys, "verify", "--only", "unfolding")
        outputs.add(out)
    assert len(outputs) == 2


def test_verify_output_is_the_same_under_python_O():
    # Under -O only _require guards the exact kernel.
    argv = ("-m", "dynkindex.cli", "verify")
    runs = [python(*flags, *argv) for flags in ((), ("-O",))]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert "13892 irreducibles checked" in runs[1].stdout
    assert runs[1].stdout.endswith("10/10 checks passed\n")
    sweep = python("-O", *argv, "--only", "integrality", "--format", "json")
    assert (sweep.returncode, json.loads(sweep.stdout)) == (0, {
        "checks": [{
            "name": "integrality", "passed": True,
            "detail": "13892 irreducibles checked", "counterexamples": [],
        }],
        "passed": True,
    }), sweep.stderr


def test_large_rank_builds_under_python_O():
    # The packed root keys are widest here, and under -O only _require
    # guards the closure: |positive roots| and h of each type.
    code = (
        "from dynkindex import build\n"
        "for label in ('A60', 'B40', 'C40', 'D50', 'E8'):\n"
        "    rs = build(label)\n"
        "    print(label, len(rs.positive_roots), rs.coxeter_number)\n"
    )
    proc = python("-O", "-c", code)
    assert (proc.returncode, proc.stdout.splitlines()) == (0, [
        "A60 1830 61", "B40 1600 80", "C40 1600 80", "D50 2450 98", "E8 120 30"
    ]), proc.stderr


def test_the_module_entry_point_runs_with_every_warning_an_error():
    proc = python("-W", "error", "-m", "dynkindex.cli", "verify", "--max-classical-rank", "4",
                  "--max-partition-size", "6", "--max-identity-n", "5")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("10/10 checks passed\n")


def test_table_payload_rejects_low_rank():
    with pytest.raises(ValueError):
        table_payload(3)


def test_config_bound_that_is_not_an_integer_names_file_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# bounds\nmax-classical-rank = ten\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}:2: max-classical-rank must be an integer, got 'ten'\n"


@pytest.mark.parametrize("entry", ["", "routes,,unfolding", "routes,"],
                         ids=["empty", "inner", "trailing"])
def test_an_empty_only_entry_in_a_config_file_is_a_usage_error(tmp_path, capsys, entry):
    # As --only "" is: an empty entry names no check, so it is not dropped.
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"only = {entry}\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown checks ['']; available: "), err


def test_config_reader_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("surprise = 1\n")
    with pytest.raises(ValueError):
        read_config_file(str(cfg))


@pytest.mark.parametrize("argv", [
    ("rep-index", "--algebra", "G2", "--weight", "1,,0"),
    ("index", "--algebra", "sl4", "--partition", "4,"),
    ("index", "--algebra", "sl4", "--partition", ",4,"),
], ids=["weight-inner", "partition-trailing", "partition-both-ends"])
def test_an_empty_list_entry_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse integer list '"), err


def test_verify_json_checks_are_check_results(capsys):
    argv = ("verify", "--only", "minimal-orbit", "--only", "unfolding", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == ["minimal-orbit", "unfolding"]
    for check in checks:
        assert list(check) == [f.name for f in fields(CheckResult)]


@pytest.mark.parametrize("field", fields(verify.VerifyConfig), ids=lambda f: f.name)
def test_every_verify_config_field_is_a_flag_and_a_config_key(tmp_path, field):
    key = field.name.replace("_", "-")
    text, flag_value, config_value = (
        ("routes", ["routes"], ("routes",)) if field.name == "only" else ("5", 5, 5)
    )
    parsed = build_parser().parse_args(["verify", f"--{key}", text])
    assert vars(parsed)[field.name] == flag_value
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {text}\n")
    assert read_config_file(str(cfg)) == {field.name: config_value}


# sha256 of stdout and the exit code of each invocation, recorded before the
# output writers were folded into one (the two verify runs at small bounds
# before the checks shared one runner); any byte of drift fails the test.
GOLDEN_CLI = [
    (("table",), 0, "b4b1b08f053bc055d727e471bab8913cf6b4a4bde81764dfc7955260daec2dc6"),
    (("table", "--format", "md"), 0, "b4b1b08f053bc055d727e471bab8913cf6b4a4bde81764dfc7955260daec2dc6"),
    (("table", "--format", "json"), 0, "4323ac2388379256b5ce09c97e07b1bf167f16be23d003dd275dfdd58a661a74"),
    (("table", "--format", "csv"), 0, "2efc992e7b52babeee73ca55f9b530441643aab96e88cb7b21dbc3fa0fa9bf85"),
    (("table", "--rank", "7"), 0, "71b192444a1b5d4216c9a92f12e19ed4c264df19a322f08fe6958b2b8bc376a1"),
    (("index", "--algebra", "sl4", "--partition", "4"), 0, "373bb06af41744434d97d48e4039b44bfe5162b76101b0b0af75c45e9a5fc727"),
    (("index", "--algebra", "so8", "--partition", "7,1"), 0, "7057366119b1f3c6b0195e47c0be93ebfa5f42b4c1aef9cd15f4f16be2e5b502"),
    (("index", "--algebra", "F4", "--partition", "17,9", "--via", "simplest"), 0, "673326fdc3ee79bd0514c268a70a2e3a63f56ada017e55bc43c706d2af7cf8df"),
    (("index", "--algebra", "sl4", "--partition", "4", "--format", "md"), 0, "b47d84c1e0b2d165082fafad1b69e475dbd70a3c46b611df8aca430ab9563b82"),
    (("index", "--algebra", "sl4", "--partition", "4", "--format", "csv"), 0, "8ba7456de43eddd3d01f3f8041476cfce9d7702118cf3d9d452b874282b0c3ec"),
    (("rep-index", "--algebra", "E6", "--weight", "1,0,0,0,0,0"), 0, "8763e5bd73dc55db0def24bdeb6d05830a4eb116762c8966192beb3cac55ffc3"),
    (("rep-index", "--algebra", "E6", "--weight", "1,0,0,0,0,0", "--format", "md"), 0, "8a1634e89b25f257500ec0c6f9e646fa1bddd90f9237081538b2874df44a1990"),
    (("rep-index", "--algebra", "E6", "--weight", "1,0,0,0,0,0", "--format", "csv"), 0, "e99f019725c49db1d9e00a8e525b410114921d118f9cccbeb1ee67f1b9aac78b"),
    (("verify",), 0, "e2fd7b060d4ea5a16aa9db86ce964b6c7b8b671865689caf013b51cc11b87700"),
    (("verify", "--format", "json"), 0, "ba73c559efd4ead818dd1dce135704eaba941741d45326d747069bdea6527fe3"),
    (("verify", "--only", "identities", "--max-identity-n", "10"), 0, "9807830f45dc576ecd3736abbe1aa1f6ffc30e9c44147bb32c4c59b74987eb0e"),
    (("verify", "--max-classical-rank", "2", "--max-partition-size", "2", "--max-identity-n", "2"), 0, "d632eb1288d04c76d324f25244f31828da5ddac4bcde4399c494afa3327f3141"),
    (("verify", "--max-classical-rank", "4", "--max-partition-size", "6", "--max-identity-n", "5", "--format", "json"), 0, "b1954f408b8c4ed84dffed6d891e1f6f786b9602f8f0ffea7f547c4a3528bb08"),
    (("poset", "--kind", "sl", "--n", "6", "--format", "dot"), 0, "5e72a104e3534df5ad412efda1e5f9796f41560d19331f83f22140bef76924f1"),
    (("poset", "--kind", "so", "--n", "7", "--format", "json"), 0, "eff3372d395207913efbabc57a3aa75562fbe65bca4d92661bf86762279f26df"),
    (("index", "--algebra", "sp6", "--partition", "3,2,1"), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("poset", "--kind", "sp", "--n", "5"), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("verify", "--max-classical-rank", "0"), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def stdout_digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv,code,digest", GOLDEN_CLI, ids=[" ".join(c[0]) for c in GOLDEN_CLI])
def test_golden_cli_output(capsys, argv, code, digest):
    got_code, out, _ = run(capsys, *argv)
    assert (got_code, stdout_digest(out)) == (code, digest)


# sha256 of `poset` stdout for every kind and admissible n <= 12 in both
# formats, recorded before each poset carried its nodes' indices.
GOLDEN_POSET = [
    (("sl", 1, "dot"), "14b84296c3be0449e0ea2f507a9a4b22a9d33bc520da0ca6468169066299cc4a"),
    (("sl", 1, "json"), "34c4d8db2689ccf0247b959bc3d676414624c93b26d6de613befb3c042d72d23"),
    (("sl", 2, "dot"), "7c38714c2c4b6ddd55e0ffdb9759081c0ab2f9353f02d00b47332ced30396661"),
    (("sl", 2, "json"), "4bad2bbadcda3217351ec524443c63bb178b9010986d8687f0dfabf1b2a88d47"),
    (("sl", 3, "dot"), "72f504a37fdff72ab9ee9823ecc6bdffbfbb9abbcad3dd2abe234db1abd2b3f4"),
    (("sl", 3, "json"), "6e9d39deea30005b37e453aac7792d50fd25d7822cf77f66cc1cbaec4e8c975c"),
    (("sl", 4, "dot"), "deda2cb8792ff5dd7a8702c6e018fc4f2dfa7a260a2b758627ed460578c33b0e"),
    (("sl", 4, "json"), "374038ee72fb43d68f76c2e2c8f2253721a17fb346a887f11e9b5e40407ba95f"),
    (("sl", 5, "dot"), "345d5220cf86c112b90aa29f0fe7e37878346b4729f3f3bc202af82f4bb725bd"),
    (("sl", 5, "json"), "794fbe6d302bfbcbcd31c275422a1c7769947870a3096ddda56de0d3ebdd310d"),
    (("sl", 6, "dot"), "5e72a104e3534df5ad412efda1e5f9796f41560d19331f83f22140bef76924f1"),
    (("sl", 6, "json"), "968f01971c7323cecf17852c585ae42b9a74b131058d07cff339b78245212fc1"),
    (("sl", 7, "dot"), "4cd1df2ba94f8b0e273a171178d50d7ec4dbdbee64b93619fb9deeeab31aa0e5"),
    (("sl", 7, "json"), "be6e114a4f2f593cccda84fa4549ef4303583bee55c93ba568730a1eadaa7b68"),
    (("sl", 8, "dot"), "eb937aedd2539d288db9919d5e7eb9892ff0d362b32b0b8eebce98aec50920e0"),
    (("sl", 8, "json"), "3e841cdb32d14870168c74cc23739812bbbdbd19f8bf0f4aece02bb35d03d723"),
    (("sl", 9, "dot"), "6c081ea9cd487e471c09cf1f95de5166e52b6248d504419763a823cf443ec583"),
    (("sl", 9, "json"), "82354daa1d7c7e4dfb6d6f8fce902bb803d5b55f6d44376cddc1ce1ab86986ca"),
    (("sl", 10, "dot"), "e9cd0b93262add17a8713113de72912488ca10b676ebc8299b3455d58f4ebdd6"),
    (("sl", 10, "json"), "c694cabc39e372bb04917f3ebcdaf9ec0cbd02390421f0d281ebf54d4ccaebba"),
    (("sl", 11, "dot"), "c995fc5a00afcbbfe22d42bad3ac2dfc20e799c8a22449927070408359036380"),
    (("sl", 11, "json"), "9c163ae299c7305ee254a35014ae00733e925d464d04094bbc2295180762aba6"),
    (("sl", 12, "dot"), "cc1a4809e1179d3f02504b9ef0f4f86c5acf3ce8c2722d3a515f2dfdc96820de"),
    (("sl", 12, "json"), "c2aa7023eefc1c73fcbfd4ba5e7a83442e8ac55c6fc230e0313334e23960ec99"),
    (("sp", 2, "dot"), "5aa2e69236eb9678643c230d20b4a9c77095f5f87ac532f700594397b3d55e5a"),
    (("sp", 2, "json"), "5f66145e87c3135eecda60ae78ba96aed88e8daa7486ad27f552bcd0407c1af3"),
    (("sp", 4, "dot"), "ce0e0156a919221856fab7ab7b8587e75dddcc3c8516c50ea02c0631bca3b27f"),
    (("sp", 4, "json"), "ee6089c76001820ff558cb66622c80ad180a3c72d52816870b3e3dcb453d6a6d"),
    (("sp", 6, "dot"), "85a331bc9933398b5880ec0fbb181552bddde04c3c613e0b4065cd8193d0cb43"),
    (("sp", 6, "json"), "e27b1362e0c00b959522fd86e1c4be60d45dfed3dc73ca5be7a648690ac69703"),
    (("sp", 8, "dot"), "4856f0799c2156bc00180d53cf7593b1d32a70401f3ca649351164c3b647f1a5"),
    (("sp", 8, "json"), "041fb45508834126b13a965d2b63ad3de28306762694d827fab57f0e0b217828"),
    (("sp", 10, "dot"), "c0da16d416afeb6eb9d8d72fe4c251b5759aa616f0857eb5bc09bfc92c470364"),
    (("sp", 10, "json"), "fd44631e55098d4ba41a83ac47029062066ac56d85f47be998a2bf4a6ab298a6"),
    (("sp", 12, "dot"), "d30d60d7719918a34a6bfd883ae8f842f2786f133a23b93b5f27d93fbb937270"),
    (("sp", 12, "json"), "1087da870bf798efdd4baf8d79ed5f0d0b862b3170a1d03d1f1951c830b8e9c1"),
    (("so", 1, "dot"), "ca0fea59b4b47f720343aa753fd73f530f1d089c4ff0511306bed3133a1819b2"),
    (("so", 1, "json"), "a65dfc3471b1d53122475c591aba9641a1c03f02244ff8d565f90ab2e450c114"),
    (("so", 2, "dot"), "df7c5451ef74618af8b7337fc38d0e527104649e6de62e5038891c62b8779754"),
    (("so", 2, "json"), "ab758f246295386a2b5239a9bfc2b0fa2c391922bd35c9cb90e94db1878f93b5"),
    (("so", 3, "dot"), "8a7a653dcdcce689a3fbf733f1d68dfff930cc05477149924f20bb669f3635a3"),
    (("so", 3, "json"), "b7528e93203c43b77065e35829cdf5736bccc68b634e08a02eab1a27c10003e0"),
    (("so", 4, "dot"), "7d5f00259ade68f3235cdb39009a5f516ade26b2c9048be963b4a04798aa3c69"),
    (("so", 4, "json"), "872c1a6b2aea57d8175ffb3c81a97c4810014e301b282de3adb06f377a136f21"),
    (("so", 5, "dot"), "9b88053588538bbe78a2b58ac3de1d2c73664c2ea42b0ad0c690d741b574b0e3"),
    (("so", 5, "json"), "71cde87bb29603b442a08fea2c382e0d3943de3b51fbfe868b35847af7f9a2b9"),
    (("so", 6, "dot"), "e8637ffd1d0616afda9c4add6d85ca0f5382afac5f46d960b06c79e30b675ece"),
    (("so", 6, "json"), "e77099cbfc4d308f45588d29f21308539f9966d2d2b5ea380aea2ae787221444"),
    (("so", 7, "dot"), "00b11f5488fd4d9b8595a527138b7842286e5e4168ff7b14d3b35358ced30468"),
    (("so", 7, "json"), "eff3372d395207913efbabc57a3aa75562fbe65bca4d92661bf86762279f26df"),
    (("so", 8, "dot"), "6246d6f6f08ad1055132c4d724a16b7063a7bc6b425a60dabe691bcd6d036c23"),
    (("so", 8, "json"), "4c1606f726fcab1ef5ddb8b18b26d3ac941d895aae58b6ce96621dc6b9a0e536"),
    (("so", 9, "dot"), "4433b89c0d926a79f179f9d90e47d1c9c58b7bc63e804e6373f7059e735362d8"),
    (("so", 9, "json"), "3f9fd15242847cdf776cc4c1bc37b1ad69bf3051d11242558dda84211bf54129"),
    (("so", 10, "dot"), "5fa88b4e3caea374b3efd658e70c8b784abb4ff9957376fa7614fa3afc046c46"),
    (("so", 10, "json"), "83c5bd96a4da2fb72d18c4bbc8c474770f67f09d2a60655513b45516bfdd157f"),
    (("so", 11, "dot"), "485681f0ac2cb2670e109af31ab3047377779f68b9fea2f2b8371e5ea8fee895"),
    (("so", 11, "json"), "4feb0cdac20065dabafee5b36216464eaf8a1c41993de8bad060a3af8ce0b566"),
    (("so", 12, "dot"), "7c81dcb0e25e3bda3257e6b49dc30deaccec8b585e0a0d196d96907647bddaf7"),
    (("so", 12, "json"), "e2acee494db97dbd848f78c7663ed89965f44a7ee58208ce8bd451b517a298a3"),
]


@pytest.mark.parametrize(
    "case,digest", GOLDEN_POSET, ids=["{} n={} {}".format(*c[0]) for c in GOLDEN_POSET]
)
def test_golden_poset_output(capsys, case, digest):
    kind, n, fmt = case
    code, out, _ = run(capsys, "poset", "--kind", kind, "--n", str(n), "--format", fmt)
    assert (code, stdout_digest(out)) == (0, digest)


# The console-script cases: the paper's values and the CLI's contract, each
# argv as a shell would pass it to the installed `dynkindex`.  A row gives
# the argv ("{cfg}" is a file holding the row's config text), the exit code
# (an argparse refusal's is its SystemExit code), lines that stdout holds
# whole, text that stderr holds, and probes: functions of stdout, each
# with the value it must return.  Stderr is empty exactly when the code is 0,
# and a row that writes json prints json.dumps(..., indent=2) of its payload
# (the payloads of JSON_PAYLOADS are checked through _emit itself).
Case = namedtuple("Case", "argv code lines err probes config", defaults=(0, (), "", (), None))


def _dot_counts(out):  # node lines and edge lines
    lines = out.splitlines()
    return sum("[label=" in line for line in lines), sum("->" in line for line in lines)


def _poset_shape(out):
    poset = json.loads(out)
    return len(poset["nodes"]), len(poset["covers"])


def _poset_indices(out):
    return ",".join(node["index"] for node in json.loads(out)["nodes"])


def _check_fields(out):
    return [(check["name"], list(check)) for check in json.loads(out)["checks"]]


def _orbit_index(algebra, parts, value):
    # Both routes of the orbit's index, and the value printed, in csv.
    argv = f"index --algebra {algebra} --partition {parts} --format csv"
    lines = [f"value,{value}", f"routes.adjoint-branching,{value}",
             f"routes.partition-formula,{value}"]
    return Case(argv, lines=lines)


def _staircase(top, step):
    return ",".join(map(str, range(top, 0, -step)))


CLI_CASES = [
    # The identities and both index routes beyond the default bounds.
    Case("verify --only identities --only routes --max-identity-n 16 --max-partition-size 14",
         lines=["2/2 checks passed"]),
    # Structure and mckay to rank 20: the mckay partners run up to A39 and
    # D21, and their highest roots are climbed, not built.
    Case("verify --only structure --only mckay --max-classical-rank 20", lines=[
        "ok   structure          81 root systems checked",
        "ok   mckay              78 types checked",
    ]),
    # The unfolding pairs of the one partner map, and the summary rows that
    # table and difference-bounds both read.
    Case("verify --only unfolding --only difference-bounds", lines=[
        "ok   unfolding          16 pairs checked",
        "ok   difference-bounds  38 types observed",
    ]),
    # The integrality sweep: the nonzero weights with coordinates <= 2 of
    # every type to rank 6, then to rank 3.
    Case("verify --only integrality", lines=["ok   integrality        13892 irreducibles checked"]),
    Case("verify --only integrality --max-classical-rank 3",
         lines=["ok   integrality        9692 irreducibles checked"]),
    # Flags override the config file's keys, and each json check is a
    # CheckResult, field for field.
    Case("verify --config {cfg} --only minimal-orbit --format json", probes=[(
        _check_fields, [("minimal-orbit", ["name", "passed", "detail", "counterexamples"])]
    )], config="only = identities\nmax-identity-n = 5\n"),
    Case("verify --format json --max-classical-rank 4 --max-partition-size 6 --max-identity-n 5"),
    # The summary table at rank 5 (its json values: test_table_values).
    Case("table --format csv", lines=[
        'principal-index,"C(n+2,3) = 35","C(2n+2,3)/2 = 110","C(2n+1,3) = 165",'
        '"C(2n,3)/2 = 60",156,399,1240,156,28',
        'difference,"C(n+1,2) = 15",2n^2 = 50,4n(n-1) = 80,2n(n-2) = 30,72,168,480,96,24',
        "a,2,2,4,4,6,8,12,6,4",
        "b,n+1 = 6,2n = 10,2n-2 = 8,2n-4 = 6,8,12,20,8,4",
    ]),
    # The sl6 poset's 11 orbits and 12 covers, sl16's shape, which runs
    # build_poset's single-move check beyond the golden sizes, and so8's
    # shape and node indices.
    Case("poset --kind sl --n 6 --format dot", probes=[(_dot_counts, (11, 12))]),
    Case("poset --kind sl --n 16 --format json", probes=[(_poset_shape, (231, 459))]),
    Case("poset --kind so --n 8 --format json", probes=[
        (_poset_shape, (10, 11)), (_poset_indices, "28,12,10,10,4,3,2,2,1,0"),
    ]),
    # The adjoint module of E8 has index 2h* = 60, and the 27-dimensional
    # module of E6 has index 6.
    Case("rep-index --algebra E8 --weight 0,0,0,0,0,0,0,1 --format csv",
         lines=["dimension,248", "index,60"]),
    Case("rep-index --algebra E6 --weight 1,0,0,0,0,0 --format csv",
         lines=["dimension,27", "index,6"]),
    # Orbit indices where parts repeat, so the adjoint branching of each kind
    # takes its CG(a, a) C(m, 2) and square terms; then one staircase of
    # distinct parts a kind, whose labels run up to 118.
    _orbit_index("sl8", "3,3,2", 9),
    _orbit_index("sp8", "3,3,2", 9),
    _orbit_index("so9", "3,3,1,1,1", 4),
    _orbit_index("sl1830", _staircase(60, 1), 557845),
    _orbit_index("sp420", _staircase(40, 2), 58730),
    _orbit_index("so400", _staircase(39, 2), 26600),
    # A repeated flag: argparse reads it, and the last one wins.
    Case("index --algebra sl4 --partition 4 --format md --format csv",
         lines=["field,value", "value,10"]),
    # A leftover argument is reported by the top-level parser, as argparse words it.
    Case("rep-index --algebra A2 --weight 1,1 extra", code=2,
         err="dynkindex: error: unrecognized arguments: extra"),
]


@pytest.mark.parametrize("case", CLI_CASES, ids=[case.argv for case in CLI_CASES])
def test_console_script_case(tmp_path, capsys, case):
    cfg = tmp_path / "verify.cfg"
    if case.config is not None:
        cfg.write_text(case.config)
    argv = case.argv.replace("{cfg}", str(cfg)).split()
    code, out, err = _outcome(capsys, main, argv)
    assert (code, bool(err)) == (case.code, case.code != 0), err
    assert case.err in err, err
    missing = [line for line in case.lines if line not in out.splitlines()]
    assert not missing, out
    for probe, expected in case.probes:
        assert probe(out) == expected, probe.__name__
    if code == 0 and writes_json(argv):
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def emitted_json(value) -> str:
    buf = io.StringIO()
    cli._emit(value, "json", buf)
    return buf.getvalue()


# One payload of each subcommand that writes json, and index by every route.
JSON_PAYLOADS = {
    "index sl8 all": lambda: index_report("sl8", (3, 3, 2))[1],
    "index sp6 partition": lambda: index_report("sp6", (4, 2), "partition")[1],
    "index so9 adjoint": lambda: index_report("so9", (5, 3, 1), "adjoint")[1],
    "index F4 simplest": lambda: index_report("F4", (17, 9), "simplest")[1],
    "rep-index E6": lambda: rep_index_report("E6", (1, 0, 0, 0, 0, 0)),
    "table rank 4": lambda: table_payload(4),
    "verify with counterexamples": lambda: {
        "checks": [
            asdict(CheckResult("minimal-orbit", False, "2 checked", ("sl (2,)", "so (3,)"))),
            asdict(CheckResult("mckay", True, "0 types checked", ())),
        ],
        "passed": False,
    },
    "poset sl 6": lambda: orbits.poset_payload(orbits.build_poset("sl", 6)),
}


@pytest.mark.parametrize("payload", JSON_PAYLOADS.values(), ids=JSON_PAYLOADS)
def test_json_output_of_each_subcommand_is_json_dumps_with_indent_2(payload):
    value = payload()
    assert emitted_json(value) == json.dumps(value, indent=2) + "\n"


Pair = namedtuple("Pair", "left right")


class Mapping(dict):
    pass


EDGE_VALUES = {
    "empty dict": {},
    "empty list": [],
    "empty tuple": (),
    "nested empties": {"a": {}, "b": [[], ()], "c": [{}]},
    "empty list in lists": [[[]]],
    "None": None,
    "None nested": [None, {"x": None}],
    "bools beside 0 and 1": [True, False, 0, 1],
    "bool values": {"t": True, "f": False, "zero": 0, "one": 1},
    "escaped str": 'quote " backslash \\ newline \n e-acute \u00e9',
    "escaped key": {"\u00e9\n\"\\": ["\\"]},
    "500-digit int": int("7" * 500),
    "negative 500-digit int": [-(10 ** 499), 0],
    # Not laid out by the emitter: handed to json.dumps at their indentation.
    "floats": [1.5, {"f": [-0.25, 1e300]}],
    "namedtuple": {"pair": Pair(1, [2, {"k": "v"}])},
    "dict subclass": [Mapping({"m": [1]})],
}


@pytest.mark.parametrize("value", EDGE_VALUES.values(), ids=EDGE_VALUES)
def test_json_output_of_edge_values_is_json_dumps_with_indent_2(value):
    assert emitted_json(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [Fraction(1, 2), {"a": [Fraction(3)]}], ids=["top", "nested"])
def test_json_output_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as refused:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as emitted:
        emitted_json(value)
    assert str(emitted.value) == str(refused.value)


@pytest.mark.parametrize(
    "value", [{1: "one"}, {"a": {None: 0}}, {(1, 2): 3}], ids=["int", "None", "tuple"]
)
def test_json_output_refuses_a_key_that_is_not_a_str(value):
    with pytest.raises(TypeError):
        emitted_json(value)


def writes_json(argv) -> bool:
    return build_parser().parse_args(list(argv)).format == "json"


GOLDEN_JSON = [g for g in GOLDEN_CLI if g[1] == 0 and writes_json(g[0])]


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN_JSON, ids=[" ".join(c[0]) for c in GOLDEN_JSON]
)
def test_json_output_does_not_use_the_pure_python_indent_encoder(
    capsys, monkeypatch, argv, code, digest
):
    def refuse(*args, **kwargs):
        raise AssertionError("json.encoder._make_iterencode called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    got_code, out, _ = run(capsys, *argv)
    assert (got_code, stdout_digest(out)) == (code, digest)


# argparse refusals (exit 2 with usage on stderr) sent between the goldens.
USAGE_ERRORS = [
    ("bogus",),
    ("index", "--algebra", "sl4"),
    ("table", "--format", "xml"),
    ("verify", "--only"),
    ("poset", "--kind", "sl", "--n", "six"),
]


def usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage:"), argv
    return captured.err


def test_one_parser_serves_every_call_without_leaking_state(capsys):
    parser = build_parser()
    errors = {}
    # verify at default bounds is pinned by test_golden_cli_output alone; the
    # others twice, the second time in reverse, a usage error before each.
    replay = [g for g in GOLDEN_CLI if g[0] not in (("verify",), ("verify", "--format", "json"))]
    for i, (argv, code, digest) in enumerate(replay + replay[::-1]):
        bad = USAGE_ERRORS[i % len(USAGE_ERRORS)]
        err = usage_error(capsys, bad)
        assert errors.setdefault(bad, err) == err
        got_code, out, _ = run(capsys, *argv)
        assert (got_code, stdout_digest(out)) == (code, digest), argv
    assert build_parser() is parser


def test_only_does_not_carry_over_to_the_next_verify(capsys):
    code, out, _ = run(capsys, "verify", "--only", "routes")
    assert code == 0 and out.endswith("1/1 checks passed\n")
    argv = ("verify", "--max-classical-rank", "2", "--max-partition-size", "2",
            "--max-identity-n", "2")
    code, out, _ = run(capsys, *argv)
    assert out.endswith("10/10 checks passed\n")
    assert (argv, code, stdout_digest(out)) in GOLDEN_CLI


def test_help_is_the_same_on_first_and_second_call(capsys):
    def help_texts():
        texts = []
        for command in ((), ("table",), ("index",), ("rep-index",), ("verify",), ("poset",)):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        return texts

    build_parser.cache_clear()
    first = help_texts()
    assert build_parser.cache_info().misses == 1
    assert help_texts() == first
    assert build_parser.cache_info().misses == 1


def _outcome(capsys, call, argv):
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("rep-index", "--algebra", "A2", "--weight", "1,1", "extra"),
        ("table", "--bogus"),
        ("table", "-h"),
        ("-h",),
        (),
        ("bogus",),
        ("index", "--algebra", "sl4"),
    ],
    ids=lambda argv: " ".join(argv) or "no-argv",
)
def test_usage_errors_read_as_the_top_level_parse_writes_them(capsys, argv):
    # The reference is the whole argv through the top-level parser.
    expected = _outcome(capsys, build_parser().parse_args, argv)
    assert _outcome(capsys, main, argv) == expected
    code, out, err = expected  # -h prints help; the rest are usage errors
    assert (code, bool(out), bool(err)) in ((0, True, False), (2, False, True))


def test_parser_is_not_built_at_import():
    proc = python("-c", "from dynkindex import cli; print(cli.build_parser.cache_info().currsize)")
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def test_a_plain_call_imports_neither_argparse_nor_csv():
    code = (
        "import contextlib, io, sys\n"
        "from dynkindex import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['rep-index', '--algebra', 'A2', '--weight', '1,1'])\n"
        "    plain = sorted({'argparse', 'csv'} & set(sys.modules))\n"
        "    try:\n"
        "        cli.main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print(plain, 'argparse' in sys.modules)\n"
    )
    proc = python("-c", code)
    assert (proc.returncode, proc.stdout) == (0, "[] True\n"), proc.stderr


def test_a_plain_argv_builds_no_parser(capsys):
    # --only appends, so it is not a plain option: argparse reads those argv.
    build_parser.cache_clear()
    appended = [g for g in GOLDEN_CLI if "--only" in g[0]]
    for argv, code, digest in [g for g in GOLDEN_CLI if g not in appended]:
        got_code, out, _ = run(capsys, *argv)
        assert (got_code, stdout_digest(out)) == (code, digest), argv
    assert build_parser.cache_info().currsize == 0
    # An abbreviated flag and "--flag=value": argparse's forms, the plain form's output.
    abbreviated = ("rep-index", "--alg", "E6", "--weight=1,0,0,0,0,0", "--format", "csv")
    code, out, _ = run(capsys, *abbreviated)
    golden = {argv: (code, digest) for argv, code, digest in GOLDEN_CLI}
    e6 = ("rep-index", "--algebra", "E6", "--weight", "1,0,0,0,0,0", "--format", "csv")
    assert (code, stdout_digest(out)) == golden[e6]
    assert "index,6" in out.splitlines()
    assert build_parser.cache_info().misses == 1
    for argv, code, digest in appended:
        got_code, out, _ = run(capsys, *argv)
        assert (got_code, stdout_digest(out)) == (code, digest), argv
    assert build_parser.cache_info().misses == 1


# sha256 of the stdout of each --help and the stderr of each USAGE_ERRORS
# entry, recorded when each subcommand's add_argument calls were written
# out one by one; argparse lays its text out differently across versions.
HELP_DIGESTS = {
    (): "b89d0d8305df63c3495134c4c27e25dca3e8762879c3c1a212ee6d7d19acfd99",
    ("table",): "1404e75d6fad450c427b9476a97327f0cf9a4d3556187899368db3ae16a81cd5",
    ("index",): "f86e1d213ae54567551bfc942b16c68e95dc132e5e805ff8a4ff0d3cd335a6bd",
    ("rep-index",): "d833a56e8b525ad064ae81fd1c1c4783191e8ae878e82c5421743a4bf4c54032",
    ("verify",): "6c76d5516c423b70535431ee3447a51a9ff60177f8ce6a421920b9487569b838",
    ("poset",): "59b1c9fafaca375e99a09fca30d28a5b7b5040eb5e333af909ad21073eacc751",
}
USAGE_ERROR_DIGESTS = [
    "259aad745b3657c6b04b0922b013e173c745d6cfb0d135d181b9c8216910977e",
    "853bd53f285c4226780d8dc42bdd7cb30965f1fbf7347b2418ead99e196c06c7",
    "f99cf390d533c92384ebc9e2382c8c8b1db77d529b69625b2061327b811c05c3",
    "fd922b5803d9886b4f060d06d0724be9a17f0c48a32587e64050fcca6683d57c",
    "a69012133dafac5b4a517bbabe061db86d04188f2e5ecaa0bd5fdc5c8aae4dd4",
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's layout is 3.11's")
def test_help_and_usage_texts_are_argparses_unchanged(capsys):
    for command, digest in HELP_DIGESTS.items():
        code, out, err = _outcome(capsys, main, (*command, "--help"))
        assert (code, stdout_digest(out), err) == (0, digest, ""), command
    for argv, digest in zip(USAGE_ERRORS, USAGE_ERROR_DIGESTS):
        assert stdout_digest(usage_error(capsys, argv)) == digest, argv


GOLDEN_CONFIG = [
    ((), "text", "51afeb0fe92fb89f5746cb75b73cf105d00e5954b27c2e4d4e65d96d98dfcea6"),
    ((), "json", "41552c7eb268cfbc59b559cc7496fe5579ae0a733ec8cd234fbe6aa3d8e4a948"),
    (("--max-identity-n", "8"), "text", "b6d6fd314fd4b49e0c0d308037338e26e85b579ac08e771c55a9eed7df363e9d"),
    (("--max-identity-n", "8"), "json", "7826ad2af67c4a8eb2d51b23edd665296bbc60d7a2765838021a6204ef9b2afa"),
    (("--only", "routes", "--max-partition-size", "6"), "text", "debce6607eecee10027d611965f9852f58220872d91e73968c41978129e44ca5"),
    (("--only", "routes", "--max-partition-size", "6"), "json", "505c0f791b6498bdb7974da0e65ff341ed1ad739a53ade1c6e477089f082fb8f"),
]


@pytest.mark.parametrize(
    "flags,fmt,digest", GOLDEN_CONFIG, ids=[" ".join(c[0] + (c[1],)) for c in GOLDEN_CONFIG]
)
def test_golden_verify_flags_over_config(tmp_path, capsys, flags, fmt, digest):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("max-identity-n = 6\nonly = identities, minimal-orbit\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--format", fmt, *flags)
    assert (code, stdout_digest(out)) == (0, digest)


@pytest.mark.parametrize("fmt,digest", [
    ("text", "1d879c2e07537c599478a740aa5205958f22afc8617ad39c20d456f994274852"),
    ("json", "4ac71767e9c9ae96d112fefced91becf637180de8e4f15b4da747f34732c88dc"),
], ids=["text", "json"])
def test_golden_verify_failure_output(capsys, monkeypatch, fmt, digest):
    failures = tuple(f"sl ({i},)" for i in range(25))  # text output shows the first 20
    failing = CheckResult("minimal-orbit", False, "25 minimal orbits checked", failures)
    monkeypatch.setitem(verify.CHECKS, "minimal-orbit", lambda config: failing)
    argv = ("verify", "--only", "minimal-orbit", "--only", "unfolding", "--format", fmt)
    code, out, _ = run(capsys, *argv)
    assert (code, stdout_digest(out)) == (1, digest)
