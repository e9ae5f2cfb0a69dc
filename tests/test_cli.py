"""Command-line interface: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dynkindex import sl2
from dynkindex.cli import main, parse_algebra, read_config_file, table_payload
from dynkindex.rootsystems import LieType

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_algebra():
    assert parse_algebra("sl8") == (LieType("A", 7), "sl", 8)
    assert parse_algebra("so13") == (LieType("B", 6), "so", 13)
    assert parse_algebra("C3") == (LieType("C", 3), "sp", 6)
    assert parse_algebra("E6") == (LieType("E", 6), None, None)
    with pytest.raises(ValueError):
        parse_algebra("sq9")


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


def test_table_values(capsys):
    code, out, _ = run(capsys, "table", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    by_label = {col["label"]: col["cells"] for col in payload["columns"]}
    assert by_label["E6"]["principal-index"]["value"] == "156"
    assert by_label["E6"]["difference"]["value"] == "72"
    assert by_label["E6"]["a"]["value"] == "6"
    assert by_label["E6"]["b"]["value"] == "8"
    assert by_label["E6"]["ratio"]["value"] == "3/2"
    assert by_label["G2"]["ratio"]["value"] == "3"
    d5 = by_label["D_n (n=5)"]
    assert d5["principal-index"]["value"] == "60"
    assert d5["difference"]["value"] == "30"
    assert (d5["a"]["value"], d5["b"]["value"]) == ("4", "6")
    assert d5["ratio"]["value"] == "1"


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


def test_verify_subset(capsys):
    code, out, _ = run(
        capsys, "verify", "--only", "identities", "--max-identity-n", "10"
    )
    assert code == 0
    assert "identities" in out and "1/1 checks passed" in out


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
    code, _, err = run(capsys, "poset", "--kind", "sp", "--n", "5")
    assert code == 2 and "even" in err


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["-m", "dynkindex.cli", "verify"]
    argv += ["--only", "structure", "--only", "integrality"]
    runs = [
        subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True)
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert b"13892 irreducibles checked" in runs[1].stdout


def test_table_payload_rejects_low_rank():
    with pytest.raises(ValueError):
        table_payload(3)


def test_config_reader_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("surprise = 1\n")
    with pytest.raises(ValueError):
        read_config_file(str(cfg))
