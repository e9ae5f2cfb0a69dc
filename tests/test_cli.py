"""Command-line interface: formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynkindex import sl2, verify
from dynkindex.cli import build_parser, main, parse_algebra, read_config_file, table_payload
from dynkindex.rootsystems import LieType
from dynkindex.verify import CheckResult

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


# argv vocabulary for the exit-code contract: each subcommand's flags with a
# few good and bad values each (None leaves the flag out), then, one time in
# four, a stray token.  Every number is at most 6, so no draw starts a large
# build or poset.  verify always names the cheap routes check (a drawn --only
# adds to it): without --only it sweeps the integrality of E8 irreducibles,
# about 0.4 s a draw.
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
_STRAY = ("--help", "--rank", "--n", "--algebra", "E6", "3,2,1", "--format")


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
    runs = [
        subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True)
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert b"13892 irreducibles checked" in runs[1].stdout
    assert runs[1].stdout.endswith(b"10/10 checks passed\n")


def test_table_payload_rejects_low_rank():
    with pytest.raises(ValueError):
        table_payload(3)


def test_config_reader_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("surprise = 1\n")
    with pytest.raises(ValueError):
        read_config_file(str(cfg))


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


def test_parser_is_not_built_at_import():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "from dynkindex import cli; print(cli.build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


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
    failures = [f"sl ({i},)" for i in range(25)]  # text output shows the first 20
    failing = CheckResult("minimal-orbit", False, "25 minimal orbits checked", failures)
    monkeypatch.setitem(verify.CHECKS, "minimal-orbit", lambda config: failing)
    argv = ("verify", "--only", "minimal-orbit", "--only", "unfolding", "--format", fmt)
    code, out, _ = run(capsys, *argv)
    assert (code, stdout_digest(out)) == (1, digest)
