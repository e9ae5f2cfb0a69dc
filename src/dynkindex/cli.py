"""Command-line front end.

Subcommands: table (the summary table of principal/subregular data), index
(sl2-subalgebra index of one orbit), rep-index (Dynkin index of one
irreducible), verify (the exhaustive check suite), poset (orbit closure
diagrams).  Exit codes: 0 success, 1 verification, route or invariant
failure, 2 usage error; errors go to stderr as "error: ...".  All output is
deterministic; exact rationals are printed as "p/q" strings.

Each subcommand and its options are declared once, in _SUBCOMMANDS.  A
plain argv of "--flag value" pairs is read from that table alone; every
other form, with every usage message and help text, goes to the argparse
parser that build_parser makes from the same table.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import asdict, fields
from fractions import Fraction
from functools import cache, partial
from json.encoder import encode_basestring_ascii as _json_str
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import orbits, reps, sl2
from .rootsystems import EXCEPTIONAL, LieType, build, classical_type, defining_module
from .verify import BOUNDS, CHECKS, VerifyConfig, run_checks

if TYPE_CHECKING:
    import argparse

_MATRIX_RE = re.compile(rf"^({'|'.join(sl2.KINDS)})[_ ]?([0-9]+)$", re.IGNORECASE)


@cache
def parse_algebra(label: str) -> tuple[LieType, str | None, int | None]:
    """Resolve an algebra label to (type, classical kind, module size).

    Matrix labels like sl8/sp6/so13 fix the defining module; abstract
    classical labels are mapped to their matrix form, and exceptional labels
    carry no classical kind.  Each label string is resolved once per
    process and kept, so the cache grows with the distinct strings passed;
    a bad label is not cached and raises the same ValueError on every call.
    """
    m = _MATRIX_RE.match(label.strip())
    if m:
        kind, dim = m.group(1).lower(), int(m.group(2))
        return classical_type(kind, dim), kind, dim
    lt = LieType.parse(label)
    kind, dim = defining_module(lt) or (None, None)
    return lt, kind, dim


def parse_parts(text: str) -> tuple[int, ...]:
    try:  # from a list: tuple(iterator) resizes, leaving its block in a free list
        return tuple(list(map(int, text.split(","))))
    except ValueError:
        raise ValueError(f"cannot parse integer list {text!r}") from None


# -- table ---------------------------------------------------------------------

_QUANTITIES = ("principal-index", "difference", "a", "b", "ratio")


_FORMS = {
    "A": {"principal-index": "C(n+2,3)", "difference": "C(n+1,2)", "b": "n+1"},
    "B": {"principal-index": "C(2n+2,3)/2", "difference": "2n^2", "b": "2n"},
    "C": {"principal-index": "C(2n+1,3)", "difference": "4n(n-1)", "b": "2n-2"},
    "D": {"principal-index": "C(2n,3)/2", "difference": "2n(n-2)", "b": "2n-4"},
}


def _column(lt: LieType) -> dict:
    row = sl2.summary_row(lt)
    values = (row.principal, row.d, row.a, row.b, row.ratio)
    forms = _FORMS.get(lt.family, {})
    cells = {q: {"form": forms.get(q), "value": str(v)} for q, v in zip(_QUANTITIES, values)}
    label = str(lt) if lt.is_exceptional else f"{lt.family}_n (n={lt.rank})"
    return {"label": label, "cells": cells}


def table_payload(sample_rank: int = 5) -> dict:
    """Every cell computed from the library; classical columns carry the
    closed form evaluated at the sample rank."""
    if sample_rank < 4:
        raise ValueError("sample rank must be at least 4 so the D column exists")
    types = [LieType(fam, sample_rank) for fam in "ABCD"]
    types += [LieType.parse(label) for label in EXCEPTIONAL]
    columns = [_column(lt) for lt in types]
    return {"sample_rank": sample_rank, "quantities": list(_QUANTITIES), "columns": columns}


def table_rows(payload: dict) -> list[list[str]]:
    """Header row, then one row per quantity; a cell with a closed form reads
    "form = value"."""
    columns = payload["columns"]
    rows = [["quantity"] + [col["label"] for col in columns]]
    for quantity in payload["quantities"]:
        cells = [col["cells"][quantity] for col in columns]
        rows.append(
            [quantity]
            + [f"{c['form']} = {c['value']}" if c["form"] else c["value"] for c in cells]
        )
    return rows


# -- index ----------------------------------------------------------------------


def index_report(algebra: str, partition, via: str = "all") -> tuple[sl2.IndexReport, dict]:
    """The orbit's IndexReport over the routes asked for, and its payload."""
    lt, kind, dim = parse_algebra(algebra)
    p = sl2.normalize_partition(partition)
    routes: dict[str, Fraction] = {}
    if lt.is_exceptional:
        if via not in ("simplest", "all"):
            raise ValueError(
                f"{lt} takes its Jordan types in the smallest faithful module; "
                "use --via simplest"
            )
        routes["simplest-rep"] = sl2.index_via_simplest_rep(lt, p)
    else:
        if via == "simplest":
            raise ValueError("--via simplest applies to exceptional algebras only")
        if sum(p) != dim:
            raise ValueError(
                f"partition of {sum(p)} does not match the defining module of "
                f"{algebra} (dimension {dim})"
            )
        if via in ("partition", "all"):
            routes[sl2.PARTITION_ROUTE] = sl2.classical_index(kind, p)
        if via in ("adjoint", "all"):
            routes[sl2.ADJOINT_ROUTE] = sl2.index_via_adjoint(kind, p)
    report = sl2.IndexReport(next(iter(routes.values())), routes)
    return report, {
        "algebra": algebra,
        "type": str(lt),
        "partition": list(p),
        "value": str(report.value),
        "routes": {name: str(v) for name, v in sorted(report.routes.items())},
        "consistent": report.consistent,
    }


def rep_index_report(algebra: str, weight) -> dict:
    lt, _, _ = parse_algebra(algebra)
    weight = reps._check_weight(lt, weight)  # before the build, which grows with the rank
    report = reps.dynkin_index(build(lt), weight)
    return {
        "algebra": algebra,
        "type": str(lt),
        "weight": list(weight),
        "dimension": report.dimension,
        "index": str(report.index),
        "integer": report.is_integer,
    }


def _field_rows(payload: dict) -> list[list[str]]:
    # One row per field; nested dicts become dotted keys, lists joined by ",".
    rows = [["field", "value"]]
    for key, value in payload.items():
        if isinstance(value, dict):
            rows += [[f"{key}.{k}", str(v)] for k, v in value.items()]
        elif isinstance(value, list):
            rows.append([key, ",".join(str(v) for v in value)])
        else:
            rows.append([key, str(value)])
    return rows


def _verify_text(payload: dict) -> str:
    """Plain-text report of a verify payload: one line per check with at
    most 20 counterexamples, then the count of passed checks."""
    lines = []
    for check in payload["checks"]:
        status = "ok  " if check["passed"] else "FAIL"
        lines.append(f"{status} {check['name']:<18} {check['detail']}")
        lines += [f"       counterexample: {f}" for f in check["counterexamples"][:20]]
    good = sum(check["passed"] for check in payload["checks"])
    lines.append(f"{good}/{len(payload['checks'])} checks passed")
    return "\n".join(lines) + "\n"


def _json_chunks(value, pad: str, out: list) -> None:
    """Append json.dumps(value, indent=2), nested at indent pad, to out in
    pieces: str-keyed dicts, lists, tuples, str, int, bool and None (exact
    types) are laid out here, any other value by json.dumps itself."""
    kind = type(value)
    if kind is str:
        out.append(_json_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict or kind is list or kind is tuple:
        opening, closing = "{}" if kind is dict else "[]"
        inner = pad + "  "
        sep = opening + "\n" + inner
        for item in value:
            if kind is dict:  # the C escaper refuses a non-str key: TypeError
                out += (sep, _json_str(item), ": ")
                item = value[item]
            else:
                out.append(sep)
            _json_chunks(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + closing if value else opening + closing)
    elif kind is bool or value is None:
        out.append("null" if value is None else "true" if value else "false")
    else:
        out.append(json.dumps(value, indent=2).replace("\n", "\n" + pad))


def _emit(payload: dict, fmt: str, out, rows=_field_rows, text=None) -> None:
    """The one output path of every subcommand: json joins _json_chunks once
    and writes it once, csv and md lay out rows(payload) (a header row, then
    the body), and the text formats (text, dot) write text()."""
    if fmt == "json":
        chunks: list[str] = []
        _json_chunks(payload, "", chunks)
        out.write("".join(chunks) + "\n")
    elif fmt == "csv":
        import csv

        csv.writer(out, lineterminator="\n").writerows(rows(payload))
    elif fmt == "md":
        header, *body = rows(payload)
        lines = ["| " + " | ".join(row) + " |" for row in (header, *body)]
        lines.insert(1, "|" + "---|" * len(header))
        out.write("\n".join(lines) + "\n")
    else:
        out.write(text())


# -- config files ----------------------------------------------------------------

# Config key -> VerifyConfig field.  A field's key, and its flag after "--", is
# the field name with dashes.
_CONFIG_KEYS = {f.name.replace("_", "-"): f.name for f in fields(VerifyConfig)}


def read_config_file(path: str) -> dict:
    """Key-value config mirroring the verify options; '#' starts a comment."""
    values: dict = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _CONFIG_KEYS:
                raise ValueError(
                    f"{path}:{lineno}: unknown key {key!r}; "
                    f"expected one of {', '.join(_CONFIG_KEYS)}"
                )
            field = _CONFIG_KEYS[key]
            if field == "only":
                values[field] = tuple(x.strip() for x in value.split(","))
            else:
                try:
                    values[field] = int(value)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: {key} must be an integer, got {value!r}"
                    ) from None
    return values


# -- subcommand drivers -----------------------------------------------------------


def _cmd_table(args, out) -> int:
    _emit(table_payload(args.rank), args.format, out, rows=table_rows)
    return 0


def _cmd_index(args, out) -> int:
    report, payload = index_report(args.algebra, parse_parts(args.partition), args.via)
    _emit(payload, args.format, out)
    if not payload["consistent"]:  # main writes it to stderr and exits 1
        subject = f"{args.algebra} {tuple(payload['partition'])}"
        raise ArithmeticError(report.disagreement(subject))
    return 0


def _cmd_rep_index(args, out) -> int:
    payload = rep_index_report(args.algebra, parse_parts(args.weight))
    _emit(payload, args.format, out)
    return 0


def _cmd_verify(args, out) -> int:
    options = read_config_file(args.config) if args.config else {}
    for field in _CONFIG_KEYS.values():  # flags override the file
        value = getattr(args, field)
        if value is not None:
            options[field] = value
    results = run_checks(VerifyConfig(**options))
    payload = {
        "checks": [asdict(r) for r in results],
        "passed": all(r.passed for r in results),
    }
    _emit(payload, args.format, out, text=partial(_verify_text, payload))
    return 0 if payload["passed"] else 1


def _cmd_poset(args, out) -> int:
    poset = orbits.build_poset(args.kind, args.n)
    _emit(orbits.poset_payload(poset), args.format, out, text=partial(orbits.poset_dot, poset))
    return 0


# table, index and rep-index give the payload as json, or its rows as csv or md.
_TABULAR = ("json", "csv", "md")

# Each subcommand once: its help, its driver and its options, each a flag
# with the keyword arguments of its add_argument call, in help order.
# build_parser builds argparse's parsers from this table, and
# _parse_canonical reads the plain "--flag value" argv with it.
_SUBCOMMANDS = {
    "table": ("summary table over all nine families", _cmd_table, {
        "--format": {"choices": _TABULAR, "default": "md"},
        "--rank": {
            "type": int,
            "default": 5,
            "help": "sample rank at which classical closed forms are evaluated",
        },
    }),
    "index": ("sl2-subalgebra index of one orbit", _cmd_index, {
        "--algebra": {"required": True, "help": "e.g. sl8, sp6, so13, C3, E6"},
        "--partition": {"required": True, "help": "comma-separated parts"},
        "--via": {
            "choices": ("partition", "adjoint", "simplest", "all"),
            "default": "all",
            "help": "which computation routes to run",
        },
        "--format": {"choices": _TABULAR, "default": "json"},
    }),
    "rep-index": ("Dynkin index of one irreducible", _cmd_rep_index, {
        "--algebra": {"required": True},
        "--weight": {"required": True, "help": "fundamental-weight coordinates"},
        "--format": {"choices": _TABULAR, "default": "json"},
    }),
    "verify": ("run the exhaustive check suite", _cmd_verify, {
        "--only": {
            "action": "append",
            "metavar": "CHECK",
            "help": f"restrict to named checks ({', '.join(CHECKS)})",
        },
        **{f"--{key}": {"type": int} for key, name in _CONFIG_KEYS.items() if name in BOUNDS},
        "--config": {"help": "key-value config file (see README)"},
        "--format": {"choices": ("text", "json"), "default": "text"},
    }),
    "poset": ("orbit closure diagram", _cmd_poset, {
        "--kind": {"choices": sl2.KINDS, "required": True},
        "--n": {"type": int, "required": True, "help": "module dimension"},
        "--format": {"choices": ("dot", "json"), "default": "dot"},
    }),
}


def _parse_canonical(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give for a plain argv, or None.

    Plain means: a subcommand, then pairs of a declared flag of a store
    option, each flag once, and a value that does not start with "-" and
    passes the option's type and choices, with every required flag given.
    Any other argv (help, abbreviations, "--flag=value", repeats, --only,
    strays, bad values) is None, and main hands it to argparse.
    """
    entry = _SUBCOMMANDS.get(argv[0]) if argv else None
    if entry is None or len(argv) % 2 == 0:
        return None
    _, func, options = entry
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        spec = options.get(flag)
        if spec is None or "action" in spec or flag in given or value.startswith("-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except (TypeError, ValueError):
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    args = {}
    for flag, spec in options.items():
        if flag not in given and spec.get("required"):
            return None
        args[flag[2:].replace("-", "_")] = given.get(flag, spec.get("default"))
    return SimpleNamespace(command=argv[0], **args, func=func)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built from _SUBCOMMANDS on first use and shared
    by later calls.

    main needs it only for an argv that _parse_canonical does not read, so
    a plain call neither imports argparse nor builds a parser.  Parsing
    keeps no state between calls: each parse_args returns a fresh
    namespace, so one parser serves every main() of a process.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="dynkindex",
        description="Exact Dynkin indices of representations and sl2-subalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kwargs in options.items():
            command.add_argument(flag, **kwargs)
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Every form but the plain one, with its messages and help texts, is argparse's.
    args = _parse_canonical(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # str() of a MemoryError is usually empty
        print("error: out of memory", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
