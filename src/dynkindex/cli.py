"""Command-line front end.

Subcommands: table (the summary table of principal/subregular data), index
(sl2-subalgebra index of one orbit), rep-index (Dynkin index of one
irreducible), verify (the exhaustive check suite), poset (orbit closure
diagrams).  Exit codes: 0 success, 1 verification, route or invariant
failure, 2 usage error; errors go to stderr as "error: ...".  All output is
deterministic; exact rationals are printed as "p/q" strings.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction
from functools import cache, partial

from . import orbits, reps, sl2
from .rootsystems import EXCEPTIONAL, LieType, build, classical_type, defining_module
from .verify import BOUNDS, CHECKS, VerifyConfig, run_checks

_MATRIX_RE = re.compile(r"^(sl|sp|so)[_ ]?([0-9]+)$", re.IGNORECASE)


def parse_algebra(label: str) -> tuple[LieType, str | None, int | None]:
    """Resolve an algebra label to (type, classical kind, module size).

    Matrix labels like sl8/sp6/so13 fix the defining module; abstract
    classical labels are mapped to their matrix form, and exceptional labels
    carry no classical kind.
    """
    m = _MATRIX_RE.match(label.strip())
    if m:
        kind, dim = m.group(1).lower(), int(m.group(2))
        return classical_type(kind, dim), kind, dim
    lt = LieType.parse(label)
    kind, dim = defining_module(lt) or (None, None)
    return lt, kind, dim


def parse_parts(text: str) -> tuple[int, ...]:
    try:
        values = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse integer list {text!r}") from None
    if not values:
        raise ValueError("empty integer list")
    return tuple(values)


def frac(value) -> str:
    return str(Fraction(value))


# -- table ---------------------------------------------------------------------

_QUANTITIES = ("principal-index", "difference", "a", "b", "ratio")


_FORMS = {
    "A": {"principal-index": "C(n+2,3)", "difference": "C(n+1,2)", "b": "n+1"},
    "B": {"principal-index": "C(2n+2,3)/2", "difference": "2n^2", "b": "2n"},
    "C": {"principal-index": "C(2n+1,3)", "difference": "4n(n-1)", "b": "2n-2"},
    "D": {"principal-index": "C(2n,3)/2", "difference": "2n(n-2)", "b": "2n-4"},
}


def _column(lt: LieType) -> dict:
    rs = build(lt)
    principal = sl2.principal_index(rs)
    difference = sl2.principal_minus_subregular(rs)
    for quantity, report in (("principal-index", principal), ("difference", difference)):
        if not report.consistent:
            raise ArithmeticError(report.disagreement(f"{lt} {quantity}"))
    data = sl2.mckay_data(lt)
    forms = _FORMS.get(lt.family, {})
    cells = {
        "principal-index": {"form": forms.get("principal-index"), "value": frac(principal.value)},
        "difference": {"form": forms.get("difference"), "value": frac(difference.value)},
        "a": {"form": None, "value": str(data.a)},
        "b": {"form": forms.get("b"), "value": str(data.b)},
        "ratio": {"form": None, "value": frac(difference.value / (data.b * lt.rank))},
    }
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


def index_report(algebra: str, partition, via: str = "all") -> dict:
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
            routes["partition-formula"] = sl2.classical_index(kind, p)
        if via in ("adjoint", "all"):
            routes["adjoint-branching"] = sl2.index_via_adjoint(kind, p)
    report = sl2.IndexReport(next(iter(routes.values())), routes)
    return {
        "algebra": algebra,
        "type": str(lt),
        "partition": list(p),
        "value": frac(report.value),
        "routes": {name: frac(v) for name, v in sorted(report.routes.items())},
        "consistent": report.consistent,
    }


def rep_index_report(algebra: str, weight) -> dict:
    lt, _, _ = parse_algebra(algebra)
    rs = build(lt)
    report = reps.dynkin_index(rs, weight)
    return {
        "algebra": algebra,
        "type": str(lt),
        "weight": list(weight),
        "dimension": report.dimension,
        "index": frac(report.index),
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


def _emit(payload: dict, fmt: str, out, rows=_field_rows, text=None) -> None:
    """The one output path of every subcommand: json dumps the payload, csv
    and md lay out rows(payload) (a header row, then the body), and the
    text formats (text, dot) write text()."""
    if fmt == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows(rows(payload))
    elif fmt == "md":
        header, *body = rows(payload)
        lines = ["| " + " | ".join(row) + " |" for row in (header, *body)]
        lines.insert(1, "|" + "---|" * len(header))
        out.write("\n".join(lines) + "\n")
    else:
        out.write(text())


# -- config files ----------------------------------------------------------------

# Config key -> VerifyConfig field.  A bound's key, and its flag after "--", is
# the field name with dashes.
_CONFIG_KEYS = {name.replace("_", "-"): name for name in BOUNDS} | {"only": "families"}


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
            if field == "families":
                values[field] = tuple(x.strip() for x in value.split(",") if x.strip())
            else:
                values[field] = int(value)
    return values


# -- subcommand drivers -----------------------------------------------------------


def _cmd_table(args, out) -> int:
    _emit(table_payload(args.rank), args.format, out, rows=table_rows)
    return 0


def _cmd_index(args, out) -> int:
    payload = index_report(args.algebra, parse_parts(args.partition), args.via)
    _emit(payload, args.format, out)
    return 0 if payload["consistent"] else 1


def _cmd_rep_index(args, out) -> int:
    payload = rep_index_report(args.algebra, parse_parts(args.weight))
    _emit(payload, args.format, out)
    return 0


def _cmd_verify(args, out) -> int:
    options = read_config_file(args.config) if args.config else {}
    for field in _CONFIG_KEYS.values():  # flags override the file
        value = getattr(args, field)
        if value is not None:
            options[field] = tuple(value) if field == "families" else value
    results = run_checks(VerifyConfig(**options))
    payload = {
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "counterexamples": r.failures,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    _emit(payload, args.format, out, text=partial(_verify_text, payload))
    return 0 if payload["passed"] else 1


def _cmd_poset(args, out) -> int:
    poset = orbits.build_poset(args.kind, args.n)
    _emit(orbits.poset_payload(poset), args.format, out, text=partial(orbits.poset_dot, poset))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Parsing keeps no state between calls: each parse_args returns a fresh
    namespace, so one parser serves every main() of a process.
    """
    parser = argparse.ArgumentParser(
        prog="dynkindex",
        description="Exact Dynkin indices of representations and sl2-subalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="summary table over all nine families")
    p_table.add_argument("--format", choices=("json", "csv", "md"), default="md")
    p_table.add_argument(
        "--rank",
        type=int,
        default=5,
        help="sample rank at which classical closed forms are evaluated",
    )
    p_table.set_defaults(func=_cmd_table)

    p_index = sub.add_parser("index", help="sl2-subalgebra index of one orbit")
    p_index.add_argument("--algebra", required=True, help="e.g. sl8, sp6, so13, C3, E6")
    p_index.add_argument("--partition", required=True, help="comma-separated parts")
    p_index.add_argument(
        "--via",
        choices=("partition", "adjoint", "simplest", "all"),
        default="all",
        help="which computation routes to run",
    )
    p_index.add_argument("--format", choices=("json", "csv", "md"), default="json")
    p_index.set_defaults(func=_cmd_index)

    p_rep = sub.add_parser("rep-index", help="Dynkin index of one irreducible")
    p_rep.add_argument("--algebra", required=True)
    p_rep.add_argument("--weight", required=True, help="fundamental-weight coordinates")
    p_rep.add_argument("--format", choices=("json", "csv", "md"), default="json")
    p_rep.set_defaults(func=_cmd_rep_index)

    p_verify = sub.add_parser("verify", help="run the exhaustive check suite")
    p_verify.add_argument(
        "--only",
        action="append",
        dest="families",
        metavar="CHECK",
        help=f"restrict to named checks ({', '.join(CHECKS)})",
    )
    for key, name in _CONFIG_KEYS.items():
        if name in BOUNDS:
            p_verify.add_argument(f"--{key}", type=int)
    p_verify.add_argument("--config", help="key-value config file (see README)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_poset = sub.add_parser("poset", help="orbit closure diagram")
    p_poset.add_argument("--kind", choices=sl2.KINDS, required=True)
    p_poset.add_argument("--n", type=int, required=True, help="module dimension")
    p_poset.add_argument("--format", choices=("dot", "json"), default="dot")
    p_poset.set_defaults(func=_cmd_poset)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
