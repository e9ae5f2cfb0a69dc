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
import io
import json
import re
import sys
from fractions import Fraction

from . import identities, orbits, reps, sl2
from .rootsystems import LieType, build, classical_type
from .verify import CHECKS, VerifyConfig, run_checks

_MATRIX_RE = re.compile(r"^(sl|sp|so)[_ ]?([0-9]+)$", re.IGNORECASE)

_VECTOR_DIM = {
    "A": lambda n: ("sl", n + 1),
    "B": lambda n: ("so", 2 * n + 1),
    "C": lambda n: ("sp", 2 * n),
    "D": lambda n: ("so", 2 * n),
}


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
    if lt.family in _VECTOR_DIM:
        kind, dim = _VECTOR_DIM[lt.family](lt.rank)
        return lt, kind, dim
    return lt, None, None


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


class RouteDisagreement(RuntimeError):
    """Two routes to one table cell gave different values."""


_FORMS = {
    "A": {"principal-index": "C(n+2,3)", "difference": "C(n+1,2)", "b": "n+1"},
    "B": {"principal-index": "C(2n+2,3)/2", "difference": "2n^2", "b": "2n"},
    "C": {"principal-index": "C(2n+1,3)", "difference": "4n(n-1)", "b": "2n-2"},
    "D": {"principal-index": "C(2n,3)/2", "difference": "2n(n-2)", "b": "2n-4"},
}


def _column(lt: LieType, label: str, classical: bool) -> dict:
    rs = build(lt)
    principal = sl2.principal_index(rs)
    difference = sl2.principal_minus_subregular(rs)
    for quantity, report in (("principal-index", principal), ("difference", difference)):
        if not report.consistent:
            routes = ", ".join(f"{k}={frac(v)}" for k, v in sorted(report.routes.items()))
            raise RouteDisagreement(f"route disagreement for {lt} {quantity}: {routes}")
    a, b = sl2.ab_closed_form(lt.family, lt.rank)
    forms = _FORMS.get(lt.family, {}) if classical else {}
    cells = {
        "principal-index": {"form": forms.get("principal-index"), "value": frac(principal.value)},
        "difference": {"form": forms.get("difference"), "value": frac(difference.value)},
        "a": {"form": None, "value": str(a)},
        "b": {"form": forms.get("b"), "value": str(b)},
        "ratio": {"form": None, "value": frac(difference.value / (b * lt.rank))},
    }
    return {"label": label, "cells": cells}


def table_payload(sample_rank: int = 5) -> dict:
    """Every cell computed from the library; classical columns carry the
    closed form evaluated at the sample rank."""
    if sample_rank < 4:
        raise ValueError("sample rank must be at least 4 so the D column exists")
    columns = [
        _column(LieType(fam, sample_rank), f"{fam}_n (n={sample_rank})", True)
        for fam in "ABCD"
    ]
    for label in ("E6", "E7", "E8", "F4", "G2"):
        columns.append(_column(LieType.parse(label), label, False))
    return {"sample_rank": sample_rank, "quantities": list(_QUANTITIES), "columns": columns}


def _cell_text(cell: dict) -> str:
    if cell["form"]:
        return f"{cell['form']} = {cell['value']}"
    return cell["value"]


def render_table_markdown(payload: dict) -> str:
    header = ["quantity"] + [col["label"] for col in payload["columns"]]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for quantity in payload["quantities"]:
        row = [quantity] + [
            _cell_text(col["cells"][quantity]) for col in payload["columns"]
        ]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def render_table_csv(payload: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["quantity"] + [col["label"] for col in payload["columns"]])
    for quantity in payload["quantities"]:
        writer.writerow(
            [quantity]
            + [_cell_text(col["cells"][quantity]) for col in payload["columns"]]
        )
    return out.getvalue()


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
        assert kind is not None and dim is not None
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


def _render_pairs_markdown(pairs) -> str:
    lines = ["| field | value |", "|---|---|"]
    lines += [f"| {k} | {v} |" for k, v in pairs]
    return "\n".join(lines) + "\n"


def _render_pairs_csv(pairs) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["field", "value"])
    writer.writerows(pairs)
    return out.getvalue()


def _flatten(payload: dict) -> list[tuple[str, str]]:
    pairs = []
    for key, value in payload.items():
        if isinstance(value, dict):
            pairs += [(f"{key}.{k}", str(v)) for k, v in value.items()]
        elif isinstance(value, list):
            pairs.append((key, ",".join(str(v) for v in value)))
        else:
            pairs.append((key, str(value)))
    return pairs


def _emit(payload: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        out.write(_render_pairs_csv(_flatten(payload)))
    else:
        out.write(_render_pairs_markdown(_flatten(payload)))


# -- config files ----------------------------------------------------------------

_CONFIG_KEYS = {
    "max-classical-rank": "max_classical_rank",
    "max-partition-size": "max_partition_size",
    "max-identity-n": "max_identity_n",
    "only": "families",
}


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
    payload = table_payload(args.rank)
    if args.format == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        out.write(render_table_csv(payload))
    else:
        out.write(render_table_markdown(payload))
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
    options: dict = {}
    if args.config:
        options.update(read_config_file(args.config))
    if args.max_classical_rank is not None:
        options["max_classical_rank"] = args.max_classical_rank
    if args.max_partition_size is not None:
        options["max_partition_size"] = args.max_partition_size
    if args.max_identity_n is not None:
        options["max_identity_n"] = args.max_identity_n
    if args.only:
        options["families"] = tuple(args.only)
    config = VerifyConfig(**options)
    results = run_checks(config)
    if args.format == "json":
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
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        for r in results:
            status = "ok  " if r.passed else "FAIL"
            out.write(f"{status} {r.name:<18} {r.detail}\n")
            for failure in r.failures[:20]:
                out.write(f"       counterexample: {failure}\n")
        good = sum(r.passed for r in results)
        out.write(f"{good}/{len(results)} checks passed\n")
    return 0 if all(r.passed for r in results) else 1


def _cmd_poset(args, out) -> int:
    poset = orbits.build_poset(args.kind, args.n)
    if args.format == "json":
        json.dump(orbits.poset_payload(poset), out, indent=2)
        out.write("\n")
    else:
        out.write(orbits.poset_dot(poset))
    return 0


def build_parser() -> argparse.ArgumentParser:
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
        metavar="CHECK",
        help=f"restrict to named checks ({', '.join(CHECKS)})",
    )
    p_verify.add_argument("--max-classical-rank", type=int, default=None)
    p_verify.add_argument("--max-partition-size", type=int, default=None)
    p_verify.add_argument("--max-identity-n", type=int, default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RouteDisagreement, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
