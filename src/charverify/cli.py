"""Command-line driver: run verification suites, emit reports, answer queries.

Usage sketch::

    charverify --list-suites
    charverify --suite lemma22 --suite cor74
    charverify --suite all --json report.json --csv report.csv
    charverify --suite prop75 --params max_n=8,rs=1,2
    charverify --query 2-core "(3,1)"
    charverify --query field eps=-1 "lambda=(2,1)" ell=7 q=3 r=2

Exit status: 0 when every requested suite passed (and for successful
queries), 1 when some suite failed, 2 on usage or input errors.  Reports are
byte-identical across runs with the same parameters unless ``--timings`` is
given.
"""

from __future__ import annotations

import argparse
import ast
import sys

from . import fields as fields_mod
from . import qpoly as qpoly_mod
from . import weyl as weyl_mod
from . import wreath as wreath_mod
from .partitions import Partition, d_core, two_core
from .report import render_csv, render_json, render_text, report_document
from .suites import SUITE_NAMES, run_suite, suite_defaults, suite_description
from .symbols import parse_symbol, symbol_d_core

QUERY_KINDS = (
    "d-core",
    "2-core",
    "symbol-core",
    "conductor",
    "generic-degree",
    "weyl",
    "field",
)


def _parse_partition(text: str) -> Partition:
    value = ast.literal_eval(text)
    if isinstance(value, int):
        value = (value,)
    return Partition(tuple(value))


def _parse_scalar(text: str):
    lowered = text.lower()
    if lowered in ("none", "null"):
        return None
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    if "," in text:
        return tuple(int(tok) for tok in text.split(",") if tok)
    return text


def parse_params(text: str | None) -> dict:
    """Parse ``k=v,k2=v2`` overrides; bare comma-separated ints after a key
    extend that key's value into a tuple (``rs=1,2``)."""
    if not text:
        return {}
    out: dict = {}
    last_key = None
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            key, _, raw = token.partition("=")
            key = key.strip()
            out[key] = _parse_scalar(raw.strip())
            last_key = key
        elif last_key is not None:
            prev = out[last_key]
            prev = prev if isinstance(prev, tuple) else (prev,)
            out[last_key] = prev + (_parse_scalar(token),)
        else:
            raise ValueError(f"cannot parse parameter token {token!r}")
    return out


def _parse_kv_args(args: list[str]) -> dict:
    out = {}
    for token in args:
        if "=" not in token:
            raise ValueError(f"expected key=value, got {token!r}")
        key, _, raw = token.partition("=")
        out[key.strip()] = raw.strip()
    return out


def run_query(kind: str, args: list[str]) -> dict:
    """Execute one query; returns a JSON-ready dict with a ``text`` field."""
    if kind == "2-core":
        if len(args) != 1:
            raise ValueError("usage: --query 2-core '(parts)'")
        lam = _parse_partition(args[0])
        core = two_core(lam)
        return {
            "kind": kind,
            "partition": list(lam.parts),
            "core": list(core.parts),
            "text": str(core.parts),
        }
    if kind == "d-core":
        if len(args) != 2:
            raise ValueError("usage: --query d-core '(parts)' d")
        lam = _parse_partition(args[0])
        d = int(args[1])
        core, weight = d_core(lam, d)
        return {
            "kind": kind,
            "partition": list(lam.parts),
            "d": d,
            "core": list(core.parts),
            "weight": weight,
            "text": str(core.parts),
        }
    if kind == "symbol-core":
        if len(args) != 2:
            raise ValueError("usage: --query symbol-core '({..},{..})' d")
        S = parse_symbol(args[0])
        d = int(args[1])
        core = symbol_d_core(S, d)
        return {
            "kind": kind,
            "symbol": repr(S),
            "d": d,
            "core": repr(core),
            "text": repr(core),
        }
    if kind == "conductor":
        if len(args) != 2:
            raise ValueError(
                "usage: --query conductor '((p1),(p2),...)' m"
            )
        label = tuple(
            tuple(component) for component in ast.literal_eval(args[0])
        )
        m = int(args[1])
        c = wreath_mod.conductor_of_char(label, m)
        return {"kind": kind, "label": repr(label), "m": m, "conductor": c,
                "text": str(c)}
    if kind == "generic-degree":
        if len(args) != 1:
            raise ValueError("usage: --query generic-degree '(parts)'")
        lam = _parse_partition(args[0])
        poly = qpoly_mod.generic_degree_typeA(lam)
        return {
            "kind": kind,
            "partition": list(lam.parts),
            "text": poly.pretty(),
        }
    if kind == "weyl":
        if len(args) != 4:
            raise ValueError("usage: --query weyl SERIES RANK TWISTED d")
        series, rank, twisted, d = (
            args[0],
            int(args[1]),
            args[2].lower() in ("1", "true", "yes"),
            int(args[3]),
        )
        rep = weyl_mod.analyze_relative_weyl(series, rank, twisted, d)
        return {
            "kind": kind,
            "series": series,
            "rank": rank,
            "twisted": twisted,
            "d": d,
            "order": rep.computed_order,
            "eigenspace_dim": rep.eigenspace_dim,
            "consistent": rep.consistent,
            "text": rep.descriptor,
        }
    if kind == "field":
        kv = _parse_kv_args(args)
        missing = {"eps", "lambda", "ell", "q", "r"} - set(kv)
        if missing:
            raise ValueError(f"missing field-query keys: {sorted(missing)}")
        eps = int(kv["eps"])
        lam = _parse_partition(kv["lambda"])
        ell, q, r = int(kv["ell"]), int(kv["q"]), int(kv["r"])
        descriptor = fields_mod.extension_field_typeA(eps, lam, ell, q, r)
        rendered = (
            "trivial" if descriptor.is_trivial else descriptor.describe()
        )
        return {
            "kind": kind,
            "eps": eps,
            "partition": list(lam.parts),
            "ell": ell,
            "q": q,
            "r": r,
            "field": descriptor.describe(),
            "text": f"{rendered} over Q_{ell}",
        }
    raise ValueError(f"unknown query kind {kind!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charverify",
        description=(
            "Exact-arithmetic verification suites for character-theoretic "
            "computations, plus one-shot queries."
        ),
    )
    parser.add_argument(
        "--suite",
        action="append",
        metavar="NAME",
        help=f"suite to run ('all' or one of: {', '.join(SUITE_NAMES)}); "
        "repeatable",
    )
    parser.add_argument(
        "--list-suites", action="store_true", help="list suites and exit"
    )
    parser.add_argument(
        "--params",
        metavar="K=V,...",
        help="parameter overrides applied to every selected suite "
        "(unknown keys are ignored per suite only if valid for another)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the JSON report to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--csv", metavar="PATH", help="write a CSV summary to PATH"
    )
    parser.add_argument(
        "--data",
        metavar="PATH",
        help="override the curated data file (table1 suite)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="recorded in the report; every check is deterministic",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="include wall times in outputs (breaks byte-identical output)",
    )
    parser.add_argument(
        "--query",
        choices=QUERY_KINDS,
        metavar="KIND",
        help=f"one-shot query, one of: {', '.join(QUERY_KINDS)}",
    )
    parser.add_argument(
        "args", nargs="*", help="positional arguments for --query"
    )
    return parser


def _select_suites(requested: list[str]) -> list[str]:
    names: list[str] = []
    for name in requested:
        if name == "all":
            names.extend(n for n in SUITE_NAMES if n not in names)
        elif name in SUITE_NAMES:
            if name not in names:
                names.append(name)
        else:
            raise ValueError(
                f"unknown suite {name!r}; choose from "
                f"{('all',) + SUITE_NAMES}"
            )
    return names


def _suite_params(name: str, overrides: dict, data_path: str | None) -> dict:
    defaults = suite_defaults(name)
    params = {k: v for k, v in overrides.items() if k in defaults}
    if name == "table1" and data_path is not None:
        params["data_path"] = data_path
    return params


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    options = parser.parse_args(argv)

    if options.list_suites:
        for name in SUITE_NAMES:
            print(f"{name:12s} {suite_description(name)}")
        return 0

    if options.query:
        try:
            result = run_query(options.query, options.args)
        except (ValueError, KeyError, SyntaxError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result["text"])
        if options.json:
            payload = render_json(result)
            if options.json == "-":
                sys.stdout.write(payload)
            else:
                with open(options.json, "w", encoding="utf-8") as handle:
                    handle.write(payload)
        return 0

    if not options.suite:
        parser.error("nothing to do: pass --suite, --query or --list-suites")

    try:
        names = _select_suites(options.suite)
        overrides = parse_params(options.params)
        for key in overrides:
            if not any(key in suite_defaults(n) for n in names):
                raise ValueError(
                    f"parameter {key!r} is not accepted by any selected suite"
                )
        reports = [
            run_suite(n, _suite_params(n, overrides, options.data)) for n in names
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(render_text(reports, include_timings=options.timings))
    document = report_document(
        reports, seed=options.seed, include_timings=options.timings
    )
    if options.json:
        payload = render_json(document)
        if options.json == "-":
            sys.stdout.write(payload)
        else:
            with open(options.json, "w", encoding="utf-8") as handle:
                handle.write(payload)
    if options.csv:
        with open(options.csv, "w", encoding="utf-8") as handle:
            handle.write(render_csv(reports, include_timings=options.timings))
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
