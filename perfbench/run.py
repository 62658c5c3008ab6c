"""Benchmark of charverify: fresh-process workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 60 --trace 0

Each round starts ``child.py`` in a new interpreter with ``PYTHONPATH`` set to
this checkout's ``src``, so every round pays cold imports and cold caches as
every ``charverify`` invocation does.  Rounds run one at a time.  A new round
is started only while it is expected to end within ``--seconds`` of the start,
judging by the longest round so far; untraced runs make at least two rounds,
so that two reports can be compared byte for byte.

With ``--trace 0`` each round is a child that only sets up, then one
untraced child running the workload, and the end-to-end metrics are printed.
With ``--trace 1`` each round is an untraced child followed by a traced one,
and the per-layer metrics of the traced child are printed, with the tracing
overhead (traced minus untraced ``run_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of the
run is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import expected
import tracer
from workloads import CLI_SUITES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = tuple(CLI_SUITES)
ALL_SUITES = CLI_SUITES["tables"] + CLI_SUITES["sweeps"]

RUN_LIMIT_S = 175.0
# The span the benchmark puts around run_suite and the wall time the program
# reports with --timings (rounded to 1 ms) may differ by this much.
SPAN_TOLERANCE_S = 0.005
SPAN_TOLERANCE_SHARE = 0.01

UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "checks": "count"}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- inputs --------------------------------------------------------------------


def make_probe(workload: str, rng: random.Random):
    """Seeded sample of outputs to recompute apart from the program."""
    if workload == "tables":
        cells = [
            (m, a)
            for m in range(1, 13)
            for a in range(1, 5)
            if expected.multipartition_count(m, a) <= 400
        ]
        return [[*rng.choice(cells), rng.randrange(10**6)] for _ in range(24)]
    out = []
    for _ in range(200):
        n = rng.randint(1, 12)
        out.append([list(rng.choice(expected.partitions_of(n))), rng.randint(1, 12)])
    return out


# -- rounds ------------------------------------------------------------------


class RoundError(RuntimeError):
    pass


def run_child(workload: str, traced: bool, probe, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(HERE / "child.py"), workload, "1" if traced else "0", json.dumps(probe)]
    timeout = max(1.0, deadline - monotonic())
    start = monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{workload} round exceeded {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise RoundError(f"{workload} round exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    if Path(result["package"]).resolve().parent != SRC / "charverify":
        raise RoundError(f"imported charverify from {result['package']}, not {SRC}")
    return result


# -- output checks ---------------------------------------------------------


class Checks:
    """Collects failed output checks; an empty list means correct."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def split_report(stdout: str) -> tuple[str, str]:
    """The program prints its text summary, then the JSON report."""
    if stdout.startswith("{\n"):
        start = 0
    else:
        start = stdout.find("\n{\n") + 1
        if start == 0:
            raise RoundError("no JSON report in the program's output")
    return stdout[:start], stdout[start:]


def check_cli_round(workload, child, checks: Checks, want) -> tuple[int, int, int]:
    """(attempted, failed, checks) of one round, recording failed output checks."""
    _, report_text = split_report(child["stdout"])
    report = json.loads(report_text)
    suites = report["suites"]
    names = [s["name"] for s in suites]
    checks.expect(names == list(CLI_SUITES[workload]), f"suites run {names}")
    failed = 0
    for suite in suites:
        if suite["status"] != "pass" or suite["counterexamples"]:
            failed += 1
            continue
        name = suite["name"]
        if name in want:
            checks.expect(suite["checks"] == want[name], f"{name}: {suite['checks']} checks, expected {want[name]}")
        else:
            checks.expect(suite["checks"] > 0, f"{name}: no checks")
    checks.expect(report["all_passed"] == (failed == 0), "all_passed disagrees with the suites")
    checks.expect(child["exit_code"] == (1 if failed else 0), f"exit code {child['exit_code']}")
    return len(suites), failed, sum(s["checks"] for s in suites)


def check_probe(workload, child, checks: Checks) -> None:
    probe = child["probe"]
    if workload == "tables":
        for m, a, labels, label, degree in probe:
            checks.expect(labels == expected.multipartition_count(m, a), f"#labels of C_{m} wr S_{a}")
            checks.expect(len(label) == m and sum(map(sum, label)) == a, f"label {label} of C_{m} wr S_{a}")
            checks.expect(
                degree == expected.wreath_degree(tuple(map(tuple, label))),
                f"degree {degree} of {label}",
            )
    else:
        for parts, d, core, weight in probe:
            want_core, want_weight = expected.abacus_core(tuple(parts), d)
            checks.expect((tuple(core), weight) == (want_core, want_weight), f"{d}-core of {parts}")
            checks.expect(
                not any(h % d == 0 for h in expected.hook_lengths(tuple(core))),
                f"{d}-core {core} of {parts} has a hook length divisible by {d}",
            )
            checks.expect(sum(parts) == sum(core) + d * weight, f"|{parts}| != |{core}| + {d}*{weight}")


def check_trace(plain, traced, checks: Checks) -> None:
    """The traced child computed the same, and its totals agree."""
    trace = traced["trace"]
    caches, spans = trace["caches"], trace["spans"]
    dixon = spans.get("grouptable.dixon", {}).get("calls", 0)
    misses = (
        caches["wreath.get_subgroup_table.hit_ratio"]["misses"]
        + caches["weyl.dixon_of.hit_ratio"]["misses"]
    )
    checks.expect(dixon == misses, f"{dixon} Dixon calls but {misses} misses of its two cached callers")
    traced_report = json.loads(split_report(traced["stdout"])[1])
    for suite in traced_report["suites"]:
        span = spans.get(f"suites.{suite['name']}", {}).get("total_s", 0.0)
        tolerance = SPAN_TOLERANCE_S + SPAN_TOLERANCE_SHARE * span
        checks.expect(
            abs(span - suite.pop("wall_time")) <= tolerance,
            f"{suite['name']}: span {span:.4f}s vs its --timings wall time",
        )
    plain_report = json.loads(split_report(plain["stdout"])[1])
    checks.expect(traced_report == plain_report, "traced report differs")


# -- main --------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "charverify" / "__init__.py").is_file():
        print(f"error: no charverify sources under {SRC}", file=sys.stderr)
        return 2
    started = monotonic()
    deadline = started + RUN_LIMIT_S
    compileall.compile_dir(SRC / "charverify", quiet=1)
    probe = make_probe(args.workload, random.Random(f"{args.workload}:{args.seed}"))
    min_rounds = 1 if args.trace else 2
    want = expected.suite_checks()

    checks = Checks()
    plain_rounds, traced_rounds, reports, setups = [], [], [], []
    attempted = failed = 0
    longest = 0.0
    while True:
        round_start = monotonic()
        if not args.trace:
            setups.append(run_child("setup", False, None, deadline)["setup_s"])
        plain = run_child(args.workload, False, probe, deadline)
        plain_rounds.append(plain)
        setups.append(plain["setup_s"])
        done, bad, plain["checks"] = check_cli_round(args.workload, plain, checks, want)
        reports.append(split_report(plain["stdout"])[1])
        attempted, failed = attempted + done, failed + bad
        check_probe(args.workload, plain, checks)
        checks.expect(
            sorted(plain["suite_names"]) == sorted(ALL_SUITES),
            "tables + sweeps no longer cover --suite all",
        )
        if args.trace:
            traced = run_child(args.workload, True, probe, deadline)
            traced_rounds.append(traced)
            done, bad, _ = check_cli_round(args.workload, traced, checks, want)
            attempted, failed = attempted + done, failed + bad
            check_trace(plain, traced, checks)
        rounds = len(plain_rounds)
        print(
            f"round {rounds}: run_s {plain['run_s']:.3f}"
            + (f" traced {traced['run_s']:.3f}" if args.trace else "")
            + f" setup_s {plain['setup_s']:.3f} peak_rss_mb {plain['peak_rss_mb']:.1f}",
            flush=True,
        )
        now = monotonic()
        longest = max(longest, now - round_start)
        if rounds >= min_rounds and now + longest - started > args.seconds:
            break
    checks.expect(len(set(reports)) <= 1, "JSON reports differ between runs")

    if args.trace:
        metrics = {}
        per_round = [
            tracer.layer_metrics(
                t["trace"]["spans"], t["trace"]["distinct"], t["trace"]["caches"], ALL_SUITES
            )
            for t in traced_rounds
        ]
        for name in per_round[0]:
            metrics[name] = statistics.median(r[name] for r in per_round)
        traced_run = statistics.median(t["run_s"] for t in traced_rounds)
        metrics["trace.run_s"] = traced_run
        metrics["trace.overhead_s"] = traced_run - statistics.median(p["run_s"] for p in plain_rounds)
        result_metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}
    else:
        result_metrics = {
            name: {"value": statistics.median(p[name] for p in plain_rounds), "unit": UNITS[name]}
            for name in ("run_s", "peak_rss_mb")
        }
        result_metrics["setup_s"] = {"value": statistics.median(setups), "unit": UNITS["setup_s"]}
        # Every round checks the same facts; the reports were compared above.
        result_metrics["checks"] = {"value": plain_rounds[0]["checks"], "unit": UNITS["checks"]}
    result = {
        "correct": not checks.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    write_record(args, result, checks, setups, plain_rounds, traced_rounds)
    for problem in checks.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def write_record(args, result, checks, setups, plain_rounds, traced_rounds) -> None:
    """Keep the whole run, minus the program's captured output, for reading later."""

    def slim(child):
        return {k: v for k, v in child.items() if k not in ("stdout", "probe")}

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "args": vars(args),
        "result": result,
        "problems": checks.problems,
        "setups": setups,
        "rounds": [slim(c) for c in plain_rounds],
        "traced_rounds": [slim(c) for c in traced_rounds],
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
