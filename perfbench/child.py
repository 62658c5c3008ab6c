"""One round of a benchmark workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; not meant to be run by hand.  Set-up ends once ``charverify`` is
imported and its curated data file is loaded; ``run.py`` times it from just
before it started this process, on the system-wide monotonic clock.  With
the workload ``setup`` the child stops there.  Otherwise the workload's
calls into charverify are then timed as ``run_s``, with the program's
standard output captured.  After the timed part the round answers the
probes ``run.py`` chose from the seed, and prints one JSON line.

Usage: child.py WORKLOAD TRACE PROBE_JSON
"""

import time
import contextlib
import io
import json
import resource
import sys

from workloads import CLI_SUITES

import charverify
import charverify.cli as cli
from charverify import fields, partitions, wreath

fields.load_cuspidal_field_data()
READY = time.clock_gettime(time.CLOCK_MONOTONIC)


def run_cli(suites, timings: bool) -> dict:
    argv = [arg for name in suites for arg in ("--suite", name)] + ["--json", "-"]
    if timings:
        argv.append("--timings")
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    run_s = time.perf_counter() - start
    return {"run_s": run_s, "exit_code": code, "stdout": captured.getvalue()}


def probe_tables(cells) -> list:
    """Labels and degrees of sampled characters of C_m wr S_a."""
    out = []
    for m, a, pick in cells:
        table = wreath.get_table(m, a)
        i = pick % len(table.labels)
        label = [list(p.parts) for p in table.labels[i]]
        out.append([m, a, len(table.labels), label, table.degrees[i]])
    return out


def probe_sweeps(cells) -> list:
    """The program's d-core and weight of sampled (partition, d) pairs."""
    out = []
    for parts, d in cells:
        core, weight = partitions.d_core(partitions.Partition(tuple(parts)), d)
        out.append([parts, d, list(core.parts), weight])
    return out


def main() -> None:
    workload, trace, probe = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    out = {
        "ready": READY,
        "package": charverify.__file__,
        "suite_names": list(cli.SUITE_NAMES),
    }
    if workload == "setup":
        sys.stdout.write(json.dumps(out) + "\n")
        return
    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        before = tracer_mod.cache_snapshot()
        tracer.install()
    out.update(run_cli(CLI_SUITES[workload], timings=trace))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = {
            "spans": tracer.spans(),
            "distinct": tracer.distinct_counts(),
            "caches": tracer_mod.cache_deltas(before, tracer_mod.cache_snapshot()),
        }
    elif workload == "tables":
        out["probe"] = probe_tables(probe)
    else:
        out["probe"] = probe_sweeps(probe)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
