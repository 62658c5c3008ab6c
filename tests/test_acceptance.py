"""Acceptance gate: thirteen timed pass/fail criteria.

Each test runs one criterion at its pinned ranges, asserts zero
counterexamples and the pinned wall-clock bound, and prints one
``ACCEPTANCE nn PASS/FAIL`` line through the capture-disabled stream so
the lines always reach the terminal, e.g.::

    ACCEPTANCE 01 PASS galois sweeps and subgroup facts (0.45s, bound 5s)

Criteria 1-3, 5-7 and 9-12 drive the named CLI suites at their default
(full) ranges; criteria 4, 8 and 13 call the library directly.
"""

import hashlib
import math
import time

from charverify import wreath
from charverify.fields import graph_extension_field_typeA
from charverify.partitions import partitions_of, two_core
from charverify.report import render_json, render_text, report_document
from charverify.suites import SUITE_NAMES, run_suite


# The golden report, every suite at its defaults: sha256 of
# render_json(report_document(...)), and of the standard output of
# ``charverify --suite all --json -`` (the text summary, then that JSON).
GOLDEN_RENDER_SHA256 = "6f6fec299425e04821cbfb5f396cbd053de9b5c2173860b174608e6fcf753c82"
GOLDEN_CLI_SHA256 = "4bf7b5f970dbe49049ef40a97dff70778873e48c770f19b6c08b9f4d67189374"


def _announce(capsys, num, ok, desc, elapsed, bound):
    line = (
        f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {desc} "
        f"({elapsed:.2f}s, bound {bound:g}s)"
    )
    with capsys.disabled():
        print(line)


def _run_suites(capsys, num, desc, bound, names):
    t0 = time.perf_counter()
    reports = [run_suite(name) for name in names]
    elapsed = time.perf_counter() - t0
    bad = [cx for rep in reports for cx in rep.counterexamples]
    ok = not bad and elapsed < bound
    _announce(capsys, num, ok, desc, elapsed, bound)
    assert not bad, bad[:5]
    assert elapsed < bound, f"{elapsed:.2f}s exceeds {bound}s"


def test_01_galois_sweeps(capsys):
    _run_suites(
        capsys, 1, "square-root rationality and fixing-subgroup sweeps", 5.0,
        ["lemma22"],
    )


def test_02_root_existence(capsys):
    _run_suites(
        capsys, 2, "radical-extension root-existence predicate vs brute force",
        10.0, ["lemma71"],
    )


def test_03_conductors_and_fixedness(capsys):
    _run_suites(
        capsys, 3,
        "wreath/subgroup conductor divisibility and fixing-subgroup"
        " invariance", 60.0, ["thm41", "lemma42"],
    )


def test_04_table_sanity(capsys):
    t0 = time.perf_counter()
    bad = []
    for m in range(1, 7):
        for a in range(1, 5):
            table = wreath.get_table(m, a)
            if not (table.verify_row_orthogonality() and table.verify_column_orthogonality()):
                bad.append(f"orthogonality fails for C_{m} wr S_{a}")
            if table.sum_of_degree_squares() != m**a * math.factorial(a):
                bad.append(f"degree-square sum wrong for C_{m} wr S_{a}")
    for m in (2, 4, 6):
        for a in range(1, 4):
            table = wreath.get_subgroup_table(m, a)
            if not table.verify_row_orthogonality():
                bad.append(f"row orthogonality fails for G({m},2,{a})")
            if not table.verify_column_orthogonality():
                bad.append(f"column orthogonality fails for G({m},2,{a})")
            if table.sum_of_degree_squares() != table.group.order:
                bad.append(f"degree-square sum wrong for G({m},2,{a})")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    _announce(
        capsys, 4, ok,
        "full orthogonality and degree-square sums for all tables", elapsed,
        30.0,
    )
    assert not bad, bad[:5]
    assert elapsed < 30.0, f"{elapsed:.2f}s exceeds 30s"


def test_05_even_core_coarsening(capsys):
    _run_suites(
        capsys, 5,
        "even-core equality forces 2-core equality; hook-move recomposition",
        60.0, ["cor74"],
    )


def test_06_symbol_core_coarsening(capsys):
    _run_suites(
        capsys, 6, "odd symbol-core equality forces 1-core equality", 60.0,
        ["lemma72"],
    )


def test_07_extension_field_invariance(capsys):
    _run_suites(
        capsys, 7, "extension-field equality along order-d' cores", 60.0,
        ["prop75"],
    )


def test_08_graph_field_core_invariance(capsys):
    t0 = time.perf_counter()
    bad = []
    for n in range(13):
        for lam in partitions_of(n):
            core = two_core(lam)
            for eps in (1, -1):
                if graph_extension_field_typeA(
                    eps, lam
                ) != graph_extension_field_typeA(eps, core):
                    bad.append(f"eps={eps} lambda={lam.parts}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 5.0
    _announce(
        capsys, 8, ok, "graph-extension field constant on 2-cores", elapsed,
        5.0,
    )
    assert not bad, bad[:5]
    assert elapsed < 5.0, f"{elapsed:.2f}s exceeds 5s"


def test_09_curated_field_table(capsys):
    _run_suites(
        capsys, 9, "curated cuspidal-field table consistency", 1.0, ["table1"],
    )


def test_10_lang_map_scalars(capsys):
    _run_suites(
        capsys, 10, "Lang-map images of principal-cocharacter values central",
        30.0, ["cor55"],
    )


def test_11_weyl_oracle_match(capsys):
    _run_suites(
        capsys, 11,
        "relative-Weyl oracle groups match wreath predictions and fixedness",
        240.0, ["weyl-match"],
    )


def test_12_central_product_splitting(capsys):
    _run_suites(
        capsys, 12, "central-product splitting condition sweep", 10.0,
        ["lemma82"],
    )


def test_13_determinism(capsys):
    t0 = time.perf_counter()
    renders = []
    for _ in range(2):
        run_t0 = time.perf_counter()
        reports = [run_suite(name) for name in SUITE_NAMES]
        assert time.perf_counter() - run_t0 < 300.0
        renders.append(render_json(report_document(reports)))
    cli_stdout = render_text(reports) + renders[-1]
    elapsed = time.perf_counter() - t0
    ok = renders[0] == renders[1]
    _announce(
        capsys, 13, ok, "two consecutive full-suite runs byte-identical",
        elapsed, 600.0,
    )
    assert renders[0].encode() == renders[1].encode()
    # A byte change to any suite's output fails here.
    assert hashlib.sha256(renders[0].encode()).hexdigest() == GOLDEN_RENDER_SHA256
    assert hashlib.sha256(cli_stdout.encode()).hexdigest() == GOLDEN_CLI_SHA256
