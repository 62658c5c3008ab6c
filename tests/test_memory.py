"""Memory gates: the table suites in a fresh interpreter, and the
transients of one fixedness pass and of one Dixon construction.

thm41, lemma42 and weyl-match build every exact character table of the
default run (Dixon tables of G(m,2,a) and of Weyl centralizers, and the
wreath tables of the relative Weyl groups weyl-match predicts) and keep them
cached; thm41 and lemma42 read the conductors and H_d-fixedness of
C_m wr S_a from labels and build no Murnaghan-Nakayama table.  With ``raw``
stored in the narrowest integer type, Galois fixedness evaluated at a split
prime in bounded row chunks, Dixon lifting straight into the compact type
with its group passes in row chunks, and no label listed unless a check
fails, the three suites raise the process's peak resident set (VmHWM) by
about 5.1 MiB over its figure after import, and never import ``numpy.ma``
(a plain ``np.unique`` does, for 1.3 MiB).  The figure reads 3.7 MiB when
the child byte-compiles the package on import, which raises its baseline
by about 1.8 MiB.  Building the 40 tables of at most 400 characters for
thm41 and lemma42, as before, took it to 10.1 MiB (8.4 MiB compiling;
lifting Dixon's values in int64 and forming each class matrix in one
gather, before that, to 15 MiB); the gate sits just above the current band.

The fixedness pass over C_10 wr S_3, whose ``raw`` takes 1.0 MiB, allocates
at most 2 MiB beyond the table under tracemalloc (the reduction pass: 12.0
MiB).  Dixon on a fresh W(B5) = C_2 wr S_5, classes and inverses included,
allocates about 0.6 MiB (2.8 MiB with the int64 lift and unchunked group
passes), and on a fresh G(6,2,3) about 0.5 MiB: its seed combination runs
over 42 of the 49 classes (377 of 648 elements) in one pass, in the same
row chunks as a class matrix.  The commutation test that cuts the
centralizer of the d = 4 word out of W(B6) (46080 rows) allocates about
0.16 MiB in those row chunks (6.4 MiB over all of W at once).
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import charverify
from charverify.cyclotomic import galois_fixed_rows, unit_residues
from charverify.grouptable import CharacterTable
from charverify.weyl import _centralizer_of_word, canonical_regular_word, weyl_group
from charverify.wreath import get_full_group, get_subgroup, get_table

MAX_GROWTH_MIB = 6
MAX_FIXEDNESS_TRANSIENT_MIB = 2
MAX_DIXON_TRANSIENT_MIB = 1
MAX_CENTRALIZER_TRANSIENT_MIB = 1

# The child reads its peak resident set from VmHWM, which starts afresh at
# exec.  ``ru_maxrss`` does not: Linux carries the peak of the forking
# process over the exec, so under a large pytest process it read that
# process's size and the growth came out near zero.
CHILD = """
import json
import sys
import charverify.cli
from charverify import fields, suites

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

fields.load_cuspidal_field_data()
before = peak_kib()
failed = [name for name in ("thm41", "lemma42", "weyl-match")
          if suites.run_suite(name).counterexamples]
after = peak_kib()
print(json.dumps({"before_kib": before, "after_kib": after, "failed": failed,
                  "numpy_ma": "numpy.ma" in sys.modules}))
"""


def test_table_suites_peak_rss_growth():
    src = str(Path(charverify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env, check=True
    )
    out = json.loads(result.stdout.strip().splitlines()[-1])
    assert out["failed"] == []
    assert not out["numpy_ma"]
    growth_mib = (out["after_kib"] - out["before_kib"]) / 1024
    assert growth_mib <= MAX_GROWTH_MIB, f"peak RSS grew by {growth_mib:.1f} MiB"


def traced_peak(build):
    """build() and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        out = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_fixedness_pass_transient():
    table = get_table(10, 3)
    assert table.raw.nbytes == 330 * 330 * 10
    _, peak = traced_peak(lambda: galois_fixed_rows(table.raw, unit_residues(10)))
    assert peak <= MAX_FIXEDNESS_TRANSIENT_MIB * 2**20, f"{peak / 2**20:.2f} MiB"


def test_dixon_transient():
    group = get_full_group.__wrapped__(2, 5)  # fresh: no classes or inverses yet
    table, peak = traced_peak(lambda: CharacterTable.dixon(group))
    assert len(table.degrees) == 36
    assert peak <= MAX_DIXON_TRANSIENT_MIB * 2**20, f"{peak / 2**20:.2f} MiB"


def test_dixon_transient_seed_over_most_classes():
    group = get_subgroup.__wrapped__(6, 3)  # fresh: no classes or inverses yet
    table, peak = traced_peak(lambda: CharacterTable.dixon(group))
    assert len(table.degrees) == 49
    assert peak <= MAX_DIXON_TRANSIENT_MIB * 2**20, f"{peak / 2**20:.2f} MiB"


def test_centralizer_transient():
    weyl_group("B", 6)  # built, with its keys, before tracing starts
    word = canonical_regular_word("B", 6, False, 4)
    group, peak = traced_peak(lambda: _centralizer_of_word.__wrapped__("B", 6, word))
    assert group.order == 384
    assert peak <= MAX_CENTRALIZER_TRANSIENT_MIB * 2**20, f"{peak / 2**20:.2f} MiB"
