"""Memory gate: the table suites in a fresh interpreter.

thm41, lemma42 and weyl-match build every exact character table of the
default run (wreath tables by Murnaghan-Nakayama, Dixon tables of G(m,2,a)
and of Weyl centralizers) and keep them cached.  With ``raw`` stored in the
narrowest integer type the three suites raise the process's peak resident
set (``ru_maxrss``) by about 19 MiB over its figure after import, against
about 49 MiB when every table was held in int64; the gate sits between.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import charverify

MAX_GROWTH_MIB = 32

CHILD = """
import json, resource
import charverify.cli
from charverify import fields, suites
fields.load_cuspidal_field_data()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
failed = [name for name in ("thm41", "lemma42", "weyl-match")
          if suites.run_suite(name).counterexamples]
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"before_kib": before, "after_kib": after, "failed": failed}))
"""


def test_table_suites_peak_rss_growth():
    src = str(Path(charverify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env, check=True
    )
    out = json.loads(result.stdout.strip().splitlines()[-1])
    assert out["failed"] == []
    growth_mib = (out["after_kib"] - out["before_kib"]) / 1024  # ru_maxrss is in KiB
    assert growth_mib <= MAX_GROWTH_MIB, f"peak RSS grew by {growth_mib:.1f} MiB"
