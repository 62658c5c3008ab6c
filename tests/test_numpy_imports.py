"""No numpy module is first imported during a run.

A numpy function may import a submodule on its first call: in numpy 2.4 a
plain ``np.unique(x)``, with no ``return_*`` flag, imports ``numpy.ma``,
about 13 ms cold, which every ``charverify`` process would pay inside its
run.  In a fresh interpreter, after the set-up of a benchmark round
(``charverify`` and its CLI imported, the curated field data loaded), the
table suites and the sweep suites run on a reduced grid and must leave
``sys.modules`` without a new ``numpy`` module."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_src_surface import REDUCED_GRID

SRC = Path(__file__).resolve().parents[1] / "src"

_RUNNER = """
import contextlib, io, json, sys
import charverify.cli as cli
from charverify import fields, partitions, wreath
fields.load_cuspidal_field_data()
exec(sys.argv[2])
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["--suite", "all", "--params", sys.argv[1], "--json", "-"])
new = sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy")
print(json.dumps({"code": code, "new": new}))
"""

# A plain np.unique in the orbit pass of weyl-match's centralizers.
_PLAIN_UNIQUE = """
import numpy as np
from charverify import weyl
orbit_factors = weyl._orbit_factors

def with_plain_unique(group):
    np.unique(group.perm[:, 0])
    return orbit_factors(group)

weyl._orbit_factors = with_plain_unique
"""


def _new_numpy_modules(injected: str = ""):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, REDUCED_GRID, injected],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    return result["new"]


def test_a_run_imports_no_numpy_module():
    assert _new_numpy_modules() == []


def test_the_guard_sees_a_plain_unique():
    assert "numpy.ma" in _new_numpy_modules(_PLAIN_UNIQUE)
