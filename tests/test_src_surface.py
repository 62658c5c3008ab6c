"""Regrowth guards for ``src/charverify``.

Every function and method defined there, nested ones included, is entered
by a run of the command-line driver (``test_every_function_is_entered``):
``--list-suites``, ``--suite all`` on a reduced grid with every report
written, every ``charverify --query`` line of the README and the field
query whose root part the ell-adic field does not absorb.  Every public
top-level function, class and method is referenced by identifier (a name,
an attribute or an import, never a comment or docstring) somewhere else in
``src/charverify``, and every defaulted parameter of a public function or
method is set, by keyword or by position, by some call there.  Every
parameter of every function there, public or not, is read by its body.  A
function, a name or an option that only the tests use is test code, and the
oracles and helpers of the tests live in ``tests/scalar_oracles.py``.

The exceptions are the qualified names in ``EXEMPT`` (a class's entry
covers its methods, a function's its nested functions, a dunder's that
method of every class), the parameters in ``EXEMPT_PARAMS`` and
``EXEMPT_UNREAD``, each with its reason, and the parameters of dunder
methods, whose signatures their protocol fixes."""

import ast
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "charverify"

_TRACER = "named by the benchmark tracer (perfbench/tracer.py)"
_ACCEPTANCE = "run by acceptance criterion 04"
_FAILURE_TEXT = "names what failed in a suite's counterexample text"
_DUNDER = "protocol method of a value type, called by Python and the tests"

EXEMPT = {
    "cyclotomic.CyclotomicNumber": _TRACER + " (METHODS)",
    "cyclotomic.GaloisSubgroup": _TRACER + " (METHODS)",
    "weyl.sp_mul": _TRACER + " (UNWRAPPED)",
    "wreath.h_d_invariant": _TRACER + " (RENAMED)",
    "grouptable.CharacterTable.verify_row_orthogonality": _ACCEPTANCE,
    "grouptable.CharacterTable.verify_column_orthogonality": _ACCEPTANCE,
    "grouptable.CharacterTable.sum_of_degree_squares": _ACCEPTANCE,
    "grouptable._orthogonal": _ACCEPTANCE,
    "grouptable._conjugate_evaluations": _ACCEPTANCE,
    "wreath.irr_labels": _FAILURE_TEXT,
    "fields.Prop75Report._case": _FAILURE_TEXT,
    "partitions.partitions_of": "the public list of the partitions of n",
    "report.load_schema": "the published report schema, which the CLI tests validate against",
    "langmap.DiagonalTorusElement.__post_init__": "validates a torus element built directly",
    **{
        dunder: _DUNDER
        for dunder in (
            "__repr__", "__eq__", "__hash__", "__lt__", "__len__", "__iter__",
            "__getitem__", "__contains__", "__setattr__",
        )
    },
}

EXEMPT_PARAMS = {
    "cli.main(argv)": "the entry point: the console script passes none, the tests pass arguments",
    "fields.extension_field_typeA(rule)": "custom rules show prop75 is not an artefact of the default",
    "fields.check_prop75(rule)": "custom rules show prop75 is not an artefact of the default",
}

EXEMPT_UNREAD = {
    "wreath._column_memo(m)": "the lru_cache key: one column memo per m",
}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _definitions(modules):
    """(qualified name, identifier, module, node) of every public top-level
    function and class and every public method of a public class."""
    out = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append((f"{module}.{node.name}", node.name, module, node))
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        out.append((f"{module}.{node.name}.{sub.name}", sub.name, module, sub))
    return out


def _references(modules):
    """(identifier, module, line) of every name, attribute and imported name."""
    out = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.append((node.id, module, node.lineno))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, module, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                out += [(alias.name, module, node.lineno) for alias in node.names]
    return out


def _calls(modules):
    """(called identifier, module, node) of every call by name or attribute."""
    out = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    out.append((node.func.id, module, node))
                elif isinstance(node.func, ast.Attribute):
                    out.append((node.func.attr, module, node))
    return out


def _defaulted(qualified, node):
    """(position as the caller counts it, or None for keyword-only, name)
    of every parameter of ``node`` that has a default; the position of a
    method's parameter does not count ``self`` or ``cls``."""
    args = node.args
    positional = args.posonlyargs + args.args
    is_static = any(
        isinstance(dec, ast.Name) and dec.id == "staticmethod" for dec in node.decorator_list
    )
    shift = 1 if qualified.count(".") == 2 and not is_static else 0
    first = len(positional) - len(args.defaults)
    out = [(i - shift, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [
        (None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
    ]
    return out


def _sets(call, position, name):
    """Whether a call passes the parameter, by keyword, by position or
    through ``*args``/``**kwargs``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_public_name_is_used_in_src():
    modules = _modules()
    refs = _references(modules)
    unused = []
    for qualified, name, module, node in _definitions(modules):
        if _exempt(qualified):
            continue
        # a reference inside the definition itself (recursion) does not count
        if not any(
            ident == name and not (mod == module and node.lineno <= line <= node.end_lineno)
            for ident, mod, line in refs
        ):
            unused.append(qualified)
    assert unused == [], f"public names used nowhere else in src/charverify: {unused}"


def test_exemptions_name_definitions():
    """Every exemption but a dunder's names a function, a method or a class
    with methods defined in src/charverify."""
    functions = _functions()
    named = [key for key in EXEMPT if not key.startswith("__")]
    assert [key for key in named if not any(_covers(key, q) for q in functions)] == []


def _unset_options(modules):
    """Every "module.function(param)" whose default no call in
    src/charverify overrides."""
    calls = _calls(modules)
    unset = []
    for qualified, name, module, node in _definitions(modules):
        if not isinstance(node, ast.FunctionDef):
            continue
        for position, param in _defaulted(qualified, node):
            # a call inside the definition itself (recursion) does not count
            if not any(
                ident == name
                and not (mod == module and node.lineno <= call.lineno <= node.end_lineno)
                and _sets(call, position, param)
                for ident, mod, call in calls
            ):
                unset.append(f"{qualified}({param})")
    return unset


def test_every_option_is_set_in_src():
    unset = _unset_options(_modules())
    assert sorted(set(unset) - set(EXEMPT_PARAMS)) == [], (
        f"defaulted parameters no call in src/charverify sets: {unset}"
    )


def test_option_exemptions_name_unset_options():
    """An exemption goes once src/charverify sets the option or the option
    is gone."""
    unset = set(_unset_options(_modules()))
    assert set(EXEMPT_PARAMS) <= unset, sorted(set(EXEMPT_PARAMS) - unset)


def _unread_parameters(modules):
    """Every "module.function(param)", at any depth, whose body never reads
    the parameter; ``self``, ``cls`` and dunder methods are left out."""
    unread = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [
                f"{module}.{node.name}({p})"
                for p in params
                if p not in read and p not in ("self", "cls")
            ]
    return unread


def test_every_parameter_is_read():
    unread = set(_unread_parameters(_modules()))
    assert sorted(unread - set(EXEMPT_UNREAD)) == [], "parameters no body reads"
    assert set(EXEMPT_UNREAD) <= unread, sorted(set(EXEMPT_UNREAD) - unread)


# -- runtime reachability ---------------------------------------------------

REDUCED_GRID = (
    "max_m=6,max_a=3,sub_max_m=4,sub_max_a=2,max_rank=3,max_rank_d=3,max_n=6,"
    "max_ell=13,max_q=9,max_modulus=24,max_p=7,max_p0=7,max_r=4,max_r0=3,"
    "max_r_implication=3"
)

# Run in a fresh interpreter, so no cache warmed by another test hides a
# call: the profile hook sees every Python function entered, and the run
# prints the (file, first line) of each code object under src/charverify.
_RUNNER = """
import contextlib, io, json, sys
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(hook)
from charverify.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)
src = sys.argv[2]
print(json.dumps({
    "codes": codes,
    "entered": sorted({(c.co_filename, c.co_firstlineno) for c in entered
                       if c.co_filename.startswith(src)}),
}))
"""


def _readme_queries():
    """The argv of every ``charverify --query`` line of the README."""
    lines = (ROOT / "README.md").read_text().splitlines()
    return [
        shlex.split(line, comments=True)[1:]
        for line in lines
        if line.startswith("charverify --query ")
    ]


def _commands(out_dir):
    return [
        ["--list-suites"],
        [
            "--suite", "all", "--params", REDUCED_GRID, "--json", str(out_dir / "r.json"),
            "--csv", str(out_dir / "r.csv"), "--timings",
        ],
        *_readme_queries(),
        # the root part that Q_7 does not absorb: fields._resolve keeps it
        ["--query", "field", "eps=-1", "lambda=(2,1)", "ell=7", "q=3", "r=4"],
    ]


def _functions():
    """qualified name -> (file, first line as the code object counts it:
    the first decorator's line) of every function and method defined in
    src/charverify, nested ones included."""
    out = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[qualified] = (str(path), first)
                visit(child, qualified, path)
            else:
                visit(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path)
    return out


def _covers(key, qualified):
    if key.startswith("__"):
        return qualified.rsplit(".", 1)[1] == key
    return qualified == key or qualified.startswith(key + ".")


def _exempt(qualified):
    return any(_covers(key, qualified) for key in EXEMPT)


def _unentered(commands):
    """The qualified names of the functions of src/charverify that no
    command enters, exempt or not, and the run's exit codes."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, json.dumps(commands), str(SRC)],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(proc.stdout)
    entered = {tuple(pair) for pair in result["entered"]}
    unentered = sorted(q for q, where in _functions().items() if where not in entered)
    return unentered, result["codes"]


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    commands = _commands(tmp_path_factory.mktemp("reach"))
    start = time.perf_counter()
    unentered, codes = _unentered(commands)
    return unentered, codes, time.perf_counter() - start


def test_every_function_is_entered(full_run):
    unentered, codes, elapsed = full_run
    assert codes == [0] * len(codes), codes
    flagged = [q for q in unentered if not _exempt(q)]
    assert flagged == [], f"functions of src/charverify no run enters: {flagged}"
    assert elapsed <= 3.0, f"the reachability run took {elapsed:.2f} s"


def test_runtime_exemptions_cover_unentered_functions(full_run):
    """An exemption goes once everything it covers is entered, or is gone."""
    unentered = full_run[0]
    stale = [key for key in EXEMPT if not any(_covers(key, q) for q in unentered)]
    assert stale == []


def test_reachability_guard_can_fail(tmp_path):
    """Without the generic-degree query, nothing enters the q-analog hook
    formula, the q-polynomial products it takes or the rendering of its
    polynomial, and the guard names each of them."""
    commands = [c for c in _commands(tmp_path) if c[:2] != ["--query", "generic-degree"]]
    unentered, _ = _unentered(commands)
    assert [q for q in unentered if not _exempt(q)] == [
        "partitions.Partition.n_stat",
        "qpoly.QPolynomial.__mul__",
        "qpoly.QPolynomial.__pow__",
        "qpoly.QPolynomial.pretty",
        "qpoly.generic_degree_typeA",
    ]
