"""Regrowth guards for ``src/charverify``.

Every public top-level function, class and method there is referenced by
identifier (a name, an attribute or an import, never a comment or
docstring) somewhere else in ``src/charverify``, and every defaulted
parameter of a public function or method is set, by keyword or by
position, by some call there.  Every parameter of every function there,
public or not, is read by its body.  A name or an option that only the
tests use is test code, and the oracles and helpers of the tests live in
``tests/scalar_oracles.py``.

The exceptions are the qualified names in ``EXEMPT``, the parameters in
``EXEMPT_PARAMS`` and ``EXEMPT_UNREAD``, each with its reason, and the
parameters of dunder methods, whose signatures their protocol fixes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "charverify"

EXEMPT = {
    "weyl.sp_mul": "left unwrapped by name in the benchmark tracer (UNWRAPPED)",
    "weyl.sp_identity": "left unwrapped by name in the benchmark tracer (UNWRAPPED)",
    "wreath.h_d_invariant": "renamed to a span by the benchmark tracer (RENAMED)",
    "cyclotomic.CyclotomicNumber.conjugate": "wrapped by the benchmark tracer (METHODS)",
    "grouptable.CharacterTable.verify_row_orthogonality": "run by acceptance criterion 04",
    "grouptable.CharacterTable.verify_column_orthogonality": "run by acceptance criterion 04",
    "grouptable.CharacterTable.sum_of_degree_squares": "run by acceptance criterion 04",
    "partitions.partitions_of": "the public list of the partitions of n",
    "report.load_schema": "the published report schema, which the CLI tests validate against",
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
        if qualified in EXEMPT:
            continue
        # a reference inside the definition itself (recursion) does not count
        if not any(
            ident == name and not (mod == module and node.lineno <= line <= node.end_lineno)
            for ident, mod, line in refs
        ):
            unused.append(qualified)
    assert unused == [], f"public names used nowhere else in src/charverify: {unused}"


def test_exemptions_name_definitions():
    defined = {qualified for qualified, _, _, _ in _definitions(_modules())}
    assert set(EXEMPT) <= defined, sorted(set(EXEMPT) - defined)


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
