"""Regrowth guard for ``src/charverify``: every public top-level function,
class and method there is referenced by identifier (a name, an attribute or
an import, never a comment or docstring) somewhere else in
``src/charverify``.  A name that only the tests call is test code, and the
oracles and helpers of the tests live in ``tests/scalar_oracles.py``.

The exceptions are the names a module exports through ``__all__`` and the
qualified names in ``EXEMPT``, each with its reason."""

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
    "cyclotomic.conductor": "the public scalar conductor of one cyclotomic number",
    "partitions.partitions_of": "the public list of the partitions of n",
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


def _exported(modules):
    names = set()
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names |= {f"{module}.{elt.value}" for elt in node.value.elts}
    return names


def test_every_public_name_is_used_in_src():
    modules = _modules()
    refs = _references(modules)
    exempt = set(EXEMPT) | _exported(modules)
    unused = []
    for qualified, name, module, node in _definitions(modules):
        if qualified in exempt:
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
