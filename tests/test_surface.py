"""Every function, method and class defined in src/isograph is used by
src/isograph itself: a definition that only the tests reach belongs in
the tests (tests/oracles.py for a reference implementation).

The scan is by name, over the AST of every module.  A function or class
counts as used when some Name, Attribute or import alias anywhere in the
package carries its name.  A method counts only through an Attribute
whose base is not an imported module: `math.sqrt` does not vouch for a
method `sqrt`, nor a local variable `rhs` for a method `rhs`.  Dunder
names are exempt (the interpreter calls them).

Likewise every name a module-level import binds in src/isograph is read
by that module: a stale import keeps a dependency alive after its last
use has gone.  The re-exports of __init__.py and `from __future__`
imports are exempt."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "isograph"

ALLOWED = {
    # the tests' reference determinant; its benchmark span (polys.poly_det)
    # pins it in src/ until a benchmark change drops that span
    "poly_matrix_det",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _scan():
    """(definitions as (name, where, is_method), names used as functions
    or classes, names used as methods)."""
    defined, used, used_as_method = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        methods = {
            id(item)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{path.name}:{node.lineno}"
                defined.append((node.name, where, id(node) in methods))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                base = node.value
                if not (isinstance(base, ast.Name) and base.id in modules):
                    used_as_method.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(filter(None, (node.name, node.asname)))
    return defined, used, used_as_method


def _unused():
    defined, used, used_as_method = _scan()
    return {
        f"{name} ({where})": name
        for name, where, is_method in defined
        if name not in (used_as_method if is_method else used) and not _is_dunder(name)
    }


def test_every_definition_is_used_in_src():
    unused = sorted(where for where, name in _unused().items() if name not in ALLOWED)
    assert not unused, "defined in src/ but used only outside it: " + ", ".join(unused)


def test_allowlist_is_current():
    assert ALLOWED <= set(_unused().values())


def _unused_imports():
    """Names bound by a module-level import of src/isograph/*.py that no
    Name node of the same module reads."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{name} ({path.name}:{node.lineno})")
    return unused


def test_every_module_import_is_used():
    unused = _unused_imports()
    assert not unused, "imported in src/ but never used there: " + ", ".join(unused)
