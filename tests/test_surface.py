"""Every function, method and class defined in src/isograph is used by
src/isograph itself: a definition that only the tests reach belongs in
the tests (tests/oracles.py for a reference implementation).

The scan is by name, over the AST of every module: a definition counts as
used when some Name, Attribute or import alias anywhere in the package
carries its name.  Dunder names are exempt (the interpreter calls them)."""

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
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(filter(None, (node.name, node.asname)))
    return defined, used


def test_every_definition_is_used_in_src():
    defined, used = _scan()
    unused = sorted(
        f"{name} ({where})"
        for name, where in defined.items()
        if name not in used and name not in ALLOWED and not _is_dunder(name)
    )
    assert not unused, "defined in src/ but used only outside it: " + ", ".join(unused)


def test_allowlist_is_current():
    defined, used = _scan()
    assert all(name in defined and name not in used for name in ALLOWED)
