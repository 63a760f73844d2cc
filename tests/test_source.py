"""Source hygiene: the library states its checks as exceptions, never as ``assert``,
its docstrings cross-reference only names that exist, and every name the package
exports is used by the library itself.

``python -O`` strips ``assert`` statements, so a check written as one
vanishes exactly where nobody watches: a failed precondition then runs on
with wrong numbers instead of stopping with a message.
"""

import ast
import importlib
import re
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "posspf").glob("*.py"))


def test_no_assert_statement_in_library_code():
    assert len(SOURCES) >= 7, SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in library code: {found}"


ROLE = re.compile(r":(func|class|meth):`~?([\w.]+)`")


def _docstrings(node, cls=None):
    """(docstring, enclosing class name or None) for a node and every class and def under it."""
    if isinstance(node, ast.ClassDef):
        cls = node.name
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        doc = ast.get_docstring(node, clean=False)
        if doc:
            yield doc, cls
    for child in ast.iter_child_nodes(node):
        yield from _docstrings(child, cls)


def _resolves(scope, dotted: str) -> bool:
    for name in dotted.split("."):
        if not hasattr(scope, name):
            return False
        scope = getattr(scope, name)
    return True


def test_docstring_cross_references_resolve():
    # A reference names a module attribute or Class.attr; a bare :meth: may
    # also name an attribute of the class whose docstring holds it.
    seen, stale = 0, []
    for path in SOURCES:
        module = importlib.import_module("posspf" if path.stem == "__init__" else f"posspf.{path.stem}")
        for doc, cls in _docstrings(ast.parse(path.read_text(), filename=str(path))):
            for role, target in ROLE.findall(doc):
                seen += 1
                scopes = [module] + ([getattr(module, cls)] if role == "meth" and cls and "." not in target else [])
                if not any(_resolves(scope, target) for scope in scopes):
                    stale.append(f"{path.name}: :{role}:`{target}`")
    assert seen, "no cross-references found: the pattern no longer matches the docstrings"
    assert not stale, f"docstring references to names that do not exist: {stale}"


def test_every_exported_name_is_used_by_the_library():
    # No public name exists only so that a test can import it: each name the
    # package imports is read as a name or an attribute in another module.
    init = next(path for path in SOURCES if path.name == "__init__.py")
    exported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init.read_text(), filename=str(init)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in SOURCES
        if path != init
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert len(exported) >= 20, exported
    assert not exported - used, f"exported names no other library module uses: {sorted(exported - used)}"
