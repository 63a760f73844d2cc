"""Source hygiene: the library states its checks as exceptions, never as ``assert``.

``python -O`` strips ``assert`` statements, so a check written as one
vanishes exactly where nobody watches: a failed precondition then runs on
with wrong numbers instead of stopping with a message.
"""

import ast
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
