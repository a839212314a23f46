"""The package's modules form a strict layering: no import hides in a function.

A module that imports another from inside a function body hides an
import cycle; each rule should live in the module that owns its data.
"""

import ast
from pathlib import Path

import nbestslu

PACKAGE = Path(nbestslu.__file__).parent


def function_level_imports(source: str, filename: str) -> list[str]:
    """``file:line`` of every import statement inside a function body of ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append(f"{filename}:{inner.lineno}")
    return sorted(set(found))


def test_no_module_imports_inside_a_function():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += function_level_imports(path.read_text(encoding="utf-8"), path.name)
    assert found == []

