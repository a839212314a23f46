"""The package's shape: a strict layering, and no name that only tests reach.

A module that imports another from inside a function body hides an
import cycle; each rule should live in the module that owns its data.
A function, class, method or property that only tests call is surface to
keep working that the decoder never uses.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import nbestslu

PACKAGE = Path(nbestslu.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# Names that only tests reach on purpose, each with its reason.
TEST_ONLY = {
    "set_finite_checks": "tests/conftest.py turns every op's finite check on for the whole suite",
}


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



def defined_names(source: str, filename: str) -> list[str]:
    """Each module-level function and class of ``source``, and each method and property of its classes."""
    names = []
    for node in ast.parse(source, filename).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [inner.name for inner in node.body if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return names


def word_counts(paths) -> Counter:
    counts = Counter()
    for path in paths:
        counts.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return counts


def test_every_name_has_a_caller_outside_the_tests():
    # A caller is a whole-word use in the package (beyond the name's own definitions), the
    # benchmark, the tools, the demos or the acceptance criteria.  Dunder methods are called
    # by syntax, so no word shows their use.
    sources = sorted(PACKAGE.glob("*.py"))
    defined = Counter(name for path in sources for name in defined_names(path.read_text(encoding="utf-8"), path.name))
    callers = [*sorted(ROOT.glob("perfbench/**/*.py")), *sorted(ROOT.glob("tools/**/*.py")),
               *sorted(ROOT.glob("demos/**/*.py")), ROOT / "tests" / "test_acceptance.py"]
    uses = word_counts(sources) - defined + word_counts(callers)
    unreached = sorted(name for name in defined
                       if uses[name] == 0 and name not in TEST_ONLY and not re.fullmatch(r"__\w+__", name))
    assert unreached == [], f"only tests reach these, or nothing does: {unreached}"
    assert [name for name in TEST_ONLY if uses[name]] == [], "an allowed test-only name now has a caller"
