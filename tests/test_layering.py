"""The package's shape: a strict layering, and no name, setting or switch that only tests reach.

A module that imports another from inside a function body hides an
import cycle; each rule should live in the module that owns its data.
A function, class, method or property that only tests call is surface to
keep working that the decoder never uses, and so is a defaulted parameter
that only tests set.  A ``global`` statement is process-wide state that
one caller sets for every other, so the tests would no longer run the
program that users run.  A loop written out twice can drift apart, so a
run's slot loop and step two's read of a value model each live in one
module.  A parameter's values are written in place, by the model's
``load_arrays`` and the optimizer's step alone: the LSTM's gate tensors
are views of one stacked array and ``embed.system`` is the embedding
table's block, so a rebound ``.data`` would silently leave them behind.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import nbestslu

PACKAGE = Path(nbestslu.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


def global_statements(source: str, filename: str) -> list[str]:
    """``file:line`` of every ``global`` statement in ``source``."""
    return [f"{filename}:{node.lineno}"
            for node in ast.walk(ast.parse(source, filename)) if isinstance(node, ast.Global)]


def test_no_module_keeps_a_process_wide_switch():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += global_statements(path.read_text(encoding="utf-8"), path.name)
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


def caller_paths() -> list[Path]:
    """The package, the benchmark, the tools, the demos and the acceptance criteria."""
    return [*sorted(PACKAGE.glob("*.py")), *sorted(ROOT.glob("perfbench/**/*.py")), *sorted(ROOT.glob("tools/**/*.py")),
            *sorted(ROOT.glob("demos/**/*.py")), ROOT / "tests" / "test_acceptance.py"]


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
    uses = word_counts(caller_paths()) - defined
    unreached = sorted(name for name in defined if uses[name] == 0 and not re.fullmatch(r"__\w+__", name))
    assert unreached == [], f"only tests reach these, or nothing does: {unreached}"


def defaulted_parameters(source: str, filename: str) -> list[tuple[str, str, int | None]]:
    """(function, parameter, call position) of each defaulted parameter of every function and method but ``__init__``.

    The position is the parameter's index among a call's positional arguments:
    a method's first parameter is bound by the attribute lookup.  Keyword-only
    parameters have none.
    """
    found = []

    def visit(body, in_class: bool) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [*args.posonlyargs, *args.args]
                bound = in_class and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                if node.name != "__init__":
                    first = len(positional) - len(args.defaults)
                    found.extend((node.name, arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first)
                    found.extend((node.name, arg.arg, None)
                                 for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None)
                visit(node.body, False)

    visit(ast.parse(source, filename).body, False)
    return found


def calls_by_name(paths) -> dict[str, list[ast.Call]]:
    """Every call in ``paths`` to a plain or attribute name, keyed by that name."""
    calls: dict[str, list[ast.Call]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    return calls


def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether ``call`` sets ``parameter``: by keyword, through ``**``, or by ``position`` (or a ``*`` argument)."""
    if any(keyword.arg in (None, parameter) for keyword in call.keywords):
        return True
    return position is not None and (len(call.args) > position
                                     or any(isinstance(arg, ast.Starred) for arg in call.args))


def test_every_defaulted_parameter_is_set_outside_the_tests():
    # A parameter with a default that no call outside the tests passes, by keyword or by
    # position, is a setting only tests use.  Calls match by name alone, so a call to any
    # function of that name counts.
    calls = calls_by_name(caller_paths())
    unset = [f"{path.name}: {function}({parameter})"
             for path in sorted(PACKAGE.glob("*.py"))
             for function, parameter, position in defaulted_parameters(path.read_text(encoding="utf-8"), path.name)
             if not any(passes(call, parameter, position) for call in calls.get(function, []))]
    assert unset == [], f"only tests set these parameters, or nothing does: {unset}"


@pytest.mark.parametrize("function, owner", [("train_step2", "training.py"), ("predict_value", "decoder.py")])
def test_the_slot_loop_and_the_step_two_read_each_live_in_one_module(function, owner):
    # A run's value models are trained by ``training.train_run`` alone, and a value model is read by
    # ``decoder.predict_values`` alone.  The benchmark and the acceptance criteria keep their own loops.
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted(ROOT.glob("demos/**/*.py"))]
    assert [path.name for path in paths if function in calls_by_name([path])] == [owner]


def data_writes(source: str, filename: str) -> tuple[list[str], list[str]]:
    """(``file:line`` of each in-place write to a ``.data``, of each rebinding of one outside ``Tensor.__init__``).

    An in-place write assigns into ``x.data[...]`` or augments ``x.data``;
    a rebinding assigns ``x.data`` itself.
    """
    writes, rebinds = [], []

    def is_data(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "data"

    def leaves(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from leaves(element)
        else:
            yield target.value if isinstance(target, ast.Starred) else target

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Assign, ast.AugAssign)):
                for target in leaves(ast.Tuple(child.targets) if isinstance(child, ast.Assign) else child.target):
                    where = f"{filename}:{child.lineno}"
                    if (isinstance(target, ast.Subscript) and is_data(target.value)) or (
                            is_data(target) and isinstance(child, ast.AugAssign)):
                        writes.append(where)
                    elif is_data(target) and scope != "Tensor.__init__":
                        rebinds.append(where)
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(ast.parse(source, filename), "")
    return writes, rebinds


def test_only_the_model_and_the_optimizer_write_parameter_values():
    # ``HeadedModel.load_arrays`` (checkpoint loads and early stopping's restore) and
    # ``Adadelta.step`` write in place; nothing rebinds a tensor's ``.data`` once it is built.
    writes, rebinds = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        found_writes, found_rebinds = data_writes(path.read_text(encoding="utf-8"), path.name)
        writes += [] if path.name in ("model.py", "optim.py") else found_writes
        rebinds += found_rebinds
    assert (writes, rebinds) == ([], [])


def names_used_as_values(paths) -> set[str]:
    """Every plain or attribute name in ``paths`` that is read other than as the function of a call."""
    names = set()
    for path in paths:
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))))
        called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
        names.update(node.id if isinstance(node, ast.Name) else node.attr for node in nodes
                     if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                     and id(node) not in called)
    return names


def test_no_default_is_left_to_the_tests_alone():
    # A default that every call outside the tests overrides is a setting only tests take.  A
    # function passed as a value (the benchmark hands ``load_checkpoint_dir`` to a helper) may
    # be called with its defaults, so its parameters count as taken.
    paths = caller_paths()
    calls, values = calls_by_name(paths), names_used_as_values(paths)
    overridden = [f"{path.name}: {function}({parameter})"
                  for path in sorted(PACKAGE.glob("*.py"))
                  for function, parameter, position in defaulted_parameters(path.read_text(encoding="utf-8"), path.name)
                  if function not in values and calls.get(function)
                  and all(passes(call, parameter, position) for call in calls[function])]
    assert overridden == [], f"every call outside the tests sets these parameters: {overridden}"
