"""The traffic check (``tools/reach.py``) on a tiny command-line matrix, without the benchmark or the demos."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

TINY = ["--workloads", "--demos", "--variants", "cnn_lstm_w1", "--train-dialogues", "3", "--test-dialogues", "1",
        "--folds", "2", "--set", "filters_per_window=2", "--set", "hidden_size=3", "--set", "max_epochs=1"]


def function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((ROOT / "src" / "nbestslu" / module).read_text(encoding="utf-8"))
    return next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name)


def listed(report: list[str], module: str) -> dict[int, str]:
    """Each unreached line the report lists under ``module``, with its tag."""
    start = next(i for i, line in enumerate(report) if line.startswith(f"{module}: "))
    rows = {}
    for line in report[start + 1:]:
        if not line.startswith("  "):
            break
        rows[int(line[:6])] = line[7:13].strip()
    return rows


def test_a_cli_matrix_reaches_training_and_lists_the_headerless_reader(tmp_path, capsys):
    out = tmp_path / "out"
    assert reach.main([str(out), *TINY]) == 0
    report = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    assert report[0].startswith("5 processes reached ")
    assert capsys.readouterr().out == report[0] + "\n"

    # Training ran: each top-level statement of the epoch loop's function was reached.
    training = listed(report, "training.py")
    assert [stmt.lineno for stmt in function("training.py", "_run_epochs").body[1:] if stmt.lineno in training] == []

    # The matrix decodes a headerless copy of the test file, so the headerless branch runs; only its
    # refusal of a file without turns is listed.
    read_turns = function("data.py", "read_turns")
    header_test = next(stmt for stmt in read_turns.body if isinstance(stmt, ast.If))
    headerless = read_turns.body[read_turns.body.index(header_test) + 1:]
    data = listed(report, "data.py")
    assert header_test.lineno not in data
    assert [data.get(stmt.lineno) for stmt in headerless] == [None, None, None, None]
    assert data.get(headerless[2].body[0].lineno) == "raise"


def test_tests_mode_exits_one_and_lists_a_refusal_the_given_tests_leave_unreached(tmp_path):
    out = tmp_path / "out"
    assert reach.main([str(out), "--tests", str(ROOT / "tests" / "test_ontology.py")]) == 1
    report = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    assert report[0].startswith("1 processes reached ")
    # The ontology tests build no tensor, so matmul's shape refusal is listed under its tag.
    refusal = function("autograd.py", "matmul").body[1].body[0]
    assert isinstance(refusal, ast.Raise) and listed(report, "autograd.py")[refusal.lineno] == "raise"


def test_tests_mode_counts_the_processes_the_tests_start(tmp_path):
    # The metrics tests run ICE in six child processes, one per string hash seed; each records its own lines.
    out = tmp_path / "out"
    assert reach.main([str(out), "--tests", str(ROOT / "tests" / "test_metrics.py")]) == 1
    summary = (out / "report.txt").read_text(encoding="utf-8").splitlines()[0]
    assert int(summary.split(" processes reached ")[0]) > 1, summary


def test_tests_mode_exits_two_when_a_test_fails(tmp_path, capsys):
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "conftest.py").write_text('from hypothesis import settings\nsettings.register_profile("explicit")\n',
                                       encoding="utf-8")
    (tests / "test_fails.py").write_text("def test_fails():\n    assert False\n", encoding="utf-8")
    assert reach.main([str(tmp_path / "out"), "--tests", str(tests)]) == 2
    assert "1 failed" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.txt").exists()
