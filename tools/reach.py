"""List the package's source lines that no real run reaches.

    python3 tools/reach.py OUT
    python3 tools/reach.py OUT --tests [PATH ...]

The script runs what users and the benchmark run, each in its own
process: both benchmark workloads at ``--seconds 1``, at ``--trace 0``
and at ``--trace 1``; demos 01-04 with the corpus environment variables
unset; and ``tools/equivalence.py``'s command-line matrix (every variant,
seed 1) on its small generated corpus, ``OUT/corpus``, with outputs
under ``OUT/cli``.  The tests are not among them, so a line that only
tests reach is listed.

With ``--tests`` it runs one pytest process instead, over the tier-1
``testpaths`` or the given paths, with the hypothesis profile
``explicit`` (the root ``conftest.py``): only ``@example`` cases run,
so the same lines are reached on every run.

Each process records its own lines.  The script writes
``OUT/site/sitecustomize.py`` and puts ``OUT/site`` first on
``PYTHONPATH``, so every Python process it starts, and every one those
start, imports it at startup.  It sets a ``sys.settrace`` hook on the
process's own threads that records each line executed in
``src/nbestslu`` and writes them to ``OUT/lines/<pid>.txt`` at exit.
Temporary files go under ``OUT/tmp``.

``OUT/report.txt`` starts with a summary line, then lists, per module,
every executable line (one the compiler gives bytecode) that no run
reached, with its text.  A line inside an ``except`` handler is marked
``except``; a ``raise`` statement, and a line in an ``if`` or ``else``
block that raises, is marked ``raise``.  The exit code is 0 when every
run succeeded, and 2 when one failed or an argument is wrong.  With
``--tests`` it is 1 when the tests passed but left a line marked
``raise`` or ``except`` unreached: a refusal no test shows working.
``--workloads``, ``--demos`` and the matrix options of
``tools/equivalence.py`` narrow what runs.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import CodeType

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE)]

import equivalence  # noqa: E402

ROOT = HERE.parent
PACKAGE = ROOT / "src" / "nbestslu"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("0[1-4]_*.py"))
CORPUS_VARIABLES = ("DSTC2_DATA", "DSTC2_TRAIN_FLIST", "DSTC2_TEST_FLIST", "GLOVE_PATH")

SITECUSTOMIZE = '''\
"""Record every line this process executes under {package}; written by tools/reach.py."""

import atexit
import os
import sys
import threading

_reached = set()


def _line(frame, event, arg):
    if event == "line":
        _reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith({package!r}) else None


def _write():
    sys.settrace(None)
    with open(os.path.join({lines!r}, f"{{os.getpid()}}.txt"), "w", encoding="utf-8") as out:
        out.writelines(f"{{path}}\\t{{line}}\\n" for path, line in sorted(_reached))


atexit.register(_write)
threading.settrace(_call)
sys.settrace(_call)
'''


def runs(args, out: Path) -> list[tuple[list[str], Path]]:
    """Each run's argument list and working directory, in order."""
    python = sys.executable
    if args.tests is not None:
        paths = [str(Path(path).resolve()) for path in args.tests]
        return [([python, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-profile", "explicit", *paths],
                 ROOT)]
    found = [([python, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace],
              ROOT) for workload in args.workloads for trace in ("0", "1")]
    found += [([python, str(ROOT / "demos" / demo)], out / "tmp") for demo in args.demos]
    found += [([python, "-m", "nbestslu.cli", *argv], out)
              for argv in equivalence.commands(out, "cli", args.variants, args.seeds, args.folds)]
    return found


def executable_lines(code: CodeType) -> set[int]:
    """Every line that ``code`` or a code object nested in it gives bytecode."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def error_handling(source: str, filename: str) -> dict[int, str]:
    """``except`` for each line of an ``except`` handler, ``raise`` for each line of a raising branch."""
    tree, found = ast.parse(source, filename), {}

    def mark(node, tag: str) -> None:
        for line in range(node.lineno, node.end_lineno + 1):
            found.setdefault(line, tag)

    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            mark(node, "except")
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            mark(node, "raise")
        elif isinstance(node, ast.If):
            for block in (node.body, node.orelse):
                if any(isinstance(stmt, ast.Raise) for stmt in block):
                    for stmt in block:
                        mark(stmt, "raise")
    return found


def report(out: Path) -> tuple[list[str], Counter]:
    """The report's lines, a summary then each module's unreached lines, and the unreached count per tag."""
    processes, reached = sorted((out / "lines").glob("*.txt")), set()
    for path in processes:
        for row in path.read_text(encoding="utf-8").splitlines():
            name, line = row.rsplit("\t", 1)
            reached.add((name, int(line)))
    body, total, counts = [], 0, Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = executable_lines(compile(source, str(path), "exec"))
        marks = error_handling(source, str(path))
        missed = sorted(line for line in lines if (str(path), line) not in reached)
        total += len(lines)
        if missed:
            body.append(f"{path.name}: {len(missed)} of {len(lines)} executable lines unreached")
        text = source.splitlines()
        for line in missed:
            tag = marks.get(line, "")
            counts[tag] += 1
            body.append(f"  {line:>4} {tag:<6} {text[line - 1].strip()}")
    unreached = sum(counts.values())
    summary = (f"{len(processes)} processes reached {total - unreached} of {total} executable src lines; "
               f"{unreached} unreached: {counts['raise']} raise, {counts['except']} except, {counts['']} other")
    return [summary, *body], counts


def main(argv=None) -> int:
    parser = equivalence.matrix_parser("List the package's source lines that no real run reaches.", [1])
    parser.add_argument("out", type=Path, help="a new or empty work directory")
    parser.add_argument("--workloads", nargs="*", default=WORKLOADS, choices=WORKLOADS)
    parser.add_argument("--demos", nargs="*", default=DEMOS, choices=DEMOS)
    parser.add_argument("--tests", nargs="*", metavar="PATH",
                        help="run the tests (tier-1's testpaths, or these paths) instead; "
                             "exit 1 if a raise or except line is unreached")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    if args.tests is None:
        equivalence.write_inputs(parser, args, out)
    elif out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    for name in ("site", "lines", "tmp"):
        (out / name).mkdir(parents=True)
    (out / "site" / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(package=f"{PACKAGE}{os.sep}", lines=str(out / "lines")), encoding="utf-8")

    env = {key: value for key, value in os.environ.items() if key not in CORPUS_VARIABLES}
    env.update(PYTHONPATH=os.pathsep.join([str(out / "site"), str(ROOT / "src")]), TMPDIR=str(out / "tmp"))
    for argv, cwd in runs(args, out):
        done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{' '.join(argv)} exited {done.returncode}\n{done.stdout}{done.stderr}", file=sys.stderr)
            return 2

    lines, counts = report(out)
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(lines[0])
    return 1 if args.tests is not None and (counts["raise"] or counts["except"]) else 0


if __name__ == "__main__":
    sys.exit(main())
