"""Check that two source trees train, decode and cross-validate to the same bytes.

    python3 tools/equivalence.py OLD_TREE NEW_TREE OUT

Both trees are full checkouts (each with ``src/nbestslu``).  The script
writes one small corpus with ``perfbench/corpus.py`` under ``OUT/corpus``,
plus ``OUT/corpus/test.jsonl``, the test file without its header line, and
one reduced run config, ``OUT/run.cfg``.  Each tree's command line then
trains every variant for every seed on it, decodes the test file full and
``--step1-only`` and the headerless copy full, and runs ``cv`` once (first
variant, first seed), with all outputs under ``OUT/old`` and ``OUT/new``.
Both trees read the corpus and the vectors from the same paths, since the
run config and the frames' ``config_hash`` record the vector file's path.
Last, the new tree decodes the old tree's checkpoints on the test file,
full and ``--step1-only``, into ``OUT/cross``: a change that moves
training numerics but not decoding still gives the old tree's frames
there, byte for byte.

``OUT/old.manifest`` and ``OUT/new.manifest`` list the sha256 of every
output file, in ``sha256sum`` format.  ``OUT/report.txt`` names each file
that differs or exists on one side only.  For a checkpoint that differs
it names the meta keys added, removed or changed, then gives the largest
absolute difference of every array; for a frames
file, whether every turn's act, slots and values match and the largest
confidence difference; for a cv report ``.tsv``, each differing row's
absolute difference.  Then it names each run whose ``headerless.frames``
is not its ``full.frames``, byte for byte.  The report's second line,
``src non-blank lines: OLD -> NEW``, counts the lines with a
non-whitespace character over each tree's ``src/nbestslu/*.py``.  The
third says how many of the ``OUT/cross`` frames files are byte-identical
to the old tree's own, and each one that is not is named, with its frames
explained, after the manifest's differences.  The exit code is 0 when the
manifests and the cross-decoded frames are identical and every headerless
decode is its full decode, 1 otherwise, and 2 when a command fails or an
argument is wrong.  The old tree runs its commands first, then the new
tree.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from nbestslu.checkpoint import load_container  # noqa: E402
from nbestslu.config import VARIANTS  # noqa: E402
from nbestslu.decoder import read_frames  # noqa: E402
from perfbench.corpus import CorpusShape, generate  # noqa: E402

SIDES = ("old", "new")
HEADERLESS = "test.jsonl"  # the test file's turn records without the dataset header
CROSS = "cross"  # the new tree's frames from the old tree's checkpoints
# Reduced sizes: a full matrix runs in minutes on two cores.  --set adds to these.
RUN_CONFIG = {"filters_per_window": 30, "hidden_size": 30, "batch_size": 5, "patience": 2, "max_epochs": 12}


def commands(out: Path, side: str, variants, seeds, folds: int) -> list[list[str]]:
    """The CLI argument lists one tree runs, in order."""
    corpus, config, base = out / "corpus", out / "run.cfg", out / side
    runs = []
    for variant in variants:
        for seed in seeds:
            run = base / f"{variant}-s{seed}"
            chosen = ["--config", config, "--set", f"model={variant}", "--set", f"seed={seed}"]
            runs.append(["train", corpus / "train.ds", run / "ckpt", *chosen])
            runs.append(["decode", run / "ckpt", corpus / "test.ds", run / "full.frames"])
            runs.append(["decode", run / "ckpt", corpus / HEADERLESS, run / "headerless.frames"])
            runs.append(["decode", run / "ckpt", corpus / "test.ds", run / "step1.frames", "--step1-only"])
    runs.append(["cv", corpus / "train.ds", base / "cv", "--config", config, "--set", f"cv_folds={folds}",
                 "--set", f"model={variants[0]}", "--set", f"seed={seeds[0]}"])
    return [[str(arg) for arg in argv] for argv in runs]


def cross_commands(out: Path, variants, seeds) -> list[list[str]]:
    """The old tree's decodes of the test file, writing under ``OUT/cross`` instead of ``OUT/old``."""
    old, cross = out / "old", out / CROSS
    return [[*argv[:3], str(cross / Path(argv[3]).relative_to(old)), *argv[4:]]
            for argv in commands(out, "old", variants, seeds, 0)
            if argv[0] == "decode" and Path(argv[2]).name != HEADERLESS]


def run_tree(tree: Path, out: Path, argvs: list[list[str]]) -> None:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for argv in argvs:
        done = subprocess.run([sys.executable, "-m", "nbestslu.cli", *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{tree}: nbestslu {' '.join(argv)} exited {done.returncode}\n{done.stderr}")


def src_lines(tree: Path) -> int:
    """Lines with a non-whitespace character over the tree's ``src/nbestslu/*.py``."""
    return sum(bool(line.strip()) for path in (tree / "src" / "nbestslu").glob("*.py")
               for line in path.read_text(encoding="utf-8").splitlines())


def manifest(base: Path) -> dict[str, str]:
    """sha256 of every file under ``base``, keyed by its path relative to ``base``."""
    return {path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(base.rglob("*")) if path.is_file()}


def array_differences(old: Path, new: Path) -> list[str]:
    """The meta keys two checkpoint files disagree on, if any, then one line per array.

    An array's line gives its largest absolute difference, or why there is none.
    """
    (_, old_arrays, old_meta), (_, new_arrays, new_meta) = load_container(old), load_container(new)
    keys = {"added": new_meta.keys() - old_meta.keys(), "removed": old_meta.keys() - new_meta.keys(),
            "changed": {key for key in old_meta.keys() & new_meta.keys() if old_meta[key] != new_meta[key]}}
    meta = "; ".join(f"{what} {', '.join(sorted(names))}" for what, names in keys.items() if names)
    lines = [f"  meta: {meta}"] if meta else []
    for name in sorted(old_arrays.keys() | new_arrays.keys()):
        a, b = old_arrays.get(name), new_arrays.get(name)
        if a is None or b is None:
            lines.append(f"  {name}: only in {'new' if a is None else 'old'}")
        elif a.shape != b.shape:
            lines.append(f"  {name}: shape {a.shape} -> {b.shape}")
        else:
            lines.append(f"  {name}: max abs diff {np.max(np.abs(a - b), initial=0.0):.3e}")
    return lines


def frame_differences(old: Path, new: Path) -> list[str]:
    """Whether two frames files decode the same acts, slots and values, and their largest confidence difference."""
    (_, old_rows), (_, new_rows) = read_frames(old), read_frames(new)

    def items(row):
        session, index, frame = row
        return session, index, frame.act, [(item.slot, item.value) for item in frame.slots]

    def confidences(rows):
        return [c for _, _, frame in rows for c in (frame.act_confidence, *(item.confidence for item in frame.slots))]

    changed = sum(items(a) != items(b) for a, b in zip(old_rows, new_rows)) + abs(len(old_rows) - len(new_rows))
    if changed:
        return [f"  {changed} of {len(new_rows)} frames differ in turn, act, slots or values"]
    largest = max((abs(a - b) for a, b in zip(confidences(old_rows), confidences(new_rows))), default=0.0)
    return [f"  {len(new_rows)} frames: acts, slots and values identical; max confidence diff {largest:.3e}"]


def row_differences(old: Path, new: Path) -> list[str]:
    """One line per differing row of two report ``.tsv`` files: its absolute difference, or both values."""
    old_rows, new_rows = ([line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
                          for path in (old, new))
    if [row[0] for row in old_rows] != [row[0] for row in new_rows]:
        return ["  the rows differ"]
    lines = []
    for (name, a), (_, b) in zip(old_rows, new_rows):
        if a == b:
            continue
        try:
            lines.append(f"  {name}: abs diff {abs(float(a) - float(b)):.3e}")
        except ValueError:
            lines.append(f"  {name}: {a} -> {b}")
    return lines


# What the report says about a file that differs, by the file's suffix.
EXPLAIN = {".ckpt": array_differences, ".frames": frame_differences, ".tsv": row_differences}


def compare(out: Path) -> list[str]:
    """Write both manifests; returns the report's lines, empty when every file is identical.

    Last come the runs, old tree first, whose ``headerless.frames`` is not their ``full.frames``.
    """
    found = {}
    for side in SIDES:
        found[side] = manifest(out / side)
        (out / f"{side}.manifest").write_text("".join(f"{digest}  {path}\n" for path, digest in found[side].items()),
                                              encoding="utf-8")
    old, new = found.values()
    lines = []
    for path in sorted(old.keys() | new.keys()):
        if path not in old or path not in new:
            lines.append(f"{path}: only in {'new' if path not in old else 'old'}")
        elif old[path] != new[path]:
            lines.append(f"{path}: differs")
            explain = EXPLAIN.get(Path(path).suffix)
            if explain:
                lines += explain(out / "old" / path, out / "new" / path)
    for side, digests in found.items():
        for path, digest in digests.items():
            full = Path(path).with_name("full.frames").as_posix()
            if Path(path).name == "headerless.frames" and digest != digests.get(full):
                lines.append(f"{side}/{path}: differs from {side}/{full}")
    return lines


def cross_decoded(out: Path) -> list[str]:
    """How many ``OUT/cross`` frames files are the old tree's own, byte for byte, then each one that is not."""
    paths = sorted(path.relative_to(out / CROSS).as_posix() for path in (out / CROSS).rglob("*.frames"))
    differ = [path for path in paths if (out / CROSS / path).read_bytes() != (out / "old" / path).read_bytes()]
    lines = [f"old checkpoints decoded by the new tree: {len(paths) - len(differ)} of {len(paths)} frames files "
             "byte-identical to the old tree's"]
    for path in differ:
        lines.append(f"{CROSS}/{path}: differs from old/{path}")
        lines += frame_differences(out / "old" / path, out / CROSS / path)
    return lines


def matrix_parser(description: str, seeds: list[int]) -> argparse.ArgumentParser:
    """A parser for the options that narrow the command-line matrix, with ``seeds`` as its default seeds."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--variants", nargs="+", default=list(VARIANTS), choices=list(VARIANTS))
    parser.add_argument("--seeds", nargs="+", type=int, default=seeds)
    parser.add_argument("--train-dialogues", type=int, default=20)
    parser.add_argument("--test-dialogues", type=int, default=10)
    parser.add_argument("--folds", type=int, default=3, help="cv folds")
    parser.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                        help="override one key of the reduced run config (repeatable)")
    return parser


def write_inputs(parser: argparse.ArgumentParser, args: argparse.Namespace, out: Path) -> None:
    """Write the matrix's corpus under ``out/corpus`` and its run config, ``out/run.cfg``."""
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    settings = dict(RUN_CONFIG)
    for pair in args.overrides:
        key, sep, value = pair.partition("=")
        if not sep:
            parser.error(f"--set needs KEY=VALUE, got {pair!r}")
        settings[key.strip()] = value.strip()
    files = generate(CorpusShape(args.train_dialogues, args.test_dialogues), 1, out / "corpus")
    records = files.test.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    (out / "corpus" / HEADERLESS).write_text("".join(records), encoding="utf-8")
    settings["embeddings"] = files.vectors
    (out / "run.cfg").write_text("".join(f"{key} = {value}\n" for key, value in settings.items()), encoding="utf-8")


def main(argv=None) -> int:
    parser = matrix_parser("Compare two source trees' CLI outputs byte for byte.", [1, 2, 3])
    parser.add_argument("old", type=Path, help="the reference tree")
    parser.add_argument("new", type=Path, help="the tree under test")
    parser.add_argument("out", type=Path, help="a new or empty work directory")
    args = parser.parse_args(argv)
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    out = args.out.resolve()
    for tree in trees.values():
        if not (tree / "src" / "nbestslu" / "__init__.py").is_file():
            parser.error(f"no package sources under {tree}")
    write_inputs(parser, args, out)
    try:
        for side in SIDES:
            run_tree(trees[side], out, commands(out, side, args.variants, args.seeds, args.folds))
        cross = cross_commands(out, args.variants, args.seeds)
        for argv in cross:
            Path(argv[3]).parent.mkdir(parents=True, exist_ok=True)
        run_tree(trees["new"], out, cross)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2

    lines, cross = compare(out), cross_decoded(out)
    count = len((out / "new.manifest").read_text(encoding="utf-8").splitlines())
    summary = [f"{count} files in the new manifest; " + ("all identical" if not lines else "differences below"),
               f"src non-blank lines: {src_lines(trees['old'])} -> {src_lines(trees['new'])}", cross[0]]
    report = [*summary, *lines, *cross[1:]]
    (out / "report.txt").write_text("\n".join(report) + "\n", encoding="utf-8")
    print("\n".join(report))
    return 1 if lines or cross[1:] else 0

if __name__ == "__main__":
    sys.exit(main())
