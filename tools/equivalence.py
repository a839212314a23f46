"""Check that two source trees train, decode and cross-validate to the same bytes.

    python3 tools/equivalence.py OLD_TREE NEW_TREE OUT

Both trees are full checkouts (each with ``src/nbestslu``).  The script
writes one small corpus with ``perfbench/corpus.py`` under ``OUT/corpus``
and one reduced run config, ``OUT/run.cfg``.  Each tree's command line
then trains every variant for every seed on it, decodes the test file full
and ``--step1-only``, and runs ``cv`` once (first variant, first seed),
with all outputs under ``OUT/old`` and ``OUT/new``.  Both trees read the
corpus and the vectors from the same paths, since the run config and the
frames' ``config_hash`` record the vector file's path.

``OUT/old.manifest`` and ``OUT/new.manifest`` list the sha256 of every
output file, in ``sha256sum`` format.  ``OUT/report.txt`` names each file
that differs or exists on one side only and, for each checkpoint that
differs, the largest absolute difference of every array.  The exit code is
0 when the manifests are identical, 1 when they differ, and 2 when a
command fails or an argument is wrong.  The old tree runs its commands
first, then the new tree.
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
from perfbench.corpus import CorpusShape, generate  # noqa: E402

SIDES = ("old", "new")
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
            runs.append(["decode", run / "ckpt", corpus / "test.ds", run / "step1.frames", "--step1-only"])
    runs.append(["cv", corpus / "train.ds", base / "cv", "--folds", str(folds), "--config", config,
                 "--set", f"model={variants[0]}", "--set", f"seed={seeds[0]}"])
    return [[str(arg) for arg in argv] for argv in runs]


def run_tree(tree: Path, out: Path, argvs: list[list[str]]) -> None:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for argv in argvs:
        done = subprocess.run([sys.executable, "-m", "nbestslu.cli", *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{tree}: nbestslu {' '.join(argv)} exited {done.returncode}\n{done.stderr}")


def manifest(base: Path) -> dict[str, str]:
    """sha256 of every file under ``base``, keyed by its path relative to ``base``."""
    return {path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(base.rglob("*")) if path.is_file()}


def array_differences(old: Path, new: Path) -> list[str]:
    """One line per array of two checkpoint files: its largest absolute difference, or why there is none."""
    (_, old_arrays, _), (_, new_arrays, _) = load_container(old), load_container(new)
    lines = []
    for name in sorted(old_arrays.keys() | new_arrays.keys()):
        a, b = old_arrays.get(name), new_arrays.get(name)
        if a is None or b is None:
            lines.append(f"  {name}: only in {'new' if a is None else 'old'}")
        elif a.shape != b.shape:
            lines.append(f"  {name}: shape {a.shape} -> {b.shape}")
        else:
            lines.append(f"  {name}: max abs diff {np.max(np.abs(a - b), initial=0.0):.3e}")
    return lines


def compare(out: Path) -> list[str]:
    """Write both manifests; returns the report's lines, empty when every file is identical."""
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
            if path.endswith(".ckpt"):
                lines += array_differences(out / "old" / path, out / "new" / path)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two source trees' CLI outputs byte for byte.")
    parser.add_argument("old", type=Path, help="the reference tree")
    parser.add_argument("new", type=Path, help="the tree under test")
    parser.add_argument("out", type=Path, help="a new or empty work directory")
    parser.add_argument("--variants", nargs="+", default=list(VARIANTS), choices=list(VARIANTS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--train-dialogues", type=int, default=20)
    parser.add_argument("--test-dialogues", type=int, default=10)
    parser.add_argument("--folds", type=int, default=3, help="cv folds")
    parser.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                        help="override one key of the reduced run config (repeatable)")
    args = parser.parse_args(argv)
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    out = args.out.resolve()
    for tree in trees.values():
        if not (tree / "src" / "nbestslu" / "__init__.py").is_file():
            parser.error(f"no package sources under {tree}")
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    settings = dict(RUN_CONFIG)
    for pair in args.overrides:
        key, sep, value = pair.partition("=")
        if not sep:
            parser.error(f"--set needs KEY=VALUE, got {pair!r}")
        settings[key.strip()] = value.strip()

    files = generate(CorpusShape(args.train_dialogues, args.test_dialogues), 1, out / "corpus")
    settings["embeddings"] = files.vectors
    (out / "run.cfg").write_text("".join(f"{key} = {value}\n" for key, value in settings.items()), encoding="utf-8")
    try:
        for side in SIDES:
            run_tree(trees[side], out, commands(out, side, args.variants, args.seeds, args.folds))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2

    lines = compare(out)
    count = len((out / "new.manifest").read_text(encoding="utf-8").splitlines())
    summary = f"{count} files in the new manifest; " + ("all identical" if not lines else "differences:")
    (out / "report.txt").write_text("\n".join([summary, *lines]) + "\n", encoding="utf-8")
    print("\n".join([summary, *lines]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
