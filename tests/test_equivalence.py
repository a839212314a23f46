"""The equivalence harness (``tools/equivalence.py``) on a tiny matrix, the working tree against itself."""

import importlib.util
import re
from pathlib import Path

from dataclasses import replace
from types import SimpleNamespace

from nbestslu.checkpoint import load_container, save_container
from nbestslu.decoder import read_frames, write_frames

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("equivalence", ROOT / "tools" / "equivalence.py")
equivalence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equivalence)

TINY = ["--variants", "cnn_lstm_w1", "--seeds", "1", "--train-dialogues", "3", "--test-dialogues", "1",
        "--folds", "2", "--set", "filters_per_window=2", "--set", "hidden_size=3", "--set", "max_epochs=1"]


def test_one_tree_twice_gives_identical_manifests_and_a_changed_array_is_reported(tmp_path, capsys):
    out = tmp_path / "out"
    assert equivalence.main([str(ROOT), str(ROOT), str(out), *TINY]) == 0
    old, new = ((out / f"{side}.manifest").read_text(encoding="utf-8") for side in ("old", "new"))
    assert old == new
    paths = {line.split("  ", 1)[1] for line in new.splitlines()}
    run = "cnn_lstm_w1-s1"
    assert {f"{run}/ckpt/step1.ckpt", f"{run}/ckpt/config.txt", f"{run}/ckpt/train_log.json",
            f"{run}/full.frames", f"{run}/headerless.frames", f"{run}/step1.frames", "cv/summary.json"} <= paths
    # The headerless copy of the test file holds its records, and decodes to the same bytes.
    records = (out / "corpus" / "test.ds").read_text(encoding="utf-8").splitlines(keepends=True)
    assert (out / "corpus" / "test.jsonl").read_text(encoding="utf-8") == "".join(records[1:])
    assert (out / "new" / run / "headerless.frames").read_bytes() == (out / "new" / run / "full.frames").read_bytes()
    summary = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    assert summary[0] == f"{len(paths)} files in the new manifest; all identical"
    count = sum(len(re.findall(r"(?m)^[ \t]*\S", path.read_text(encoding="utf-8")))
                for path in (ROOT / "src" / "nbestslu").glob("*.py"))
    assert summary[1] == f"src non-blank lines: {count} -> {count}"
    assert summary[2] == "old checkpoints decoded by the new tree: 2 of 2 frames files byte-identical to the old tree's"
    assert len(summary) == 3
    for name in ("full.frames", "step1.frames"):
        assert (out / "cross" / run / name).read_bytes() == (out / "old" / run / name).read_bytes()

    step1 = out / "new" / run / "ckpt" / "step1.ckpt"
    kind, params, meta = load_container(step1)
    params["head.act.b"][0] += 0.25
    save_container(step1, kind, params, meta)
    report = equivalence.compare(out)
    assert f"{run}/ckpt/step1.ckpt: differs" in report
    assert "  head.act.b: max abs diff 2.500e-01" in report
    assert "  head.act.w: max abs diff 0.000e+00" in report
    assert sum(line.endswith(": differs") for line in report) == 1
    assert not any(line.startswith("  meta:") for line in report)

    # Meta keys that differ are named on one line ahead of the arrays.
    del meta["system_tokens"]
    save_container(step1, kind, params, {**meta, "seed": 1, "store_fingerprint": "another", "ontology_hash": "x"})
    report = equivalence.compare(out)
    first = report.index(f"{run}/ckpt/step1.ckpt: differs") + 1
    assert report[first] == "  meta: added ontology_hash, seed; removed system_tokens; changed store_fingerprint"
    assert report[first + 1:] and all(": max abs diff " in line for line in report[first + 1:])


def _rewrite_frames(path, change) -> int:
    """Rewrite a frames file with ``change`` applied to its frame list; returns the frame count."""
    header, rows = read_frames(path)
    frames = change([frame for _, _, frame in rows])
    turns = [SimpleNamespace(session=session, index=index) for session, index, _ in rows]
    write_frames(path, frames, turns, mode=header["items"], config_hash=header["config_hash"],
                 ontology_hash=header["ontology_hash"])
    return len(frames)


def test_differing_frames_and_cv_rows_are_explained(tmp_path):
    out = tmp_path / "out"
    assert equivalence.main([str(ROOT), str(ROOT), str(out), *TINY]) == 0
    run = out / "new" / "cnn_lstm_w1-s1"
    count = _rewrite_frames(run / "full.frames", lambda frames: [
        replace(frames[0], act_confidence=frames[0].act_confidence * (1 - 2e-13)), *frames[1:]])
    _rewrite_frames(run / "step1.frames", lambda frames: [*frames[:-1], replace(frames[-1], act="not-an-act")])
    tsv = out / "new" / "cv" / "fold_0.tsv"
    tsv.write_text(tsv.read_text(encoding="utf-8").replace("\nturns\t", "\nturns\t1", 1), encoding="utf-8")

    report = equivalence.compare(out)
    full = report.index("cnn_lstm_w1-s1/full.frames: differs")
    assert report[full + 1].startswith(f"  {count} frames: acts, slots and values identical; max confidence diff ")
    assert 0 < float(report[full + 1].rsplit(" ", 1)[1]) < 1e-12
    step1 = report.index("cnn_lstm_w1-s1/step1.frames: differs")
    assert report[step1 + 1] == f"  1 of {count} frames differ in turn, act, slots or values"
    fold = report.index("cv/fold_0.tsv: differs")
    assert report[fold + 1].startswith("  turns: abs diff ") and float(report[fold + 1].rsplit(" ", 1)[1]) >= 9
    # The rewritten full decode is no longer the run's headerless decode.
    assert report[6:] == ["new/cnn_lstm_w1-s1/headerless.frames: differs from new/cnn_lstm_w1-s1/full.frames"]

    # The new tree's frames from the old tree's checkpoints are compared with the old tree's own.
    cross = out / "cross" / "cnn_lstm_w1-s1"
    _rewrite_frames(cross / "step1.frames", lambda frames: [replace(frames[0], act="not-an-act"), *frames[1:]])
    assert equivalence.cross_decoded(out) == [
        "old checkpoints decoded by the new tree: 1 of 2 frames files byte-identical to the old tree's",
        "cross/cnn_lstm_w1-s1/step1.frames: differs from old/cnn_lstm_w1-s1/step1.frames",
        f"  1 of {count} frames differ in turn, act, slots or values",
    ]
