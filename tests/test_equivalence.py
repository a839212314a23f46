"""The equivalence harness (``tools/equivalence.py``) on a tiny matrix, the working tree against itself."""

import importlib.util
from pathlib import Path

from nbestslu.checkpoint import load_container, save_container

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
            f"{run}/full.frames", f"{run}/step1.frames", "cv/summary.json"} <= paths
    assert (out / "report.txt").read_text(encoding="utf-8").startswith(f"{len(paths)} files in the new manifest; all")

    step1 = out / "new" / run / "ckpt" / "step1.ckpt"
    kind, params, meta = load_container(step1)
    params["head.act.b"][0] += 0.25
    save_container(step1, kind, params, meta)
    report = equivalence.compare(out)
    assert f"{run}/ckpt/step1.ckpt: differs" in report
    assert "  head.act.b: max abs diff 2.500e-01" in report
    assert "  head.act.w: max abs diff 0.000e+00" in report
    assert sum(line.endswith(": differs") for line in report) == 1
