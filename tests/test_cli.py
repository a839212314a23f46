"""End-to-end pipeline through the command-line interface."""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from nbestslu import cli, training
from nbestslu.autograd import Tensor, mul, nll_loss
from nbestslu.checkpoint import MAGIC, load_container, save_container
from nbestslu.cli import main
from nbestslu.data import Dataset, read_canonical, write_canonical
from nbestslu.decoder import SemanticFrame, SlotValuePrediction, read_frames, write_frames

from _synth import synthetic_vocab, write_mini_corpus, write_vectors_file


@pytest.fixture()
def workspace(tmp_path):
    root = tmp_path / "corpus"
    flist = write_mini_corpus(root)
    vectors = write_vectors_file(tmp_path / "vectors.txt", synthetic_vocab(), dim=12)
    config = tmp_path / "run.cfg"
    config.write_text(
        f"""
        model = cnn_lstm_w1
        embeddings = {vectors}
        embedding_dim = 12
        filter_windows = 2,3
        filters_per_window = 3
        hidden_size = 6
        batch_size = 5
        dropout = 0.2
        patience = 0
        max_epochs = 2
        seed = 5
        """,
        encoding="utf-8",
    )
    return {"tmp": tmp_path, "root": root, "flist": flist, "config": config}


def run(argv):
    return main([str(a) for a in argv])


class TestPipeline:
    def test_import_train_decode_eval(self, workspace, capsys):
        tmp = workspace["tmp"]
        dataset = tmp / "mini.ds"
        ckpt = tmp / "ckpt"
        frames = tmp / "mini.frames"

        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert dataset.is_file()
        assert (tmp / "mini.ds.config.txt").is_file()
        assert "3 dialogues / 7 turns" in capsys.readouterr().out

        assert run(["train", dataset, ckpt, "--config", workspace["config"]]) == 0
        assert (ckpt / "step1.ckpt").is_file()
        assert (ckpt / "ontology.json").is_file()
        assert (ckpt / "config.txt").is_file()
        assert (ckpt / "train_log.json").is_file()
        capsys.readouterr()

        assert run(["decode", ckpt, dataset, frames]) == 0
        lines = frames.read_text().splitlines()
        assert len(lines) == 1 + 7  # header + one frame per turn
        capsys.readouterr()

        assert run(["eval", frames, dataset, "--out", tmp / "report"]) == 0
        out = capsys.readouterr().out
        assert "f1:" in out and "ice:" in out
        assert (tmp / "report.txt").is_file() and (tmp / "report.tsv").is_file()
        rows = dict(
            line.split("\t") for line in (tmp / "report.tsv").read_text().splitlines()
        )
        assert 0.0 <= float(rows["f1"]) <= 1.0
        assert float(rows["turns"]) == 7.0

    def test_step1_only_train_and_decode(self, workspace, capsys):
        tmp = workspace["tmp"]
        dataset = tmp / "mini.ds"
        ckpt = tmp / "ckpt1"
        frames = tmp / "step1.frames"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert run(["train", dataset, ckpt, "--config", workspace["config"], "--step1-only"]) == 0
        assert run(["decode", ckpt, dataset, frames, "--step1-only"]) == 0
        header = json.loads(frames.read_text().splitlines()[0])
        assert header["items"] == "step1"
        assert run(["eval", frames, dataset]) == 0
        assert "mode: step1" in capsys.readouterr().out

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("header", [True, False], ids=["canonical", "headerless"])
    def test_decode_and_eval_read_the_dataset_from_a_pipe(self, workspace, capsys, header):
        tmp = workspace["tmp"]
        dataset = tmp / "mini.ds"
        ckpt = tmp / "ckpt"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert run(["train", dataset, ckpt, "--config", workspace["config"]]) == 0
        text = dataset.read_bytes() if header else dataset.read_bytes().split(b"\n", 1)[1]
        assert run(["decode", ckpt, dataset, tmp / "by_path.frames"]) == 0
        assert run(["eval", tmp / "by_path.frames", dataset]) == 0
        report = capsys.readouterr().out.splitlines()[-1]

        def piped(*argv) -> subprocess.CompletedProcess:
            # None stands for the pipe; a reader that opened it twice would block, hence the timeout.
            fifo = tmp / f"pipe{len(list(tmp.glob('pipe*')))}"
            os.mkfifo(fifo)

            def write():
                with open(fifo, "wb") as handle:
                    handle.write(text)

            threading.Thread(target=write, daemon=True).start()
            paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
            return subprocess.run([sys.executable, "-m", "nbestslu.cli", *(str(fifo if a is None else a) for a in argv)],
                                  cwd=tmp, env=env, capture_output=True, text=True, timeout=60)

        done = piped("decode", ckpt, None, tmp / "piped.frames")
        assert done.returncode == 0, done.stderr
        assert (tmp / "piped.frames").read_bytes() == (tmp / "by_path.frames").read_bytes()
        done = piped("eval", tmp / "piped.frames", None)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == report and "turns: 7" in done.stdout

    def test_decode_parses_the_checkpoint_config_once(self, workspace, monkeypatch):
        tmp = workspace["tmp"]
        dataset = tmp / "mini.ds"
        ckpt = tmp / "ckpt1"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert run(["train", dataset, ckpt, "--config", workspace["config"], "--step1-only"]) == 0
        parsed = []
        original = cli.parse_config_file
        monkeypatch.setattr(cli, "parse_config_file", lambda path: parsed.append(path) or original(path))
        assert run(["decode", ckpt, dataset, tmp / "step1.frames", "--step1-only"]) == 0
        assert parsed == [ckpt / "config.txt"]

    def test_decode_after_the_vectors_move_writes_the_same_frames(self, workspace):
        # ``config.txt`` only locates the vectors; the frames carry the config hash of the run that
        # made the models, so pointing it at the moved file changes no byte.
        tmp = workspace["tmp"]
        dataset, ckpt = tmp / "mini.ds", tmp / "ckpt"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert run(["train", dataset, ckpt, "--config", workspace["config"]]) == 0
        assert run(["decode", ckpt, dataset, tmp / "before.frames"]) == 0
        moved = tmp / "moved" / "vectors.txt"
        moved.parent.mkdir()
        (tmp / "vectors.txt").rename(moved)
        config = (ckpt / "config.txt").read_text(encoding="utf-8")
        assert f"embeddings = {tmp / 'vectors.txt'}\n" in config
        (ckpt / "config.txt").write_text(config.replace(str(tmp / "vectors.txt"), str(moved)), encoding="utf-8")
        assert run(["decode", ckpt, dataset, tmp / "after.frames"]) == 0
        assert (tmp / "after.frames").read_bytes() == (tmp / "before.frames").read_bytes()

    def test_perfect_frames_oracle_round_trip(self, workspace, capsys):
        tmp = workspace["tmp"]
        dataset_path = tmp / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset_path,
                    "--config", workspace["config"]]) == 0
        dataset = read_canonical(dataset_path)
        frames = [
            SemanticFrame(
                t.reference.act_pattern,
                1.0,
                tuple(SlotValuePrediction(s, v, 1.0) for s, v in t.reference.pairs),
            )
            for t in dataset.turns
        ]
        frames_path = tmp / "perfect.frames"
        write_frames(frames_path, frames, dataset.turns, mode="full")
        assert run(["eval", frames_path, dataset_path, "--out", tmp / "perfect"]) == 0
        rows = dict(
            line.split("\t") for line in (tmp / "perfect.tsv").read_text().splitlines()
        )
        assert float(rows["f1"]) == 1.0
        assert float(rows["precision"]) == 1.0
        assert float(rows["recall"]) == 1.0
        assert float(rows["accuracy"]) == 1.0
        assert math.isclose(float(rows["ice"]), 0.0, abs_tol=1e-12)

    def test_eval_out_keeps_every_dot_of_its_prefix(self, workspace, tmp_path):
        dataset = tmp_path / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        turns = read_canonical(dataset).turns
        frames = tmp_path / "mini.frames"
        write_frames(frames, [SemanticFrame("inform", 1.0, ()) for _ in turns], turns, mode="full")
        (tmp_path / "reports").mkdir()
        for prefix in ("run.a", "run.b"):
            assert run(["eval", frames, dataset, "--out", tmp_path / "reports" / prefix]) == 0
        assert sorted(path.name for path in (tmp_path / "reports").iterdir()) == [
            "run.a.tsv", "run.a.txt", "run.b.tsv", "run.b.txt"]

    def test_single_turn_decode(self, workspace, capsys):
        tmp = workspace["tmp"]
        dataset = tmp / "mini.ds"
        ckpt = tmp / "ckpt2"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert run(["train", dataset, ckpt, "--config", workspace["config"], "--step1-only"]) == 0
        single = tmp / "one_turn.jsonl"
        record = {
            "session": "live-1",
            "index": 0,
            "hyps": [{"text": "can i get the phone", "score": 1.0}],
            "system_acts": [[{"act": "welcomemsg", "slots": []}]],
            "reference": {"act": "request", "slots": [["slot", "phone"]]},
        }
        single.write_text(json.dumps(record) + "\n", encoding="utf-8")
        out = tmp / "one.frames"
        assert run(["decode", ckpt, single, out, "--step1-only"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        frame = json.loads(lines[1])
        assert frame["session"] == "live-1" and "act" in frame

    def test_cv_on_mini_corpus(self, workspace, capsys):
        tmp = workspace["tmp"]
        dataset = tmp / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        outdir = tmp / "cv"
        assert run(["cv", dataset, outdir, "--config", workspace["config"], "--set", "cv_folds=3"]) == 0
        assert (outdir / "summary.json").is_file()
        assert "cv_folds = 3\n" in (outdir / "config.txt").read_text()
        for fold in range(3):
            assert (outdir / f"fold_{fold}.txt").is_file()
            assert (outdir / f"fold_{fold}.tsv").is_file()
        summary = json.loads((outdir / "summary.json").read_text())
        assert set(summary) == {"accuracy", "precision", "recall", "f1", "ice"}
        out = capsys.readouterr().out
        assert "f1: mean" in out


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_unknown_config_key_is_one(self, workspace, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("warp_speed = 9\n", encoding="utf-8")
        assert run(["import", workspace["root"], workspace["flist"], tmp_path / "x.ds",
                    "--config", bad]) == 1

    @pytest.mark.parametrize("setting", ["seed=-1", "adadelta_epsilon=nan", "adadelta_epsilon=inf",
                                         "filter_windows=3,3"])
    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_out_of_range_setting_is_one(self, workspace, tmp_path, capsys, command, setting):
        dataset = tmp_path / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        capsys.readouterr()
        assert run([command, dataset, tmp_path / "out", "--config", workspace["config"], "--set", setting]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and setting.split("=")[0] in err and "Traceback" not in err

    def test_decode_with_a_negative_checkpoint_seed_is_one(self, workspace, tmp_path, capsys):
        dataset = tmp_path / "mini.ds"
        ckpt = tmp_path / "ckpt"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert run(["train", dataset, ckpt, "--config", workspace["config"], "--step1-only"]) == 0
        kind, params, meta = load_container(ckpt / "step1.ckpt")
        save_container(ckpt / "step1.ckpt", kind, params,
                       {**meta, "config_text": meta["config_text"].replace("seed = 5", "seed = -1")})
        capsys.readouterr()
        assert run(["decode", ckpt, dataset, tmp_path / "out.frames"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "seed" in err and "Traceback" not in err

    def test_decode_with_swapped_slot_files_is_two(self, workspace, tmp_path, capsys):
        dataset = tmp_path / "mini.ds"
        ckpt = tmp_path / "ckpt"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert run(["train", dataset, ckpt, "--config", workspace["config"]]) == 0
        first, second = sorted(ckpt.glob("slot_*.ckpt"))[:2]
        first_bytes = first.read_bytes()
        first.write_bytes(second.read_bytes())
        second.write_bytes(first_bytes)
        capsys.readouterr()
        assert run(["decode", ckpt, dataset, tmp_path / "out.frames"]) == 2
        err = capsys.readouterr().err
        assert first.name in err and "Traceback" not in err
        assert not (tmp_path / "out.frames").exists()

    @pytest.mark.parametrize("folds", ["0", "1", "-3"])
    def test_cv_with_fewer_than_two_folds_is_one(self, workspace, tmp_path, capsys, folds):
        dataset = tmp_path / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        capsys.readouterr()
        assert run(["cv", dataset, tmp_path / "cv", "--config", workspace["config"], "--set", f"cv_folds={folds}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "cv_folds" in err and f"got {folds}" in err
        assert not (tmp_path / "cv").exists()

    def test_missing_corpus_is_two(self, workspace, tmp_path, capsys):
        missing = tmp_path / "nowhere.flist"
        assert run(["import", workspace["root"], missing, tmp_path / "x.ds"]) == 2

    def test_misaligned_frames_are_two(self, workspace, tmp_path, capsys):
        tmp = workspace["tmp"]
        dataset = tmp / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        ds = read_canonical(dataset)
        frames = [SemanticFrame("inform", 1.0, ()) for _ in ds.turns[:-1]]
        frames_path = tmp / "short.frames"
        write_frames(frames_path, frames, ds.turns[:-1], mode="full")
        assert run(["eval", frames_path, dataset]) == 2

    def test_train_on_missing_dataset_is_two(self, workspace, tmp_path):
        assert run(["train", tmp_path / "absent.ds", tmp_path / "ckpt",
                    "--config", workspace["config"]]) == 2

    @pytest.mark.parametrize("make_dir", [False, True], ids=["missing-dir", "no-config"])
    def test_decode_without_a_checkpoint_config_is_two(self, workspace, tmp_path, capsys, make_dir):
        dataset = tmp_path / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        ckpt = tmp_path / "ckpt"
        if make_dir:
            ckpt.mkdir()
        capsys.readouterr()
        assert run(["decode", ckpt, dataset, tmp_path / "out.frames"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(ckpt / "config.txt") in err and "Traceback" not in err
        assert not (tmp_path / "out.frames").exists()

    def test_decode_of_a_directory_without_a_step_one_model_is_two(self, workspace, tmp_path, capsys):
        dataset = tmp_path / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "config.txt").write_text(workspace["config"].read_text(), encoding="utf-8")
        capsys.readouterr()
        assert run(["decode", ckpt, dataset, tmp_path / "out.frames"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "missing step1.ckpt" in err and "Traceback" not in err
        assert not (tmp_path / "out.frames").exists()

    def test_a_non_finite_training_loss_is_three(self, workspace, tmp_path, capsys, monkeypatch):
        # A non-finite loss comes with a NaN gradient, and the optimizer refuses that gradient
        # before any parameter moves.  Every probability the loss reads is NaN here; a saturated
        # softmax gives a finite loss instead (``autograd.PROB_FLOOR``).
        dataset = tmp_path / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        monkeypatch.setattr(training, "nll_loss",
                            lambda probs, target: nll_loss(mul(probs, Tensor(np.full(probs.shape, np.nan))), target))
        capsys.readouterr()
        assert run(["train", dataset, tmp_path / "ckpt", "--config", workspace["config"]]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite gradient for ") and err.endswith("; update aborted\n")
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("blob", [MAGIC + b"12", MAGIC + b"2\n{}\n"], ids=["no-newline", "no-params"])
    def test_decode_with_corrupt_checkpoint_is_two(self, workspace, tmp_path, capsys, blob):
        dataset = tmp_path / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "config.txt").write_text(workspace["config"].read_text(), encoding="utf-8")
        (ckpt / "step1.ckpt").write_bytes(blob)
        capsys.readouterr()
        assert run(["decode", ckpt, dataset, tmp_path / "out.frames"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err


    def test_decode_with_mistyped_checkpoint_meta_is_two(self, workspace, tmp_path, capsys):
        dataset = tmp_path / "mini.ds"
        ckpt = tmp_path / "ckpt"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert run(["train", dataset, ckpt, "--config", workspace["config"], "--step1-only"]) == 0
        kind, params, meta = load_container(ckpt / "step1.ckpt")
        save_container(ckpt / "step1.ckpt", kind, params, {**meta, "config_text": 5})
        capsys.readouterr()
        assert run(["decode", ckpt, dataset, tmp_path / "out.frames"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    @pytest.mark.parametrize("flags", [[], ["--step1-only"]], ids=["full", "step1-only"])
    def test_decode_of_a_stored_ontology_with_a_slot_missing_from_its_values_is_two(self, workspace, tmp_path,
                                                                                     capsys, flags):
        dataset = tmp_path / "mini.ds"
        ckpt = tmp_path / "ckpt"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert run(["train", dataset, ckpt, "--config", workspace["config"], "--step1-only"]) == 0
        kind, params, meta = load_container(ckpt / "step1.ckpt")
        del meta["ontology"]["values"][meta["ontology"]["slots"][0]]
        save_container(ckpt / "step1.ckpt", kind, params, meta)
        (ckpt / "ontology.json").unlink()
        capsys.readouterr()
        assert run(["decode", ckpt, dataset, tmp_path / "out.frames", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "step1.ckpt" in err and "Traceback" not in err
        assert not (tmp_path / "out.frames").exists()

    def test_decode_of_a_non_finite_score_names_the_line(self, workspace, tmp_path, capsys):
        dataset = tmp_path / "mini.ds"
        ckpt = tmp_path / "ckpt"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert run(["train", dataset, ckpt, "--config", workspace["config"], "--step1-only"]) == 0
        single = tmp_path / "one_turn.jsonl"
        # A non-finite score, an empty n-best list, a negative score and a fractional turn index.
        for index, hyps in [("0", '[{"text": "cheap food", "score": NaN}]'), ("0", '[]'),
                            ("0", '[{"text": "cheap food", "score": -0.5}]'),
                            ("2.7", '[{"text": "cheap food", "score": 1.0}]')]:
            single.write_text('{"session": "live-1", "index": ' + index + ', "hyps": ' + hyps + ', '
                              '"system_acts": [], "reference": {"act": "inform", "slots": []}}\n', encoding="utf-8")
            capsys.readouterr()
            assert run(["decode", ckpt, single, tmp_path / "out.frames", "--step1-only"]) == 2, hyps
            err = capsys.readouterr().err
            assert err.startswith("data error:") and f"{single}:1:" in err and "Traceback" not in err, hyps

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_decode_of_a_non_finite_checkpoint_parameter_is_two(self, workspace, tmp_path, capsys, value):
        dataset = tmp_path / "mini.ds"
        ckpt = tmp_path / "ckpt"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert run(["train", dataset, ckpt, "--config", workspace["config"], "--step1-only"]) == 0
        kind, params, meta = load_container(ckpt / "step1.ckpt")
        params["head.act.w"][0, 0] = value
        save_container(ckpt / "step1.ckpt", kind, params, meta)
        capsys.readouterr()
        assert run(["decode", ckpt, dataset, tmp_path / "out.frames"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(ckpt / "step1.ckpt") in err and "head.act.w" in err

    @pytest.mark.parametrize("change", ["dropped", "added"])
    def test_decode_of_a_checkpoint_with_another_parameter_set_is_two(self, workspace, tmp_path, capsys, change):
        dataset = tmp_path / "mini.ds"
        ckpt = tmp_path / "ckpt"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert run(["train", dataset, ckpt, "--config", workspace["config"], "--step1-only"]) == 0
        kind, params, meta = load_container(ckpt / "step1.ckpt")
        if change == "dropped":
            del params["head.act.w"]
        else:
            params["head.extra.w"] = np.zeros((2, 2))
        save_container(ckpt / "step1.ckpt", kind, params, meta)
        capsys.readouterr()
        assert run(["decode", ckpt, dataset, tmp_path / "out.frames"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "parameter set mismatch" in err
        assert ("head.act.w" if change == "dropped" else "head.extra.w") in err

    def test_decode_of_a_directory_mixing_two_runs_is_one(self, workspace, tmp_path, capsys):
        dataset = tmp_path / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        runs = {}
        for seed in (1, 2):
            runs[seed] = tmp_path / f"seed{seed}"
            assert run(["train", dataset, runs[seed], "--config", workspace["config"],
                        "--set", "model=cnn", "--set", f"seed={seed}"]) == 0
        (runs[2] / "slot_area.ckpt").write_bytes((runs[1] / "slot_area.ckpt").read_bytes())
        capsys.readouterr()
        assert run(["decode", runs[2], dataset, tmp_path / "out.frames"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "slot_area.ckpt" in err and "another run" in err
        assert not (tmp_path / "out.frames").exists()

    @pytest.mark.parametrize("step1_only", [True, False], ids=["step1-only-train", "slot-file-removed"])
    def test_full_decode_of_an_incomplete_checkpoint_is_one(self, workspace, tmp_path, capsys, step1_only):
        dataset = tmp_path / "mini.ds"
        ckpt = tmp_path / "ckpt"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert run(["train", dataset, ckpt, "--config", workspace["config"], *(["--step1-only"] * step1_only)]) == 0
        ontology = read_canonical(dataset).ontology
        multi_valued = [slot for slot in ontology.slots if len(ontology.slot_values(slot)) > 1]
        missing = multi_valued[0] if step1_only else multi_valued[-1]
        (ckpt / f"slot_{missing}.ckpt").unlink(missing_ok=step1_only)
        # One turn in which step one detects no slot, so no turn ever asks for the missing model.
        assert run(["decode", ckpt, dataset, tmp_path / "step1.frames", "--step1-only"]) == 0
        _, rows = read_frames(tmp_path / "step1.frames")
        quiet = next(i for i, (_, _, frame) in enumerate(rows) if not frame.slots)
        one_turn = tmp_path / "one_turn.jsonl"
        one_turn.write_text(dataset.read_text(encoding="utf-8").splitlines()[1 + quiet] + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["decode", ckpt, one_turn, tmp_path / "out.frames"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and f"slot_{missing}.ckpt" in err and repr(missing) in err
        assert not (tmp_path / "out.frames").exists()
        assert run(["decode", ckpt, one_turn, tmp_path / "out.frames", "--step1-only"]) == 0

    def test_train_without_an_embeddings_file_is_one(self, workspace, tmp_path, capsys):
        dataset = tmp_path / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        capsys.readouterr()
        assert run(["train", dataset, tmp_path / "ckpt", "--config", workspace["config"],
                    "--set", "embeddings="]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "'embeddings'" in err
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("fault", ["out-of-order", "slot-twice", "index-fraction", "unknown-items",
                                       "items-number", "turns-miscounted", "turns-float", "version-true", "version-float",
                                       "config-hash-object", "ontology-hash-number"])
    def test_eval_of_a_malformed_frames_file_is_two(self, workspace, tmp_path, capsys, fault):
        dataset = tmp_path / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        turns = read_canonical(dataset).turns
        frames_path = tmp_path / "mini.frames"
        frames = [SemanticFrame("inform", 1.0, (SlotValuePrediction("area", "north", 0.5),)) for _ in turns]
        write_frames(frames_path, frames, turns[::-1] if fault == "out-of-order" else turns, mode="full")
        header, *records = frames_path.read_text(encoding="utf-8").splitlines()
        if fault == "slot-twice":
            doc = json.loads(records[0])
            doc["slots"] *= 2
            records[0] = json.dumps(doc)
        if fault == "index-fraction":  # the second turn of the first dialogue, as 1.9
            doc = json.loads(records[1])
            doc["index"] += 0.9
            records[1] = json.dumps(doc)
        edits = {"unknown-items": ("items", "both"), "items-number": ("items", 7),
                 "turns-miscounted": ("turns", len(turns) + 1), "turns-float": ("turns", float(len(turns))),
                 "version-true": ("version", True), "version-float": ("version", 1.0),
                 "config-hash-object": ("config_hash", {"not": "a hash"}), "ontology-hash-number": ("ontology_hash", 7)}
        if fault in edits:
            key, value = edits[fault]
            header = json.dumps({**json.loads(header), key: value})
        frames_path.write_text("\n".join([header, *records]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["eval", frames_path, dataset]) == 2
        err = capsys.readouterr().err
        expected = {"out-of-order": "does not align", "slot-twice": "duplicate slots",
                    "index-fraction": f"{frames_path}:3: malformed frame record: expected a JSON integer",
                    "unknown-items": f"{frames_path}: header: unknown items 'both'",
                    "items-number": f"{frames_path}: header: expected a JSON string, got 7",
                    "turns-miscounted": f"{frames_path}: header: declares {len(turns) + 1} frames, found {len(turns)}",
                    "turns-float": f"{frames_path}: header: expected a JSON integer, got {float(len(turns))}",
                    "version-true": "version mismatch", "version-float": "version mismatch",
                    "config-hash-object": f"{frames_path}: header: expected a JSON string, got {{'not': 'a hash'}}",
                    "ontology-hash-number": f"{frames_path}: header: expected a JSON string, got 7"}[fault]
        assert err.startswith("data error:") and expected in err and "Traceback" not in err

    def test_a_dataset_file_without_records_is_two(self, workspace, tmp_path, capsys):
        dataset = tmp_path / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        full = read_canonical(dataset)
        empty = tmp_path / "empty.ds"
        write_canonical(Dataset((), full.ontology, full.provenance), empty)
        capsys.readouterr()
        assert run(["train", empty, tmp_path / "ckpt", "--config", workspace["config"]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "cannot derive an ontology from an empty dataset" in err

    @pytest.mark.parametrize("fault", ["no-semantics", "no-turn-lists", "turn-counts-differ",
                                       "indices-not-increasing", "empty-file-list", "duplicate-session",
                                       "asr-hyp-int", "score-string", "score-true", "session-id-int",
                                       "system-act-true", "reference-act-true", "slot-entry-string",
                                       "slot-entry-object"])
    def test_import_of_a_malformed_corpus_is_two(self, workspace, tmp_path, capsys, fault):
        root, flist = workspace["root"], workspace["flist"]
        call = root / "Mar13_S0A0" / "voip-mini-001"
        log, label = (json.loads((call / name).read_text(encoding="utf-8")) for name in ("log.json", "label.json"))
        hyp = log["turns"][1]["input"]["live"]["asr-hyps"][0]
        expected = {
            "no-semantics": "session voip-mini-001 turn 0: malformed reference semantics: 'semantics'",
            "no-turn-lists": "call Mar13_S0A0/voip-mini-001: log.json: 'turns'",
            "turn-counts-differ": "log has 3 turns but labels have 2",
            "indices-not-increasing": "turn indices are not increasing",
            "empty-file-list": "file list is empty",
            "duplicate-session": "duplicate session id 'voip-mini-001'",
            "asr-hyp-int": "session voip-mini-001 turn 1: malformed n-best entry: expected a JSON string, got 7",
            "score-string": "session voip-mini-001 turn 1: malformed n-best entry: expected a JSON number, got '0.8'",
            "score-true": "session voip-mini-001 turn 1: malformed n-best entry: expected a JSON number, got True",
            "session-id-int": "call Mar13_S0A0/voip-mini-001: session-id: expected a JSON string, got 7",
            "system-act-true": "session voip-mini-001 turn 1: malformed dialogue act record: expected a JSON string",
            "reference-act-true": "session voip-mini-001 turn 1: malformed reference semantics: expected a JSON string",
            "slot-entry-string": "session voip-mini-001 turn 1: malformed dialogue act record: "
                                 "expected a JSON array, got 'ab'",
            "slot-entry-object": "session voip-mini-001 turn 1: malformed reference semantics: "
                                 "expected a JSON array, got {'fo': 1, 'x': 2}",
        }[fault]
        if fault == "asr-hyp-int":
            hyp["asr-hyp"] = 7
        elif fault == "score-string":
            hyp["score"] = "0.8"
        elif fault == "score-true":
            hyp["score"] = True
        elif fault == "session-id-int":
            log["session-id"] = 7
        elif fault == "system-act-true":
            log["turns"][1]["output"]["dialog-acts"][0]["act"] = True
        elif fault == "reference-act-true":
            label["turns"][1]["semantics"]["json"][0]["act"] = True
        elif fault == "slot-entry-string":
            log["turns"][1]["output"]["dialog-acts"][0]["slots"] = ["ab"]
        elif fault == "slot-entry-object":
            label["turns"][1]["semantics"]["json"][0]["slots"] = [{"fo": 1, "x": 2}]
        elif fault == "no-semantics":
            del label["turns"][0]["semantics"]
        elif fault == "no-turn-lists":
            del log["turns"]
        elif fault == "turn-counts-differ":
            label["turns"].pop()
        elif fault == "indices-not-increasing":
            log["turns"][1]["turn-index"] = 0
        elif fault == "empty-file-list":
            flist.write_text("\n", encoding="utf-8")
        else:
            other = root / "Mar13_S0A0" / "voip-mini-001-copy"
            other.mkdir()
            for name in ("log.json", "label.json"):
                (other / name).write_bytes((call / name).read_bytes())
            flist.write_text(flist.read_text(encoding="utf-8") + "Mar13_S0A0/voip-mini-001-copy\n", encoding="utf-8")
        for name, doc in (("log.json", log), ("label.json", label)):
            (call / name).write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run(["import", root, flist, tmp_path / "x.ds", "--config", workspace["config"]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and expected in err and "Traceback" not in err
        assert not (tmp_path / "x.ds").exists()

    def test_config_file_that_is_not_utf8_is_one(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"seed = 1\n# caf\xe9\n")
        assert run(["train", tmp_path / "absent.ds", tmp_path / "ckpt", "--config", bad]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_vectors_file_that_is_not_utf8_is_two(self, workspace, tmp_path, capsys):
        dataset = tmp_path / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        vectors = tmp_path / "latin1.txt"
        vectors.write_bytes(b"caf\xe9 0.1 0.2\n")
        capsys.readouterr()
        assert run(["train", dataset, tmp_path / "ckpt", "--config", workspace["config"],
                    "--set", f"embeddings={vectors}", "--set", "embedding_dim=2"]) == 2
        assert capsys.readouterr().err.startswith("data error:")


class TestDeterminism:
    def test_two_train_runs_are_byte_identical(self, workspace):
        tmp = workspace["tmp"]
        dataset = tmp / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        dirs = []
        for name in ("run_a", "run_b"):
            out = tmp / name
            assert run(["train", dataset, out, "--config", workspace["config"]]) == 0
            dirs.append(out)
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
