"""End-to-end pipeline through the command-line interface."""

import json
import math

import pytest

from nbestslu.checkpoint import MAGIC
from nbestslu.cli import main
from nbestslu.data import read_canonical
from nbestslu.decoder import SemanticFrame, SlotValuePrediction, write_frames

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
        assert run(["cv", dataset, outdir, "--folds", "3", "--config", workspace["config"]]) == 0
        assert (outdir / "summary.json").is_file()
        assert (outdir / "config.txt").is_file()
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
