"""End-to-end pipeline through the command-line interface."""

import json
import math

import pytest

from nbestslu import checkpoint, cli
from nbestslu.autograd import Tensor
from nbestslu.checkpoint import MAGIC, load_container, save_container
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

    def test_decode_parses_the_checkpoint_config_once(self, workspace, monkeypatch):
        tmp = workspace["tmp"]
        dataset = tmp / "mini.ds"
        ckpt = tmp / "ckpt1"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert run(["train", dataset, ckpt, "--config", workspace["config"], "--step1-only"]) == 0
        parsed = []
        for module in (cli, checkpoint):
            original = module.parse_config_file
            monkeypatch.setattr(module, "parse_config_file",
                                lambda path, original=original: parsed.append(path) or original(path))
        assert run(["decode", ckpt, dataset, tmp / "step1.frames", "--step1-only"]) == 0
        assert parsed == [ckpt / "config.txt"]

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
        assert run(["cv", dataset, tmp_path / "cv", "--folds", folds, "--config", workspace["config"]]) == 1
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
        # A defensive check that real training does not reach: a non-finite loss comes with a
        # NaN gradient, which the optimizer refuses first.  Every loss here reads as infinite
        # while the gradients stay finite, so the epoch's mean-loss check is what stops the run.
        dataset = tmp_path / "mini.ds"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        monkeypatch.setattr(Tensor, "item", lambda self: math.inf)
        capsys.readouterr()
        assert run(["train", dataset, tmp_path / "ckpt", "--config", workspace["config"]]) == 3
        err = capsys.readouterr().err
        assert err == "numeric failure: training loss became non-finite at epoch 1\n"
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

    def test_decode_of_a_non_finite_score_names_the_line(self, workspace, tmp_path, capsys):
        dataset = tmp_path / "mini.ds"
        ckpt = tmp_path / "ckpt"
        assert run(["import", workspace["root"], workspace["flist"], dataset,
                    "--config", workspace["config"]]) == 0
        assert run(["train", dataset, ckpt, "--config", workspace["config"], "--step1-only"]) == 0
        single = tmp_path / "one_turn.jsonl"
        # A non-finite score, an empty n-best list and a negative score.
        for hyps in ('[{"text": "cheap food", "score": NaN}]', '[]', '[{"text": "cheap food", "score": -0.5}]'):
            single.write_text('{"session": "live-1", "index": 0, "hyps": ' + hyps + ', '
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
