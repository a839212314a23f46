"""Command-line pipeline: import, train, cv, decode, eval.

Exit codes: 0 success, 1 usage or configuration problem, 2 data error,
3 numeric failure.  Every run resolves its configuration from defaults,
an optional config file and ``--set key=value`` overrides, and writes the
resolved form next to its outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .checkpoint import CONFIG_FILE, load_checkpoint_dir, ontology_hash, save_checkpoint_dir, slot_file
from .config import RunConfig, apply_overrides, config_hash, parse_config_file, write_resolved
from .data import import_dstc2, read_canonical, read_turns, write_canonical
from .decoder import FULL, STEP1, decode_dataset, read_frames, write_frames
from .embeddings import load_vectors
from .errors import ConfigError, DataFormatError, DomainError, NumericFailure, SluError
from .metrics import report_table, report_text, score_frames
from .training import cross_validate_step1, train_run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route through our own codes.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nbestslu", description="Semantic decoder pipeline for ASR n-best lists")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="config file of key = value lines")
        p.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p = sub.add_parser("import", help="import corpus call directories into a canonical dataset file")
    p.add_argument("root", help="corpus root containing the call directories")
    p.add_argument("flist", help="file listing call directories, one per line")
    p.add_argument("out", help="output canonical dataset file")
    add_config_args(p)

    p = sub.add_parser("train", help="train the joint model and per-slot value models")
    p.add_argument("dataset", help="canonical dataset file")
    p.add_argument("outdir", help="checkpoint directory to create")
    p.add_argument("--step1-only", action="store_true", help="skip the per-slot value models")
    add_config_args(p)

    p = sub.add_parser("cv", help="k-fold cross-validation of the joint model")
    p.add_argument("dataset", help="canonical dataset file")
    p.add_argument("outdir", help="directory for per-fold and summary reports")
    add_config_args(p)

    p = sub.add_parser("decode", help="decode a dataset (or single-turn file) into frames")
    p.add_argument("checkpoint", help="checkpoint directory from train")
    p.add_argument("dataset", help="canonical dataset file or headerless turn records")
    p.add_argument("out", help="output frames file")
    p.add_argument("--step1-only", action="store_true", help="emit presence-only frames")

    p = sub.add_parser("eval", help="score a frames file against a dataset's references")
    p.add_argument("frames", help="frames file from decode")
    p.add_argument("dataset", help="canonical dataset file with references")
    p.add_argument("--out", help="report file prefix (writes .txt and .tsv)")

    return parser


def _resolve_config(args) -> RunConfig:
    cfg = parse_config_file(args.config) if args.config else RunConfig()
    return apply_overrides(cfg, args.overrides)


def _load_store(cfg: RunConfig):
    if not cfg.embeddings:
        raise ConfigError("config key 'embeddings' must point to a pretrained vector file")
    return load_vectors(cfg.embeddings, expected_dim=cfg.embedding_dim)


def _cmd_import(args) -> int:
    cfg = _resolve_config(args)
    dataset = import_dstc2(args.root, args.flist, channel=cfg.asr_channel,
                           max_act_patterns=cfg.max_act_patterns)
    write_canonical(dataset, args.out, config_hash=config_hash(cfg))
    write_resolved(cfg, str(args.out) + ".config.txt")
    print(f"imported {dataset.dialogue_count} dialogues / {len(dataset.turns)} turns -> {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    store = _load_store(cfg)
    dataset = read_canonical(args.dataset)
    print(f"training step one ({cfg.model}) on {dataset.dialogue_count} dialogues")
    step1, slot_models, logs = train_run(dataset, cfg, store, step1_only=args.step1_only, log_fn=print)
    save_checkpoint_dir(args.outdir, step1, slot_models, cfg, train_log=logs)
    print(f"checkpoint written to {args.outdir}")
    return EXIT_OK


def _cmd_cv(args) -> int:
    cfg = _resolve_config(args)
    store = _load_store(cfg)
    dataset = read_canonical(args.dataset)
    reports, summary = cross_validate_step1(dataset, cfg, store, log_fn=print)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for fold, report in enumerate(reports):
        _write_report(report, outdir / f"fold_{fold}", produced_by=config_hash(cfg))
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    write_resolved(cfg, outdir / "config.txt")
    for metric, stats in summary.items():
        print(f"{metric}: mean {stats['mean']:.4f} stdev {stats['stdev']:.4f}")
    return EXIT_OK


def _cmd_decode(args) -> int:
    dataset = read_turns(args.dataset)
    cfg = parse_config_file(Path(args.checkpoint) / CONFIG_FILE)
    store = _load_store(cfg)
    step1, slot_models, cfg = load_checkpoint_dir(args.checkpoint, store)
    ontology = step1.ontology
    missing = [slot for slot in ontology.slots if slot not in slot_models and len(ontology.slot_values(slot)) != 1]
    if missing and not args.step1_only:
        raise ConfigError(f"{args.checkpoint}: no {slot_file(missing[0])} for multi-valued slot {missing[0]!r}; "
                          "a full decode needs every value model")
    frames = decode_dataset(dataset, step1, slot_models, step1_only=args.step1_only)
    mode = STEP1 if args.step1_only else FULL
    write_frames(args.out, frames, dataset.turns, mode=mode,
                 config_hash=config_hash(cfg), ontology_hash=ontology_hash(step1.ontology))
    print(f"decoded {len(frames)} turns -> {args.out}")
    return EXIT_OK


def _write_report(report, prefix, produced_by: str | None) -> None:
    head = f"# config_hash: {produced_by}\n" if produced_by else ""
    Path(f"{prefix}.txt").write_text(head + report_text(report), encoding="utf-8")
    rows = "".join(f"{metric}\t{value!r}\n" for metric, value in report_table(report))
    if produced_by:
        rows = f"config_hash\t{produced_by}\n" + rows
    Path(f"{prefix}.tsv").write_text(rows, encoding="utf-8")


def _cmd_eval(args) -> int:
    header, rows = read_frames(args.frames)
    dataset = read_turns(args.dataset)
    if len(rows) != len(dataset.turns):
        raise DomainError(
            f"frames cover {len(rows)} turns but the dataset has {len(dataset.turns)}"
        )
    frames = []
    for (session, index, frame), turn in zip(rows, dataset.turns):
        if (session, index) != (turn.session, turn.index):
            raise DomainError(
                f"frame for ({session}, {index}) does not align with dataset turn "
                f"({turn.session}, {turn.index})"
            )
        frames.append(frame)
    mode = header.get("items", FULL)
    report = score_frames(frames, dataset.turns, dataset.ontology, mode)
    print(report_text(report), end="")
    if args.out:
        _write_report(report, args.out, produced_by=header.get("config_hash"))
    return EXIT_OK


_COMMANDS = {
    "import": _cmd_import,
    "train": _cmd_train,
    "cv": _cmd_cv,
    "decode": _cmd_decode,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, DomainError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericFailure, SluError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
