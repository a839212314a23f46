"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-w4 --seed 1 --seconds 15 --trace 0

Run it from the repository root.  It builds its inputs from ``--seed``
under ``.perfbench_runs/``, measures, checks the outputs, and prints one
line per metric followed by a last line holding one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
separate traced run reports the per-layer split.  The exit code is 0
when every output check passed, 1 when one failed, and 2 when the
package sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT_DIR = ".perfbench_runs"


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_package() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "nbestslu" / "__init__.py").is_file():
        _fail(f"no package sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import nbestslu

    if Path(nbestslu.__file__).resolve().parent != (src / "nbestslu").resolve():
        _fail(f"imported nbestslu from {nbestslu.__file__}, not from {src}")


def _parse(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed decode loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    _import_package()
    import machine
    from corpus import describe
    from nbestslu.context import ContextWindow
    from nbestslu.data import read_canonical
    from nbestslu.embeddings import load_vectors
    from nbestslu.model import VARIANTS
    from workloads import WORKLOADS, Run, RunFailed, end_to_end, traced

    args = _parse(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / OUTPUT_DIR / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    run = Run(workload, args.seed, workdir / "work")
    window = ContextWindow.from_name(VARIANTS[workload.variant][0])
    shape = describe(read_canonical(run.files.train), read_canonical(run.files.test), window,
                     load_vectors(run.files.vectors))
    record = {"workload": workload.name, "why": workload.why, "variant": workload.variant,
              "shape": shape, "machine": machine.record(ROOT, args.seed)}
    print(f"workload {workload.name}: {workload.why}")
    print("shape " + json.dumps(shape, sort_keys=True))
    print("machine " + json.dumps(record["machine"], sort_keys=True))

    try:
        if args.trace:
            metrics = traced(run, workdir / "spans.jsonl")
        else:
            metrics = end_to_end(run, args.seconds)
    except RunFailed as exc:
        run.check(False, str(exc))
        metrics = {}
    finally:
        shutil.rmtree(workdir / "work", ignore_errors=True)  # fixtures are never reused

    for key, note in run.notes.items():
        print(f"{key} " + json.dumps(note, sort_keys=True))
    for failure in run.failures + run.ops.errors:
        print(f"FAILED {failure}")
    for key, metric in metrics.items():
        samples = f" (n={metric['samples']})" if "samples" in metric else ""
        raw = f" raw={metric['raw']!r}" if "raw" in metric else ""
        print(f"{key} {metric['value']!r} {metric['unit']}{samples}{raw}")
    correct = not run.failures and not run.ops.failed
    result = {
        "correct": correct,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    record.update(result, notes=run.notes, failures=run.failures + run.ops.errors, metrics=metrics)
    (workdir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
