"""BENCHMARK.json names exactly what the benchmark measures."""

import json
import re
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, WORKLOADS

MANIFEST = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_command():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert MANIFEST["command"] == ["python3", "perfbench/run.py"]
    assert MANIFEST["paths"] == ["perfbench"]
    assert 1 <= MANIFEST["run_seconds"] <= 60


def test_workloads_match_the_code():
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])


def test_metrics_match_the_code():
    assert [m["name"] for m in MANIFEST["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in MANIFEST["per_layer"]] == list(PER_LAYER)
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")


def test_bounds():
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
