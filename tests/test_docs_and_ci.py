"""The documentation and the CI workflow name what the tree has.

The configuration and checkpoint meta tables in ``docs/formats.md`` and
the variant table in the README are written by hand, and the workflow names test files,
benchmark workloads and demos by path; each check fails when one side
changes without the other.
"""

import ast
import itertools
import json
import re
from dataclasses import fields
from pathlib import Path

from nbestslu.checkpoint import SLOT_KIND, STEP1_KIND, load_container, save_model
from nbestslu.config import VARIANTS, RunConfig, resolved_text
from nbestslu.data import collect_system_tokens
from nbestslu.model import SlotValueModel, StepOneModel

from _synth import synthetic_dataset, synthetic_table

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def table(text: str, header: str) -> list[list[str]]:
    """The body rows of the first markdown table in ``text`` whose header row starts with ``header``."""
    lines = text[text.index(f"\n{header}") + 1:].splitlines()
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines))[2:]
    return [[cell.strip().strip("`") for cell in row.strip("|").split("|")] for row in rows]


def test_the_config_table_lists_every_key_with_its_default():
    # The "valid values" cell is the text that ends the refusal "<key> must be …".
    formats = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    rows = table(formats[formats.index("\n## Configuration files\n"):], "| key")
    documented = [(key, default, valid) for key, default, valid, *_ in rows]
    resolved = dict(line.split(" = ", 1) for line in resolved_text(RunConfig()).splitlines())
    expected = [(f.name, resolved[f.name] or "(empty)", f.metadata["rule"]) for f in fields(RunConfig)]
    assert documented == expected


def test_the_checkpoint_meta_table_lists_the_keys_each_kind_of_file_holds(tmp_path):
    formats = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    rows = table(formats[formats.index("\n## Checkpoints\n"):], "| key")
    dataset, store = synthetic_dataset(4, 3, seed=40), synthetic_table(dim=12)
    config = RunConfig(embedding_dim=12, filter_windows=(2,), filters_per_window=3, hidden_size=4)
    tokens = collect_system_tokens(dataset.turns)
    models = {STEP1_KIND: StepOneModel.build(config, dataset.ontology, tokens, store),
              SLOT_KIND: SlotValueModel.build(config, dataset.ontology, "pricerange", tokens, store)}
    for kind, model in models.items():
        save_model(model, tmp_path / kind)
        documented = {key for key, kinds, *_ in rows if kinds in ("both", kind)}
        assert sorted(documented) == sorted(load_container(tmp_path / kind)[2]), kind


def test_the_readme_variant_table_lists_every_variant():
    rows = table((ROOT / "README.md").read_text(encoding="utf-8"), "| variant")
    assert [variant for variant, *_ in rows] == list(VARIANTS)


def test_every_name_the_workflow_uses_is_in_the_tree():
    text = WORKFLOW.read_text(encoding="utf-8")
    paths = set(re.findall(r"\b(?:tests|perfbench|tools)/[\w/]+\.py\b", text))
    assert paths and [p for p in sorted(paths) if not (ROOT / p).is_file()] == []
    workloads = set(re.findall(r"--workload (\S+)", text))
    declared = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}
    assert workloads and workloads <= declared
    demo_globs = re.findall(r"demos/\S*\*\S*\.py", text)
    assert demo_globs == ["demos/0[1-4]_*.py"]
    assert len(sorted(ROOT.glob(demo_globs[0]))) == 4


def test_the_lowest_ci_python_is_the_floor_and_every_file_parses_there():
    # No runner has run the workflow's lowest leg, so its parse check runs here.
    versions = re.search(r"python-version: \[([^\]]*)\]", WORKFLOW.read_text(encoding="utf-8")).group(1)
    lowest = min(tuple(int(part) for part in v.strip(' "\'').split(".")) for v in versions.split(","))
    floor = re.search(r'requires-python = ">=([\d.]+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert lowest == tuple(int(part) for part in floor.group(1).split("."))
    sources = sorted([*ROOT.glob("*.py"), *(path for top in ("src", "tests", "perfbench", "tools", "demos")
                                             for path in (ROOT / top).rglob("*.py"))])
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=lowest)
