"""Snapshot test: the golden `eval` outputs stay byte-identical.

`tests/golden/<variant>/` holds the `records.jsonl` and `report.json` that
`videoqa eval` wrote for the golden world (see conftest) with each variant's
flags. A change that alters any answer, trace step, prompt-driven response or
report field fails here. When a change means to alter them, regenerate the
files with the same command and say so in the change description. The
directory holds a snapshot for each variant and nothing else, so a removed
variant leaves no stale files and a new one cannot go unchecked.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from videoqa.cli import main

from conftest import build_golden_world

GOLDEN_DIR = Path(__file__).parent / "golden"

VARIANTS = {
    "default": [],
    "fixed_workflow": ["--fixed-workflow"],
    "generic_captions": ["--generic-captions"],
    "uniform_sampling": ["--uniform-sampling"],
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_golden_eval_outputs_byte_identical(variant, tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    records, report = tmp_path / "records.jsonl", tmp_path / "report.json"
    assert main(["eval", str(world.dataset_path),
                 "--mock-script", str(world.script_path),
                 "--out-records", str(records), "--out-report", str(report),
                 *VARIANTS[variant]]) == 0
    for fresh in (records, report):
        expected = GOLDEN_DIR / variant / fresh.name
        assert fresh.read_bytes() == expected.read_bytes(), \
            f"{variant}/{fresh.name} differs from the committed snapshot"


def test_golden_dir_holds_exactly_the_variants() -> None:
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(VARIANTS)
    for variant in VARIANTS:
        assert sorted(p.name for p in (GOLDEN_DIR / variant).iterdir()) == \
            ["records.jsonl", "report.json"], variant
