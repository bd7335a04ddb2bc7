"""Snapshot test: the golden `eval` outputs and requests stay byte-identical.

`tests/golden/<variant>/` holds the `records.jsonl` and `report.json` that
`videoqa eval` wrote for the golden world (see conftest) with each variant's
flags, and `requests.jsonl`, every request that eval sent: one line per call,
`{"capability", "payload"}`, sorted, since calls run concurrently. With a real
model the answers are a function of the prompts, so a change that rewords a
prompt fails here even when the mock's replies do not move. When a change
means to alter any of them, regenerate the files with the same command and
say so in the change description. The directory holds a snapshot for each
variant and nothing else, so a removed variant leaves no stale files and a
new one cannot go unchecked.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from videoqa import cli

from conftest import RecordingBackend, build_golden_world

GOLDEN_DIR = Path(__file__).parent / "golden"
SNAPSHOT_FILES = ["records.jsonl", "report.json", "requests.jsonl"]

VARIANTS = {
    "default": [],
    "fixed_workflow": ["--fixed-workflow"],
    "generic_captions": ["--generic-captions"],
    "uniform_sampling": ["--uniform-sampling"],
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_golden_eval_outputs_byte_identical(variant, tmp_path,
                                            monkeypatch) -> None:
    make_backend, recorders = cli._make_backend, []

    def recording_backend(args, config):
        recorders.append(RecordingBackend(make_backend(args, config)))
        return recorders[-1]

    monkeypatch.setattr(cli, "_make_backend", recording_backend)
    world = build_golden_world(tmp_path / "golden")
    records, report = tmp_path / "records.jsonl", tmp_path / "report.json"
    assert cli.main(["eval", str(world.dataset_path),
                     "--mock-script", str(world.script_path),
                     "--out-records", str(records), "--out-report", str(report),
                     *VARIANTS[variant]]) == 0
    [recorder] = recorders
    sent = recorder.request_lines()
    requests = tmp_path / "requests.jsonl"
    requests.write_text(sent, encoding="utf-8")
    for fresh in (records, report, requests):
        expected = GOLDEN_DIR / variant / fresh.name
        assert fresh.read_bytes() == expected.read_bytes(), \
            f"{variant}/{fresh.name} differs from the committed snapshot"
    # The golden dataset declares no types, so each eval classifies all ten
    # questions and the files pin the classification prompt too.
    assert sent.count("Classify this multiple-choice video question") == 10


def test_golden_dir_holds_exactly_the_variants() -> None:
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(VARIANTS)
    for variant in VARIANTS:
        assert sorted(p.name for p in (GOLDEN_DIR / variant).iterdir()) == \
            SNAPSHOT_FILES, variant
