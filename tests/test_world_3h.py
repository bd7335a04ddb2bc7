"""Pin of the 3-hour world, where paging and deep expansion run.

The golden world's ten questions never reach the long-video machinery: no
prompt they send carries a page footer, and its trees stop at depth 1.
perfbench's ask_3h world (one 3-hour video of 360 shots, twelve questions,
four per type, only the Causal and Temporal ones built) reaches both. This
test generates that world with perfbench's seeded generator, read-only,
builds it at zero latency under the default config, answers the twelve asks
as perfbench does, and compares with the committed files in
`tests/world_3h/`:

- `records.jsonl`: the twelve records, in ask order;
- `digests.json`: the sha256 of the build file `videoqa build` would write,
  and the requests sent, as per-capability counts for the build and for the
  asks plus the sha256 of the sorted distinct request lines (the full list
  is large; the counts show a repeat, the digest a reworded prompt).

The build, traced by tracemalloc, must also peak below 5 MB, where its
embedding matrix alone is 11.06 MB: it reads the matrix a block or a shot
of rows at a time and never holds it, and holds no parsed manifest once
the frames are loaded.

A record keeps only the head of each observation, so the paged footers show
only in the request digest. On a mismatch the fresh files are written under
`tmp_path` so the difference can be read. When a change means to alter any
of them, regenerate the files from those and say so in the change
description.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from videoqa import pipeline
from videoqa.backends import Backend, MockScript
from videoqa.captioning import QuestionBundle
from videoqa.config import EngineConfig
from videoqa.knowledge import build_json, load_profiles

from conftest import RecordingBackend

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if not PERFBENCH.is_dir():
    pytest.skip(f"no world generator: {PERFBENCH} is absent",
                allow_module_level=True)
sys.path.append(str(PERFBENCH))

from fake_model import FakeModel  # noqa: E402
from gen_inputs import prepare  # noqa: E402

PINNED_DIR = Path(__file__).parent / "world_3h"
SEED = 101


def _counts(backend: RecordingBackend) -> dict[str, int]:
    counts = dict.fromkeys(("caption", "chat", "embed"), 0)
    for call in backend.calls:
        counts[call.capability] += 1
    return counts


def test_3h_world_outputs_and_requests_are_pinned(tmp_path) -> None:
    world = prepare("ask_3h", SEED, tmp_path)
    fake = FakeModel(world, 0.0)
    config = EngineConfig()
    questions = world["questions"]

    build = RecordingBackend(Backend.from_mock(MockScript(default_response=fake)))
    built = [pipeline.RawQuestion(qid, q["text"], tuple(q["option_texts"]),
                                  q["gold"], q["qtype"])
             for qid, q in questions.items()
             if q["qtype"] in world["built_types"]]
    tracemalloc.start()
    try:
        result = pipeline.build_video(tmp_path / world["manifest"], built,
                                      config, build)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, f"the build peaked at {peak / 1e6:.2f} MB"
    build_file = build_json(result.store) + "\n"

    ask = RecordingBackend(Backend.from_mock(MockScript(default_response=fake)))
    profiles = load_profiles(config.profile_dir)
    records = "".join(
        pipeline.answer_question(
            QuestionBundle(question_id=qid, text=questions[qid]["text"],
                           options=tuple(questions[qid]["option_texts"]),
                           qtype=questions[qid]["qtype"]),
            result.store, profiles, config, ask).to_json() + "\n"
        for qid in world["asks"])

    distinct = "".join(sorted(set(
        build.request_lines().splitlines(keepends=True)
        + ask.request_lines().splitlines(keepends=True))))
    digests = json.dumps({
        "build_sha256": hashlib.sha256(build_file.encode()).hexdigest(),
        "requests": {
            "build": _counts(build),
            "ask": _counts(ask),
            "distinct_sha256": hashlib.sha256(distinct.encode()).hexdigest(),
        },
    }, indent=2, sort_keys=True) + "\n"

    fresh = {"records.jsonl": records, "digests.json": digests}
    differs = [name for name, text in fresh.items()
               if text != (PINNED_DIR / name).read_text(encoding="utf-8")]
    if differs:
        for name, text in fresh.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
    assert not differs, (f"{differs} differ from the committed pin; the fresh "
                         f"files are in {tmp_path}")
    assert len(records.splitlines()) == len(world["asks"]) == 12
