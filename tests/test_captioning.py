from __future__ import annotations

import logging
import threading

import pytest

from videoqa.backends import MockBackend, MockScript
from videoqa.captioning import (
    SENTINEL_CAPTION,
    FrameCaption,
    QuestionBundle,
    SegmentSummary,
    caption_frames,
    classify_question,
    generic_prompt,
    load_template,
    summarize_segments,
    synthesize_prompt,
)
from videoqa.errors import BackendError, ValidationError
from videoqa.ingest import Shot

from conftest import RecordingBackend


def _backend(*rules, default=None) -> MockBackend:
    script = MockScript(default_response=default)
    for match, response in rules:
        script.add(match, response)
    return MockBackend(script)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classify_causal_why(caplog) -> None:
    llm = _backend(("looking up", "Causal"))
    with caplog.at_level(logging.WARNING, logger="videoqa.captioning"):
        qtype = classify_question("Why is the man on the bench looking up?",
                                  ["a bird", "the children"], llm)
    assert qtype == "Causal"
    assert "defaulting to Descriptive" not in caplog.text


def test_classify_descriptive_location() -> None:
    llm = _backend(("location", "Descriptive"))
    qtype = classify_question("What is the location?", ["park", "kitchen"], llm)
    assert qtype == "Descriptive"


def test_classify_accepts_any_casing() -> None:
    llm = _backend(default="TEMPORAL")
    qtype = classify_question("What happens after lunch?", ["a", "b"], llm)
    assert qtype == "Temporal"


def test_classify_unparseable_defaults_to_descriptive_after_retry(caplog) -> None:
    llm = RecordingBackend(MockBackend(MockScript(
        default_response="hmm, not sure")))
    with caplog.at_level(logging.WARNING, logger="videoqa.captioning"):
        qtype = classify_question("Anything?", ["a", "b"], llm)
    assert qtype == "Descriptive"
    assert "defaulting to Descriptive" in caplog.text
    assert len(llm.calls) == 2


def test_classify_empty_question_rejected() -> None:
    with pytest.raises(ValidationError):
        classify_question("  ", ["a"], _backend(default="Causal"))


def test_classify_picks_first_label_when_reply_names_several() -> None:
    llm = _backend(default="Temporal, though arguably Causal")
    qtype = classify_question("When does it happen?", ["a", "b"], llm)
    assert qtype == "Temporal"


def test_question_bundle_validation() -> None:
    with pytest.raises(ValidationError):
        QuestionBundle("q", "text", ("only one",), "Causal")
    with pytest.raises(ValidationError):
        QuestionBundle("q", "text", tuple("abcdef"), "Causal")
    with pytest.raises(ValidationError):
        QuestionBundle("q", "text", ("a", "b"), "Rhetorical")


# ---------------------------------------------------------------------------
# Prompt synthesis
# ---------------------------------------------------------------------------

def test_synthesize_prompt_returns_model_output_verbatim() -> None:
    llm = _backend(("triggers", "Focus on triggers and contextual factors."))
    prompt = synthesize_prompt("Causal", ["Why is the man looking up?"], llm)
    assert prompt.text == "Focus on triggers and contextual factors."
    assert prompt.qtype == "Causal"


def test_synthesize_prompt_empty_question_list_rejected() -> None:
    with pytest.raises(ValidationError):
        synthesize_prompt("Causal", [], _backend(default="x"))


def test_synthesize_prompt_purity_across_question_sets() -> None:
    llm = _backend(default="tracked output")
    one = synthesize_prompt("Descriptive", ["What is shown?"], llm)
    two = synthesize_prompt("Descriptive", ["What is shown?"], llm)
    assert one == two, "same type + questions + template => same prompt"


def test_template_override_directory(tmp_path) -> None:
    (tmp_path / "causal.txt").write_text("custom causal guidance\n")
    assert load_template("causal", str(tmp_path)) == "custom causal guidance"
    llm = RecordingBackend(_backend(default="synthesized"))
    synthesize_prompt("Causal", ["Why?"], llm, str(tmp_path))
    assert "Template: custom causal guidance" in llm.calls[0].rendered


def test_generic_prompt_uses_generic_template() -> None:
    prompt = generic_prompt()
    assert prompt.text == load_template("generic")


# ---------------------------------------------------------------------------
# Frame captioning
# ---------------------------------------------------------------------------

def _refs(frame: int) -> str:
    return f"vid:frame:{frame}"


def test_caption_frames_temporal_order(pool) -> None:
    script = MockScript()
    script.add("vid:frame:3", "third")
    script.add("vid:frame:1", "first")
    script.add("vid:frame:2", "second")
    prompt = generic_prompt()
    captions = caption_frames([3, 1, 2], prompt, MockBackend(script), _refs,
                              pool)
    assert [(c.frame_index, c.text) for c in captions] == \
        [(1, "first"), (2, "second"), (3, "third")]
    assert all(c.qtype == prompt.qtype for c in captions)


def test_caption_frames_empty_list(pool) -> None:
    assert caption_frames([], generic_prompt(),
                          _backend(default="x"), _refs, pool) == []


def test_caption_frames_one_failure_becomes_sentinel(pool) -> None:
    script = MockScript(default_response="fine")
    script.add("vid:frame:2", error="transport")
    backend = RecordingBackend(MockBackend(script))
    captions = caption_frames([1, 2, 3], generic_prompt(), backend, _refs, pool)
    assert [c.text for c in captions] == ["fine", SENTINEL_CAPTION, "fine"]
    # failed frame was retried once: 2 calls for it, 1 for each other frame
    assert len(backend.calls) == 4


def test_caption_frames_total_outage_raises(pool) -> None:
    script = MockScript()
    script.add("vid:frame", error="transport")
    with pytest.raises(BackendError, match="all 3 frames"):
        caption_frames([1, 2, 3], generic_prompt(), MockBackend(script), _refs,
                       pool)


def test_caption_frame_bijection(pool) -> None:
    script = MockScript(default_response="ok")
    script.add("vid:frame:5", error="timeout")
    frames = [0, 2, 5, 7, 9]
    captions = caption_frames(frames, generic_prompt(),
                              MockBackend(script), _refs, pool)
    assert [c.frame_index for c in captions] == frames, \
        "one caption per requested frame, sentinels included"


# ---------------------------------------------------------------------------
# Segment summaries
# ---------------------------------------------------------------------------

def _shot_list() -> list[Shot]:
    return [Shot(0, 0, 3, 1), Shot(1, 4, 7, 5)]


def test_summary_single_caption_passthrough_without_backend_call(pool) -> None:
    backend = RecordingBackend(MockBackend(MockScript(
        default_response="should not be called")))
    captions = [FrameCaption(1, "Causal", "the only caption")]
    summaries = summarize_segments(captions, _shot_list(), backend, pool)
    assert len(summaries) == 1
    assert summaries[0].text == "the only caption"
    assert summaries[0].shot_id == 0
    assert len(backend.calls) == 0


def test_summary_fuses_multiple_captions(pool) -> None:
    script = MockScript()
    script.add("Fuse these frame captions", "joined summary")
    backend = RecordingBackend(MockBackend(script))
    captions = [FrameCaption(0, "Causal", "one"),
                FrameCaption(2, "Causal", "two"),
                FrameCaption(3, "Causal", "three")]
    summaries = summarize_segments(captions, _shot_list(), backend, pool)
    assert summaries == [SegmentSummary(0, "Causal", "joined summary")]
    assert len(backend.calls) == 1


def test_summary_groups_by_shot(pool) -> None:
    llm = _backend(default="fused")
    captions = [FrameCaption(0, "Temporal", "a"),
                FrameCaption(1, "Temporal", "b"),
                FrameCaption(5, "Temporal", "c")]
    summaries = summarize_segments(captions, _shot_list(), llm, pool)
    assert [(s.shot_id, s.text) for s in summaries] == \
        [(0, "fused"), (1, "c")]


def test_summary_groups_by_type_within_shot(pool) -> None:
    llm = _backend(default="fused")
    captions = [FrameCaption(0, "Causal", "a"),
                FrameCaption(1, "Causal", "b"),
                FrameCaption(2, "Descriptive", "c")]
    summaries = summarize_segments(captions, _shot_list(), llm, pool)
    assert {(s.shot_id, s.qtype) for s in summaries} == \
        {(0, "Causal"), (0, "Descriptive")}


def test_summary_caption_outside_shots_rejected(pool) -> None:
    captions = [FrameCaption(99, "Causal", "stray")]
    with pytest.raises(ValidationError, match="outside every shot"):
        summarize_segments(captions, _shot_list(), _backend(default="x"),
                           pool)


def test_summary_backend_failure_names_shot(pool) -> None:
    script = MockScript()
    script.add("Fuse these", error="transport")
    captions = [FrameCaption(0, "Causal", "a"), FrameCaption(1, "Causal", "b")]
    with pytest.raises(BackendError, match="shot 0"):
        summarize_segments(captions, _shot_list(), MockBackend(script), pool)


def test_summary_fusion_calls_overlap(pool) -> None:
    """Both fusion calls must be in flight at once to pass the barrier."""
    barrier = threading.Barrier(2, timeout=5)

    def fuse(rendered: str) -> str:
        barrier.wait()
        return "fused"

    captions = [FrameCaption(0, "Causal", "a"), FrameCaption(1, "Causal", "b"),
                FrameCaption(4, "Causal", "c"), FrameCaption(5, "Causal", "d")]
    summaries = summarize_segments(captions, _shot_list(),
                                   _backend(default=fuse), pool)
    assert summaries == [SegmentSummary(0, "Causal", "fused"),
                         SegmentSummary(1, "Causal", "fused")]


def test_summary_concurrent_failure_names_first_failing_shot(pool) -> None:
    script = MockScript(default_response="fused")
    script.add("- c", error="transport")
    script.add("- e", error="transport")
    captions = [FrameCaption(f, "Causal", t) for f, t in
                [(0, "a"), (1, "b"), (4, "c"), (5, "d")]]
    captions += [FrameCaption(9, "Causal", "e"), FrameCaption(10, "Causal", "f")]
    shots = _shot_list() + [Shot(2, 8, 11, 9)]
    with pytest.raises(BackendError, match="shot 1"):
        summarize_segments(captions, shots, MockBackend(script), pool)
