from __future__ import annotations

import gc
import logging
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from videoqa import captioning
from videoqa.backends import MockBackend, MockScript
from videoqa.captioning import (
    SENTINEL_CAPTION,
    FrameCaption,
    SegmentSummary,
    VisualPrompt,
    caption_frames,
    classify_question,
    generic_prompt,
    load_template,
    summarize_segments,
    synthesize_prompt,
)
from videoqa.errors import BackendError

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


def test_classify_unparseable_warning_shows_eighty_characters(caplog) -> None:
    llm = _backend(default="x" * 100)
    with caplog.at_level(logging.WARNING, logger="videoqa.captioning"):
        classify_question("Anything?", ["a", "b"], llm)
    assert caplog.messages == [
        f"unparseable classification {'x' * 80!r}, defaulting to Descriptive"]


def test_classify_picks_first_label_when_reply_names_several() -> None:
    llm = _backend(default="Temporal, though arguably Causal")
    qtype = classify_question("When does it happen?", ["a", "b"], llm)
    assert qtype == "Temporal"


# ---------------------------------------------------------------------------
# Prompt synthesis
# ---------------------------------------------------------------------------

def test_synthesize_prompt_returns_model_output_verbatim() -> None:
    llm = _backend(("triggers", "Focus on triggers and contextual factors."))
    prompt = synthesize_prompt("Causal", ["Why is the man looking up?"], llm)
    assert prompt.text == "Focus on triggers and contextual factors."
    assert prompt.qtype == "Causal"


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
    captions = caption_frames([3, 1, 2], [prompt], MockBackend(script), _refs,
                              pool)
    assert [(c.frame_index, c.text) for c in captions] == \
        [(1, "first"), (2, "second"), (3, "third")]
    assert all(c.qtype == prompt.qtype for c in captions)


def test_caption_frames_one_failure_becomes_sentinel(pool) -> None:
    script = MockScript(default_response="fine")
    script.add("vid:frame:2", error="transport")
    backend = RecordingBackend(MockBackend(script))
    captions = caption_frames([1, 2, 3], [generic_prompt()], backend, _refs, pool)
    assert [c.text for c in captions] == ["fine", SENTINEL_CAPTION, "fine"]
    # the backend retries transient faults itself, so one call per frame
    assert len(backend.calls) == 3


def test_caption_frames_total_outage_raises(pool) -> None:
    script = MockScript()
    script.add("vid:frame", error="transport")
    with pytest.raises(BackendError, match="all 3 frames"):
        caption_frames([1, 2, 3], [generic_prompt()], MockBackend(script), _refs,
                       pool)


def test_caption_frames_outage_under_the_first_prompt_names_it(pool) -> None:
    """Every call under the first of two prompts fails; the second's all
    succeed."""
    script = MockScript(default_response="fine")
    script.add("causal-view", error="transport")
    prompts = [VisualPrompt("Causal", "[causal-view] look"),
               VisualPrompt("Temporal", "[temporal-view] look")]
    with pytest.raises(BackendError,
                       match="all 3 frames under the Causal prompt"):
        caption_frames([1, 2, 3], prompts, MockBackend(script), _refs, pool)


def test_caption_frame_bijection(pool) -> None:
    script = MockScript(default_response="ok")
    script.add("vid:frame:5", error="timeout")
    frames = [0, 2, 5, 7, 9]
    captions = caption_frames(frames, [generic_prompt()],
                              MockBackend(script), _refs, pool)
    assert [c.frame_index for c in captions] == frames, \
        "one caption per requested frame, sentinels included"


def test_a_landed_caption_lets_go_of_its_future(monkeypatch) -> None:
    """80 calls on 4 threads under two prompts, two failing: by the time
    `landed` is handed a caption, no caption handed on before it still has
    its task's Future reachable; nor does any once the batch returns."""
    # pytest's log capture keeps each record, and a failed call's warning
    # carries the exception, whose frames reach the pool's work item.
    monkeypatch.setattr(captioning.logger, "disabled", True)
    futures: dict[tuple[str, int], weakref.ref] = {}

    class Recording(ThreadPoolExecutor):
        def submit(self, fn, prompt, frame_index):
            future = super().submit(fn, prompt, frame_index)
            futures[prompt.qtype, frame_index] = weakref.ref(future)
            return future

    script = MockScript(default_response="fine")
    script.add("vid:frame:7", error="transport")
    prompts = [VisualPrompt("Causal", "look"), VisualPrompt("Temporal", "see")]
    handed: list[tuple[str, int]] = []
    reachable: list[tuple[str, int]] = []

    def landed(caption: FrameCaption) -> None:
        gc.collect()
        reachable.extend(key for key in handed if futures[key]() is not None)
        handed.append((caption.qtype, caption.frame_index))

    with Recording(max_workers=4) as pool:
        captions = caption_frames(list(range(40)), prompts,
                                  MockBackend(script), _refs, pool, landed)
    assert len(captions) == len(handed) == len(futures) == 80
    assert reachable == []
    gc.collect()
    assert [key for key, ref in futures.items() if ref() is not None] == []


# ---------------------------------------------------------------------------
# Segment summaries
# ---------------------------------------------------------------------------

def test_summary_single_caption_passthrough_without_backend_call() -> None:
    backend = RecordingBackend(MockBackend(MockScript(
        default_response="should not be called")))
    captions = [FrameCaption(1, "Causal", "the only caption")]
    summary = summarize_segments(0, "Causal", captions, backend)
    assert summary == SegmentSummary(0, "Causal", "the only caption")
    assert len(backend.calls) == 0


def test_summary_fuses_multiple_captions() -> None:
    script = MockScript()
    script.add("Fuse these frame captions", "joined summary")
    backend = RecordingBackend(MockBackend(script))
    captions = [FrameCaption(0, "Causal", "one"),
                FrameCaption(2, "Causal", "two"),
                FrameCaption(3, "Causal", "three")]
    summary = summarize_segments(0, "Causal", captions, backend)
    assert summary == SegmentSummary(0, "Causal", "joined summary")
    assert len(backend.calls) == 1


def test_summary_lists_captions_in_frame_order() -> None:
    """Captions handed over in the order they landed are fused in frame
    order, by one fusion call."""
    backend = RecordingBackend(_backend(default="fused"))
    captions = [FrameCaption(3, "Temporal", "third"),
                FrameCaption(0, "Temporal", "first"),
                FrameCaption(2, "Temporal", "second")]
    summarize_segments(1, "Temporal", captions, backend)
    [call] = backend.calls
    assert r"\n- first\n- second\n- third\nSummary:" in call.rendered


def test_summary_backend_failure_names_shot() -> None:
    script = MockScript()
    script.add("Fuse these", error="transport")
    captions = [FrameCaption(0, "Causal", "a"), FrameCaption(1, "Causal", "b")]
    with pytest.raises(BackendError, match="shot 0"):
        summarize_segments(0, "Causal", captions, MockBackend(script))
