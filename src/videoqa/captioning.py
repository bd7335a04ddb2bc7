"""Question taxonomy, intent-driven visual prompts, and captioning.

Questions are classified as Causal, Temporal, or Descriptive. Per type, one
synthesized visual prompt steers the caption model toward the details that
type of question needs; frame captions are then fused into per-shot
summaries.
"""

from __future__ import annotations

import logging
from concurrent.futures import Executor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

from .backends import Backend, caption_request, chat_request
from .errors import (
    BackendError,
    ConfigError,
    NotFoundError,
    ValidationError,
    read_text,
)
from .ingest import Shot

logger = logging.getLogger(__name__)

QTYPE_CAUSAL = "Causal"
QTYPE_TEMPORAL = "Temporal"
QTYPE_DESCRIPTIVE = "Descriptive"
QTYPES = (QTYPE_CAUSAL, QTYPE_TEMPORAL, QTYPE_DESCRIPTIVE)

SENTINEL_CAPTION = "[caption unavailable]"
GENERIC_TEMPLATE_ID = "generic"


@dataclass(frozen=True)
class QuestionBundle:
    question_id: str
    text: str
    options: tuple[str, ...]
    qtype: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValidationError(f"question {self.question_id} has empty text")
        if not 2 <= len(self.options) <= 5:
            raise ValidationError(
                f"question {self.question_id} needs 2-5 options, "
                f"got {len(self.options)}")
        if self.qtype not in QTYPES:
            raise ValidationError(f"unknown question type {self.qtype!r}")


@dataclass(frozen=True)
class VisualPrompt:
    qtype: str
    text: str


@dataclass(frozen=True)
class FrameCaption:
    frame_index: int
    qtype: str
    text: str


@dataclass(frozen=True)
class SegmentSummary:
    shot_id: int
    qtype: str
    text: str


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def find_qtype_label(reply: str) -> str | None:
    lowered = reply.lower()
    positions = [(lowered.find(t.lower()), t) for t in QTYPES]
    found = [(pos, t) for pos, t in positions if pos >= 0]
    if not found:
        return None
    return min(found)[1]


def classification_prompt(question: str, options: tuple[str, ...] | list[str]) -> str:
    listed = "\n".join(f"- {o}" for o in options)
    return (
        "Classify this multiple-choice video question as exactly one of: "
        "Causal, Temporal, Descriptive.\n"
        f"Question: {question}\n"
        f"Options:\n{listed}\n"
        "Answer with the single type label only."
    )


def classify_question(question: str, options: tuple[str, ...] | list[str],
                      llm: Backend) -> str:
    """Assign one taxonomy type. Unparseable output is retried once, then
    defaults to Descriptive with a warning."""
    if not question.strip():
        raise ValidationError("cannot classify an empty question")
    prompt = classification_prompt(question, options)
    reply = llm.call(chat_request(prompt))
    qtype = find_qtype_label(reply)
    if qtype is None:
        reply = llm.call(chat_request(prompt))
        qtype = find_qtype_label(reply)
    if qtype is None:
        logger.warning("unparseable classification %r, defaulting to Descriptive",
                       reply[:80])
        return QTYPE_DESCRIPTIVE
    return qtype


# ---------------------------------------------------------------------------
# Prompt synthesis
# ---------------------------------------------------------------------------

def load_template(name: str, template_dir: str | None = None) -> str:
    """Template text for a type, from an override directory or the built-in
    assets. `name` is the lowercase type name (or "generic")."""
    if template_dir:
        try:
            return read_text(Path(template_dir) / f"{name}.txt", "template",
                             ConfigError).strip()
        except NotFoundError:
            pass
    ref = resources.files("videoqa.templates") / f"{name}.txt"
    return ref.read_text(encoding="utf-8").strip()


def synthesis_prompt(template: str, questions: list[str]) -> str:
    listed = "\n".join(f"- {q}" for q in questions)
    return (
        "You write visual captioning prompts. Using the guidance template "
        "below, write one prompt that directs a vision model to the details "
        "these questions need.\n"
        f"Template: {template}\n"
        f"Questions:\n{listed}\n"
        "Prompt:"
    )


def synthesize_prompt(qtype: str, questions: list[str], llm: Backend,
                      template_dir: str | None = None) -> VisualPrompt:
    """Build the per-type visual prompt from the type's question subset and
    its semantic template."""
    if qtype not in QTYPES:
        raise ValidationError(f"unknown question type {qtype!r}")
    if not questions:
        raise ValidationError(f"no questions of type {qtype} to synthesize from")
    template = load_template(qtype.lower(), template_dir)
    reply = llm.call(chat_request(synthesis_prompt(template, questions)))
    return VisualPrompt(qtype=qtype, text=reply)


def generic_prompt(template_dir: str | None = None) -> VisualPrompt:
    """Question-agnostic prompt used for first-pass captions and the
    generic-captions ablation."""
    text = load_template(GENERIC_TEMPLATE_ID, template_dir)
    return VisualPrompt(qtype=QTYPE_DESCRIPTIVE, text=text)


# ---------------------------------------------------------------------------
# Frame captioning
# ---------------------------------------------------------------------------

def caption_frames(frames: list[int], prompt: VisualPrompt, vlm: Backend,
                   frame_ref: Callable[[int], str], pool: Executor
                   ) -> list[FrameCaption]:
    """Caption each frame with the synthesized prompt, fanning the calls out
    on `pool`, and reassembling in temporal order.

    A frame that fails twice gets the sentinel caption instead of aborting
    the batch; if every frame fails, the whole call raises.
    """
    if not frames:
        return []

    def caption_one(frame_index: int) -> FrameCaption:
        request = caption_request(frame_ref(frame_index), prompt.text)
        try:
            text = vlm.call(request)
        except BackendError:
            try:
                text = vlm.call(request)
            except BackendError as exc:
                logger.warning("frame %d caption failed twice: %s", frame_index, exc)
                return FrameCaption(frame_index, prompt.qtype, SENTINEL_CAPTION)
        return FrameCaption(frame_index, prompt.qtype, text)

    captions = list(pool.map(caption_one, sorted(frames)))
    if all(c.text == SENTINEL_CAPTION for c in captions):
        raise BackendError(
            f"caption backend failed for all {len(captions)} frames")
    return captions


# ---------------------------------------------------------------------------
# Segment summaries
# ---------------------------------------------------------------------------

def fusion_prompt(qtype: str, texts: list[str]) -> str:
    listed = "\n".join(f"- {t}" for t in texts)
    return (
        f"Fuse these frame captions from one video segment into a single "
        f"{qtype.lower()}-focused summary. Remove repetition, keep every "
        f"distinct fact.\n{listed}\nSummary:"
    )


def summarize_segments(captions: list[FrameCaption], shots: list[Shot],
                       llm: Backend, pool: Executor) -> list[SegmentSummary]:
    """Fuse frame captions into one summary per (shot, type), fanning the
    fusion calls out on `pool`; summaries come in (shot, type) order.

    A shot with a single caption passes it through without a model call.
    """
    grouped: dict[tuple[int, str], list[FrameCaption]] = {}
    for cap in captions:
        owner = next((s for s in shots if s.contains(cap.frame_index)), None)
        if owner is None:
            raise ValidationError(
                f"caption frame {cap.frame_index} falls outside every shot")
        grouped.setdefault((owner.shot_id, cap.qtype), []).append(cap)

    def summarize_one(item: tuple[tuple[int, str], list[FrameCaption]]
                      ) -> SegmentSummary:
        (shot_id, qtype), caps = item
        caps.sort(key=lambda c: c.frame_index)
        if len(caps) == 1:
            return SegmentSummary(shot_id, qtype, caps[0].text)
        try:
            text = llm.call(chat_request(fusion_prompt(qtype, [c.text for c in caps])))
        except BackendError as exc:
            raise BackendError(f"summarizing shot {shot_id} failed: {exc}") from exc
        return SegmentSummary(shot_id, qtype, text)

    return list(pool.map(summarize_one, sorted(grouped.items())))
