"""Question taxonomy, intent-driven visual prompts, and captioning.

Questions are classified as Causal, Temporal, or Descriptive. Per type, one
synthesized visual prompt steers the caption model toward the details that
type of question needs; each (shot, type) group of frame captions is then
fused into one summary. The caller groups them, so this needs no tree.
"""

from __future__ import annotations

import logging
from concurrent.futures import Executor, Future
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from queue import SimpleQueue
from typing import Callable, Sequence

from .backends import Backend, caption_request, chat_request
from .errors import (
    BackendError,
    ConfigError,
    Doc,
    NotFoundError,
    read_text,
)

logger = logging.getLogger(__name__)

QTYPE_CAUSAL = "Causal"
QTYPE_TEMPORAL = "Temporal"
QTYPE_DESCRIPTIVE = "Descriptive"
QTYPES = (QTYPE_CAUSAL, QTYPE_TEMPORAL, QTYPE_DESCRIPTIVE)

SENTINEL_CAPTION = "[caption unavailable]"
GENERIC_TEMPLATE_ID = "generic"


def check_question(text: str, options: Sequence[str], doc: Doc) -> None:
    """Refuse, at the field of `doc` it breaks, a question with blank text
    or other than 2-5 options."""
    if not text.strip():
        doc.fail("must not be blank", "text")
    if not 2 <= len(options) <= 5:
        doc.fail(f"needs 2-5 options, got {len(options)}", "options")


@dataclass(frozen=True)
class QuestionBundle:
    question_id: str
    text: str
    options: tuple[str, ...]
    qtype: str


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

def caption_frames(frames: list[int], prompts: list[VisualPrompt],
                   vlm: Backend, frame_ref: Callable[[int], str],
                   pool: Executor,
                   landed: Callable[[FrameCaption], None] | None = None
                   ) -> list[FrameCaption]:
    """Caption each frame under each prompt, queueing every call on `pool`
    at once; captions come prompt by prompt, each prompt's in temporal
    order. Through a build's `View`, a frame and prompt text the build
    already sent (the generic ablation repeats them) go out once.

    A frame whose call fails, after the backend's own retries, gets the
    sentinel caption instead of aborting the batch; if every frame fails
    under one prompt, the whole call raises. So that work on a caption can
    start before the last one lands, `landed` is called on this thread with
    each caption as it lands, but only once every prompt has one caption
    that is not the sentinel: a call that raises hands on no caption. A
    task's `Future` is let go as its caption lands.
    """
    frames = sorted(frames)

    def caption_one(prompt: VisualPrompt, frame_index: int) -> FrameCaption:
        try:
            text = vlm.call(caption_request(frame_ref(frame_index), prompt.text))
        except BackendError as exc:
            logger.warning("frame %d caption failed: %s", frame_index, exc)
            text = SENTINEL_CAPTION
        return FrameCaption(frame_index, prompt.qtype, text)

    # Each finished task with its position; nothing else holds its future.
    finished: SimpleQueue[tuple[int, Future]] = SimpleQueue()
    tasks = [(prompt, frame) for prompt in prompts for frame in frames]
    for position, task in enumerate(tasks):
        pool.submit(caption_one, *task).add_done_callback(
            lambda future, i=position: finished.put((i, future)))
    captions: list[FrameCaption] = [None] * len(tasks)
    unproven = set(range(len(prompts)))  # prompts with no real caption yet
    held: list[FrameCaption] = []
    for _ in captions:
        position, future = finished.get()
        caption = captions[position] = future.result()
        if caption.text != SENTINEL_CAPTION:
            unproven.discard(position // len(frames))
        if landed is not None:
            held.append(caption)
            if not unproven:
                for waiting in held:
                    landed(waiting)
                held.clear()
    for start in range(0, len(captions), len(frames)):
        if all(c.text == SENTINEL_CAPTION
               for c in captions[start:start + len(frames)]):
            raise BackendError(f"caption backend failed for all {len(frames)} "
                               f"frames under the {captions[start].qtype} prompt")
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


def summarize_segments(shot_id: int, qtype: str, captions: list[FrameCaption],
                       llm: Backend) -> SegmentSummary:
    """Fuse one (shot, type) group of frame captions, in frame order, into
    the shot's summary of that type; a single caption passes through
    without a model call."""
    texts = [c.text for c in sorted(captions, key=lambda c: c.frame_index)]
    if len(texts) == 1:
        return SegmentSummary(shot_id, qtype, texts[0])
    try:
        text = llm.call(chat_request(fusion_prompt(qtype, texts)))
    except BackendError as exc:
        raise BackendError(f"summarizing shot {shot_id} {qtype} failed: {exc}") from exc
    return SegmentSummary(shot_id, qtype, text)
