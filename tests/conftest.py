"""Shared fixtures: synthetic videos with planted shot boundaries, scripted
mock backends, a backend wrapper that records every call, a call pool, the
10-question golden suite used by the CLI and acceptance tests, a long
knowledge store, and the reference helpers several test files compare
against."""

from __future__ import annotations

import contextlib
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from videoqa.backends import Backend, BackendRequest, MockScript
from videoqa.captioning import FrameCaption, SegmentSummary
from videoqa.errors import BackendError
from videoqa.ingest import Shot, write_embeddings
from videoqa.knowledge import AgentProfile, KnowledgeStore
from videoqa.tree import RelevanceScore, TreeParams, attach_scores, tree_from_shots


# ---------------------------------------------------------------------------
# Call recording
# ---------------------------------------------------------------------------

@dataclass
class RecordedCall:
    capability: str
    rendered: str
    response: Any
    error: str | None = None


class RecordingBackend(Backend):
    """Forwards every call to `inner` and records it in `calls`, failed calls
    included. Reports the inner backend's capabilities, identity and
    in-flight limit, and sets no cap of its own."""

    def __init__(self, inner: Backend) -> None:
        super().__init__(inner.max_inflight)
        self._inflight = contextlib.nullcontext()
        self.inner = inner
        self.capabilities = inner.capabilities
        self.identity = inner.identity
        self.calls: list[RecordedCall] = []
        self._lock = threading.Lock()

    def _call(self, request: BackendRequest, rendered: str) -> Any:
        try:
            response = self.inner.call(request)
        except BackendError as exc:
            self._record(RecordedCall(request.capability, rendered, None,
                                      str(exc)))
            raise
        self._record(RecordedCall(request.capability, rendered, response))
        return response

    def _record(self, call: RecordedCall) -> None:
        with self._lock:
            self.calls.append(call)


@pytest.fixture
def pool():
    """The call pool that score_shots, caption_frames and
    summarize_segments fan their calls out on, and that execute_workflow
    runs evidence stages on."""
    with ThreadPoolExecutor(max_workers=8) as executor:
        yield executor


# ---------------------------------------------------------------------------
# Reference helpers
# ---------------------------------------------------------------------------

def kmeans_cost(pts: np.ndarray, assign: np.ndarray) -> float:
    """Total within-cluster squared distance to cluster means."""
    pts = np.asarray(pts, dtype=np.float64)
    cost = 0.0
    for c in np.unique(assign):
        members = pts[assign == c]
        centroid = members.mean(axis=0)
        cost += float(((members - centroid) ** 2).sum())
    return cost


def profile_doc(profile: AgentProfile) -> dict:
    """The profile file document that loads back to `profile`."""
    return {
        "qtype": profile.qtype,
        "strategy": {"name": profile.strategy.name,
                     "instructions": profile.strategy.instructions},
        "tools": list(profile.tools),
        "weights": dict(profile.weights),
        "requires_visual_agent": profile.requires_visual_agent,
    }


def long_store(num_shots: int, frames_per_shot: int = 2,
               qtype: str = "Descriptive") -> KnowledgeStore:
    """A store over `num_shots` equal shots whose every frame has a `qtype`
    caption and whose every shot has a `qtype` summary and a first-pass
    caption; every other type reads the degraded first-pass rows."""
    shots = [Shot(i, i * frames_per_shot, (i + 1) * frames_per_shot - 1,
                  i * frames_per_shot) for i in range(num_shots)]
    tree = tree_from_shots("long", shots, TreeParams())
    attach_scores(tree, [RelevanceScore(1.0 + i % 5) for i in range(num_shots)])
    store = KnowledgeStore(tree=tree)
    store.add_captions([FrameCaption(f, qtype, f"{qtype.lower()} caption {f}")
                        for f in range(num_shots * frames_per_shot)])
    store.add_summaries([SegmentSummary(i, qtype, f"{qtype.lower()} summary {i}")
                         for i in range(num_shots)])
    store.first_pass = {i: f"generic shot {i}" for i in range(num_shots)}
    return store


# ---------------------------------------------------------------------------
# Synthetic embeddings and manifests
# ---------------------------------------------------------------------------

def shot_embeddings(shot_lengths: list[int], dim: int = 8, noise: float = 0.005,
                    seed: int = 0) -> np.ndarray:
    """Frames hug one basis direction per shot, so consecutive shots are
    near-orthogonal and every planted boundary is sharp."""
    rng = np.random.default_rng(seed)
    rows = []
    for i, length in enumerate(shot_lengths):
        base = np.zeros(dim)
        base[i % dim] = 1.0
        for _ in range(length):
            rows.append(base + rng.normal(0.0, noise, dim))
    return np.asarray(rows, dtype=np.float32)


def write_video(directory: Path, video_id: str, shot_lengths: list[int],
                dim: int = 8, noise: float = 0.005, seed: int = 0,
                fps: float = 1.0) -> Path:
    """Write a frame manifest + embedding file; returns the manifest path."""
    directory.mkdir(parents=True, exist_ok=True)
    matrix = shot_embeddings(shot_lengths, dim=dim, noise=noise, seed=seed)
    emb_path = directory / f"{video_id}.emb"
    write_embeddings(emb_path, matrix)
    manifest = {
        "video_id": video_id,
        "fps": fps,
        "frames": [{"index": i} for i in range(matrix.shape[0])],
        "embeddings_path": emb_path.name,
    }
    manifest_path = directory / f"{video_id}.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return manifest_path


# ---------------------------------------------------------------------------
# Golden world: two videos, ten questions, fully scripted
# ---------------------------------------------------------------------------

GENERIC_PHRASE = "one or two sentences"

PROMPT_TAGS = {"Causal": "causal-view", "Temporal": "temporal-view",
               "Descriptive": "descriptive-view"}

TEMPLATE_MARKERS = {
    "Causal": "Describe what triggers the main action",
    "Temporal": "Describe the state of the scene in this frame",
    "Descriptive": "Describe the objects, people, and setting",
}


@dataclass(frozen=True)
class GoldenQuestion:
    question_id: str
    video_id: str
    text: str
    options: tuple[str, ...]
    gold_index: int
    qtype: str
    text_support: tuple[float, ...]
    visual_support: tuple[float, ...]


@dataclass(frozen=True)
class GoldenVideo:
    video_id: str
    shot_lengths: tuple[int, ...]
    shot_captions: tuple[str, ...]
    shot_scores: tuple[int, ...]
    seed: int


GOLDEN_VIDEOS = (
    GoldenVideo(
        video_id="golden_a",
        shot_lengths=(6, 6, 6, 6),
        shot_captions=(
            "a man sits on a park bench reading",
            "people walking along a path",
            "children playing near a fountain",
            "the man looks up toward the fountain",
        ),
        shot_scores=(2, 1, 5, 2),
        seed=11,
    ),
    GoldenVideo(
        video_id="golden_b",
        shot_lengths=(6, 6, 6),
        shot_captions=(
            "a chef chops onions on a counter",
            "the chef wipes tears with a towel",
            "a finished bowl of soup on the table",
        ),
        shot_scores=(4, 4, 2),
        seed=23,
    ),
)


def _q(qid, vid, text, options, gold, qtype) -> GoldenQuestion:
    n = len(options)
    text_support = tuple(0.9 if i == gold else 0.05 for i in range(n))
    visual_support = tuple(0.8 if i == gold else 0.1 for i in range(n))
    return GoldenQuestion(qid, vid, text, tuple(options), gold, qtype,
                          text_support, visual_support)


GOLDEN_QUESTIONS = (
    _q("a_q1", "golden_a", "Why is the man on the bench looking up?",
       ["a bird flying overhead", "overlooking the children",
        "rain starting to fall"], 1, "Causal"),
    _q("a_q2", "golden_a", "What is the location?",
       ["a park", "a kitchen"], 0, "Descriptive"),
    _q("a_q3", "golden_a", "What happens after the children start playing?",
       ["the man looks up", "the man leaves"], 0, "Temporal"),
    _q("a_q4", "golden_a", "How does the man react to the commotion?",
       ["he looks up", "he walks away"], 0, "Causal"),
    _q("a_q5", "golden_a", "What are the children playing near?",
       ["a fountain", "a parked car"], 0, "Descriptive"),
    _q("b_q1", "golden_b", "Why is the chef wiping tears?",
       ["the onions sting", "they heard sad news"], 0, "Causal"),
    _q("b_q2", "golden_b", "What happens before the soup is finished?",
       ["chopping onions", "serving dessert"], 0, "Temporal"),
    _q("b_q3", "golden_b", "Where does the scene take place?",
       ["a kitchen", "a garden"], 0, "Descriptive"),
    _q("b_q4", "golden_b", "What happens after the chopping?",
       ["wiping tears", "washing dishes"], 0, "Temporal"),
    _q("b_q5", "golden_b", "How does the chef deal with the tears?",
       ["uses a towel", "leaves the room"], 0, "Causal"),
)

_FOUR_AGENTS = ("TextAgent, VisualAnalysisAgent, EvidenceIntegrationAgent, "
                "AnswerGenerationAgent")


def _final_payload(support, confidence, rationale, direction=None) -> str:
    doc = {"option_support": list(support), "confidence": confidence,
           "rationale": rationale}
    if direction is not None:
        doc["direction_check"] = direction
    return "FINAL: " + json.dumps(doc)


def _plan_json(q: GoldenQuestion, agents: list[str]) -> str:
    stages = []
    produced = []
    if "TextAgent" in agents:
        task = ("Search backward for action triggers and forward for action "
                "consequences." if q.qtype == "Causal"
                else "Gather the relevant captions and summaries.")
        stages.append({"agent": "TextAgent", "task": task,
                       "inputs": ["question", "options", "tree"],
                       "output": "text_evidence"})
        produced.append("text_evidence")
    if "VisualAnalysisAgent" in agents:
        stages.append({"agent": "VisualAnalysisAgent",
                       "task": "Inspect the retrieved frames.",
                       "inputs": ["question", "options", "tree"],
                       "output": "visual_evidence"})
        produced.append("visual_evidence")
    if "EvidenceIntegrationAgent" in agents:
        stages.append({"agent": "EvidenceIntegrationAgent",
                       "task": "Fuse the evidence.",
                       "inputs": produced, "output": "option_scores"})
        produced = ["option_scores"]
    stages.append({"agent": "AnswerGenerationAgent",
                   "task": "Select and explain the answer.",
                   "inputs": produced, "output": "answer"})
    return json.dumps(stages)


def golden_rules() -> list[dict]:
    """Ordered mock rules; earlier rules win, so context-specific matches
    (summary fusion, react continuations, stage markers) come before
    generic ones."""
    rules: list[dict] = []

    # Summary fusion first: its payload embeds caption texts that later
    # react-continuation rules also key on.
    for qtype in PROMPT_TAGS:
        rules.append({
            "match": f"single {qtype.lower()}-focused summary",
            "response": f"fused {qtype.lower()} summary of the segment",
        })

    # React continuation: a_q1 runs a real tool step before finalizing. The
    # first two matches key on the question-aware caption text, the third on
    # the generic caption text (ablation runs without synthesized prompts).
    a_q1_text_final = ("THOUGHT: the caption ties the gaze to the children\n"
                       + _final_payload((0.05, 0.9, 0.05), 1.0,
                                        "caption links gaze to children",
                                        {"cause_supported": True,
                                         "effect_supported": True}))
    rules.append({"match": "drawing attention upward",
                  "response": a_q1_text_final})
    rules.append({"match": "text=children playing near a fountain",
                  "response": a_q1_text_final})
    rules.append({
        "match": "gazes toward the fountain where children play",
        "response": "THOUGHT: gaze target confirmed\n"
                    + _final_payload((0.1, 0.8, 0.1), 0.9,
                                     "gaze direction matches the fountain",
                                     {"cause_supported": True,
                                      "effect_supported": True}),
    })
    rules.append({
        "match": "[TextAgent] working on question a_q1",
        "response": "THOUGHT: pull the question-aware captions\n"
                    'ACTION: moment_captions {"frame_range": [0, 23]}',
    })
    rules.append({
        "match": "[VisualAnalysisAgent] working on question a_q1",
        "response": "THOUGHT: verify the gaze target\n"
                    'ACTION: inspect_frame {"frame_index": 14, '
                    '"prompt": "check gaze direction"}',
    })

    # Remaining questions finalize on the first step.
    for q in GOLDEN_QUESTIONS:
        direction = ({"cause_supported": True, "effect_supported": True}
                     if q.qtype == "Causal" else None)
        if q.question_id != "a_q1":
            rules.append({
                "match": f"[TextAgent] working on question {q.question_id}",
                "response": "THOUGHT: the summaries settle it\n"
                            + _final_payload(q.text_support, 1.0,
                                             f"text evidence for {q.question_id}",
                                             direction),
            })
            rules.append({
                "match": f"[VisualAnalysisAgent] working on question {q.question_id}",
                "response": "THOUGHT: frames agree\n"
                            + _final_payload(q.visual_support, 0.9,
                                             f"visual evidence for {q.question_id}",
                                             direction),
            })
        rules.append({
            "match": f"drafting explanation for question {q.question_id}",
            "response": f"Answer: option {q.gold_index}. The integrated "
                        "evidence supports it.",
        })
        agents = (["TextAgent", "AnswerGenerationAgent"]
                  if q.qtype == "Descriptive"
                  else ["TextAgent", "VisualAnalysisAgent",
                        "EvidenceIntegrationAgent", "AnswerGenerationAgent"])
        reply = (f"This is a {q.qtype} question. "
                 + ("A static lookup: TextAgent and AnswerGenerationAgent suffice."
                    if q.qtype == "Descriptive"
                    else f"Use {_FOUR_AGENTS}."))
        rules.append({
            "match": f"[ProblemAnalysisAgent] analyzing question {q.question_id}",
            "response": reply,
        })
        rules.append({
            "match": f"[TaskPlanningAgent] planning question {q.question_id}",
            "response": _plan_json(q, agents),
        })

    # Frame inspection used by a_q1's visual step.
    rules.append({"match": "check gaze direction",
                  "response": "the man gazes toward the fountain where "
                              "children play"})

    # Captions: generic first-pass per frame, then per question type.
    for video in GOLDEN_VIDEOS:
        start = 0
        for shot_idx, length in enumerate(video.shot_lengths):
            caption = video.shot_captions[shot_idx]
            for frame in range(start, start + length):
                ref = f"{video.video_id}:frame:{frame}\""
                rules.append({
                    "match": f"{ref},.*{GENERIC_PHRASE}", "regex": True,
                    "response": caption,
                })
                for qtype, tag in PROMPT_TAGS.items():
                    rules.append({
                        "match": f"{ref},.*{tag}", "regex": True,
                        "response": f"{caption}, drawing attention upward"
                        if shot_idx == 2 and video.video_id == "golden_a"
                        and qtype == "Causal"
                        else f"{caption} ({qtype.lower()} view)",
                    })
            start += length

    # Prompt synthesis per type (matched on the built-in template text).
    for qtype, marker in TEMPLATE_MARKERS.items():
        rules.append({
            "match": marker,
            "response": f"[{PROMPT_TAGS[qtype]}] Attend to the details that "
                        f"{qtype.lower()} questions need.",
        })

    # Relevance scoring, matched on the first-pass caption text.
    for video in GOLDEN_VIDEOS:
        for caption, score in zip(video.shot_captions, video.shot_scores):
            rules.append({"match": f"caption: {caption}",
                          "response": str(score)})

    # Classification, matched on the bare question line (must stay after the
    # marker-based rules above, which also embed the question text).
    for q in GOLDEN_QUESTIONS:
        rules.append({"match": f"Question: {q.text}", "response": q.qtype})

    return rules


@dataclass
class GoldenWorld:
    root: Path
    dataset_path: Path
    script_path: Path
    video_manifests: dict[str, Path] = field(default_factory=dict)

    def script(self) -> MockScript:
        return MockScript.from_file(self.script_path)

    def backend(self, max_inflight: int = 8) -> RecordingBackend:
        return RecordingBackend(Backend.from_mock(self.script(), max_inflight))


def build_golden_world(root: Path) -> GoldenWorld:
    root.mkdir(parents=True, exist_ok=True)
    manifests = {}
    for video in GOLDEN_VIDEOS:
        manifests[video.video_id] = write_video(
            root, video.video_id, list(video.shot_lengths), seed=video.seed)

    entries = []
    for video in GOLDEN_VIDEOS:
        questions = []
        for q in GOLDEN_QUESTIONS:
            if q.video_id != video.video_id:
                continue
            questions.append({
                "question_id": q.question_id,
                "text": q.text,
                "options": list(q.options),
                "gold_index": q.gold_index,
            })
        entries.append({
            "video_id": video.video_id,
            "frame_manifest_path": manifests[video.video_id].name,
            "questions": questions,
        })
    dataset_path = root / "dataset.json"
    dataset_path.write_text(json.dumps({"entries": entries}), encoding="utf-8")

    script_path = root / "mock_script.json"
    script_path.write_text(json.dumps({"rules": golden_rules()}),
                           encoding="utf-8")
    return GoldenWorld(root=root, dataset_path=dataset_path,
                       script_path=script_path, video_manifests=manifests)


@pytest.fixture
def golden_world(tmp_path: Path) -> GoldenWorld:
    return build_golden_world(tmp_path / "golden")
