"""End-to-end composition: build video knowledge, answer questions, run
dataset evaluations.

Build order: ingest -> shot detection -> first-pass captions -> relevance
scoring -> selective expansion -> frame retrieval -> question-aware
captions -> segment summaries. Question classification and prompt
synthesis need only the questions, so they run on a side task alongside
first-pass captioning, scoring and expansion, joined before frame
retrieval. Each question type's caption -> summary chain then runs
concurrently with the others, and every stage fans its calls out (frame
captions, relevance scores, classifications, fusion calls) onto one call
pool per build. The single backend object serves every call; its
`max_inflight` is the one bound on concurrent model calls and sizes that
pool and the per-video question pool. Results are reassembled in a fixed
order, so the tree, store and records do not depend on it. Ablation modes
swap out individual steps without touching the rest of the pipeline.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .backends import Backend
from .captioning import (
    QTYPES,
    QuestionBundle,
    VisualPrompt,
    caption_frames,
    classify_question,
    generic_prompt,
    summarize_segments,
    synthesize_prompt,
)
from .config import EngineConfig
from .errors import InputError, ValidationError
from .ingest import Shot, detect_shots, load_frames, nearest_to_centroid
from .knowledge import AgentProfile, KnowledgeStore, load_profiles
from .orchestrator import (
    AGENT_REGISTRY,
    PROBLEM_ANALYSIS,
    AnswerRecord,
    TraceStep,
    analyze_problem,
    execute_workflow,
    plan_tasks,
    template_workflow,
)
from .tree import (
    HybridTree,
    TreeParams,
    attach_scores,
    expand_tree,
    score_shots,
    tree_from_shots,
    vtsearch,
)

logger = logging.getLogger(__name__)

# How many videos `evaluate` processes at once with parallel_videos set.
# This bounds how many videos' frames, trees and stores are held in memory;
# model calls are bounded by the backend's in-flight limit alone.
VIDEO_WORKERS = 4


# ---------------------------------------------------------------------------
# Manifest loading
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RawQuestion:
    question_id: str
    text: str
    options: tuple[str, ...]
    gold_index: int | None = None
    declared_type: str | None = None


@dataclass(frozen=True)
class VideoEntry:
    video_id: str
    frame_manifest_path: str
    questions: tuple[RawQuestion, ...]


def _parse_question(doc: dict, where: str) -> RawQuestion:
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: question entry must be an object")
    options = doc.get("options", [])
    if not isinstance(options, list):
        raise ValidationError(f"{where}: options must be a list")
    options = tuple(str(o) for o in options)
    gold = doc.get("gold_index")
    if gold is not None:
        try:
            gold = int(gold)
        except (TypeError, ValueError):
            raise ValidationError(
                f"{where}: gold_index must be an integer, got {gold!r}") from None
        if not 0 <= gold < len(options):
            raise ValidationError(
                f"{where}: gold_index {gold} outside the option range")
    declared = doc.get("declared_type")
    if declared is not None and declared not in QTYPES:
        raise ValidationError(
            f"{where}: declared_type {declared!r} is not in {QTYPES}")
    return RawQuestion(
        question_id=str(doc.get("question_id", "")),
        text=str(doc.get("text", "")),
        options=options,
        gold_index=gold,
        declared_type=declared,
    )


def load_question_file(path: str | Path) -> list[RawQuestion]:
    p = Path(path)
    if not p.exists():
        raise InputError(f"question file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"question file {p} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict):
        doc = doc.get("questions", [])
    if not isinstance(doc, list):
        raise ValidationError(f"{p}: expected a list of questions")
    return [_parse_question(q, f"{p}#{i}") for i, q in enumerate(doc)]


def load_dataset_manifest(path: str | Path) -> list[VideoEntry]:
    p = Path(path)
    if not p.exists():
        raise InputError(f"dataset manifest not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"dataset manifest {p} is not valid JSON: {exc}") from exc
    entries_doc = doc.get("entries") if isinstance(doc, dict) else doc
    if not isinstance(entries_doc, list):
        raise ValidationError(f"{p}: expected an entries list")
    entries = []
    seen = set()
    for i, entry in enumerate(entries_doc):
        if not isinstance(entry, dict):
            raise ValidationError(f"{p}#{i}: dataset entry must be an object")
        video_id = str(entry.get("video_id", ""))
        if not video_id:
            raise ValidationError(f"{p}#{i}: missing video_id")
        if video_id in seen:
            raise ValidationError(f"{p}#{i}: duplicate video_id {video_id}")
        seen.add(video_id)
        manifest_path = entry.get("frame_manifest_path")
        if not manifest_path:
            raise ValidationError(f"{p}#{i}: missing frame_manifest_path")
        if not Path(manifest_path).is_absolute():
            manifest_path = str(p.parent / manifest_path)
        questions_doc = entry.get("questions", [])
        if not isinstance(questions_doc, list):
            raise ValidationError(f"{p}#{i}: questions must be a list")
        questions = tuple(_parse_question(q, f"{p}#{i}.q{j}")
                          for j, q in enumerate(questions_doc))
        entries.append(VideoEntry(video_id, manifest_path, questions))
    return entries


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def uniform_leaf_shots(num_frames: int, count: int,
                       embeddings: np.ndarray) -> list[Shot]:
    """Evenly spaced contiguous leaf shots for the uniform-sampling mode."""
    count = max(1, min(count, num_frames))
    bounds = np.linspace(0, num_frames, count + 1).astype(int)
    shots = []
    for shot_id in range(count):
        start, end = int(bounds[shot_id]), int(bounds[shot_id + 1]) - 1
        rep = start + nearest_to_centroid(embeddings[start:end + 1])
        shots.append(Shot(shot_id=shot_id, start_frame=start, end_frame=end,
                          representative_frame=rep))
    return shots


def classify_bundles(questions: list[RawQuestion], config: EngineConfig,
                     backend: Backend, pool: Executor) -> list[QuestionBundle]:
    """Classify the questions concurrently on `pool`; bundles keep the input
    order."""

    def bundle(raw: RawQuestion) -> QuestionBundle:
        if raw.declared_type is not None and not config.reclassify:
            qtype = raw.declared_type
        else:
            qtype = classify_question(raw.text, list(raw.options), backend)
        return QuestionBundle(question_id=raw.question_id, text=raw.text,
                              options=raw.options, qtype=qtype)

    return list(pool.map(bundle, questions))


def prepare_prompts(questions: list[RawQuestion], config: EngineConfig,
                    backend: Backend, pool: Executor
                    ) -> tuple[list[QuestionBundle], dict[str, VisualPrompt]]:
    """Classify the questions, then write one visual prompt per type."""
    bundles = classify_bundles(questions, config, backend, pool)
    prompts: dict[str, VisualPrompt] = {}
    for qtype in sorted({b.qtype for b in bundles}):
        if config.generic_captions:
            base = generic_prompt(config.template_dir)
            prompts[qtype] = VisualPrompt(qtype=qtype, text=base.text)
        else:
            type_questions = [b.text for b in bundles if b.qtype == qtype]
            prompts[qtype] = synthesize_prompt(qtype, type_questions, backend,
                                               config.template_dir)
    return bundles, prompts


@dataclass
class BuildResult:
    tree: HybridTree
    store: KnowledgeStore
    bundles: list[QuestionBundle]
    retrieved_frames: list[int]


def build_video(manifest_path: str | Path, questions: list[RawQuestion],
                config: EngineConfig, backend: Backend) -> BuildResult:
    """Build the tree and knowledge store for one video."""
    frames = load_frames(manifest_path, backend)
    params = TreeParams(tau=config.tau, k=config.k, max_depth=config.max_depth,
                        gamma=config.gamma)

    if config.uniform_sampling:
        shots = uniform_leaf_shots(frames.num_frames, config.uniform_shots,
                                   frames.embeddings)
    else:
        shots = detect_shots(frames.embeddings, config.sensitivity)
    tree = tree_from_shots(frames.video_id, shots, params)

    # Every model call of the build runs on one pool of max_inflight
    # threads. Only this thread, the side task and the per-type chains
    # submit to it; no task running on it does, so it cannot deadlock.
    # Classification and prompt synthesis need only the questions, so they
    # run on the side task while the tree is captioned, scored and expanded.
    with ThreadPoolExecutor(max_workers=backend.max_inflight) as calls, \
            ThreadPoolExecutor(max_workers=1) as side:
        prepared = side.submit(prepare_prompts, questions, config, backend,
                               calls)

        # First-pass generic captions of shot representatives; these feed the
        # relevance scorer and the degraded retrieval fallback.
        first_prompt = generic_prompt(config.template_dir)
        rep_frames = [s.representative_frame for s in shots]
        first_caps = caption_frames(rep_frames, first_prompt, backend,
                                    frames.frame_ref, pool=calls)
        cap_by_frame = {c.frame_index: c.text for c in first_caps}
        first_pass = {s.shot_id: cap_by_frame[s.representative_frame]
                      for s in shots}

        if not config.uniform_sampling:
            question_context = ("\n".join(q.text for q in questions)
                                or "(no questions)")
            scores = score_shots(shots, [first_pass[s.shot_id] for s in shots],
                                 question_context, backend, pool=calls)
            attach_scores(tree, scores)
            expand_tree(tree, frames.embeddings, config.seed)

        bundles, prompts = prepared.result()

        store = KnowledgeStore(
            tree=tree, fps=frames.fps, first_pass=dict(first_pass),
            frame_refs={i: frames.frame_ref(i) for i in range(frames.num_frames)})

        retrieved = vtsearch(tree)
        # One caption -> summary chain per type, all chains at once, each on
        # a thread of its own, so no chain waits on another.
        qtypes = sorted(prompts)

        def caption_type(qtype: str) -> tuple[list, list]:
            caps = caption_frames(retrieved, prompts[qtype], backend,
                                  frames.frame_ref, pool=calls)
            return caps, summarize_segments(caps, shots, backend, pool=calls)

        with ThreadPoolExecutor(max_workers=max(1, len(qtypes))) as chains:
            for caps, summaries in chains.map(caption_type, qtypes):
                store.add_captions(caps)
                store.add_summaries(summaries)

    return BuildResult(tree=tree, store=store, bundles=bundles,
                       retrieved_frames=retrieved)


# ---------------------------------------------------------------------------
# Ask
# ---------------------------------------------------------------------------

def answer_question(bundle: QuestionBundle, store: KnowledgeStore,
                    profiles: dict[str, AgentProfile], config: EngineConfig,
                    backend: Backend) -> AnswerRecord:
    """Plan and execute the workflow for one classified question. A fixed
    workflow runs all four agents on the per-type template and makes no
    planning call."""
    if config.fixed_workflow:
        thought = "fixed workflow"
        workflow = template_workflow(bundle.qtype, AGENT_REGISTRY,
                                     config.max_iterations)
    else:
        thought = "adaptive selection"
        analysis = analyze_problem(bundle, profiles, backend)
        bundle = replace(bundle, qtype=analysis.qtype)
        workflow = plan_tasks(analysis, bundle, profiles, backend,
                              config.max_iterations)
    record = execute_workflow(workflow, bundle, store, profiles[workflow.qtype],
                              backend)
    record.trace.insert(0, TraceStep(PROBLEM_ANALYSIS, thought, "select_agents",
                                     ", ".join(workflow.selected_agents)))
    return record


# ---------------------------------------------------------------------------
# Evaluate
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    num_questions: int
    mean_rounds: float
    ablation_flags: list[str]
    question_ids: list[str]
    accuracy_overall: float | None = None
    accuracy_by_type: dict[str, float] = field(default_factory=dict)

    def to_doc(self) -> dict:
        doc = {
            "num_questions": self.num_questions,
            "mean_rounds": self.mean_rounds,
            "ablation_flags": list(self.ablation_flags),
            "question_ids": list(self.question_ids),
        }
        if self.accuracy_overall is not None:
            doc["accuracy_overall"] = self.accuracy_overall
            doc["accuracy_by_type"] = dict(sorted(self.accuracy_by_type.items()))
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))


def evaluate(manifest_path: str | Path, config: EngineConfig,
             backend: Backend) -> tuple[list[AnswerRecord], RunReport]:
    """Run every manifest entry; videos sequential unless parallel_videos is
    set, questions within one video concurrent up to the backend's in-flight
    limit. Record order follows the manifest regardless of completion order."""
    entries = [e for e in load_dataset_manifest(manifest_path) if e.questions]
    profiles = load_profiles(config.profile_dir)

    def process_entry(entry: VideoEntry) -> list[
            tuple[RawQuestion, QuestionBundle, AnswerRecord]]:
        result = build_video(entry.frame_manifest_path, list(entry.questions),
                             config, backend)

        def answer_one(bundle: QuestionBundle) -> AnswerRecord:
            return answer_question(bundle, result.store, profiles, config,
                                   backend)

        with ThreadPoolExecutor(max_workers=backend.max_inflight) as pool:
            answered = list(pool.map(answer_one, result.bundles))
        return list(zip(entry.questions, result.bundles, answered))

    if config.parallel_videos and len(entries) > 1:
        with ThreadPoolExecutor(
                max_workers=min(VIDEO_WORKERS, len(entries))) as pool:
            per_entry = list(pool.map(process_entry, entries))
    else:
        per_entry = [process_entry(entry) for entry in entries]

    records: list[AnswerRecord] = []
    outcomes: list[tuple[RawQuestion, QuestionBundle, AnswerRecord]] = []
    for entry_outcomes in per_entry:
        for raw, bundle, record in entry_outcomes:
            outcomes.append((raw, bundle, record))
            records.append(record)

    graded = [(raw, bundle, record) for raw, bundle, record in outcomes
              if raw.gold_index is not None]
    accuracy = None
    by_type: dict[str, float] = {}
    if graded:
        accuracy = sum(
            1 for raw, _, record in graded
            if record.chosen_index == raw.gold_index) / len(graded)
        for qtype in sorted({bundle.qtype for _, bundle, _ in graded}):
            subset = [(raw, record) for raw, bundle, record in graded
                      if bundle.qtype == qtype]
            by_type[qtype] = sum(
                1 for raw, record in subset
                if record.chosen_index == raw.gold_index) / len(subset)

    report = RunReport(
        num_questions=len(records),
        mean_rounds=(sum(r.rounds_used for r in records) / len(records)
                     if records else 0.0),
        ablation_flags=config.ablation_flags(),
        question_ids=[r.question_id for r in records],
        accuracy_overall=accuracy,
        accuracy_by_type=by_type,
    )
    return records, report
