"""End-to-end composition: build video knowledge, answer questions, run
dataset evaluations.

Build order: ingest -> shot detection -> first-pass captions -> relevance
scoring -> selective expansion -> frame retrieval -> question-aware
captions -> segment summaries. Every model call of a build is a task on one
call pool of `max_inflight` threads, queued as soon as its own inputs
exist: after an image-path manifest's frame embeddings, the classifications
and first-pass captions at once; a shot's score when its first-pass caption
lands; the prompt syntheses when every first-pass caption and
classification is in; a (shot, type) fusion when that group's typed
captions are in. Each shot expands as soon as its own score and every
earlier shot's are in. The typed captions wait for the last score,
expansion and synthesis, because frame retrieval's gamma gate is global.
No task waits on another, and only the build thread reads results into the
tree, in shot order, and builds the store from them once, at the end, so
neither depends on the order calls finish in. A build holds each input only
while a later stage reads it. `load_frames` holds nothing of the parsed
manifest once it returns, and an embeddings file is never held whole: shot
detection reads it a block of rows at a time, the shot nodes a shot's rows
at a time, and the expansion an expanded shot's rows, once, for its whole
subtree. An image-path manifest's rows are the matrix of its embed replies,
let go once the last shot has expanded. Each caption task's `Future` goes
as its caption lands, each shot's score is dropped as the expansion reads
it, and the build's caption view keeps an answered caption as its reply
alone.

Each question calls the backend through a view of its own (`View`), and
`plan_question` sends its early calls ahead through it: the planning call
beside the analysis call, for a type whose profile requires the visual
agent, and step 1 of each evidence stage that reads only the seed keys and
is within the budget, whose prompt never reads the store. The question
meets each where it makes it, so `ask` and `eval` send the same requests
and give the same records; a retyped question leaves its planning call
unmet, and a budget that binds may leave a step 1 unmet.

In `evaluate`, each question's plan is queued on the video's question pool
when the build queues the syntheses, and runs while the build goes on
(queued earlier, it would compete with the first-pass captions and scores
that gate expansion). So after the build only the evidence stages' later
steps and the answer remain. A question's view takes the build's view as
scope, which refuses its calls once the build has failed.

Each video's build runs beside the previous video's answers: it starts
once that video's build has returned and each of its answer tasks has had
its first call admitted (or has ended), and that video's records are
collected, in manifest order, once it returns. So at most two videos'
stores are held at once. Each question's view is answering
(`View.answering`) from when its plan is in hand. The backend's gate
admits an answer call whenever a slot is free, and any other call only if
it leaves a slot for each answering view with no call in flight: the build
never takes the slot an answer's step just freed, so the answers keep the
pace they have with no build beside them. The single backend object serves
every call; its `max_inflight` is the one bound on concurrent model calls
and sizes the call pool and the two question pools eval's videos alternate
between. A build sends each distinct caption request once, through its
view. Ablation modes swap out individual steps without touching the rest
of the pipeline.
"""

from __future__ import annotations

import logging
import threading
from collections import Counter, defaultdict
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator

from . import np
from .backends import Backend, View, chat_request
from .captioning import (
    QTYPES,
    FrameCaption,
    QuestionBundle,
    VisualPrompt,
    caption_frames,
    check_question,
    classify_question,
    generic_prompt,
    summarize_segments,
    synthesize_prompt,
)
from .config import EngineConfig
from .errors import BackendError, Doc, ValidationError, canonical_json, read_doc
from .ingest import detect_shots, load_frames
from .knowledge import AgentProfile, KnowledgeStore, load_profiles
from .orchestrator import (
    AGENT_REGISTRY,
    EVIDENCE_AGENTS,
    PROBLEM_ANALYSIS,
    TASK_PLANNING,
    AnswerRecord,
    TraceStep,
    Workflow,
    analyze_problem,
    execute_workflow,
    opening_prompts,
    plan_tasks,
    planning_prompt,
    predicted_template,
    template_workflow,
)
from .tree import (
    HybridTree,
    TreeParams,
    expand_tree,
    score_shots,
    tree_from_shots,
    vtsearch,
)

logger = logging.getLogger(__name__)


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


def _parse_question(doc: Doc, seen: set[str]) -> RawQuestion:
    """One question, whose id must not be in `seen`, the ids loaded before
    it: eval writes one record per id."""
    question_id = doc.string("question_id")
    if question_id in seen:
        doc.fail(f"duplicate question_id {question_id}", "question_id")
    seen.add(question_id)
    text, options = doc.string("text"), tuple(doc.strings("options", []))
    check_question(text, options, doc)  # before any model call for it
    gold = doc.integer("gold_index", None, null=True)
    if gold is not None and not 0 <= gold < len(options):
        doc.fail(f"{gold} is outside the option range", "gold_index")
    return RawQuestion(
        question_id=question_id,
        text=text,
        options=options,
        gold_index=gold,
        declared_type=doc.enum("declared_type", QTYPES, None, null=True),
    )


def load_question_file(path: str | Path) -> list[RawQuestion]:
    """A list of questions, or an object holding it under `questions`."""
    root = read_doc(path, "question file", ValidationError)
    key = None if isinstance(root.value, list) else "questions"
    seen: set[str] = set()
    return [_parse_question(q, seen) for q in root.objects(key, [])]


def load_dataset_manifest(path: str | Path) -> list[VideoEntry]:
    """A list of entries, or an object holding it under `entries`."""
    p = Path(path)
    root = read_doc(p, "dataset manifest", ValidationError)
    key = None if isinstance(root.value, list) else "entries"
    entries = []
    seen, question_ids = set(), set()
    for entry in root.objects(key):
        video_id = entry.string("video_id", nonempty=True)
        if video_id in seen:
            entry.fail(f"duplicate video_id {video_id}", "video_id")
        seen.add(video_id)
        manifest_path = entry.string("frame_manifest_path", nonempty=True)
        if not Path(manifest_path).is_absolute():
            manifest_path = str(p.parent / manifest_path)
        questions = tuple(_parse_question(q, question_ids)
                          for q in entry.objects("questions", []))
        entries.append(VideoEntry(video_id, manifest_path, questions))
    return entries


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def uniform_leaf_shots(num_frames: int, count: int) -> list[range]:
    """Evenly spaced contiguous leaf shots for the uniform-sampling mode,
    each the range of its frames."""
    count = min(count, num_frames)
    bounds = np.linspace(0, num_frames, count + 1).astype(int)
    shots = []
    for i in range(count):
        shots.append(range(int(bounds[i]), int(bounds[i + 1])))
    return shots


def classify(raw: RawQuestion, config: EngineConfig,
             backend: Backend) -> QuestionBundle:
    """The question's bundle, typed as declared unless `reclassify` is set
    or no type is declared, in which case the classifier types it. A failed
    call names the question."""
    if raw.declared_type is not None and not config.reclassify:
        qtype = raw.declared_type
    else:
        try:
            qtype = classify_question(raw.text, list(raw.options), backend)
        except BackendError as exc:
            raise BackendError(f"classifying question {raw.question_id} "
                               f"failed: {exc}") from exc
    return QuestionBundle(question_id=raw.question_id, text=raw.text,
                          options=raw.options, qtype=qtype)


def type_prompt(qtype: str, bundles: list[QuestionBundle],
                config: EngineConfig, backend: Backend) -> VisualPrompt:
    """The visual prompt for one type: synthesized from the type's
    questions, or the generic template under the generic-captions
    ablation. A failed call names the type."""
    if config.generic_captions:
        return replace(generic_prompt(config.template_dir), qtype=qtype)
    try:
        return synthesize_prompt(
            qtype, [b.text for b in bundles if b.qtype == qtype], backend,
            config.template_dir)
    except BackendError as exc:
        raise BackendError(f"synthesizing the {qtype} prompt failed: "
                           f"{exc}") from exc


@contextmanager
def _call_pool(max_inflight: int) -> Iterator[ThreadPoolExecutor]:
    """A build's call pool, or eval's question pool. A build that fails
    drops the tasks still queued, and waits only for those in flight."""
    with ThreadPoolExecutor(max_workers=max_inflight) as pool:
        try:
            yield pool
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


@dataclass
class BuildResult:
    tree: HybridTree
    store: KnowledgeStore
    bundles: list[QuestionBundle]
    retrieved_frames: list[int]


def build_video(manifest_path: str | Path, questions: list[RawQuestion],
                config: EngineConfig, backend: Backend,
                video_id: str | None = None,
                on_bundles: Callable[[list[QuestionBundle], View], None]
                | None = None) -> BuildResult:
    """Build the tree and knowledge store for one video; a `video_id`, when
    given, is the id its frame manifest must declare. `on_bundles`, when
    given, is called on the build thread with the question bundles and the
    build's view of the backend once every question is classified and every
    first-pass caption is in, right after the prompt syntheses are queued.
    That view is closed if the build fails, and a view that takes it as
    scope then refuses every call (`View`)."""
    # The view is this build's caption scope. The pool runs tasks in the
    # order they are queued, so with one thread the calls still come stage
    # by stage (see the module docstring).
    with (View(backend) as backend,
          _call_pool(backend.max_inflight) as calls):
        frames = load_frames(manifest_path, backend, video_id, calls)
        params = TreeParams(tau=config.tau, k=config.k,
                            max_depth=config.max_depth, gamma=config.gamma)
        if config.uniform_sampling:
            shots = uniform_leaf_shots(frames.num_frames, config.uniform_shots)
        else:
            shots = detect_shots(frames.embeddings, config.sensitivity)
        tree = tree_from_shots(frames.video_id, shots, frames.embeddings, params)
        store = KnowledgeStore(tree=tree, fps=frames.fps,
                               frame_paths=frames.paths)

        classified = [calls.submit(classify, q, config, backend)
                      for q in questions]

        # First-pass generic captions of shot representatives feed the
        # relevance scorer and the degraded retrieval fallback. A shot's
        # score is queued as its caption lands.
        question_context = ("\n".join(q.text for q in questions)
                            or "(no questions)")
        scores: dict[int, Future] = {}

        def queue_score(caption: FrameCaption) -> None:
            shot = tree.shot_at(caption.frame_index)
            scores[shot.node_id] = calls.submit(
                score_shots, shot, caption.text, question_context, backend)

        first_caps = caption_frames(
            [s.representative_frame for s in tree.shots()],
            [generic_prompt(config.template_dir)], backend, store.frame_ref,
            calls, landed=None if config.uniform_sampling else queue_score)
        first_pass = {shot.node_id: cap.text
                      for shot, cap in zip(tree.shots(), first_caps)}

        bundles = [c.result() for c in classified]
        synthesized = [calls.submit(type_prompt, qtype, bundles, config, backend)
                       for qtype in sorted({b.qtype for b in bundles})]
        if on_bundles is not None:
            on_bundles(bundles, backend)
        # A shot expands once its own score and every earlier shot's are in,
        # so node ids and K-Means seeds follow shot order while later scores
        # are still in flight.
        if not config.uniform_sampling:
            for shot in tree.shots():
                shot.relevance = scores.pop(shot.node_id).result()
                expand_tree(tree, frames.embeddings, config.seed,
                            [shot.node_id])
        del frames  # an image-path manifest's rows are a matrix in memory

        retrieved = vtsearch(tree)
        # A (shot, type) fusion is queued as the last caption of its group
        # lands; the gamma gate is global, so captioning waits for every
        # score, expansion and synthesis.
        group_size = Counter(tree.shot_at(f).node_id for f in retrieved)
        groups: dict[tuple[int, str], list[FrameCaption]] = defaultdict(list)
        fused: dict[tuple[int, str], Future] = {}

        def queue_fusion(caption: FrameCaption) -> None:
            key = (tree.shot_at(caption.frame_index).node_id, caption.qtype)
            groups[key].append(caption)
            if len(groups[key]) == group_size[key[0]]:
                fused[key] = calls.submit(summarize_segments, *key,
                                          groups.pop(key), backend)

        captions = caption_frames(retrieved, [s.result() for s in synthesized],
                                  backend, store.frame_ref, calls,
                                  landed=queue_fusion)
        summaries = {key: fused[key].result() for key in sorted(fused)}

    store = replace(store, first_pass=first_pass, summaries=summaries,
                    captions={(c.frame_index, c.qtype): c for c in captions})
    return BuildResult(tree=tree, store=store, bundles=bundles,
                       retrieved_frames=retrieved)


# ---------------------------------------------------------------------------
# Ask
# ---------------------------------------------------------------------------

def plan_question(bundle: QuestionBundle, profiles: dict[str, AgentProfile],
                  config: EngineConfig, view: View) -> Workflow:
    """The workflow for one classified question, from the question alone:
    analysis, which may retype it, then planning. A fixed workflow runs all
    four agents on the per-type template and makes no planning call.

    Through `view`, the question's own, it sends ahead on threads of its
    own: for a type whose profile requires the visual agent, the planning
    call for the template analysis returns unless it retypes the question,
    beside the analysis call (a retyped question leaves it unmet, one call
    spent); then each step-1 call `opening_prompts` names. The workflow and
    the log are those of the calls made in turn. It returns once every
    call sent ahead has returned, so an answering view never holds a slot
    while its own call waits for one."""
    # One thread for each call sent ahead: the plan and each step 1.
    with ThreadPoolExecutor(
            max_workers=len((TASK_PLANNING, *EVIDENCE_AGENTS))) as ahead:
        if config.fixed_workflow:
            workflow = template_workflow(bundle.qtype, AGENT_REGISTRY,
                                         config.max_iterations)
        else:
            guess = predicted_template(bundle, profiles, config.max_iterations)
            if guess is not None:
                view.send_ahead(chat_request(planning_prompt(bundle, guess)),
                                ahead)
            template = analyze_problem(bundle, profiles, view,
                                       config.max_iterations)
            if guess is not None and template != guess:
                logger.info("question %s: speculative %s plan discarded; "
                            "analysis chose %s", bundle.question_id,
                            guess.qtype, template.qtype)
            workflow = plan_tasks(template,
                                  replace(bundle, qtype=template.qtype), view)
        for prompt in opening_prompts(workflow,
                                      replace(bundle, qtype=workflow.qtype),
                                      profiles[workflow.qtype]):
            view.send_ahead(chat_request(prompt), ahead)
    return workflow


def answer_question(bundle: QuestionBundle, store: KnowledgeStore,
                    profiles: dict[str, AgentProfile], config: EngineConfig,
                    backend: Backend,
                    workflow: Workflow | None = None) -> AnswerRecord:
    """Execute the workflow for one classified question. With no
    `workflow`, the question is planned first (`plan_question`), through a
    view of `backend` made here; a given `workflow` was planned through
    `backend`, the question's view, whose calls sent ahead the stages meet.
    The evidence stages run side by side on a pool with a thread per stage;
    the record is the one running them in turn would give (see
    `execute_workflow`)."""
    if workflow is None:
        backend = View(backend)
        workflow = plan_question(bundle, profiles, config, backend)
    bundle = replace(bundle, qtype=workflow.qtype)
    with ThreadPoolExecutor(max_workers=len(EVIDENCE_AGENTS)) as stages:
        record = execute_workflow(workflow, bundle, store,
                                  profiles[workflow.qtype], backend, stages)
    thought = "fixed workflow" if config.fixed_workflow else "adaptive selection"
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
        return canonical_json(self.to_doc())


def evaluate(manifest_path: str | Path, config: EngineConfig,
             backend: Backend) -> tuple[list[AnswerRecord], RunReport]:
    """Run the manifest's entries in order, each video's build beside the
    previous video's answers (see the module docstring), so at most two
    videos' stores are held at once. Each question is planned on its
    video's question pool while the build runs, through a view of its own
    scoped to the build's, which `plan_question` sends the question's early
    calls ahead through. When the build returns, the previous video's
    records are collected in manifest order, its first error raised before
    this build's. Then this video's questions are answered on its pool,
    each through its view, answering once its plan is in hand, and the
    next build starts once every answer task has had its first call
    admitted, or has ended. The videos alternate between two question
    pools. A failed build or answer drops the tasks still queued."""
    entries = [e for e in load_dataset_manifest(manifest_path) if e.questions]
    profiles = load_profiles(config.profile_dir)
    records: list[AnswerRecord] = []
    hits: dict[str, list[bool]] = {}  # per type, one per graded question

    def answer(bundle: QuestionBundle, plan: Future, view: View,
               store: KnowledgeStore,
               admitted: threading.Event) -> AnswerRecord:
        try:
            workflow = plan.result()
            with view.answering(admitted):
                return answer_question(bundle, store, profiles, config, view,
                                       workflow)
        finally:
            admitted.set()

    def collect(entry: VideoEntry, bundles: list[QuestionBundle],
                answers: list[Future]) -> None:
        for raw, bundle, answered in zip(entry.questions, bundles, answers):
            record = answered.result()
            records.append(record)
            if raw.gold_index is not None:
                hits.setdefault(bundle.qtype, []).append(
                    record.chosen_index == raw.gold_index)

    answering = None  # the previous video's entry, bundles and answer tasks
    with (_call_pool(backend.max_inflight) as even,
          _call_pool(backend.max_inflight) as odd):
        for index, entry in enumerate(entries):
            pool = (even, odd)[index % 2]
            plans: list[tuple[Future, View]] = []  # in question order

            def queue_plans(bundles: list[QuestionBundle],
                            build: View) -> None:
                for bundle in bundles:
                    view = View(backend, scope=build)
                    plans.append((pool.submit(plan_question, bundle, profiles,
                                              config, view), view))

            try:
                result = build_video(entry.frame_manifest_path,
                                     list(entry.questions), config, backend,
                                     entry.video_id, on_bundles=queue_plans)
            finally:  # the previous video's records, or its error, first
                if answering is not None:
                    collect(*answering)
            admitted = [threading.Event() for _ in result.bundles]
            answering = entry, result.bundles, [
                pool.submit(answer, bundle, plan, view, result.store, started)
                for bundle, (plan, view), started in zip(result.bundles, plans,
                                                         admitted)]
            for started in admitted:
                started.wait()
        if answering is not None:
            collect(*answering)

    graded = [hit for type_hits in hits.values() for hit in type_hits]
    report = RunReport(
        num_questions=len(records),
        mean_rounds=(sum(r.rounds_used for r in records) / len(records)
                     if records else 0.0),
        ablation_flags=config.ablation_flags(),
        question_ids=[r.question_id for r in records],
        accuracy_overall=sum(graded) / len(graded) if graded else None,
        accuracy_by_type={qtype: sum(type_hits) / len(type_hits)
                          for qtype, type_hits in hits.items()},
    )
    return records, report
