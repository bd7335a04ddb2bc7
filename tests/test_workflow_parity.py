"""Concurrent evidence stages against the sequential reference.

`execute_workflow` runs a question's evidence stages side by side under the
shared iteration budget. `sequential_execute_workflow` below is the stage
loop it replaced, kept here as the oracle: every record must equal the
oracle's byte for byte, for every budget and every number of steps each
agent takes before its FINAL, errors included."""

from __future__ import annotations

import json
import re
import sys
import threading
import time

import pytest

from videoqa.backends import Backend, MockScript
from videoqa.captioning import FrameCaption, QuestionBundle
from videoqa.errors import TransportError, VideoQAError
from videoqa.knowledge import KnowledgeStore, builtin_profiles
from videoqa.orchestrator import (
    AGENT_REGISTRY,
    ANSWER_AGENT,
    EVIDENCE_AGENTS,
    INTEGRATION_AGENT,
    MAX_ITERATIONS_CAP,
    SEED_KEYS,
    TASK_PLANNING,
    TEXT_AGENT,
    VISUAL_AGENT,
    AnswerRecord,
    EvidenceItem,
    OptionScore,
    TraceStep,
    Workflow,
    execute_workflow,
    generate_answer,
    integrate_evidence,
    plan_tasks,
    run_react,
    template_workflow,
    truncated_evidence,
)
from videoqa.tree import RelevanceScore, tree_from_shots

from conftest import TREE_PARAMS, RecordingBackend, frame_line


def sequential_execute_workflow(workflow: Workflow, question: QuestionBundle,
                                store: KnowledgeStore, profile,
                                backend: Backend) -> AnswerRecord:
    """The stages in order, each evidence stage with what the earlier ones
    left of the budget."""
    trace: list[TraceStep] = []
    if workflow.repaired:
        trace.append(TraceStep(TASK_PLANNING, "model plan failed validation",
                               "repair", "template workflow substituted"))
    budget = workflow.max_iterations
    rounds_used = 0
    evidence: list[EvidenceItem] = []
    scores: OptionScore | None = None
    record: AnswerRecord | None = None

    for stage in workflow.stages:
        if stage.agent in EVIDENCE_AGENTS:
            if budget < 1:
                evidence.append(truncated_evidence(
                    stage.agent, len(question.options),
                    "skipped: iteration budget exhausted"))
                trace.append(TraceStep(stage.agent, "budget exhausted", "skip",
                                       "stage skipped, zero-support evidence"))
                continue
            item, consumed = run_react(stage, question, store, profile,
                                       backend, budget, trace)
            budget -= consumed
            rounds_used += consumed
            evidence.append(item)
        elif stage.agent == INTEGRATION_AGENT:
            scores = integrate_evidence(evidence, profile, workflow.qtype)
            trace.append(TraceStep(
                INTEGRATION_AGENT, "weighted evidence fusion", "integrate",
                f"scores={[round(s, 6) for s in scores.scores]}"))
        elif stage.agent == ANSWER_AGENT:
            if scores is None:
                scores = integrate_evidence(evidence, profile, workflow.qtype)
            truncated = any(item.truncated for item in evidence)
            record = generate_answer(
                scores, evidence, question.options, backend,
                question_id=question.question_id, trace=trace,
                rounds_used=rounds_used, truncated=truncated)

    if record is None:
        raise VideoQAError("workflow ended without an answer stage")
    if record.rounds_used > workflow.max_iterations:
        raise VideoQAError(
            f"iteration budget law violated: {record.rounds_used} rounds "
            f"used, budget {workflow.max_iterations}")
    return record


# ---------------------------------------------------------------------------
# Scripted agents
# ---------------------------------------------------------------------------

NEVER = None
STEPS_TO_FINAL = (*range(16), NEVER)   # non-final steps before the FINAL
SUPPORT = {TEXT_AGENT: (0.05, 0.9, 0.05), VISUAL_AGENT: (0.1, 0.8, 0.1)}

_AGENT_RE = re.compile(r"\[(TextAgent|VisualAnalysisAgent)\] working")
_STEP_RE = re.compile(r"Step (\d+):")


def _question() -> QuestionBundle:
    return QuestionBundle("q1", "Why is the man looking up?",
                          ("a bird", "the children", "rain"), "Causal")


def _store() -> KnowledgeStore:
    tree = tree_from_shots("vid", [range(0, 6), range(6, 12)], frame_line(12),
                           TREE_PARAMS)
    for shot, value in zip(tree.shots(), (2.0, 4.0)):
        shot.relevance = RelevanceScore(value)
    return KnowledgeStore(
        tree=tree, first_pass={0: "bench", 1: "fountain"},
        captions={(8, "Causal"): FrameCaption(8, "Causal",
                                              "children by a fountain")})


def agent_step(rendered: str) -> tuple[str, int] | None:
    """(agent, step) of a ReAct prompt, None for any other call."""
    agent = _AGENT_RE.search(rendered)
    if agent is None:
        return None
    return agent.group(1), int(_STEP_RE.findall(rendered)[-1])


def scripted(steps_to_final: dict[str, int | None], hook=None):
    """A mock default: each agent takes `steps_to_final[agent]` steps before
    its FINAL (never, for None). The text agent's steps retrieve and the
    visual agent's inspect a frame. `hook(agent, step)` runs first on every
    ReAct call and may block or raise."""

    def respond(rendered: str) -> str:
        if rendered.startswith("caption:"):
            return "a frame of the fountain"
        if "drafting explanation" in rendered:
            return "Answer: option 1."
        agent, step = agent_step(rendered)
        if hook is not None:
            hook(agent, step)
        before = steps_to_final[agent]
        if before is not None and step == before + 1:
            doc = {"option_support": list(SUPPORT[agent]), "confidence": 0.9,
                   "rationale": f"{agent} at step {step}"}
            return "THOUGHT: settled\nFINAL: " + json.dumps(doc)
        if agent == TEXT_AGENT:
            return "THOUGHT: look again\nACTION: temporal_index {}"
        return ('THOUGHT: check a frame\nACTION: inspect_frame '
                f'{{"frame_index": {step % 12}}}')

    return respond


def _backend(steps_to_final, hook=None) -> RecordingBackend:
    return RecordingBackend(Backend.from_mock(
        MockScript(default_response=scripted(steps_to_final, hook))))


def _dag_workflow(budget: int) -> Workflow:
    """The visual stage consumes the text stage's output, so it must wait."""
    workflow = template_workflow("Causal", AGENT_REGISTRY, budget)
    workflow.stages[1].input_keys = (*SEED_KEYS, "text_evidence")
    return workflow


def _visual_first_workflow(budget: int) -> Workflow:
    workflow = template_workflow("Causal", AGENT_REGISTRY, budget)
    workflow.stages[0], workflow.stages[1] = workflow.stages[1], workflow.stages[0]
    return workflow


def _repaired_workflow(budget: int) -> Workflow:
    template = template_workflow("Causal", AGENT_REGISTRY, budget)
    planner = Backend.from_mock(MockScript(default_response="no plan here"))
    workflow = plan_tasks(template, _question(), planner)
    assert workflow.repaired
    return workflow


# Workflows besides the template: stages in the other order, and a visual
# stage that reads the text stage's output and so waits for it.
SHAPES = {
    "repaired": _repaired_workflow,
    "visual-first": _visual_first_workflow,
    "visual-after-text": _dag_workflow,
}
# Steps-to-FINAL at the edges of each budget, for the other shapes.
EDGE_STEPS = (0, 1, 7, 13, 14, NEVER)


class CountingScript(MockScript):
    """The scripted agents, counting the calls they answer."""

    def __init__(self, steps_to_final) -> None:
        respond = scripted(steps_to_final)
        self.calls = 0
        lock = threading.Lock()

        def counted(rendered: str) -> str:
            with lock:
                self.calls += 1
            return respond(rendered)

        super().__init__(default_response=counted)


def _assert_same(workflow_for, budget, steps, pool, store, profile) -> bool:
    """Assert the concurrent record equals the sequential one; return whether
    the concurrent run made calls the sequential one did not, which it
    discarded."""
    question = _question()
    sequential, concurrent = CountingScript(steps), CountingScript(steps)
    want = sequential_execute_workflow(workflow_for(budget), question, store,
                                       profile, Backend.from_mock(sequential))
    got = execute_workflow(workflow_for(budget), question, store, profile,
                           Backend.from_mock(concurrent), pool)
    assert got.to_json() == want.to_json(), (budget, steps)
    assert got.rounds_used == want.rounds_used <= budget
    return concurrent.calls > sequential.calls


@pytest.fixture
def interleaved():
    """Switch threads every 10 microseconds, not every 5 ms, so the two
    stages' steps interleave and a later stage often outruns its allowance."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------

def test_two_evidence_stages_match_sequential_run(pool, interleaved) -> None:
    """Every budget 1..15 x every steps-to-FINAL of each agent (0..15 and
    never) gives the sequential record, cut or not."""
    store, profile = _store(), builtin_profiles()["Causal"]

    def workflow_for(budget: int) -> Workflow:
        return template_workflow("Causal", AGENT_REGISTRY, budget)

    cut = 0
    for budget in range(1, MAX_ITERATIONS_CAP + 1):
        for text in STEPS_TO_FINAL:
            for visual in STEPS_TO_FINAL:
                cut += _assert_same(workflow_for, budget,
                                    {TEXT_AGENT: text, VISUAL_AGENT: visual},
                                    pool, store, profile)
    assert cut, "no run outlasted its allowance, so no cut was checked"


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_other_workflow_shapes_match_sequential_run(shape, pool,
                                                    interleaved) -> None:
    store, profile = _store(), builtin_profiles()["Causal"]
    for budget in range(1, MAX_ITERATIONS_CAP + 1):
        for text in EDGE_STEPS:
            for visual in EDGE_STEPS:
                _assert_same(SHAPES[shape], budget,
                             {TEXT_AGENT: text, VISUAL_AGENT: visual},
                             pool, store, profile)


@pytest.mark.parametrize("agent", EVIDENCE_AGENTS)
def test_one_evidence_stage_matches_sequential_run(agent, pool) -> None:
    store, profile = _store(), builtin_profiles()["Causal"]

    def workflow_for(budget: int) -> Workflow:
        return template_workflow("Causal", (agent, ANSWER_AGENT), budget)

    for budget in range(1, MAX_ITERATIONS_CAP + 1):
        for steps in STEPS_TO_FINAL:
            _assert_same(workflow_for, budget, {agent: steps}, pool,
                         store, profile)


# ---------------------------------------------------------------------------
# Overlap, dependencies and the extra-call bound
# ---------------------------------------------------------------------------

def test_evidence_stages_are_in_flight_at_once(pool) -> None:
    barrier = threading.Barrier(2, timeout=10)

    def both_agents_meet(agent: str, step: int) -> None:
        if step == 1:
            barrier.wait()

    backend = _backend({TEXT_AGENT: 0, VISUAL_AGENT: 0}, both_agents_meet)
    record = execute_workflow(template_workflow("Causal", AGENT_REGISTRY),
                              _question(), _store(),
                              builtin_profiles()["Causal"], backend, pool)
    assert not barrier.broken
    assert record.rounds_used == 2 and not record.truncated


def test_stage_waits_for_the_stage_whose_output_it_reads(pool) -> None:
    """The visual stage reads `text_evidence`: held at its first step, the
    text agent waits 0.3 s for a visual step that must not come."""
    visual_started = threading.Event()
    early = []

    def watch(agent: str, step: int) -> None:
        if agent == VISUAL_AGENT:
            visual_started.set()
        elif step == 1:
            early.append(visual_started.wait(timeout=0.3))

    backend = _backend({TEXT_AGENT: 3, VISUAL_AGENT: 2}, watch)
    execute_workflow(_dag_workflow(MAX_ITERATIONS_CAP), _question(), _store(),
                     builtin_profiles()["Causal"], backend, pool)
    assert early == [False]
    agents = [step[0] for step in map(agent_step, (c.rendered for c in
                                                   backend.calls)) if step]
    assert agents == [TEXT_AGENT] * 4 + [VISUAL_AGENT] * 3


def test_every_stage_finishes_before_the_record_returns(pool) -> None:
    """At B=2 the looping text agent leaves the visual stage nothing, so its
    one started step is discarded; the record still waits for it."""
    visual_started, visual_finished = threading.Event(), threading.Event()

    def slow_visual(agent: str, step: int) -> None:
        if agent == VISUAL_AGENT:
            visual_started.set()
            time.sleep(0.2)
            visual_finished.set()
        elif step == 1:
            assert visual_started.wait(timeout=10)

    backend = _backend({TEXT_AGENT: NEVER, VISUAL_AGENT: NEVER}, slow_visual)
    record = execute_workflow(
        template_workflow("Causal", AGENT_REGISTRY, max_iterations=2),
        _question(), _store(), builtin_profiles()["Causal"], backend, pool)
    assert visual_finished.is_set()
    assert record.rounds_used == 2
    assert [s.action for s in record.trace if s.agent == VISUAL_AGENT] == ["skip"]


def test_extra_calls_bounded_by_budget_minus_one_when_budget_binds(pool) -> None:
    """Both agents loop at B=15: the text agent spends the whole budget and
    the visual stage is skipped. Held at its first step, the text agent lets
    the visual agent start B - 1 steps that the cut discards, and no more."""
    budget = MAX_ITERATIONS_CAP
    visual_done = threading.Event()

    def hold_text(agent: str, step: int) -> None:
        if agent == VISUAL_AGENT and step == budget - 1:
            visual_done.set()
        if agent == TEXT_AGENT and step == 1:
            assert visual_done.wait(timeout=10)

    steps = {TEXT_AGENT: NEVER, VISUAL_AGENT: NEVER}
    backend = _backend(steps, hold_text)
    workflow = template_workflow("Causal", AGENT_REGISTRY, budget)
    store, profile = _store(), builtin_profiles()["Causal"]
    record = execute_workflow(workflow, _question(), store, profile, backend,
                              pool)
    want = sequential_execute_workflow(workflow, _question(), store, profile,
                                       _backend(steps))
    assert record.to_json() == want.to_json()
    assert record.rounds_used == budget and record.truncated
    react = [agent_step(c.rendered) for c in backend.calls
             if agent_step(c.rendered)]
    assert sum(a == TEXT_AGENT for a, _ in react) == budget
    assert sum(a == VISUAL_AGENT for a, _ in react) == budget - 1


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

def _failing_at(agent_fails: str, fail_step: int, hold_until_failed: bool):
    """A hook raising a scripted TransportError at `agent_fails`'s step
    `fail_step`; with `hold_until_failed`, the other agent's first step
    waits until that failure, so the failing step is surely taken."""
    failed = threading.Event()
    if not hold_until_failed:
        failed.set()

    def hook(agent: str, step: int) -> None:
        if agent == agent_fails and step == fail_step:
            failed.set()
            raise TransportError("scripted transport failure")
        if agent != agent_fails and step == 1:
            assert failed.wait(timeout=10)

    return hook


def test_error_beyond_the_stage_allowance_never_surfaces(pool) -> None:
    """The text agent finalizes at step 12 of 15, leaving the visual stage 3
    steps; its failure at step 5 is past them and dropped."""
    steps = {TEXT_AGENT: 11, VISUAL_AGENT: NEVER}
    workflow = template_workflow("Causal", AGENT_REGISTRY)
    store, profile = _store(), builtin_profiles()["Causal"]
    backend = _backend(steps, _failing_at(VISUAL_AGENT, 5, True))
    record = execute_workflow(workflow, _question(), store, profile, backend,
                              pool)
    want = sequential_execute_workflow(
        workflow, _question(), store, profile,
        _backend(steps, _failing_at(VISUAL_AGENT, 5, False)))
    assert record.to_json() == want.to_json()
    assert record.rounds_used == MAX_ITERATIONS_CAP and record.truncated
    assert any(c.error == "scripted transport failure" for c in backend.calls)


@pytest.mark.parametrize("agent_fails,fail_step,text_steps", [
    (VISUAL_AGENT, 5, 1),     # within the visual stage's 13 steps
    (VISUAL_AGENT, 3, 11),    # its last allowed step
    (TEXT_AGENT, 3, NEVER),   # the first stage's errors always count
])
def test_error_within_the_stage_allowance_surfaces(pool, agent_fails,
                                                   fail_step,
                                                   text_steps) -> None:
    steps = {TEXT_AGENT: text_steps, VISUAL_AGENT: NEVER}
    workflow = template_workflow("Causal", AGENT_REGISTRY)
    store, profile = _store(), builtin_profiles()["Causal"]
    with pytest.raises(TransportError) as sequential:
        sequential_execute_workflow(
            workflow, _question(), store, profile,
            _backend(steps, _failing_at(agent_fails, fail_step, False)))
    with pytest.raises(TransportError) as concurrent:
        execute_workflow(
            workflow, _question(), store, profile,
            _backend(steps, _failing_at(agent_fails, fail_step, False)), pool)
    assert type(concurrent.value) is type(sequential.value)
    assert str(concurrent.value) == str(sequential.value)
