"""Two-tier agent orchestration.

A Planning Layer (problem analysis + task planning) picks the minimal agent
subset for the question and emits a stage workflow; an Execution Layer runs
evidence-producing stages under a bounded ReAct loop, fuses evidence with
profile weights, and generates the validated answer. The planner's model
output is advisory only: structural invariants are enforced by validation,
and invalid plans are repaired to a per-type template. When the question's
profile requires the visual agent, the analysis reply can change the
template only by retyping the question, so `predicted_template` names it
before the reply is in: its planning call can go out with the analysis
call, and is discarded, one call spent, when the analysis retypes the
question. The workflow is the one the calls made in turn would give.

A workflow is a DAG over its stages' keys: a stage depends on the stages
whose `output_key` its `input_keys` name. Evidence stages that read only the
seed keys run side by side, under one iteration budget shared in stage
order; integration and the answer follow all evidence. Their step-1
prompts read neither the store nor another stage (`opening_prompts`), so a
caller may send them ahead through the question's view, where each stage
meets its call. The record is the one running the stages one after
another would give (see `execute_workflow`). A question's view sends each
distinct caption request once: both agents inspecting one frame under one
prompt share one call.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import Executor, Future, wait
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from .backends import Backend, caption_request, chat_request
from .captioning import (
    QTYPE_CAUSAL,
    QTYPE_DESCRIPTIVE,
    QTYPE_TEMPORAL,
    QuestionBundle,
    find_qtype_label,
)
from .errors import (
    BackendError,
    Doc,
    MalformedResponseError,
    ValidationError,
    VideoQAError,
    canonical_json,
    parse_doc,
)
from .knowledge import TOOL_INSPECT_FRAME, AgentProfile, KnowledgeStore

logger = logging.getLogger(__name__)

TEXT_AGENT = "TextAgent"
VISUAL_AGENT = "VisualAnalysisAgent"
INTEGRATION_AGENT = "EvidenceIntegrationAgent"
ANSWER_AGENT = "AnswerGenerationAgent"
AGENT_REGISTRY = (TEXT_AGENT, VISUAL_AGENT, INTEGRATION_AGENT, ANSWER_AGENT)
EVIDENCE_AGENTS = (TEXT_AGENT, VISUAL_AGENT)

PROBLEM_ANALYSIS = "ProblemAnalysisAgent"
TASK_PLANNING = "TaskPlanningAgent"

SEED_KEYS = ("question", "options", "tree")
MAX_ITERATIONS_CAP = 15

BIDIRECTIONAL_TASK = ("Search backward for action triggers and forward for "
                      "action consequences")

_SOURCE_KEY = {TEXT_AGENT: "text", VISUAL_AGENT: "visual"}

# The only agent name an analysis reply is read for (see `analyze_problem`).
_VISUAL_AGENT_NAME = re.compile(r"\bvisual[\s_]*analysis[\s_]*agent\b",
                                re.IGNORECASE)


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectionCheck:
    cause_supported: bool
    effect_supported: bool


@dataclass(frozen=True)
class EvidenceItem:
    source: str
    option_support: tuple[float, ...]   # one value in [0, 1] per option
    confidence: float
    rationale: str = ""
    direction_check: DirectionCheck | None = None
    truncated: bool = False


@dataclass(frozen=True)
class OptionScore:
    scores: tuple[float, ...]
    chosen_index: int
    margin: float


@dataclass
class Stage:
    agent: str
    task_description: str
    input_keys: tuple[str, ...]
    output_key: str


@dataclass
class Workflow:
    qtype: str
    selected_agents: tuple[str, ...]
    stages: list[Stage]
    max_iterations: int = MAX_ITERATIONS_CAP
    repaired: bool = False

    def problems(self) -> list[str]:
        """Invariant violations; an empty list means the workflow is valid."""
        issues = []
        if self.max_iterations > MAX_ITERATIONS_CAP or self.max_iterations < 1:
            issues.append(f"max_iterations {self.max_iterations} outside [1, 15]")
        if not self.stages:
            issues.append("workflow has no stages")
            return issues
        agents = [s.agent for s in self.stages]
        if agents[-1] != ANSWER_AGENT:
            issues.append("AnswerGenerationAgent must be the last stage")
        for agent in agents:
            if agent not in self.selected_agents:
                issues.append(f"stage agent {agent} not in the selected set")
        for agent in self.selected_agents:
            if agents.count(agent) != 1:
                issues.append(f"agent {agent} must appear exactly once")
        if INTEGRATION_AGENT in agents:
            cut = agents.index(INTEGRATION_AGENT)
            late = [a for a in agents[cut + 1:] if a in EVIDENCE_AGENTS]
            if late:
                issues.append(f"evidence stages {late} run after integration")
        available = set(SEED_KEYS)
        for stage in self.stages:
            missing = [k for k in stage.input_keys if k not in available]
            if missing:
                issues.append(f"stage {stage.agent} consumes unproduced keys "
                              f"{missing}")
            if not stage.output_key:
                issues.append(f"stage {stage.agent} has no output key")
            available.add(stage.output_key)
        return issues


@dataclass
class TraceStep:
    agent: str
    thought: str
    action: str
    observation: str

    def to_doc(self) -> dict:
        return {"agent": self.agent, "thought": self.thought,
                "action": self.action, "observation": self.observation}


@dataclass
class AnswerRecord:
    question_id: str
    chosen_index: int
    chosen_text: str
    scores: OptionScore
    trace: list[TraceStep]
    rounds_used: int
    validated: bool
    truncated: bool = False

    def to_doc(self) -> dict:
        return {
            "question_id": self.question_id,
            "chosen": {"index": self.chosen_index, "text": self.chosen_text},
            "scores": list(self.scores.scores),
            "margin": self.scores.margin,
            "rounds_used": self.rounds_used,
            "validated": self.validated,
            "truncated": self.truncated,
            "trace": [step.to_doc() for step in self.trace],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_doc())


# ---------------------------------------------------------------------------
# Planning layer
# ---------------------------------------------------------------------------

def _canonical_order(selected: set[str]) -> tuple[str, ...]:
    return tuple(a for a in AGENT_REGISTRY if a in selected)


def analysis_prompt(question: QuestionBundle, profile: AgentProfile) -> str:
    listed = "\n".join(f"{i}. {o}" for i, o in enumerate(question.options))
    visual_hint = ("required" if profile.requires_visual_agent
                   else "optional for static questions")
    return (
        f"[{PROBLEM_ANALYSIS}] analyzing question {question.question_id}.\n"
        "Classify the question type (Causal, Temporal, or Descriptive) and "
        "name the minimal execution agents needed, chosen from: "
        f"{', '.join(AGENT_REGISTRY)}.\n"
        f"Question: {question.text}\n"
        f"Options:\n{listed}\n"
        f"Current classification: {question.qtype}\n"
        f"Profile hint: visual analysis is {visual_hint} for this type.\n"
        "Reply with the type and the agent names."
    )


def analyze_problem(question: QuestionBundle, profiles: dict[str, AgentProfile],
                    llm, max_iterations: int = MAX_ITERATIONS_CAP) -> Workflow:
    """Confirm the question type, pick the minimal agent subset, and return
    the per-type template workflow over it, which planning keeps or
    replaces.

    TextAgent and AnswerGenerationAgent are always included. The visual
    agent is dropped only when the profile marks it optional AND the
    analysis reply omits it; no other agent name in the reply is read. A
    failed call reads as an empty reply: the type stays, and the profile
    alone decides the visual agent.
    """
    profile = profiles[question.qtype]
    try:
        reply = llm.call(chat_request(analysis_prompt(question, profile)))
    except BackendError as exc:
        logger.warning("question %s: analysis backend failed (%s); keeping "
                       "type %s", question.question_id, exc, question.qtype)
        reply = ""

    qtype = question.qtype
    parsed = find_qtype_label(reply)
    if parsed is not None and parsed != qtype:
        logger.info("question %s: analysis reclassified %s -> %s",
                    question.question_id, qtype, parsed)
        qtype = parsed
        profile = profiles[qtype]

    selected = {TEXT_AGENT, ANSWER_AGENT}
    if profile.requires_visual_agent or _VISUAL_AGENT_NAME.search(reply):
        selected.add(VISUAL_AGENT)
    if len(selected & set(EVIDENCE_AGENTS)) >= 2:
        selected.add(INTEGRATION_AGENT)
    return template_workflow(qtype, _canonical_order(selected), max_iterations)


def predicted_template(question: QuestionBundle,
                       profiles: dict[str, AgentProfile],
                       max_iterations: int) -> Workflow | None:
    """The template `analyze_problem` returns for the question unless its
    reply retypes it, or None when the profile leaves the visual agent to
    the reply."""
    if not profiles[question.qtype].requires_visual_agent:
        return None
    return template_workflow(question.qtype, AGENT_REGISTRY, max_iterations)


_TEXT_TASKS = {
    QTYPE_CAUSAL: (f"{BIDIRECTIONAL_TASK}; gather captions and summaries that "
                   "indicate why the queried action happens."),
    QTYPE_TEMPORAL: ("Reconstruct the order of events around the queried moment "
                     "from the temporal index and segment summaries."),
    QTYPE_DESCRIPTIVE: ("Collect captions and summaries that describe the "
                        "queried objects, attributes, and location."),
}

_VISUAL_TASKS = {
    QTYPE_CAUSAL: ("Verify spatial and temporal consistency between the "
                   "candidate cause and the observed action by inspecting "
                   "representative frames."),
    QTYPE_TEMPORAL: "Track state changes across the retrieved frames.",
    QTYPE_DESCRIPTIVE: "Describe scene attributes and object properties in the "
                       "retrieved frames.",
}


def template_workflow(qtype: str, selected_agents: tuple[str, ...],
                      max_iterations: int = MAX_ITERATIONS_CAP) -> Workflow:
    """The per-type default workflow over the selected agents."""
    stages = []
    produced = []
    if TEXT_AGENT in selected_agents:
        stages.append(Stage(TEXT_AGENT, _TEXT_TASKS[qtype], SEED_KEYS,
                            "text_evidence"))
        produced.append("text_evidence")
    if VISUAL_AGENT in selected_agents:
        stages.append(Stage(VISUAL_AGENT, _VISUAL_TASKS[qtype], SEED_KEYS,
                            "visual_evidence"))
        produced.append("visual_evidence")
    if INTEGRATION_AGENT in selected_agents:
        stages.append(Stage(
            INTEGRATION_AGENT,
            "Fuse the evidence with the profile weights and resolve conflicts.",
            tuple(produced), "option_scores"))
        produced = ["option_scores"]
    stages.append(Stage(
        ANSWER_AGENT,
        "Validate the scores, select the final option, and draft the explanation.",
        tuple(produced), "answer"))
    return Workflow(qtype=qtype, selected_agents=selected_agents, stages=stages,
                    max_iterations=max_iterations)


def planning_prompt(question: QuestionBundle, template: Workflow) -> str:
    return (
        f"[{TASK_PLANNING}] planning question {question.question_id}.\n"
        f"Question type: {template.qtype}\n"
        f"Selected agents: {', '.join(template.selected_agents)}\n"
        "Produce a JSON array of stages, one object per agent in execution "
        'order: {"agent": str, "task": str, "inputs": [str], "output": str}. '
        f"Seed keys available to every stage: {list(SEED_KEYS)}. "
        "The answer generation stage must come last."
    )


def _parse_plan(reply: str) -> list[Stage] | None:
    """The stages of the JSON array in a planner reply, or None when there
    is none or a stage field has the wrong type: `agent`, `task` and `output`
    are strings, `inputs` a list of strings."""
    start, end = reply.find("["), reply.rfind("]")
    try:
        return [Stage(agent=item.string("agent", ""),
                      task_description=item.string("task", ""),
                      input_keys=tuple(item.strings("inputs", SEED_KEYS)),
                      output_key=item.string("output", ""))
                for item in parse_doc(reply[start:end + 1], "plan").objects()]
    except ValidationError:
        return None


def plan_tasks(template: Workflow, question: QuestionBundle, llm) -> Workflow:
    """The model's plan over the analysed template's type and agents, or
    the template itself.

    A failed call, an unparseable plan or one that breaks an invariant
    keeps the template, flagged repaired (the flag shows up in the trace),
    and logs why. Never raises.
    """
    try:
        reply = llm.call(chat_request(planning_prompt(question, template)))
    except BackendError as exc:
        logger.warning("question %s: planner backend failed (%s); using "
                       "template workflow", question.question_id, exc)
        reply = ""

    stages = _parse_plan(reply)
    if stages is not None:
        workflow = replace(template, stages=stages)
        issues = workflow.problems()
        if not issues:
            _ensure_bidirectional(workflow)
            return workflow
        logger.info("question %s: plan invalid (%s); repaired to template",
                    question.question_id, "; ".join(issues))
    return replace(template, repaired=True)


def _ensure_bidirectional(workflow: Workflow) -> None:
    if workflow.qtype != QTYPE_CAUSAL:
        return
    for stage in workflow.stages:
        if stage.agent == TEXT_AGENT and "search backward" not in \
                stage.task_description.lower():
            stage.task_description = (
                f"{stage.task_description.rstrip('.')}. {BIDIRECTIONAL_TASK}.")


# ---------------------------------------------------------------------------
# ReAct execution
# ---------------------------------------------------------------------------

_FINAL_RE = re.compile(r"^FINAL:\s*(.*)", re.MULTILINE | re.DOTALL)
_ACTION_RE = re.compile(r"^ACTION:\s*(\w+)\s*(\{.*\})?\s*$", re.MULTILINE)
_THOUGHT_RE = re.compile(r"^THOUGHT:\s*(.*)", re.MULTILINE)


def react_preamble(stage: Stage, question: QuestionBundle,
                   profile: AgentProfile) -> str:
    listed = "\n".join(f"{i}. {o}" for i, o in enumerate(question.options))
    tools = "\n".join(f"  {t}" for t in profile.tools)
    return (
        f"[{stage.agent}] working on question {question.question_id}.\n"
        f"Task: {stage.task_description}\n"
        f"Strategy ({profile.strategy.name}): {profile.strategy.instructions}\n"
        f"Question: {question.text}\n"
        f"Options:\n{listed}\n"
        f"Tools (one call per turn, args as JSON):\n{tools}\n"
        'Reply with "THOUGHT: ..." then either "ACTION: <tool> {...}" or\n'
        'FINAL: {"option_support": [s0, s1, ...], "confidence": c, '
        '"rationale": "...", "direction_check": {"cause_supported": bool, '
        '"effect_supported": bool}}\n'
        "option_support holds one value in [0,1] per option; direction_check "
        "is for causal questions only."
    )


def _step_prompt(lines: list[str], step: int) -> str:
    return "\n".join(lines) + f"\nStep {step}:"


def opening_prompts(workflow: Workflow, question: QuestionBundle,
                    profile: AgentProfile) -> list[str]:
    """The step-1 prompt of each evidence stage `execute_workflow` starts at
    once: those that read only seed keys, at a position among evidence
    stages below `max_iterations` (each stage before one takes a step of
    the shared budget, so the sequential run gives a later one none). No
    such prompt reads the store, so `plan_question` sends each ahead,
    before the store is built. A stage still takes no step its budget
    forbids, so under a budget that binds, a call sent ahead may go
    unmet."""
    staged = [s for s in workflow.stages if s.agent in EVIDENCE_AGENTS]
    return [_step_prompt([react_preamble(stage, question, profile)], 1)
            for stage in staged[:workflow.max_iterations]
            if set(stage.input_keys) <= set(SEED_KEYS)]


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


def _parse_final(payload: str, agent: str,
                 num_options: int) -> EvidenceItem | str:
    """EvidenceItem from a FINAL payload, or a rejection reason string.
    Finite numbers are clamped to [0, 1]; any other type is rejected."""
    try:
        doc = parse_doc(payload, "FINAL")
        support = doc.numbers("option_support")
        if len(support) != num_options:
            doc.fail(f"must list {num_options} values, got {len(support)}",
                     "option_support")
        check = doc.obj("direction_check", None, null=True)
        return EvidenceItem(
            source=agent, option_support=tuple(_clamp(v) for v in support),
            confidence=_clamp(doc.number("confidence", 0.5)),
            rationale=doc.string("rationale", ""),
            direction_check=None if check is None else DirectionCheck(
                check.boolean("cause_supported", False),
                check.boolean("effect_supported", False)))
    except ValidationError as exc:
        return str(exc)


def _run_tool(tool: str, args: Doc, store: KnowledgeStore,
              profile: AgentProfile, backend: Backend, qtype: str) -> str:
    if tool not in profile.tools:
        raise ValidationError(
            f"tool {tool!r} is not in this profile's tool list {profile.tools}")
    if tool == TOOL_INSPECT_FRAME:
        frame = args.integer("frame_index")
        prompt = args.string("prompt", "Describe this frame.")
        return backend.call(caption_request(store.frame_ref(frame), prompt))
    return store.retrieve(tool, qtype, args.value or None).as_text()


def truncated_evidence(agent: str, num_options: int, reason: str) -> EvidenceItem:
    return EvidenceItem(source=agent, option_support=(0.0,) * num_options,
                        confidence=0.0, rationale=reason, truncated=True)


def _budget_exhausted(agent: str,
                      num_options: int) -> tuple[EvidenceItem, TraceStep]:
    return (truncated_evidence(agent, num_options,
                               "iteration budget exhausted before FINAL"),
            TraceStep(agent, "budget exhausted", "truncate",
                      "emitting zero-support evidence"))


def run_react(stage: Stage, question: QuestionBundle, store: KnowledgeStore,
              profile: AgentProfile, backend: Backend, budget: int,
              trace: list[TraceStep],
              may_start: Callable[[int], bool] = lambda step: True
              ) -> tuple[EvidenceItem, int]:
    """Bounded thought/action/observation loop for one evidence stage.

    Step s runs only while s <= `budget` and `may_start(s)` holds. Each
    step appends exactly one trace step. Every step's call goes through
    `backend`, so a step-1 call the question's view sent ahead is met
    there, its reply or its error alike. Tool errors, and a reply that
    fails the type check (MalformedResponseError), become observations and
    never abort the loop; any other backend error propagates. When the
    loop stops before a FINAL, a zero-support item flagged truncated is
    returned with the steps taken.
    """
    lines = [react_preamble(stage, question, profile)]
    step = 0
    while step < budget and may_start(step + 1):
        step += 1
        try:
            reply = backend.call(chat_request(_step_prompt(lines, step)))
        except MalformedResponseError as exc:
            observation = f"ERROR: {exc}"
            trace.append(TraceStep(stage.agent, "malformed reply",
                                   "unparseable", observation))
            lines.append(f"OBSERVATION: {observation}")
            continue
        thought_m = _THOUGHT_RE.search(reply)
        thought = thought_m.group(1).strip() if thought_m else reply.split("\n")[0]

        final_m = _FINAL_RE.search(reply)
        if final_m:
            outcome = _parse_final(final_m.group(1).strip(), stage.agent,
                                   len(question.options))
            if isinstance(outcome, EvidenceItem):
                trace.append(TraceStep(stage.agent, thought, "final",
                                       "evidence accepted"))
                return outcome, step
            observation = f"ERROR: {outcome}"
            trace.append(TraceStep(stage.agent, thought, "final", observation))
        else:
            action_m = _ACTION_RE.search(reply)
            if action_m:
                tool = action_m.group(1)
                try:
                    args = parse_doc(action_m.group(2) or "{}", tool)
                    observation = _run_tool(tool, args, store, profile,
                                            backend, question.qtype)
                except VideoQAError as exc:
                    observation = f"ERROR: {exc}"
                trace.append(TraceStep(stage.agent, thought,
                                       f"{tool} {action_m.group(2) or '{}'}",
                                       observation[:500]))
            else:
                observation = ("ERROR: could not parse reply; use ACTION or "
                               "FINAL")
                trace.append(TraceStep(stage.agent, thought, "unparseable",
                                       observation))
        lines.append(reply)
        lines.append(f"OBSERVATION: {observation}")
    item, truncate = _budget_exhausted(stage.agent, len(question.options))
    trace.append(truncate)
    return item, step


# ---------------------------------------------------------------------------
# Evidence integration
# ---------------------------------------------------------------------------

DIRECTION_PENALTY = 0.5


def integrate_evidence(items: list[EvidenceItem], profile: AgentProfile,
                       qtype: str) -> OptionScore:
    """Weighted per-option fusion: sum over items of
    weight(source) * confidence * support[option].

    For causal questions an item whose direction check disagrees with
    itself (cause vs effect) has its confidence halved first. Ties break
    to the lowest option index.
    """
    n = len(items[0].option_support)
    scores = [0.0] * n
    for item in items:
        weight = profile.weights.get(_SOURCE_KEY.get(item.source, ""), 0.0)
        confidence = item.confidence
        if (qtype == QTYPE_CAUSAL and item.direction_check is not None
                and item.direction_check.cause_supported
                != item.direction_check.effect_supported):
            confidence = confidence * DIRECTION_PENALTY
        for option in range(n):
            scores[option] += weight * confidence * item.option_support[option]
    chosen = max(range(n), key=lambda o: (scores[o], -o))
    ranked = sorted(scores, reverse=True)
    margin = ranked[0] - ranked[1] if n >= 2 else 0.0
    return OptionScore(scores=tuple(scores), chosen_index=chosen, margin=margin)


# ---------------------------------------------------------------------------
# Answer generation
# ---------------------------------------------------------------------------

_CHOICE_RE = re.compile(r"\boption\s+([A-Za-z]|\d+)\b|\banswer\s*[:=]?\s*([A-Za-z]|\d+)\b",
                        re.IGNORECASE)


def _parse_stated_choice(reply: str, num_options: int) -> tuple[int | None, bool]:
    """(stated index or None, out_of_space). Accepts indices or letters."""
    m = _CHOICE_RE.search(reply)
    if not m:
        return None, False
    token = m.group(1) or m.group(2)
    if token.isdigit():
        # No option space reaches 10 digits; past 4,300 `int` would raise.
        idx = int(token) if len(token) < 10 else num_options
    else:
        idx = ord(token.upper()) - ord("A")
    if 0 <= idx < num_options:
        return idx, False
    return None, True


def answer_prompt(question_id: str, options: tuple[str, ...],
                  scores: OptionScore, evidence: list[EvidenceItem]) -> str:
    listed = "\n".join(f"{i}. {o}" for i, o in enumerate(options))
    rationales = "\n".join(f"- {it.source}: {it.rationale or '(none)'}"
                           for it in evidence)
    return (
        f"[{ANSWER_AGENT}] drafting explanation for question {question_id}.\n"
        f"Options:\n{listed}\n"
        f"Integrated scores: {[round(s, 6) for s in scores.scores]}\n"
        f"Evidence rationales:\n{rationales}\n"
        "State the chosen option index and explain the reasoning path from "
        "the evidence to that choice."
    )


def generate_answer(scores: OptionScore, evidence: list[EvidenceItem],
                    options: tuple[str, ...], llm, *, question_id: str = "",
                    trace: list[TraceStep] | None = None, rounds_used: int = 0,
                    truncated: bool = False) -> AnswerRecord:
    """Final selection and explanation. The integrated argmax always wins;
    a differing model choice is logged, never adopted."""
    trace = trace if trace is not None else []
    chosen = scores.chosen_index
    explanation = ""
    observation = "explanation drafted"
    try:
        explanation = llm.call(chat_request(
            answer_prompt(question_id, options, scores, evidence)))
    except BackendError as exc:
        explanation = "Scores computed from integrated evidence."
        observation = f"explanation backend failed: {exc}"

    stated, out_of_space = _parse_stated_choice(explanation, len(options))
    if out_of_space:
        observation += "; stated choice outside the option space, argmax retained"
        logger.warning("question %s: stated choice outside option space",
                       question_id)
    elif stated is not None and stated != chosen:
        observation += (f"; stated choice {stated} disagrees with argmax "
                        f"{chosen}, argmax retained")
        logger.info("question %s: model chose %d, argmax %d wins",
                    question_id, stated, chosen)

    validated = any(item.option_support[chosen] > 0 for item in evidence)
    trace.append(TraceStep(ANSWER_AGENT, explanation[:300], "answer", observation))
    return AnswerRecord(
        question_id=question_id,
        chosen_index=chosen,
        chosen_text=options[chosen],
        scores=scores,
        trace=trace,
        rounds_used=rounds_used,
        validated=validated,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# Workflow execution
# ---------------------------------------------------------------------------

def execute_workflow(workflow: Workflow, question: QuestionBundle,
                     store: KnowledgeStore, profile: AgentProfile,
                     backend: Backend, pool: Executor) -> AnswerRecord:
    """Run the workflow's stages as the DAG their keys declare, under the
    shared iteration budget, and return the record running them one after
    another would give.

    Each evidence stage runs on `pool` once the stages whose output it
    consumes have finished, so the text and visual stages overlap when both
    read only the seed keys. The budget `B` is shared in stage order, as if
    the stages ran in turn: a stage's sequential allowance is `B` minus the
    steps its predecessors consumed. While they still run, a stage may
    start step s only while s <= B - (steps its predecessors have started
    so far). That bound only shrinks and never falls below the sequential
    allowance `A`, so a stage whose run outlasts `A` is cut there once all
    stages finish: it keeps its first `A` trace steps (the same calls the
    sequential run makes) and ends with the truncate step, or is skipped
    when `A` is 0. A valid workflow has at most two evidence stages, since
    each evidence agent appears once; the first always has the whole
    budget, which is what makes the cut exact.

    `backend` is the question's view (`backends.View`): the stages meet
    there the step-1 calls `plan_question` sent ahead, and share each
    distinct caption request. Every other call is one the sequential run
    makes, except when the budget binds: a later stage can start up to
    B - 1 steps its sequential allowance then discards. An
    error raised at a step within its stage's allowance surfaces, the first
    in stage order, after every stage has finished; errors from discarded
    steps are dropped. Traces merge in stage order, and integration and the
    answer run after all evidence.
    """
    issues = workflow.problems()
    if issues:
        raise ValidationError(f"invalid workflow: {'; '.join(issues)}")
    trace: list[TraceStep] = []
    if workflow.repaired:
        trace.append(TraceStep(TASK_PLANNING, "model plan failed validation",
                               "repair", "template workflow substituted"))
    budget = workflow.max_iterations
    staged = [s for s in workflow.stages if s.agent in EVIDENCE_AGENTS]
    started = [0] * len(staged)
    stage_traces: list[list[TraceStep]] = [[] for _ in staged]

    def may_start(index: int, step: int) -> bool:
        # Only stage `index` writes started[index], and the others' counts
        # only grow, so a stale read can allow a step, never refuse one the
        # sequential run takes.
        if step > budget - sum(started[:index]):
            return False
        started[index] = step
        return True

    def run_stage(index: int,
                  after: list[Future]) -> tuple[EvidenceItem, int]:
        for future in after:
            future.result()
        return run_react(staged[index], question, store, profile, backend,
                         budget, stage_traces[index], partial(may_start, index))

    futures: list[Future] = []
    producers: dict[str, Future] = {}
    for index, stage in enumerate(staged):
        after = [producers[k] for k in stage.input_keys if k in producers]
        futures.append(pool.submit(run_stage, index, after))
        producers[stage.output_key] = futures[-1]
    wait(futures)

    rounds_used = 0
    evidence: list[EvidenceItem] = []
    for index, stage in enumerate(staged):
        allowance = budget - rounds_used
        if allowance < 1:
            evidence.append(truncated_evidence(
                stage.agent, len(question.options),
                "skipped: iteration budget exhausted"))
            trace.append(TraceStep(stage.agent, "budget exhausted", "skip",
                                   "stage skipped, zero-support evidence"))
            continue
        if started[index] > allowance:
            item, truncate = _budget_exhausted(stage.agent,
                                               len(question.options))
            trace.extend(stage_traces[index][:allowance] + [truncate])
            consumed = allowance
        else:
            item, consumed = futures[index].result()
            trace.extend(stage_traces[index])
        rounds_used += consumed
        evidence.append(item)

    # Validation puts integration (when selected) after every evidence
    # stage and the answer last.
    scores = integrate_evidence(evidence, profile, workflow.qtype)
    if INTEGRATION_AGENT in workflow.selected_agents:
        trace.append(TraceStep(
            INTEGRATION_AGENT, "weighted evidence fusion", "integrate",
            f"scores={[round(s, 6) for s in scores.scores]}"))
    record = generate_answer(
        scores, evidence, question.options, backend,
        question_id=question.question_id, trace=trace,
        rounds_used=rounds_used,
        truncated=any(item.truncated for item in evidence))
    if record.rounds_used > workflow.max_iterations:
        raise VideoQAError(
            f"iteration budget law violated: {record.rounds_used} rounds "
            f"used, budget {workflow.max_iterations}")
    return record
