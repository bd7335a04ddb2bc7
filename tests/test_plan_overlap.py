"""A question whose profile requires the visual agent is planned while it is
analysed: `plan_question` sends the planning call for the template analysis
will return, unless it retypes the question, beside the analysis call. The
workflow, the log and `ask`'s record are the ones the two calls made in turn
would give; a retyped question costs one discarded planning call."""

from __future__ import annotations

import json
import logging
import threading
from pathlib import Path

import pytest

from videoqa.backends import Backend, MockScript
from videoqa.captioning import QuestionBundle
from videoqa.cli import main
from videoqa.config import EngineConfig
from videoqa.knowledge import builtin_profiles
from videoqa.orchestrator import (
    AGENT_REGISTRY,
    analyze_problem,
    plan_tasks,
    predicted_template,
    template_workflow,
)
from videoqa.pipeline import plan_question

from conftest import GOLDEN_QUESTIONS, RecordingBackend, build_golden_world

GOLDEN_DIR = Path(__file__).parent / "golden"
ANALYSIS, PLANNING = "[ProblemAnalysisAgent]", "[TaskPlanningAgent]"
RETYPED = "This is a Temporal question. Use every agent."


def _golden_bundle(question_id: str) -> QuestionBundle:
    q = next(q for q in GOLDEN_QUESTIONS if q.question_id == question_id)
    return QuestionBundle(q.question_id, q.text, q.options, q.qtype)


def _bundle(qtype: str = "Causal") -> QuestionBundle:
    return QuestionBundle("q1", "Why does the kite rise?",
                          ("the wind", "a string"), qtype)


def _plan(task: str) -> str:
    """A valid four-agent plan whose evidence stages carry `task`."""
    seeds = ["question", "options", "tree"]
    return json.dumps([
        {"agent": "TextAgent", "task": f"{task} text; search backward",
         "inputs": seeds, "output": "text_evidence"},
        {"agent": "VisualAnalysisAgent", "task": f"{task} frames",
         "inputs": seeds, "output": "visual_evidence"},
        {"agent": "EvidenceIntegrationAgent", "task": "fuse",
         "inputs": ["text_evidence", "visual_evidence"],
         "output": "option_scores"},
        {"agent": "AnswerGenerationAgent", "task": "answer",
         "inputs": ["option_scores"], "output": "answer"},
    ])


def _script(analysis: str, causal_plan: str | None = None,
            causal_error: str | None = None) -> MockScript:
    """Analysis replies `analysis`; a Causal plan replies `causal_plan` or
    fails with `causal_error`; a Temporal plan is valid."""
    script = MockScript()
    script.add(ANALYSIS, analysis)
    script.add("Question type: Causal", causal_plan, error=causal_error)
    script.add("Question type: Temporal", _plan("temporal"))
    return script


def _planning_calls(backend: RecordingBackend) -> list[str]:
    return [c.rendered for c in backend.calls if PLANNING in c.rendered]


def test_predicted_template_only_where_the_profile_fixes_the_agents() -> None:
    profiles = builtin_profiles()
    for qtype in ("Causal", "Temporal"):
        assert predicted_template(_bundle(qtype), profiles, 7) == \
            template_workflow(qtype, AGENT_REGISTRY, 7)
    assert predicted_template(_bundle("Descriptive"), profiles, 7) is None


def test_causal_analysis_and_planning_calls_meet(golden_world) -> None:
    """Golden a_q1's analysis and planning calls meet at one barrier:
    planning does not wait for the analysis reply, and the workflow is the
    one the calls made in turn give."""
    barrier = threading.Barrier(2, timeout=5)
    script = golden_world.script()
    lookup = script.lookup

    def meeting_lookup(rendered: str):
        if (f"{ANALYSIS} analyzing question a_q1." in rendered
                or f"{PLANNING} planning question a_q1." in rendered):
            barrier.wait()
        return lookup(rendered)

    script.lookup = meeting_lookup
    bundle = _golden_bundle("a_q1")
    before = set(threading.enumerate())
    workflow = plan_question(bundle, builtin_profiles(), EngineConfig(),
                             Backend.from_mock(script, max_inflight=8))
    assert not barrier.broken
    assert set(threading.enumerate()) <= before
    sequential = Backend.from_mock(golden_world.script())
    assert workflow == plan_tasks(
        analyze_problem(bundle, builtin_profiles(), sequential), bundle,
        sequential)
    assert workflow.qtype == "Causal" and not workflow.repaired


def test_retyped_question_discards_its_speculative_plan() -> None:
    """Analysis retypes Causal -> Temporal: the workflow is the Temporal
    plan the calls made in turn give, and the one extra call is the
    discarded Causal plan."""
    backend = RecordingBackend(Backend.from_mock(
        _script(RETYPED, _plan("causal"))))
    workflow = plan_question(_bundle(), builtin_profiles(), EngineConfig(),
                             backend)

    sequential = RecordingBackend(Backend.from_mock(
        _script(RETYPED, _plan("causal"))))
    template = analyze_problem(_bundle(), builtin_profiles(), sequential)
    expected = plan_tasks(template, _bundle("Temporal"), sequential)
    assert workflow == expected
    assert workflow.qtype == "Temporal" and not workflow.repaired
    assert [s.task_description for s in workflow.stages[:2]] == [
        "temporal text; search backward", "temporal frames"]

    planned = _planning_calls(backend)
    speculative = [p for p in planned if "Question type: Causal" in p]
    assert len(speculative) == 1
    assert [p for p in planned if p not in speculative] == \
        _planning_calls(sequential)
    assert len(backend.calls) == len(sequential.calls) + 1 == 3


def test_descriptive_question_plans_after_its_analysis_reply() -> None:
    """The Descriptive profile leaves the visual agent to the reply, so the
    one planning call is sent only once the analysis reply is in."""
    events: list[str] = []
    script = MockScript()
    script.add(ANALYSIS, "Descriptive; TextAgent and AnswerGenerationAgent.")
    script.add(PLANNING, "no plan")
    lookup = script.lookup

    def ordered_lookup(rendered: str):
        if PLANNING in rendered:
            events.append("planning sent")
        rule = lookup(rendered)
        if ANALYSIS in rendered:
            threading.Event().wait(0.05)  # room for a side call to start
            events.append("analysis replied")
        return rule

    script.lookup = ordered_lookup
    backend = RecordingBackend(Backend.from_mock(script, max_inflight=8))
    workflow = plan_question(_bundle("Descriptive"), builtin_profiles(),
                             EngineConfig(), backend)
    assert workflow.qtype == "Descriptive" and workflow.repaired
    assert events == ["analysis replied", "planning sent"]
    assert len(_planning_calls(backend)) == 1


@pytest.mark.parametrize("causal_plan, causal_error", [
    ("[]", None),                 # parses, breaks invariants
    (None, "transport"),          # the planning call fails
])
def test_discarded_speculation_logs_one_info_line(caplog, causal_plan,
                                                  causal_error) -> None:
    """A speculative plan that analysis discards logs neither its failure
    nor its repair: one INFO line says it was discarded."""
    backend = Backend.from_mock(_script(RETYPED, causal_plan, causal_error))
    with caplog.at_level(logging.INFO, logger="videoqa"):
        plan_question(_bundle(), builtin_profiles(), EngineConfig(), backend)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("videoqa.orchestrator", logging.INFO,
         "question q1: analysis reclassified Causal -> Temporal"),
        ("videoqa.pipeline", logging.INFO,
         "question q1: speculative Causal plan discarded; analysis chose "
         "Temporal"),
    ]


@pytest.mark.parametrize("causal_plan, causal_error, level, message", [
    ("[]", None, logging.INFO,
     "question q1: plan invalid (workflow has no stages); repaired to "
     "template"),
    (None, "transport", logging.WARNING,
     "question q1: planner backend failed (scripted transport failure); "
     "using template workflow"),
])
def test_used_speculation_logs_what_planning_logs(caplog, causal_plan,
                                                  causal_error, level,
                                                  message) -> None:
    """Analysis keeps the type, so the speculative plan is used, and its
    log line is the one the calls made in turn write."""
    script = _script("Causal; use every agent.", causal_plan, causal_error)
    with caplog.at_level(logging.INFO, logger="videoqa"):
        workflow = plan_question(_bundle(), builtin_profiles(),
                                 EngineConfig(), Backend.from_mock(script))
    assert workflow.repaired
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("videoqa.orchestrator", level, message)]

    caplog.clear()
    backend = Backend.from_mock(script)
    with caplog.at_level(logging.INFO, logger="videoqa"):
        plan_tasks(analyze_problem(_bundle(), builtin_profiles(), backend),
                   _bundle(), backend)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("videoqa.orchestrator", level, message)]


def _main_within(args: list[str], seconds: float = 60) -> int:
    """`main(args)` on a daemon thread; a run still going after `seconds`
    (a deadlock) fails the test instead of hanging it."""
    result: list[int] = []
    runner = threading.Thread(target=lambda: result.append(main(args)),
                              daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), f"{args[0]} still running after {seconds} s"
    return result[0]


@pytest.mark.parametrize("max_inflight", [1, 8])
def test_ask_golden_causal_question_at_each_inflight_limit(
        tmp_path, capsys, max_inflight) -> None:
    """`ask` plans a_q1 beside its analysis, and prints the record the
    default golden `eval` wrote for it, at in-flight limits 1 and 8."""
    world = build_golden_world(tmp_path / "golden")
    bundle = _golden_bundle("a_q1")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"backend": {"max_inflight": max_inflight}}))
    questions = tmp_path / "questions.json"
    questions.write_text(json.dumps([{"question_id": "a_q1",
                                      "text": bundle.text,
                                      "options": list(bundle.options)}]))
    built = tmp_path / "build.json"
    common = ["--mock-script", str(world.script_path), "--config", str(config)]
    assert _main_within(["build", str(world.video_manifests["golden_a"]),
                         str(questions), str(built), *common]) == 0
    options = [arg for option in bundle.options for arg in ("--option", option)]
    capsys.readouterr()
    assert _main_within(["ask", str(built), "--question", bundle.text,
                         *options, "--question-id", "a_q1", *common]) == 0
    expected = next(
        line for line in (GOLDEN_DIR / "default" / "records.jsonl").read_text(
            encoding="utf-8").splitlines()
        if json.loads(line)["question_id"] == "a_q1")
    assert capsys.readouterr().out.rstrip("\n") == expected
