"""A question's early calls: `plan_question` sends them ahead through the
question's view (`View`), in `ask` and `eval` alike, and the question meets
each where it makes that call.

For a question whose profile requires the visual agent, the planning call
for the template analysis will return, unless it retypes the question, goes
out beside the analysis call. The workflow, the log and `ask`'s record are
the ones the two calls made in turn would give. A retyped question leaves
that call unmet, one call spent; it has returned, with no thread left, when
`plan_question` returns, and no call sent ahead waits for a thread.

Once the workflow is known, step 1 of each evidence stage that starts at
once and is within the budget goes out too; under `eval`, while the video
still builds. A reply that cannot be parsed, or that fails the type check,
costs its step as a live one does, and a call that fails ends the eval as a
live one does. The records and calls are those of a question that sends
nothing ahead, and `ask` prints the record `eval` wrote."""

from __future__ import annotations

import itertools
import json
import logging
import re
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from videoqa import cli
from videoqa.backends import Backend, MockScript, View
from videoqa.captioning import QuestionBundle
from videoqa.cli import main
from videoqa.config import EngineConfig
from videoqa.errors import TransportError
from videoqa.knowledge import builtin_profiles
from videoqa.orchestrator import (
    AGENT_REGISTRY,
    SEED_KEYS,
    analyze_problem,
    plan_tasks,
    predicted_template,
    template_workflow,
)
from videoqa.pipeline import (
    answer_question,
    build_video,
    evaluate,
    load_dataset_manifest,
    plan_question,
)

from conftest import (GENERIC_PHRASE, GOLDEN_QUESTIONS, RecordingBackend,
                      build_golden_world)

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


def _analysis_calls(backend: RecordingBackend) -> list[str]:
    return [c.rendered for c in backend.calls if ANALYSIS in c.rendered]


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
                             View(Backend.from_mock(script, max_inflight=8)))
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
                             View(backend))

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
    assert len(_planning_calls(backend) + _analysis_calls(backend)) == \
        len(sequential.calls) + 1 == 3


def _held_causal_plan(script: MockScript, hold) -> MockScript:
    """`script`, with `hold(rendered)` run before the speculative Causal
    planning call and each step-1 call are answered."""
    lookup = script.lookup

    def holding_lookup(rendered: str):
        if "Question type: Causal" in rendered or rendered.endswith(STEP_1_END):
            hold(rendered)
        return lookup(rendered)

    script.lookup = holding_lookup
    return script


@pytest.mark.parametrize("max_inflight", [1, 8])
def test_a_discarded_plan_has_returned_when_planning_returns(
        max_inflight) -> None:
    """The speculative Causal plan stays in flight while analysis retypes
    the question: when `plan_question` returns, that call has returned,
    and no thread is left."""
    script = _held_causal_plan(_script(RETYPED, _plan("causal")),
                               lambda rendered: time.sleep(
                                   0.2 if "Question type" in rendered else 0))
    backend = RecordingBackend(Backend.from_mock(script, max_inflight))
    before = set(threading.enumerate())
    workflow = plan_question(_bundle(), builtin_profiles(), EngineConfig(),
                             View(backend))
    assert workflow.qtype == "Temporal"
    assert len([p for p in _planning_calls(backend)
                if "Question type: Causal" in p]) == 1
    assert set(threading.enumerate()) <= before


def test_no_call_sent_ahead_waits_for_a_thread() -> None:
    """The discarded Causal plan of a retyped question and both of its
    Temporal stages' step-1 calls meet at one barrier."""
    barrier = threading.Barrier(3, timeout=5)
    script = _held_causal_plan(_script(RETYPED, _plan("causal")),
                               lambda rendered: barrier.wait())
    plan_question(_bundle(), builtin_profiles(), EngineConfig(),
                  View(Backend.from_mock(script, max_inflight=8)))
    assert not barrier.broken


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
                             EngineConfig(), View(backend))
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
        plan_question(_bundle(), builtin_profiles(), EngineConfig(),
                      View(backend))
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
                                 EngineConfig(),
                                 View(Backend.from_mock(script)))
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


# ---------------------------------------------------------------------------
# Step 1 of each evidence stage, sent ahead (under `eval`, while the video
# builds)
# ---------------------------------------------------------------------------

# A rendered chat request ends with its prompt, then the `role` key.
STEP_1_END = 'Step 1:","role":"user"}]}'
PARSE_ERROR = "ERROR: could not parse reply; use ACTION or FINAL"
TYPE_ERROR = "ERROR: chat reply#: expected a string, got 42"
UNPARSEABLE = "THOUGHT: the frames disagree\nNo tool and no answer yet."


@pytest.fixture
def recorders(monkeypatch) -> list[RecordingBackend]:
    """Each backend `main` makes, wrapped to record its calls, in turn."""
    made: list[RecordingBackend] = []
    make_backend = cli._make_backend

    def recording_backend(args, config):
        made.append(RecordingBackend(make_backend(args, config)))
        return made[-1]

    monkeypatch.setattr(cli, "_make_backend", recording_backend)
    return made


def _step_1_rule(agent: str, question_id: str, **reply) -> dict:
    """A mock rule for the step-1 prompt of `agent` on `question_id` alone,
    placed before the golden rules."""
    prompt = re.escape(f"[{agent}] working on question {question_id}.")
    return {"match": f"{prompt}.*{re.escape(STEP_1_END)}", "regex": True,
            **reply}


def _script_with(world, rule: dict) -> Path:
    path = world.root / "script_with_rule.json"
    path.write_text(json.dumps({"rules": [rule, *json.loads(
        world.script_path.read_text())["rules"]]}), encoding="utf-8")
    return path


def _prompts(backend: RecordingBackend, marker: str) -> list[str]:
    """The chat prompts of the recorded calls that contain `marker`."""
    return [json.loads(c.rendered.split(":", 1)[1])["messages"][0]["content"]
            for c in backend.calls
            if c.capability == "chat" and marker in c.rendered]


class LiveView(View):
    """A question's view that sends nothing ahead: each call goes out where
    the question makes it."""

    def send_ahead(self, request, pool) -> None:
        pass


def _answer_live(dataset: Path, config: EngineConfig, backend) -> list:
    """`evaluate`'s work with every call made live: each video built, then
    each of its questions planned and answered in turn, through a view that
    sends nothing ahead, so step 1 is sent from `run_react`."""
    records = []
    for entry in load_dataset_manifest(dataset):
        result = build_video(entry.frame_manifest_path, list(entry.questions),
                             config, backend, entry.video_id)
        for bundle in result.bundles:
            view = LiveView(backend)
            workflow = plan_question(bundle, builtin_profiles(), config, view)
            records.append(answer_question(bundle, result.store,
                                           builtin_profiles(), config, view,
                                           workflow))
    return records


def _is_typed_caption(rendered: str) -> bool:
    return rendered.startswith("caption:") and GENERIC_PHRASE not in rendered


@pytest.mark.parametrize("agent", ["TextAgent", "VisualAnalysisAgent"])
def test_eval_sends_step_1_while_the_video_builds(tmp_path, agent) -> None:
    """Step 1 of golden a_q1's `agent` stage and golden_a's last typed
    caption meet at one barrier: the step-1 call goes out while the build
    whose store the stage will read is still captioning."""
    world = build_golden_world(tmp_path / "golden")
    [entry, _] = load_dataset_manifest(world.dataset_path)
    built = RecordingBackend(Backend.from_mock(world.script()))
    build_video(entry.frame_manifest_path, list(entry.questions),
                EngineConfig(), built)
    typed = sum(_is_typed_caption(c.rendered) for c in built.calls)
    barrier = threading.Barrier(2, timeout=5)
    sent_typed = itertools.count(1)
    script = world.script()
    lookup = script.lookup

    def meeting_lookup(rendered: str):
        if (f"[{agent}] working on question a_q1." in rendered
                and rendered.endswith(STEP_1_END)):
            barrier.wait()
        if (_is_typed_caption(rendered) and "golden_a:frame:" in rendered
                and next(sent_typed) == typed):
            barrier.wait()
        return lookup(rendered)

    script.lookup = meeting_lookup
    _, report = evaluate(world.dataset_path, EngineConfig(),
                         Backend.from_mock(script, max_inflight=8))
    assert report.accuracy_overall == 1.0 and not barrier.broken


@pytest.mark.parametrize("max_iterations, opened", [
    (1, ["TextAgent"]),
    (2, ["TextAgent", "VisualAnalysisAgent"]),
])
def test_only_stages_within_the_budget_send_step_1_early(
        golden_world, max_iterations, opened) -> None:
    """Golden a_q1's workflow has two evidence stages reading only seed
    keys. Under a budget of 1 the second gets no step in the sequential
    run, so only the first stage's step 1 goes out with the plan; under 2,
    both. Each has returned when `plan_question` returns, and the eval's
    records are the ones answering each question live gives."""
    config = EngineConfig(max_iterations=max_iterations)
    backend = RecordingBackend(Backend.from_mock(golden_world.script()))
    workflow = plan_question(_golden_bundle("a_q1"), builtin_profiles(),
                             config, View(backend))
    evidence = workflow.stages[:2]
    assert [s.agent for s in evidence] == ["TextAgent", "VisualAnalysisAgent"]
    assert all(s.input_keys == SEED_KEYS for s in evidence)
    react = _prompts(backend, "working on question a_q1.")
    assert sorted(p.split("]", 1)[0][1:] for p in react) == opened
    assert all(p.endswith("\nStep 1:") for p in react)

    records, _ = evaluate(golden_world.dataset_path, config,
                          golden_world.backend())
    live = _answer_live(golden_world.dataset_path, config,
                        golden_world.backend())
    assert [r.to_json() for r in records] == [r.to_json() for r in live]


def test_a_stage_that_reads_another_stage_sends_step_1_live() -> None:
    """A plan whose visual stage reads the text stage's evidence: only the
    text stage's step 1 goes out with the plan, since the visual stage
    starts after it and the budget may leave it no step."""
    plan = json.loads(_plan("causal"))
    plan[1]["inputs"] = ["question", "text_evidence"]
    backend = RecordingBackend(Backend.from_mock(
        _script("Causal; use every agent.", json.dumps(plan))))
    workflow = plan_question(_bundle(), builtin_profiles(), EngineConfig(),
                             View(backend))
    assert not workflow.repaired
    assert workflow.stages[1].input_keys == ("question", "text_evidence")
    react = _prompts(backend, "working on question q1.")
    assert [p.split("]", 1)[0] for p in react] == ["[TextAgent"]


@pytest.mark.parametrize("reply, step, step_2_lines", [
    (UNPARSEABLE,
     {"thought": "the frames disagree", "action": "unparseable",
      "observation": PARSE_ERROR},
     [UNPARSEABLE, f"OBSERVATION: {PARSE_ERROR}"]),
    (42,
     {"thought": "malformed reply", "action": "unparseable",
      "observation": TYPE_ERROR},
     [f"OBSERVATION: {TYPE_ERROR}"]),
], ids=["no-action-or-final", "fails-type-check"])
def test_a_step_1_reply_that_fails_costs_its_step(
        tmp_path, capsys, recorders, reply, step, step_2_lines) -> None:
    """Step 1 of golden b_q1's text stage replies with neither ACTION nor
    FINAL, or with a number. Under `eval`, where step 1 went out while the
    video built, and under `build` and `ask`, where it went out once the
    stored video was planned, the step is traced the same, the step-2
    prompt carries the observation a live step 1 gives, and `ask` prints
    the record `eval` wrote."""
    world = build_golden_world(tmp_path / "golden")
    script = _script_with(world, _step_1_rule("TextAgent", "b_q1",
                                              response=reply))
    common = ["--mock-script", str(script)]
    records = tmp_path / "records.jsonl"
    assert main(["eval", str(world.dataset_path), "--out-records",
                 str(records), "--out-report", str(tmp_path / "report.json"),
                 *common]) == 0
    expected = next(line for line in records.read_text().splitlines()
                    if json.loads(line)["question_id"] == "b_q1")
    assert json.loads(expected)["trace"][1] == {"agent": "TextAgent", **step}

    entry = json.loads(world.dataset_path.read_text())["entries"][1]
    questions = tmp_path / "golden_b.questions.json"
    questions.write_text(json.dumps(entry["questions"]))
    built = tmp_path / "build.json"
    assert main(["build", str(world.video_manifests["golden_b"]),
                 str(questions), str(built), *common]) == 0
    question = entry["questions"][0]
    options = [arg for option in question["options"]
               for arg in ("--option", option)]
    capsys.readouterr()
    assert main(["ask", str(built), "--question", question["text"],
                 *options, "--question-id", "b_q1", *common]) == 0
    assert capsys.readouterr().out.rstrip("\n") == expected

    evaluated, _, asked = recorders
    for backend in (evaluated, asked):
        step_1, step_2 = _prompts(backend,
                                  "[TextAgent] working on question b_q1.")
        assert step_1.endswith("\nStep 1:")
        assert step_2 == "\n".join([step_1.removesuffix("\nStep 1:"),
                                    *step_2_lines, "Step 2:"])


@pytest.mark.parametrize("max_inflight", [1, 8])
def test_eval_whose_step_1_call_fails_ends_as_a_live_call_would(
        tmp_path, capsys, max_inflight) -> None:
    """Step 1 of golden b_q5's text stage (the last question of the last
    video) raises a transport error, the failure the remote backend raises
    once its retries are spent. `eval` exits 3 with the call's message and
    writes nothing, after the calls that answering each question live
    makes: every other question is answered, b_q5's visual stage runs, and
    its answer is never drafted."""
    world = build_golden_world(tmp_path / "golden")
    script = _script_with(world, _step_1_rule("TextAgent", "b_q5",
                                              error="transport"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"backend": {"max_inflight": max_inflight}}))
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert main(["eval", str(world.dataset_path),
                 "--out-records", str(out / "records.jsonl"),
                 "--out-report", str(out / "report.json"),
                 "--mock-script", str(script), "--config", str(config)]) == 3
    assert capsys.readouterr().err == "error: scripted transport failure\n"
    assert not list(out.iterdir())

    calls = []
    for run in (evaluate, _answer_live):
        backend = RecordingBackend(Backend.from_mock(
            MockScript.from_file(script), max_inflight))
        with pytest.raises(TransportError,
                           match="^scripted transport failure$"):
            run(world.dataset_path, EngineConfig(), backend)
        calls.append(Counter(c.rendered for c in backend.calls))
    evaluated, live = calls
    assert evaluated == live
    assert not [c for c in evaluated
                if "drafting explanation for question b_q5" in c]
