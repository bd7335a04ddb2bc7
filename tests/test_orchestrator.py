from __future__ import annotations

import json
import logging
import math
import random

import pytest

from videoqa.backends import Backend, MockScript
from videoqa.captioning import FrameCaption, QuestionBundle
from videoqa.errors import ValidationError, VideoQAError
from videoqa.knowledge import (
    PAGE_ROWS,
    RETRIEVAL_SCOPES,
    AgentProfile,
    KnowledgeStore,
    RetrievalResult,
    builtin_profiles,
)
import videoqa.knowledge as knowledge
import videoqa.orchestrator as orchestrator
from videoqa.orchestrator import (
    AGENT_REGISTRY,
    ANSWER_AGENT,
    INTEGRATION_AGENT,
    TEXT_AGENT,
    VISUAL_AGENT,
    DirectionCheck,
    EvidenceItem,
    Stage,
    Workflow,
    analyze_problem,
    execute_workflow,
    generate_answer,
    integrate_evidence,
    plan_tasks,
    run_react,
    template_workflow,
)
from videoqa.tree import RelevanceScore, tree_from_shots

from conftest import (
    TREE_PARAMS,
    RecordingBackend,
    frame_line,
    long_store,
    profile_doc,
)


def _backend(*rules, default=None) -> RecordingBackend:
    script = MockScript(default_response=default)
    for match, response in rules:
        script.add(match, response)
    return RecordingBackend(Backend.from_mock(script))


def _bundle(qtype: str = "Causal", text: str = "Why is the man looking up?",
            options: tuple[str, ...] = ("a bird", "the children", "rain"),
            qid: str = "q1") -> QuestionBundle:
    return QuestionBundle(qid, text, options, qtype)


def _store() -> KnowledgeStore:
    tree = tree_from_shots("vid", [range(0, 6), range(6, 12)], frame_line(12),
                           TREE_PARAMS)
    for shot, value in zip(tree.shots(), (2.0, 4.0)):
        shot.relevance = RelevanceScore(value)
    return KnowledgeStore(
        tree=tree, first_pass={0: "bench", 1: "fountain"},
        captions={(8, "Causal"): FrameCaption(8, "Causal",
                                              "children by a fountain")})


def _profile(qtype: str = "Causal") -> AgentProfile:
    return builtin_profiles()[qtype]


def _final(support, confidence=1.0, direction=None) -> str:
    doc = {"option_support": list(support), "confidence": confidence,
           "rationale": "scripted"}
    if direction:
        doc["direction_check"] = direction
    return "THOUGHT: done\nFINAL: " + json.dumps(doc)


# ---------------------------------------------------------------------------
# Problem analysis
# ---------------------------------------------------------------------------

def test_analyze_static_descriptive_drops_visual_agent() -> None:
    backend = _backend(("analyzing question",
                    "Descriptive; TextAgent and AnswerGenerationAgent."))
    bundle = _bundle("Descriptive", "What is the location?",
                     ("a park", "a kitchen"))
    analysis = analyze_problem(bundle, builtin_profiles(), backend)
    assert analysis.selected_agents == (TEXT_AGENT, ANSWER_AGENT)


def test_analyze_causal_selects_all_four() -> None:
    backend = _backend(("analyzing question",
                    "Causal. Use TextAgent, VisualAnalysisAgent, "
                    "EvidenceIntegrationAgent, AnswerGenerationAgent."))
    analysis = analyze_problem(_bundle(), builtin_profiles(), backend)
    assert analysis.selected_agents == AGENT_REGISTRY


def test_analyze_unknown_agent_names_ignored() -> None:
    backend = _backend(("analyzing question",
                    "Descriptive; deploy the HologramAgent and the "
                    "VibesAgent immediately"))
    bundle = _bundle("Descriptive", "What is the location?", ("a", "b"))
    analysis = analyze_problem(bundle, builtin_profiles(), backend)
    assert analysis.selected_agents == (TEXT_AGENT, ANSWER_AGENT), \
        "unknown names ignored, minimum set enforced"


def test_analyze_profile_requirement_overrides_model_omission() -> None:
    backend = _backend(("analyzing question", "Causal. TextAgent only."))
    analysis = analyze_problem(_bundle(), builtin_profiles(), backend)
    assert VISUAL_AGENT in analysis.selected_agents, \
        "causal profile requires the visual agent"
    assert INTEGRATION_AGENT in analysis.selected_agents


def test_analyze_type_override_is_recorded(caplog) -> None:
    backend = _backend(("analyzing question", "Actually Temporal. All four: "
                    "TextAgent, VisualAnalysisAgent, "
                    "EvidenceIntegrationAgent, AnswerGenerationAgent."))
    with caplog.at_level(logging.INFO, logger="videoqa.orchestrator"):
        analysis = analyze_problem(_bundle("Causal"), builtin_profiles(),
                                   backend)
    assert analysis.qtype == "Temporal"
    assert "analysis reclassified Causal -> Temporal" in caplog.text


def test_analyze_reply_failing_the_type_check_reads_as_empty(caplog) -> None:
    """A reply that is no string keeps the type, and the profile alone
    decides the visual agent."""
    backend = _backend(("analyzing question", ["x"]))
    profiles = builtin_profiles()
    with caplog.at_level(logging.WARNING, logger="videoqa.orchestrator"):
        for qtype in ("Causal", "Descriptive"):
            template = analyze_problem(_bundle(qtype), profiles, backend, 7)
            visual = profiles[qtype].requires_visual_agent
            assert template.qtype == qtype
            assert template.selected_agents == (
                AGENT_REGISTRY if visual else (TEXT_AGENT, ANSWER_AGENT))
            assert template.max_iterations == 7 and not template.repaired
    assert "analysis backend failed" in caplog.text


# ---------------------------------------------------------------------------
# Task planning
# ---------------------------------------------------------------------------

def _plan_reply(stages: list[dict]) -> str:
    return "Here is the plan:\n" + json.dumps(stages)


def test_plan_accepts_valid_model_plan() -> None:
    stages = [
        {"agent": TEXT_AGENT, "task": "Search backward for triggers and "
         "forward for consequences.", "inputs": ["question", "tree"],
         "output": "text_evidence"},
        {"agent": VISUAL_AGENT, "task": "verify", "inputs": ["question"],
         "output": "visual_evidence"},
        {"agent": INTEGRATION_AGENT, "task": "fuse",
         "inputs": ["text_evidence", "visual_evidence"],
         "output": "option_scores"},
        {"agent": ANSWER_AGENT, "task": "answer", "inputs": ["option_scores"],
         "output": "answer"},
    ]
    backend = _backend(("planning question", _plan_reply(stages)))
    template = template_workflow("Causal", AGENT_REGISTRY)
    workflow = plan_tasks(template, _bundle(), backend)
    assert not workflow.repaired
    assert [s.agent for s in workflow.stages] == list(AGENT_REGISTRY)
    assert "search backward" in workflow.stages[0].task_description.lower()


_TEXT_STAGE = {"agent": TEXT_AGENT, "task": "t", "inputs": ["question"],
               "output": "text_evidence"}
_ANSWER_STAGE = {"agent": ANSWER_AGENT, "task": "a",
                 "inputs": ["text_evidence"], "output": "answer"}


def test_plan_followed_by_text_is_read() -> None:
    """The plan is the text from the first `[` to the last `]`."""
    stages = [_TEXT_STAGE, _ANSWER_STAGE]
    backend = _backend(("planning question", _plan_reply(stages) + ". Done."))
    template = template_workflow("Descriptive", (TEXT_AGENT, ANSWER_AGENT))
    workflow = plan_tasks(template, _bundle("Descriptive"), backend)
    assert not workflow.repaired
    assert [s.task_description for s in workflow.stages] == ["t", "a"]


def test_plan_unproduced_key_repaired_to_template() -> None:
    stages = [
        {"agent": TEXT_AGENT, "task": "t", "inputs": ["missing_key"],
         "output": "text_evidence"},
        {"agent": ANSWER_AGENT, "task": "a", "inputs": ["text_evidence"],
         "output": "answer"},
    ]
    backend = _backend(("planning question", _plan_reply(stages)))
    template = template_workflow("Descriptive", (TEXT_AGENT, ANSWER_AGENT))
    workflow = plan_tasks(template, _bundle("Descriptive"), backend)
    assert workflow.repaired is True
    assert [s.agent for s in workflow.stages] == [TEXT_AGENT, ANSWER_AGENT]


@pytest.mark.parametrize("stages,problem", [
    pytest.param([{"agent": VISUAL_AGENT, "task": "v", "inputs": ["question"],
                   "output": "visual_evidence"}, _TEXT_STAGE, _ANSWER_STAGE],
                 f"stage agent {VISUAL_AGENT} not in the selected set",
                 id="unselected-agent"),
    pytest.param([_TEXT_STAGE, dict(_TEXT_STAGE, output="more_text"),
                  _ANSWER_STAGE],
                 f"agent {TEXT_AGENT} must appear exactly once",
                 id="agent-twice"),
    pytest.param([dict(_TEXT_STAGE, output=""),
                  dict(_ANSWER_STAGE, inputs=["question"])],
                 f"stage {TEXT_AGENT} has no output key", id="empty-output"),
])
def test_plan_breaking_one_invariant_is_repaired(caplog, stages,
                                                 problem) -> None:
    """Each plan breaks only the invariant named, on a Descriptive
    text-only template."""
    backend = _backend(("planning question", _plan_reply(stages)))
    template = template_workflow("Descriptive", (TEXT_AGENT, ANSWER_AGENT))
    with caplog.at_level(logging.INFO, logger="videoqa"):
        workflow = plan_tasks(template, _bundle("Descriptive"), backend)
    assert workflow.repaired is True
    assert [s.agent for s in workflow.stages] == [TEXT_AGENT, ANSWER_AGENT]
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("videoqa.orchestrator", logging.INFO,
         f"question q1: plan invalid ({problem}); repaired to template")]


def test_plan_garbage_reply_repaired() -> None:
    backend = _backend(("planning question", "no json here at all"))
    template = template_workflow("Causal", AGENT_REGISTRY)
    workflow = plan_tasks(template, _bundle(), backend)
    assert workflow.repaired is True
    assert workflow.problems() == []


@pytest.mark.parametrize("field,value", [
    ("inputs", 5), ("inputs", None), ("inputs", [["question"]]),
    ("inputs", "question"), ("agent", 5), ("agent", None), ("task", None),
    ("task", ["t"]), ("output", 5), ("output", {"key": "text_evidence"}),
])
def test_plan_mistyped_stage_field_repaired(field, value) -> None:
    """`agent`, `task` and `output` are strings and `inputs` a list of
    strings; any other type repairs the plan, never raises."""
    stages = [
        {"agent": TEXT_AGENT, "task": "t", "inputs": ["question"],
         "output": "text_evidence"},
        {"agent": ANSWER_AGENT, "task": "a", "inputs": ["text_evidence"],
         "output": "answer"},
    ]
    stages[0][field] = value
    backend = _backend(("planning question", _plan_reply(stages)))
    template = template_workflow("Descriptive", (TEXT_AGENT, ANSWER_AGENT))
    workflow = plan_tasks(template, _bundle("Descriptive"), backend)
    assert workflow.repaired is True
    assert workflow.problems() == []


def test_plan_two_agent_selection_has_no_integration_stage() -> None:
    workflow = template_workflow("Descriptive", (TEXT_AGENT, ANSWER_AGENT))
    assert [s.agent for s in workflow.stages] == [TEXT_AGENT, ANSWER_AGENT]
    assert workflow.problems() == []


def test_plan_causal_template_encodes_bidirectional_search() -> None:
    workflow = template_workflow("Causal", AGENT_REGISTRY)
    text_stage = next(s for s in workflow.stages if s.agent == TEXT_AGENT)
    assert "search backward" in text_stage.task_description.lower()
    assert "forward" in text_stage.task_description.lower()


def test_plan_causal_bidirectional_enforced_on_model_plans() -> None:
    stages = [
        {"agent": TEXT_AGENT, "task": "just look around", "inputs": ["question"],
         "output": "text_evidence"},
        {"agent": VISUAL_AGENT, "task": "verify", "inputs": ["question"],
         "output": "visual_evidence"},
        {"agent": INTEGRATION_AGENT, "task": "fuse",
         "inputs": ["text_evidence", "visual_evidence"], "output": "scores"},
        {"agent": ANSWER_AGENT, "task": "answer", "inputs": ["scores"],
         "output": "answer"},
    ]
    backend = _backend(("planning question", _plan_reply(stages)))
    workflow = plan_tasks(template_workflow("Causal", AGENT_REGISTRY),
                          _bundle(), backend)
    text_stage = next(s for s in workflow.stages if s.agent == TEXT_AGENT)
    assert "search backward" in text_stage.task_description.lower()


def test_workflow_invariants_catch_violations() -> None:
    bad_order = Workflow("Causal", (TEXT_AGENT, ANSWER_AGENT), [
        Stage(ANSWER_AGENT, "a", ("question",), "answer"),
        Stage(TEXT_AGENT, "t", ("question",), "text_evidence"),
    ])
    assert any("last" in p for p in bad_order.problems())

    over_budget = template_workflow("Causal", AGENT_REGISTRY, max_iterations=99)
    assert any("max_iterations" in p for p in over_budget.problems())

    missing_integration = Workflow("Causal", AGENT_REGISTRY, [
        Stage(TEXT_AGENT, "t", ("question",), "text_evidence"),
        Stage(VISUAL_AGENT, "v", ("question",), "visual_evidence"),
        Stage(INTEGRATION_AGENT, "i", ("text_evidence",), "scores"),
        Stage(ANSWER_AGENT, "a", ("scores",), "answer"),
    ])
    assert missing_integration.problems() == []
    no_integration = Workflow("Causal", AGENT_REGISTRY, [
        Stage(TEXT_AGENT, "t", ("question",), "text_evidence"),
        Stage(VISUAL_AGENT, "v", ("question",), "visual_evidence"),
        Stage(ANSWER_AGENT, "a", ("text_evidence",), "answer"),
    ])
    assert f"agent {INTEGRATION_AGENT} must appear exactly once" in \
        no_integration.problems()

    integration_first = Workflow("Causal", AGENT_REGISTRY, [
        Stage(INTEGRATION_AGENT, "i", ("question",), "option_scores"),
        Stage(TEXT_AGENT, "t", ("question",), "text_evidence"),
        Stage(VISUAL_AGENT, "v", ("question",), "visual_evidence"),
        Stage(ANSWER_AGENT, "a", ("option_scores",), "answer"),
    ])
    assert any("after integration" in p for p in integration_first.problems())
    visual_after_integration = Workflow("Causal", AGENT_REGISTRY, [
        Stage(TEXT_AGENT, "t", ("question",), "text_evidence"),
        Stage(INTEGRATION_AGENT, "i", ("text_evidence",), "option_scores"),
        Stage(VISUAL_AGENT, "v", ("question",), "visual_evidence"),
        Stage(ANSWER_AGENT, "a", ("option_scores",), "answer"),
    ])
    assert visual_after_integration.problems() == [
        f"evidence stages ['{VISUAL_AGENT}'] run after integration"]


# ---------------------------------------------------------------------------
# ReAct loop
# ---------------------------------------------------------------------------

def _stage(agent: str = TEXT_AGENT) -> Stage:
    return Stage(agent, "gather evidence", ("question",), "text_evidence")


def test_react_finalizes_on_first_step() -> None:
    backend = _backend(("working on question", _final((0.1, 0.8, 0.1))))
    trace = []
    item, consumed = run_react(_stage(), _bundle(), _store(), _profile(),
                               backend, budget=15, trace=trace)
    assert consumed == 1
    assert item.option_support == (0.1, 0.8, 0.1)
    assert not item.truncated
    assert trace[-1].action == "final"


def test_react_never_finalizing_stops_at_budget_truncated() -> None:
    backend = _backend(
        default='THOUGHT: hmm\nACTION: temporal_index {}')
    trace = []
    item, consumed = run_react(_stage(), _bundle(), _store(), _profile(),
                               backend, budget=15, trace=trace)
    assert consumed == 15
    assert item.truncated is True
    assert item.option_support == (0.0, 0.0, 0.0)
    assert len(backend.calls) == 15


def test_react_tool_error_becomes_observation_and_loop_continues() -> None:
    backend = _backend(
        ("OBSERVATION: ERROR", _final((0.9, 0.05, 0.05))),
        ("working on question",
         'THOUGHT: look\nACTION: segment_summaries {"shot_id": 99}'),
    )
    trace = []
    item, consumed = run_react(_stage(), _bundle(), _store(), _profile(),
                               backend, budget=5, trace=trace)
    assert consumed == 2
    assert item.option_support == (0.9, 0.05, 0.05)
    assert any("99" in step.observation for step in trace)


def test_react_reply_failing_the_type_check_costs_one_step() -> None:
    """A reply that is no string is an ERROR observation: the next prompt
    holds that OBSERVATION line and no reply line."""
    backend = _backend(("OBSERVATION: ERROR", _final((0.2, 0.7, 0.1))),
                       ("working on question", True))
    trace = []
    item, consumed = run_react(_stage(), _bundle(), _store(), _profile(),
                               backend, budget=5, trace=trace)
    assert consumed == 2
    assert item.option_support == (0.2, 0.7, 0.1)
    errors = [step for step in trace if step.observation.startswith("ERROR")]
    assert [step.action for step in errors] == ["unparseable"]
    first, second = (json.loads(call.rendered.split(":", 1)[1])
                     ["messages"][0]["content"] for call in backend.calls)
    assert second == (first.removesuffix("\nStep 1:")
                      + f"\nOBSERVATION: {errors[0].observation}\nStep 2:")


def test_react_retrieval_observation_feeds_next_step() -> None:
    backend = _backend(
        ("children by a fountain", _final((0.0, 1.0, 0.0))),
        ("working on question",
         'THOUGHT: read captions\nACTION: moment_captions {"shot_id": 1}'),
    )
    trace = []
    item, consumed = run_react(_stage(), _bundle(), _store(), _profile(),
                               backend, budget=5, trace=trace)
    assert consumed == 2
    assert item.option_support == (0.0, 1.0, 0.0)


def test_react_tool_outside_profile_is_error_observation() -> None:
    doc = profile_doc(_profile("Causal"))
    doc["tools"] = ["temporal_index"]
    narrow = AgentProfile.from_doc(doc)
    backend = _backend(
        ("OBSERVATION: ERROR", _final((1.0, 0.0, 0.0))),
        ("working on question",
         'THOUGHT: peek\nACTION: inspect_frame {"frame_index": 3}'),
    )
    trace = []
    _, consumed = run_react(_stage(VISUAL_AGENT), _bundle(), _store(), narrow,
                            backend, budget=5, trace=trace)
    assert consumed == 2
    assert any("not in this profile" in step.observation for step in trace)


def _prompt(call) -> str:
    return json.loads(call.rendered[len("chat:"):])["messages"][0]["content"]


@pytest.mark.parametrize("args,observation", [
    ('{"offset": 99}', "(temporal_index: no entries) 2 rows; offset 99 is "
                       "past the end"),
    ('{"offset": -1}', "ERROR: temporal_index#/offset: must be >= 0, got -1"),
    ('{"offset": "x"}', 'ERROR: temporal_index#/offset: expected an int, got "x"'),
])
def test_react_bad_offset_is_an_observation(args, observation) -> None:
    backend = _backend(
        ("OBSERVATION: ", _final((1.0, 0.0, 0.0))),
        ("working on question", f"THOUGHT: read on\nACTION: temporal_index {args}"),
    )
    trace = []
    _, consumed = run_react(_stage(), _bundle(), _store(), _profile(),
                            backend, budget=5, trace=trace)
    assert consumed == 2
    assert trace[0].observation == observation
    assert _prompt(backend.calls[1]).endswith(
        f"OBSERVATION: {observation}\nStep 2:")


@pytest.mark.parametrize("action,observation", [
    ('segment_summaries {"shot_id": 1e999}', "/shot_id: expected an int, got Infinity"),
    ('segment_summaries {"shot_ids": "1"}', '/shot_ids: expected a list, got "1"'),
    ('segment_summaries {"shot_ids": [1.0]}', "/shot_ids/0: expected an int"),
    ('moment_captions {"shot_id": true}', "/shot_id: expected an int, got true"),
    ('moment_captions {"frame_range": [0, 1e999]}', "/frame_range/1: expected an int"),
    ('moment_captions {"frame_range": [0, 1, 2]}', "/frame_range: expected two ints"),
    ('moment_captions {"frame_range": 5}', "/frame_range: expected a list, got 5"),
    ('inspect_frame {"frame_index": 1e999}', "/frame_index: expected an int"),
    ('inspect_frame {"frame_index": "8"}', '/frame_index: expected an int, got "8"'),
    ('inspect_frame {"frame_index": true}', "/frame_index: expected an int, got true"),
    ('inspect_frame {"frame_index": 8.7}', "/frame_index: expected an int, got 8.7"),
    ('inspect_frame {}', "/frame_index: missing required field"),
    ('inspect_frame {"frame_index": 8, "prompt": 5}', "/prompt: expected a string"),
    ('temporal_index {"offset": 1,}', "temporal_index is not valid JSON"),
    pytest.param('temporal_index {"offset": 1%s}' % ("0" * 4400),
                 "temporal_index is not valid JSON", id="int-past-digit-limit"),
])
def test_react_mistyped_tool_argument_is_an_observation(action, observation) -> None:
    """An argument of the wrong JSON type is an ERROR observation naming the
    tool and the argument, never a coerced value or a traceback."""
    backend = _backend(
        ("OBSERVATION: ERROR", _final((1.0, 0.0, 0.0))),
        ("working on question", f"THOUGHT: look\nACTION: {action}"),
        default="a caption",
    )
    trace = []
    _, consumed = run_react(_stage(VISUAL_AGENT), _bundle(), _store(),
                            _profile(), backend, budget=5, trace=trace)
    assert consumed == 2
    tool = action.split()[0]
    assert trace[0].observation.startswith(f"ERROR: {tool}")
    assert observation in trace[0].observation
    assert [c.capability for c in backend.calls] == ["chat", "chat"]


@pytest.mark.parametrize("frame", [999999, -1, 12])
def test_react_inspect_frame_outside_every_shot_makes_no_call(frame) -> None:
    backend = _backend(
        ("OBSERVATION: ERROR", _final((1.0, 0.0, 0.0))),
        ("working on question",
         f'THOUGHT: peek\nACTION: inspect_frame {{"frame_index": {frame}}}'),
        default="a caption",
    )
    trace = []
    _, consumed = run_react(_stage(VISUAL_AGENT), _bundle(), _store(),
                            _profile(), backend, budget=5, trace=trace)
    assert consumed == 2
    assert trace[0].observation == \
        f"ERROR: frame {frame} falls outside every shot"
    assert [c.capability for c in backend.calls] == ["chat", "chat"]


def test_react_inspect_frame_inside_a_shot_calls_the_backend() -> None:
    backend = _backend(
        ("OBSERVATION: a caption", _final((1.0, 0.0, 0.0))),
        ("working on question",
         'THOUGHT: peek\nACTION: inspect_frame {"frame_index": 11}'),
        ("vid:frame:11", "a caption"),
    )
    _, consumed = run_react(_stage(VISUAL_AGENT), _bundle(), _store(),
                            _profile(), backend, budget=5, trace=[])
    assert consumed == 2
    assert [c.capability for c in backend.calls] == ["chat", "caption", "chat"]


def test_react_prompt_grows_by_at_most_one_page_per_step(monkeypatch) -> None:
    """Over a store of several hundred shots, each step adds its reply and
    one page of observation to the prompt, never a whole scope."""
    store = long_store(400, qtype="Causal")
    actions = ['temporal_index {}', 'segment_summaries {}', 'moment_captions {}',
               f'moment_captions {{"offset": {PAGE_ROWS}}}',
               'segment_summaries {"shot_ids": %s}' % list(range(400))]
    replies = [f"THOUGHT: look\nACTION: {action}" for action in actions]
    backend = _backend(*[(f"Step {i}:", reply)
                         for i, reply in enumerate(replies, 1)],
                       default=_final((1.0, 0.0, 0.0)))
    _, consumed = run_react(_stage(), _bundle(), store, _profile(), backend,
                            budget=15, trace=[])
    assert consumed == len(replies) + 1

    with monkeypatch.context() as patch:
        patch.setattr(knowledge, "PAGE_ROWS", 10**9)
        whole = {(scope, qtype): store.retrieve(scope, qtype).rows
                 for scope in RETRIEVAL_SCOPES
                 for qtype in ("Causal", "Temporal")}
    longest_row = max(
        len(RetrievalResult(scope, True, [row], 0, 1).as_text())
        for (scope, _), rows in whole.items() for row in rows)
    one_page = PAGE_ROWS * (longest_row + 1) + len("\n400 more rows; pass "
                                                   '{"offset": 20}')
    prompts = [_prompt(call) for call in backend.calls]
    for reply, before, after in zip(replies, prompts, prompts[1:]):
        growth = len(after) - len(before)
        assert growth <= len(reply) + len("\nOBSERVATION: \n") + one_page
    assert len(prompts[-1]) < sum(
        len(str(row)) for row in whole["temporal_index", "Causal"]), \
        "the whole transcript stays shorter than one uncut scope"


def test_react_invalid_final_rejected_then_retried() -> None:
    backend = _backend(
        ("OBSERVATION: ERROR", _final((0.2, 0.7, 0.1))),
        ("working on question", _final((0.5, 0.5))),  # wrong option count
    )
    trace = []
    item, consumed = run_react(_stage(), _bundle(), _store(), _profile(),
                               backend, budget=5, trace=trace)
    assert consumed == 2
    assert item.option_support == (0.2, 0.7, 0.1)


def test_react_unparseable_reply_consumes_iteration() -> None:
    backend = _backend(
        ("could not parse", _final((1.0, 0.0, 0.0))),
        ("working on question", "I refuse to follow the protocol"),
    )
    trace = []
    _, consumed = run_react(_stage(), _bundle(), _store(), _profile(),
                            backend, budget=5, trace=trace)
    assert consumed == 2


def test_react_support_values_clamped() -> None:
    backend = _backend(("working on question", _final((3.0, -1.0, 0.5), 7.0)))
    item, _ = run_react(_stage(), _bundle(), _store(), _profile(), backend,
                        budget=3, trace=[])
    assert item.option_support == (1.0, 0.0, 0.5)
    assert item.confidence == 1.0


@pytest.mark.parametrize("payload", [
    "[0.1, 0.9]",
    '"x"',
    "null",
    '{"option_support": [NaN, 0.5, 0.5]}',
    '{"option_support": [1e999, 0.5, 0.5]}',
    '{"option_support": [true, false, 0.5]}',
    '{"option_support": [0.1, 0.8, 0.1], "direction_check": '
    '{"cause_supported": "no"}}',
])
def test_react_rejected_final_payload_becomes_error_observation(payload) -> None:
    """A FINAL payload that is not an object, or holds a value of the wrong
    type, is refused like invalid JSON: the step observes the error and the
    loop goes on."""
    backend = _backend(
        ("OBSERVATION: ERROR", _final((0.1, 0.8, 0.1))),
        ("working on question", "THOUGHT: done\nFINAL: " + payload),
    )
    trace = []
    item, consumed = run_react(_stage(), _bundle(), _store(), _profile(),
                               backend, budget=5, trace=trace)
    assert trace[0].action == "final"
    assert trace[0].observation.startswith("ERROR: ")
    assert consumed == 2
    assert item.option_support == (0.1, 0.8, 0.1)


# ---------------------------------------------------------------------------
# Evidence integration
# ---------------------------------------------------------------------------

def oracle_scores(items, weights_by_source, qtype) -> list[float]:
    """Independent naive evaluator: option-major triple loop with fsum."""
    n = len(items[0].option_support)
    out = []
    for option in range(n):
        terms = []
        for item in items:
            conf = item.confidence
            dc = item.direction_check
            if qtype == "Causal" and dc is not None and \
                    dc.cause_supported != dc.effect_supported:
                conf = conf * 0.5
            terms.append(weights_by_source.get(item.source, 0.0) * conf
                         * item.option_support[option])
        out.append(math.fsum(terms))
    return out


def _weights_profile(text: float, visual: float,
                     qtype: str = "Descriptive") -> AgentProfile:
    doc = profile_doc(builtin_profiles()[qtype])
    doc["weights"] = {"text": text, "visual": visual}
    return AgentProfile.from_doc(doc)


def test_integrate_worked_descriptive_example_exact() -> None:
    items = [
        EvidenceItem(VISUAL_AGENT, (0.9, 0.1), 1.0),
        EvidenceItem(TEXT_AGENT, (0.2, 0.8), 1.0),
    ]
    profile = _weights_profile(text=0.3, visual=0.7)
    result = integrate_evidence(items, profile, "Descriptive")
    assert result.scores == (0.69, 0.31), "exact, not approximate"
    assert result.chosen_index == 0
    assert result.margin == pytest.approx(0.38)


def test_integrate_single_item_identity() -> None:
    item = EvidenceItem(TEXT_AGENT, (0.2, 0.5, 0.3), 1.0)
    profile = _weights_profile(text=1.0, visual=0.0)
    result = integrate_evidence([item], profile, "Descriptive")
    assert result.scores == (0.2, 0.5, 0.3)
    assert result.chosen_index == 1


def test_integrate_causal_direction_disagreement_halves_confidence() -> None:
    item = EvidenceItem(TEXT_AGENT, (1.0, 0.0), 0.8,
                        direction_check=DirectionCheck(True, False))
    profile = _weights_profile(text=1.0, visual=0.0, qtype="Causal")
    result = integrate_evidence([item], profile, "Causal")
    assert result.scores[0] == pytest.approx(0.4), "conf 0.8 -> effective 0.4"


def test_integrate_direction_agreement_not_penalized() -> None:
    item = EvidenceItem(TEXT_AGENT, (1.0, 0.0), 0.8,
                        direction_check=DirectionCheck(True, True))
    profile = _weights_profile(text=1.0, visual=0.0, qtype="Causal")
    result = integrate_evidence([item], profile, "Causal")
    assert result.scores[0] == pytest.approx(0.8)


def test_integrate_penalty_only_for_causal_questions() -> None:
    item = EvidenceItem(TEXT_AGENT, (1.0, 0.0), 0.8,
                        direction_check=DirectionCheck(True, False))
    profile = _weights_profile(text=1.0, visual=0.0)
    result = integrate_evidence([item], profile, "Descriptive")
    assert result.scores[0] == pytest.approx(0.8)


def test_integrate_ties_break_to_lowest_index() -> None:
    item = EvidenceItem(TEXT_AGENT, (0.5, 0.5, 0.1), 1.0)
    profile = _weights_profile(text=1.0, visual=0.0)
    assert integrate_evidence([item], profile, "Descriptive").chosen_index == 0


def _random_items(rng: random.Random) -> tuple[list[EvidenceItem], str]:
    n_options = rng.randint(2, 5)
    qtype = rng.choice(["Causal", "Temporal", "Descriptive"])
    items = []
    for _ in range(rng.randint(1, 6)):
        source = rng.choice([TEXT_AGENT, VISUAL_AGENT])
        support = tuple(rng.random() for _ in range(n_options))
        direction = None
        if rng.random() < 0.5:
            direction = DirectionCheck(rng.random() < 0.5, rng.random() < 0.5)
        items.append(EvidenceItem(source, support, rng.random(),
                                  direction_check=direction))
    return items, qtype


def test_integrate_matches_naive_oracle() -> None:
    rng = random.Random(424242)
    for _ in range(300):
        items, qtype = _random_items(rng)
        w_text = rng.random()
        profile = _weights_profile(text=w_text, visual=1.0 - w_text,
                                   qtype="Descriptive")
        result = integrate_evidence(items, profile, qtype)
        expected = oracle_scores(
            items, {TEXT_AGENT: profile.weights["text"],
                    VISUAL_AGENT: profile.weights["visual"]}, qtype)
        for got, want in zip(result.scores, expected):
            assert abs(got - want) <= 1e-12
        best = max(range(len(expected)), key=lambda o: (expected[o], -o))
        assert result.chosen_index == best


def test_integrate_confidence_scaling_preserves_argmax() -> None:
    rng = random.Random(7)
    for _ in range(50):
        items, qtype = _random_items(rng)
        profile = _weights_profile(text=0.6, visual=0.4)
        base = integrate_evidence(items, profile, qtype)
        scale = rng.uniform(0.1, 1.0)
        scaled_items = [
            EvidenceItem(it.source, it.option_support, it.confidence * scale,
                         direction_check=it.direction_check)
            for it in items]
        scaled = integrate_evidence(scaled_items, profile, qtype)
        assert scaled.chosen_index == base.chosen_index
        for got, want in zip(scaled.scores, base.scores):
            assert got == pytest.approx(want * scale, abs=1e-12)


def test_integrate_weight_shift_monotonicity() -> None:
    # With renormalized weights the absolute score of the visually favored
    # option moves by s_v - s_t, so the monotone quantity is its advantage
    # over the text-favored option (both derivative terms are nonnegative).
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 5)
        text_support = tuple(rng.random() for _ in range(n))
        visual_support = tuple(rng.random() for _ in range(n))
        items = [EvidenceItem(TEXT_AGENT, text_support, 1.0),
                 EvidenceItem(VISUAL_AGENT, visual_support, 1.0)]
        v_fav = max(range(n), key=lambda o: (visual_support[o], -o))
        t_fav = max(range(n), key=lambda o: (text_support[o], -o))
        low = integrate_evidence(items, _weights_profile(0.7, 0.3),
                                 "Descriptive")
        high = integrate_evidence(items, _weights_profile(0.3, 0.7),
                                  "Descriptive")
        low_adv = low.scores[v_fav] - low.scores[t_fav]
        high_adv = high.scores[v_fav] - high.scores[t_fav]
        assert high_adv >= low_adv - 1e-12, \
            "raising w_visual never hurts the visually favored option's edge"
        if visual_support[v_fav] >= text_support[v_fav]:
            # literal form holds whenever text does not outrank visual there
            assert high.scores[v_fav] >= low.scores[v_fav] - 1e-12


# ---------------------------------------------------------------------------
# Answer generation
# ---------------------------------------------------------------------------

def test_generate_answer_from_worked_example() -> None:
    items = [EvidenceItem(VISUAL_AGENT, (0.9, 0.1), 1.0),
             EvidenceItem(TEXT_AGENT, (0.2, 0.8), 1.0)]
    profile = _weights_profile(text=0.3, visual=0.7)
    scores = integrate_evidence(items, profile, "Descriptive")
    backend = _backend(("drafting explanation", "Answer: option 0, clearly."))
    record = generate_answer(scores, items, ("a park", "a cave"), backend,
                             question_id="q9")
    assert record.chosen_index == 0
    assert record.chosen_text == "a park"
    assert record.validated is True
    assert (record.rounds_used, record.truncated) == (0, False)


def test_generate_answer_trace_keeps_300_characters_of_the_explanation(
        ) -> None:
    items = [EvidenceItem(TEXT_AGENT, (0.9, 0.1), 1.0)]
    scores = integrate_evidence(items, _weights_profile(1.0, 0.0),
                                "Descriptive")
    explanation = "".join(str(i % 10) for i in range(400))
    backend = _backend(("drafting explanation", explanation))
    record = generate_answer(scores, items, ("a", "b"), backend)
    assert record.trace[-1].thought == explanation[:300]


def test_generate_answer_out_of_space_choice_keeps_argmax() -> None:
    items = [EvidenceItem(TEXT_AGENT, (0.1, 0.2, 0.3, 0.2, 0.1), 1.0)]
    scores = integrate_evidence(items, _weights_profile(1.0, 0.0),
                                "Descriptive")
    for reply in ("My answer: F", "Answer: option 7",
                  "Answer: option 1" + "0" * 4400, "Answer: 0000000001"):
        backend = _backend(("drafting explanation", reply))
        record = generate_answer(scores, items, tuple("abcde"), backend,
                                 question_id="q")
        assert record.chosen_index == 2
        assert any("outside the option space" in s.observation
                   for s in record.trace)


def test_generate_answer_model_disagreement_logged_argmax_wins() -> None:
    items = [EvidenceItem(TEXT_AGENT, (0.9, 0.1), 1.0)]
    scores = integrate_evidence(items, _weights_profile(1.0, 0.0),
                                "Descriptive")
    backend = _backend(("drafting explanation", "I pick option 1 instead"))
    record = generate_answer(scores, items, ("right", "wrong"), backend)
    assert record.chosen_index == 0
    assert any("disagrees with argmax" in s.observation for s in record.trace)


def test_generate_answer_all_zero_supports_lowest_index_not_validated() -> None:
    items = [EvidenceItem(TEXT_AGENT, (0.0, 0.0), 0.0)]
    scores = integrate_evidence(items, _weights_profile(1.0, 0.0),
                                "Descriptive")
    backend = _backend(("drafting explanation", "no idea"))
    record = generate_answer(scores, items, ("a", "b"), backend)
    assert record.chosen_index == 0
    assert record.validated is False


def test_generate_answer_survives_backend_failure() -> None:
    items = [EvidenceItem(TEXT_AGENT, (0.9, 0.1), 1.0)]
    scores = integrate_evidence(items, _weights_profile(1.0, 0.0),
                                "Descriptive")
    script = MockScript()
    script.add("drafting explanation", error="transport")
    backend = Backend.from_mock(script)
    record = generate_answer(scores, items, ("a", "b"), backend)
    assert record.chosen_index == 0
    assert record.validated is True


# ---------------------------------------------------------------------------
# Workflow execution
# ---------------------------------------------------------------------------

def _exec_backend(text_final: str, visual_final: str) -> Backend:
    script = MockScript()
    script.add("[TextAgent] working", text_final)
    script.add("[VisualAnalysisAgent] working", visual_final)
    script.add("drafting explanation", "Answer: option 1.")
    return Backend.from_mock(script)


def test_execute_workflow_full_causal_path(pool) -> None:
    backend = _exec_backend(
        _final((0.05, 0.9, 0.05), 1.0,
               {"cause_supported": True, "effect_supported": True}),
        _final((0.1, 0.8, 0.1), 0.9,
               {"cause_supported": True, "effect_supported": True}))
    workflow = template_workflow("Causal", AGENT_REGISTRY)
    record = execute_workflow(workflow, _bundle(), _store(), _profile(),
                              backend, pool)
    assert record.chosen_index == 1
    assert record.rounds_used == 2
    assert record.validated is True
    assert not record.truncated
    # 0.5*1.0*0.9 + 0.5*0.9*0.8 on the chosen option
    assert record.scores.scores[1] == pytest.approx(0.81)


def test_execute_workflow_agents_stay_within_selection(pool) -> None:
    backend = _exec_backend(_final((0.9, 0.1)), _final((0.9, 0.1)))
    workflow = template_workflow("Descriptive", (TEXT_AGENT, ANSWER_AGENT))
    bundle = _bundle("Descriptive", "What is it?", ("a", "b"))
    record = execute_workflow(workflow, bundle, _store(),
                              _profile("Descriptive"), backend, pool)
    agents_in_trace = {s.agent for s in record.trace}
    assert VISUAL_AGENT not in agents_in_trace
    assert sum(1 for s in record.trace if s.agent == ANSWER_AGENT) == 1


def test_execute_workflow_budget_shared_across_stages(pool) -> None:
    script = MockScript()
    # text agent burns the whole budget; visual never gets a turn
    script.add("[TextAgent] working", "THOUGHT: loop\nACTION: temporal_index {}")
    script.add("[VisualAnalysisAgent] working", _final((0.1, 0.8, 0.1)))
    script.add("drafting explanation", "Answer: option 0.")
    backend = Backend.from_mock(script)
    workflow = template_workflow("Causal", AGENT_REGISTRY, max_iterations=15)
    record = execute_workflow(workflow, _bundle(), _store(), _profile(),
                              backend, pool)
    assert record.rounds_used == 15
    assert record.truncated is True
    assert any("skipped" in s.observation for s in record.trace
               if s.agent == VISUAL_AGENT)


def test_execute_workflow_budget_law_is_an_explicit_check(monkeypatch,
                                                         pool) -> None:
    """The law holds without assert statements, so it survives python -O;
    a broken law is a broken internal invariant, exit code 1."""
    real_run_react = orchestrator.run_react

    def overspending(*args, **kwargs):
        item, consumed = real_run_react(*args, **kwargs)
        return item, consumed + 15

    monkeypatch.setattr(orchestrator, "run_react", overspending)
    backend = _exec_backend(_final((0.9, 0.1)), _final((0.8, 0.2)))
    workflow = template_workflow("Descriptive", (TEXT_AGENT, ANSWER_AGENT))
    with pytest.raises(VideoQAError, match="budget law violated") as caught:
        execute_workflow(workflow, _bundle("Descriptive", "What?", ("a", "b")),
                         _store(), _profile("Descriptive"), backend, pool)
    assert caught.value.exit_code == 1


def test_execute_workflow_refuses_an_invalid_workflow(pool) -> None:
    """The invariants are checked again where a workflow runs, whoever
    built it."""
    backend = _exec_backend(_final((0.9, 0.1)), _final((0.8, 0.2)))
    workflow = template_workflow("Descriptive", (TEXT_AGENT, ANSWER_AGENT))
    workflow.max_iterations = 16
    with pytest.raises(ValidationError, match=r"^invalid workflow: "
                       r"max_iterations 16 outside \[1, 15\]$"):
        execute_workflow(workflow, _bundle("Descriptive", "What?", ("a", "b")),
                         _store(), _profile("Descriptive"), backend, pool)


def test_execute_workflow_deterministic_bytes(pool) -> None:
    def run() -> str:
        backend = _exec_backend(
            _final((0.05, 0.9, 0.05), 1.0),
            _final((0.1, 0.8, 0.1), 0.9))
        workflow = template_workflow("Causal", AGENT_REGISTRY)
        record = execute_workflow(workflow, _bundle(), _store(), _profile(),
                                  backend, pool)
        return record.to_json()

    assert run() == run()


def test_answer_record_json_schema(pool) -> None:
    backend = _exec_backend(_final((0.9, 0.1)), _final((0.8, 0.2)))
    workflow = template_workflow("Descriptive", (TEXT_AGENT, ANSWER_AGENT))
    bundle = _bundle("Descriptive", "What?", ("a", "b"), qid="q7")
    record = execute_workflow(workflow, bundle, _store(),
                              _profile("Descriptive"), backend, pool)
    doc = json.loads(record.to_json())
    assert set(doc) == {"question_id", "chosen", "scores", "margin",
                        "rounds_used", "validated", "truncated", "trace"}
    assert doc["question_id"] == "q7"
    assert set(doc["chosen"]) == {"index", "text"}
    assert all(set(step) == {"agent", "thought", "action", "observation"}
               for step in doc["trace"])
    assert doc["trace"], "trace must be non-empty"
