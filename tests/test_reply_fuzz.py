"""Fuzz test: no model reply aborts an eval with anything but a VideoQAError,
and every record an eval writes is self-consistent.

The golden `eval` (see conftest) runs with a mock that answers every agent
prompt (problem analysis, task planning, each ReAct step and the answer)
from a grammar, and every other prompt as the golden script does. The
grammar writes `THOUGHT:`/`ACTION:`/`FINAL:` replies, plan arrays and prose,
now and then cut short; their JSON fields take values of every JSON type,
among them `1e999`, `NaN`, ints of 30 and of 4,400 digits, digit strings and
bools. About one reply in a thousand is no string at all, which must end
the eval in MalformedResponseError. The test is derandomized: each reply is
drawn from a generator seeded with the run's seed and the prompt, so a run
gives the same eval whatever order its concurrent stages call in.
"""

from __future__ import annotations

import math
import random

import pytest

from videoqa.backends import Backend, MockScript
from videoqa.config import EngineConfig
from videoqa.errors import VideoQAError
from videoqa.knowledge import KNOWN_TOOLS
from videoqa.orchestrator import AGENT_REGISTRY, PROBLEM_ANALYSIS, TASK_PLANNING
from videoqa.pipeline import evaluate

from conftest import GOLDEN_QUESTIONS, build_golden_world

AGENT_MARKERS = tuple(f'"content":"[{agent}]' for agent in
                      AGENT_REGISTRY + (PROBLEM_ANALYSIS, TASK_PLANNING))
VARIANTS = ({}, {"parallel_videos": True}, {"fixed_workflow": True})

VALUES = (
    "null", "true", "false", "0", "1", "2", "5", "8", "14", "23", "-1", "8.7",
    "1e999", "-1e999", "NaN", "Infinity", "123456789012345678901234567890",
    "1" + "0" * 4400, '"8"', '"1"', '"x"', '""', "[]", "{}", "[0, 23]",
    "[14, 2]", "[0, 1e999]", "[1, 2, 3]", "[true, 0]", '["1.5"]', "[1.5]",
    '{"cause_supported": true, "effect_supported": false}', '"question"',
    '["question", "options", "tree"]', '[["question"]]', '"TextAgent"',
    '"VisualAnalysisAgent"', '"AnswerGenerationAgent"', '"text_evidence"',
    '["text_evidence"]', '"answer"', "[0.9, 0.05, 0.05]", "[0.1, 0.9]",
)
ACTION_KEYS = ("frame_index", "prompt", "offset", "shot_id", "shot_ids",
               "frame_range", "x")
FINAL_KEYS = ("option_support", "confidence", "rationale", "direction_check")
STAGE_KEYS = ("agent", "task", "inputs", "output")
PROSE = ("", "Causal", "Temporal. Use TextAgent and VisualAnalysisAgent.",
         "Answer: option 7", "option B", "Answer: 1", "no idea",
         "Answer: option 1" + "0" * 4400)
NOT_STRINGS = (None, 5, True, ["x"], {"a": 1}, [0.5])


def _value(rng: random.Random) -> str:
    """JSON text of any type, now and then a list or an object."""
    roll = rng.random()
    if roll < 0.1:
        return _object(rng, rng.choice((ACTION_KEYS, FINAL_KEYS, STAGE_KEYS)))
    if roll < 0.2:
        return f"[{', '.join(_value(rng) for _ in range(rng.randrange(4)))}]"
    return rng.choice(VALUES)


def _object(rng: random.Random, keys: tuple[str, ...]) -> str:
    fields = rng.sample(keys, rng.randrange(len(keys) + 1))
    return "{" + ", ".join(f'"{key}": {_value(rng)}' for key in fields) + "}"


def _final(rng: random.Random) -> str:
    if rng.random() < 0.3:  # well formed, for the 2 or the 3 options
        support = [rng.choice((0, 0.05, 0.5, 1)) for _ in range(rng.choice((2, 3)))]
        return f'FINAL: {{"option_support": {support}, "confidence": 0.9}}'
    return f"FINAL: {_object(rng, FINAL_KEYS) if rng.random() < 0.8 else _value(rng)}"


def _reply(rng: random.Random) -> object:
    if rng.random() < 0.001:
        return rng.choice(NOT_STRINGS)
    body = rng.choice((
        lambda: f"ACTION: {rng.choice(KNOWN_TOOLS)} {_object(rng, ACTION_KEYS)}",
        lambda: _final(rng),
        lambda: "[" + ", ".join(_object(rng, STAGE_KEYS) if rng.random() < 0.8
                                else _value(rng)
                                for _ in range(rng.randrange(5))) + "]",
        lambda: rng.choice(PROSE),
    ))()
    text = rng.choice(("", "THOUGHT: look\n", "THOUGHT:")) + body
    return text[:rng.randrange(len(text) + 1)] if rng.random() < 0.15 else text


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The golden world, and its script's reply to each prompt (a caption
    for an inspected frame no rule names), memoized across runs."""
    world = build_golden_world(tmp_path_factory.mktemp("golden"))
    script, answers = world.script(), {}

    def golden_reply(rendered: str):
        if rendered not in answers:
            rule = script.lookup(rendered)
            answers[rendered] = "a caption" if rule is None else rule.response
        return answers[rendered]

    return world, golden_reply


@pytest.mark.parametrize("seed", range(30))
def test_eval_survives_any_agent_reply(golden, seed) -> None:
    world, golden_reply = golden

    def respond(rendered: str):
        if any(marker in rendered[:60] for marker in AGENT_MARKERS):
            return _reply(random.Random(f"{seed}:{rendered}"))
        return golden_reply(rendered)

    backend = Backend.from_mock(MockScript(default_response=respond))
    config = EngineConfig(**VARIANTS[seed % len(VARIANTS)])
    try:
        records, report = evaluate(world.dataset_path, config, backend)
    except VideoQAError:
        return
    assert [r.question_id for r in records] == \
        [q.question_id for q in GOLDEN_QUESTIONS]
    assert report.num_questions == len(records)
    for record, question in zip(records, GOLDEN_QUESTIONS):
        actions = [step.action for step in record.trace]
        assert record.truncated == any(a in ("truncate", "skip") for a in actions)
        accepted = any(step.observation == "evidence accepted"
                       for step in record.trace)
        assert accepted or not record.validated, \
            "only zero-support evidence, yet validated"
        assert 0 <= record.rounds_used <= config.max_iterations
        assert 0 <= record.chosen_index < len(question.options)
        assert all(map(math.isfinite, record.scores.scores + (
            record.scores.margin,)))
