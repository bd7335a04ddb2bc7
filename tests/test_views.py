"""A question's view: the calls sent ahead through it, and its build's
scope.

`plan_question` sends a question's speculative planning call and its
step-1 calls ahead through the question's `View`; the question meets each
where it makes that call. Here:

- a request sent ahead is sent once and met once, and a second identical
  call is sent live, also when many threads make it at once;
- a step-1 call sent ahead that raises a transport error raises where the
  stage makes that call, with nothing sent again; one whose reply fails the
  type check costs that step, as a live one does;
- a question's view whose build's view has closed refuses every call and
  every call sent ahead, sending nothing, and never serves a caption that
  the build's view holds.
"""

from __future__ import annotations

import itertools
import json
import sys
from concurrent.futures import CancelledError, ThreadPoolExecutor

import pytest

from videoqa.backends import (
    Backend,
    MockScript,
    View,
    caption_request,
    chat_request,
)
from videoqa.errors import TransportError
from videoqa.knowledge import builtin_profiles
from videoqa.orchestrator import (
    AGENT_REGISTRY,
    opening_prompts,
    run_react,
    template_workflow,
)

from conftest import RecordingBackend
from test_workflow_parity import _question, _store

TYPE_ERROR = "ERROR: chat reply#: expected a string, got 42"
FINAL = "THOUGHT: settled\nFINAL: " + json.dumps(
    {"option_support": [0.1, 0.8, 0.1], "confidence": 0.9})


def _recording(script: MockScript) -> RecordingBackend:
    return RecordingBackend(Backend.from_mock(script))


def test_a_request_sent_ahead_is_sent_once_and_met_once() -> None:
    replies = iter(["first", "second"])
    inner = _recording(MockScript(default_response=lambda _: next(replies)))
    view = View(inner)
    request = chat_request("Rate it.")
    with ThreadPoolExecutor(max_workers=1) as ahead:
        view.send_ahead(request, ahead)
    assert len(inner.calls) == 1
    assert view.call(request) == "first"
    assert len(inner.calls) == 1
    assert view.call(request) == "second"
    assert len(inner.calls) == 2


def test_a_call_sent_ahead_is_met_by_one_of_many_threads() -> None:
    """16 threads, switching every 10 microseconds, make the call sent
    ahead at once: one meets it, and the other 15 are sent."""
    count = itertools.count()
    inner = _recording(MockScript(
        default_response=lambda _: f"reply {next(count)}"))
    view = View(inner)
    request = chat_request("Rate it.")
    with ThreadPoolExecutor(max_workers=1) as ahead:
        view.send_ahead(request, ahead)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            replies = [f.result(timeout=30) for f in
                       [pool.submit(view.call, request) for _ in range(16)]]
    finally:
        sys.setswitchinterval(previous)
    assert replies.count("reply 0") == 1
    assert sorted(replies) == sorted(f"reply {i}" for i in range(16))
    assert len(inner.calls) == 16


def _stage_1_sent_ahead(step_1: dict) -> tuple[RecordingBackend, View, str]:
    """A Causal text stage's step-1 call, sent ahead through a question's
    view; that call's rule is `step_1`, and step 2 gives a FINAL."""
    workflow = template_workflow("Causal", AGENT_REGISTRY)
    [prompt, _] = opening_prompts(workflow, _question(),
                                  builtin_profiles()["Causal"])
    script = MockScript()
    script.add(json.dumps(prompt, ensure_ascii=False), **step_1)
    script.add("Step 2:", FINAL)
    inner = _recording(script)
    view = View(inner)
    with ThreadPoolExecutor(max_workers=1) as ahead:
        view.send_ahead(chat_request(prompt), ahead)
    return inner, view, prompt


def _run_text_stage(view: View) -> tuple:
    trace: list = []
    stage = template_workflow("Causal", AGENT_REGISTRY).stages[0]
    item, steps = run_react(stage, _question(), _store(),
                            builtin_profiles()["Causal"], view, 15, trace)
    return item, steps, trace


def test_a_transport_error_sent_ahead_raises_where_the_stage_calls() -> None:
    inner, view, _ = _stage_1_sent_ahead({"error": "transport"})
    with pytest.raises(TransportError, match="^scripted transport failure$"):
        _run_text_stage(view)
    assert [c.error for c in inner.calls] == ["scripted transport failure"]


def test_a_reply_sent_ahead_that_fails_the_type_check_costs_its_step() -> None:
    inner, view, prompt = _stage_1_sent_ahead({"response": 42})
    item, steps, trace = _run_text_stage(view)
    assert steps == 2 and not item.truncated
    assert [(s.action, s.observation) for s in trace] == [
        ("unparseable", TYPE_ERROR), ("final", "evidence accepted")]
    step_1, step_2 = [json.loads(c.rendered.split(":", 1)[1])["messages"][0]
                      ["content"] for c in inner.calls]
    assert step_1 == prompt
    assert step_2 == "\n".join([prompt.removesuffix("\nStep 1:"),
                                f"OBSERVATION: {TYPE_ERROR}", "Step 2:"])


def test_a_question_view_whose_build_failed_sends_nothing() -> None:
    """The question's view shares no caption with its build's view, and once
    the build's view has closed on a failure it refuses every call, sent
    ahead or not, before anything reaches the backend."""
    inner = _recording(MockScript(default_response="a caption"))
    caption = caption_request("vid:frame:4", "Describe this frame.")
    build = View(inner)
    question = View(inner, scope=build)
    with pytest.raises(RuntimeError, match="the build failed"):
        with build:
            build.call(caption)
            assert question.call(caption) == "a caption"
            assert len(inner.calls) == 2
            raise RuntimeError("the build failed")
    with ThreadPoolExecutor(max_workers=1) as ahead:
        question.send_ahead(chat_request("Plan it."), ahead)
    for request in (chat_request("Plan it."), caption):
        with pytest.raises(CancelledError):
            question.call(request)
    assert len(inner.calls) == 2
