"""The single-flight caption view: one send per distinct caption request
within a build or a question.

A build and a question each call the backend through a `View` of their
own, so a caption request (the same image reference and prompt) already
answered, or in flight, in that scope gets that reply instead of a second
send. Here:

- two evidence stages that inspect one frame under one prompt send one
  caption call, at in-flight limits 1 and 8, the second stage's request
  arriving while the first's is in flight and again once it is answered;
  the record equals the sequential run's;
- a different frame or a different prompt is a second call;
- a call that raises is not shared: the stage waiting on it sends its own
  request and gets the observation it would get with no sharing;
- chat requests are never shared, so an unparseable relevance or
  classification reply is still asked again, once;
- a `--generic-captions` build, which captions each retrieved frame under
  one generic prompt for every question type, sends each distinct caption
  request once.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from videoqa.backends import (
    Backend,
    MockRule,
    MockScript,
    View,
    caption_request,
    chat_request,
    embed_request,
)
from videoqa.config import EngineConfig
from videoqa.errors import TransportError
from videoqa.knowledge import builtin_profiles
from videoqa.orchestrator import (
    AGENT_REGISTRY,
    TEXT_AGENT,
    VISUAL_AGENT,
    execute_workflow,
    template_workflow,
)
from videoqa.pipeline import RawQuestion, build_video

from conftest import GOLDEN_QUESTIONS, RecordingBackend, build_golden_world
from test_workflow_parity import (
    _question,
    _store,
    agent_step,
    sequential_execute_workflow,
)

FRAME_4 = {"frame_index": 4}
CAPTION = "a frame of the fountain"
HELD_S = 0.3  # how long the first caption call stays in flight


def inspecting(actions: dict[str, list[dict]], fail_first: bool = False,
               held_s: float = HELD_S):
    """A mock default: each agent's step s inspects a frame with
    `actions[agent][s - 1]`, then gives its FINAL. The first caption call
    stays in flight for `held_s` (and raises, with `fail_first`); the visual
    agent's first step waits until that call has been made, so the text
    agent's request is always the first one sent."""
    first_sent = threading.Event()
    lock = threading.Lock()

    def respond(rendered: str) -> str:
        if rendered.startswith("caption:"):
            with lock:
                first = not first_sent.is_set()
                first_sent.set()
            if first:
                time.sleep(held_s)
                if fail_first:
                    raise TransportError("scripted transport failure")
            return CAPTION
        if "drafting explanation" in rendered:
            return "Answer: option 1."
        agent, step = agent_step(rendered)
        if agent == VISUAL_AGENT and step == 1:
            assert first_sent.wait(timeout=10)
        if step > len(actions[agent]):
            doc = {"option_support": [0.1, 0.8, 0.1], "confidence": 0.9,
                   "rationale": f"{agent} settled"}
            return "THOUGHT: settled\nFINAL: " + json.dumps(doc)
        return ("THOUGHT: check a frame\nACTION: inspect_frame "
                + json.dumps(actions[agent][step - 1]))

    return respond


def _run(actions, max_inflight: int, fail_first: bool = False):
    """The concurrent record, made through a question's view, with its
    recording backend, and the record of the sequential run with no
    sharing."""
    workflow = template_workflow("Causal", AGENT_REGISTRY)
    store, profile = _store(), builtin_profiles()["Causal"]
    backend = RecordingBackend(Backend.from_mock(
        MockScript(default_response=inspecting(actions, fail_first)),
        max_inflight))
    with ThreadPoolExecutor(max_workers=2) as stages:
        record = execute_workflow(workflow, _question(), store, profile,
                                  View(backend), stages)
    want = sequential_execute_workflow(
        workflow, _question(), store, profile, Backend.from_mock(
            MockScript(default_response=inspecting(actions, fail_first, 0.0))))
    return record, want, backend


def _captions(backend: RecordingBackend) -> list[str]:
    return [c.rendered for c in backend.calls if c.capability == "caption"]


@pytest.mark.parametrize("max_inflight", [1, 8])
def test_one_caption_call_for_two_stages_inspecting_one_frame(
        max_inflight) -> None:
    """The visual agent's first request arrives while the text agent's is in
    flight, and its second once that one is answered: one send in all."""
    record, want, backend = _run(
        {TEXT_AGENT: [FRAME_4], VISUAL_AGENT: [FRAME_4, FRAME_4]},
        max_inflight)
    assert record.to_json() == want.to_json()
    assert len(_captions(backend)) == 1
    assert [s.observation for s in record.trace
            if s.action.startswith("inspect_frame")] == [CAPTION] * 3


@pytest.mark.parametrize("visual", [
    {"frame_index": 5},
    {"frame_index": 4, "prompt": "What is on the table?"},
], ids=["other frame", "other prompt"])
def test_another_frame_or_prompt_is_another_call(visual) -> None:
    record, want, backend = _run({TEXT_AGENT: [FRAME_4],
                                  VISUAL_AGENT: [visual]}, 8)
    assert record.to_json() == want.to_json()
    assert len(set(_captions(backend))) == len(_captions(backend)) == 2


@pytest.mark.parametrize("max_inflight", [1, 8])
def test_a_failed_call_is_not_shared(max_inflight) -> None:
    """The text agent's call fails while the visual agent waits on it; the
    visual agent then sends its own and sees the caption, as with no
    sharing."""
    record, want, backend = _run(
        {TEXT_AGENT: [FRAME_4], VISUAL_AGENT: [FRAME_4]}, max_inflight,
        fail_first=True)
    assert record.to_json() == want.to_json()
    captions = [c for c in backend.calls if c.capability == "caption"]
    assert Counter(c.error for c in captions) == {
        "scripted transport failure": 1, None: 1}
    assert len({c.rendered for c in captions}) == 1
    assert {s.agent: s.observation for s in record.trace
            if s.action.startswith("inspect_frame")} == {
        TEXT_AGENT: "ERROR: scripted transport failure",
        VISUAL_AGENT: CAPTION}


def test_each_waiting_request_is_sent_once_the_leader_fails() -> None:
    """Three identical requests in flight at once, the first failing: one of
    the other two is sent, and the third shares its reply."""
    sent = threading.Semaphore(0)
    calls = []

    def respond(rendered: str) -> str:
        calls.append(rendered)
        sent.release()
        time.sleep(HELD_S)
        if len(calls) == 1:
            raise TransportError("scripted transport failure")
        return CAPTION

    shared = View(Backend.from_mock(MockScript(
        default_response=respond)))
    request = caption_request("vid:frame:4", "Describe this frame.")

    def call():
        try:
            return shared.call(request)
        except TransportError as exc:
            return str(exc)

    with ThreadPoolExecutor(max_workers=3) as pool:
        first = pool.submit(call)
        assert sent.acquire(timeout=10)
        rest = [pool.submit(call) for _ in range(2)]
        replies = [f.result(timeout=10) for f in [first, *rest]]
    assert replies == ["scripted transport failure", CAPTION, CAPTION]
    assert len(calls) == 2


def test_many_threads_send_each_distinct_request_once() -> None:
    """16 threads, switching every 10 microseconds, make 400 calls over 8
    distinct requests; the first send of frames 0, 3 and 6 fails. Each
    request is sent once, plus once after its failure, and every call gets
    its own frame's reply, or the failure when its send was the one that
    failed."""
    lock = threading.Lock()
    seen: set[str] = set()

    def respond(rendered: str) -> str:
        image = json.loads(rendered.split(":", 1)[1])["image"]
        with lock:
            first = image not in seen
            seen.add(image)
        time.sleep(0.001)
        if first and int(image.rsplit(":", 1)[1]) % 3 == 0:
            raise TransportError("scripted transport failure")
        return image

    inner = RecordingBackend(Backend.from_mock(MockScript(
        default_response=respond)))
    shared = View(inner)
    images = [f"vid:frame:{i % 8}" for i in range(400)]

    def call(image: str) -> str:
        try:
            return shared.call(caption_request(image, "Describe this frame."))
        except TransportError as exc:
            return str(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            replies = [f.result(timeout=30)
                       for f in [pool.submit(call, i) for i in images]]
    finally:
        sys.setswitchinterval(previous)
    sent = Counter(c.rendered for c in inner.calls)
    assert sorted(sent.values()) == [1] * 5 + [2] * 3
    assert [c.error for c in inner.calls].count(
        "scripted transport failure") == 3
    assert replies.count("scripted transport failure") == 3
    assert all(reply in (image, "scripted transport failure")
               for image, reply in zip(images, replies))


def test_chat_and_embed_requests_are_never_shared() -> None:
    inner = RecordingBackend(Backend.from_mock(MockScript(
        default_response=lambda rendered: (
            [1.0] if rendered.startswith("embed:") else "a reply"))))
    shared = View(inner)
    for request in (chat_request("Rate it."), embed_request("vid:frame:4"),
                    caption_request("vid:frame:4", "Describe this frame.")):
        shared.call(request)
        shared.call(request)
    assert Counter(c.capability for c in inner.calls) == {
        "chat": 2, "embed": 2, "caption": 1}
    assert shared.max_inflight == inner.max_inflight
    assert shared.capabilities == inner.capabilities


def _golden_a() -> list[RawQuestion]:
    return [RawQuestion(q.question_id, q.text, q.options)
            for q in GOLDEN_QUESTIONS if q.video_id == "golden_a"]


@pytest.mark.parametrize("max_inflight", [1, 8])
def test_unparseable_chat_replies_are_still_asked_again(tmp_path,
                                                        max_inflight) -> None:
    """Shot 1's relevance reply and a_q2's classification reply are
    unparseable: each identical prompt is sent twice, then defaulted."""
    world = build_golden_world(tmp_path / "golden")
    script = world.script()
    script.rules[:0] = [
        MockRule(r"^chat:.*Rate how relevant.*Segment 1 \(", "no idea",
                 regex=True),
        MockRule(r"^chat:.*Classify this.*What is the location\?", "hmm",
                 regex=True)]
    backend = RecordingBackend(Backend.from_mock(script, max_inflight))
    result = build_video(world.video_manifests["golden_a"], _golden_a(),
                         EngineConfig(seed=3), backend)
    sent = Counter(c.rendered for c in backend.calls)
    asked_twice = [r for r, n in sent.items() if n > 1]
    assert len(asked_twice) == 2 and all(sent[r] == 2 for r in asked_twice)
    assert any("Segment 1 (" in r for r in asked_twice)
    assert any("What is the location?" in r for r in asked_twice)
    assert result.tree.nodes[1].relevance.defaulted
    assert [b.qtype for b in result.bundles
            if b.question_id == "a_q2"] == ["Descriptive"]


@pytest.mark.parametrize("max_inflight", [1, 8])
def test_generic_captions_build_sends_each_caption_request_once(
        tmp_path, max_inflight) -> None:
    """Under `generic_captions` every type captions its frames with the same
    prompt, which the first pass also uses."""
    world = build_golden_world(tmp_path / "golden")
    backend = world.backend(max_inflight)
    result = build_video(world.video_manifests["golden_a"], _golden_a(),
                         EngineConfig(seed=3, generic_captions=True), backend)
    captions = _captions(backend)
    assert len(captions) == len(set(captions))
    assert len(result.store.captions) > len(captions)
