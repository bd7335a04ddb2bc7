"""`eval` builds each video beside the previous video's answers.

Video i+1's build starts once video i's build has returned and each of its
answer tasks has had its first call admitted, or has ended; video i's
records are collected in manifest order after build i+1 returns. The
backend's gate holds a slot for each answering question with no call in
flight, so the build never takes the slot an answer's step freed (see
`test_backends.py` for the rule itself). Here:

- golden_a's last answer call and golden_b's first build call are in flight
  at once;
- the records, the report and the multiset of requests are the same at
  in-flight limits 1, 2, 3 and 8, on the golden world and on a generated
  eval_batch world (five questions a video, more than two slots), and no
  run deadlocks;
- when video a's answers and video b's build both fail, `eval` raises
  video a's error, as running the videos in turn does;
- no thread `eval` starts outlives it.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from pathlib import Path

import pytest

from videoqa.backends import Backend, MockScript
from videoqa.cli import main
from videoqa.config import EngineConfig
from videoqa.errors import BackendError, TransportError
from videoqa.pipeline import evaluate

from conftest import (GENERIC_PHRASE, GOLDEN_QUESTIONS, RecordingBackend,
                      build_golden_world)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LIMITS = (1, 2, 3, 8)
B_TEXTS = tuple(f"Question: {q.text}" for q in GOLDEN_QUESTIONS
                if q.video_id == "golden_b")
# a_q1's text stage replies with an ACTION at step 1, so its step 2 is a
# call the answer task makes live; a rendered chat request ends with its
# prompt, then the `role` key.
A_Q1_TEXT_STEP_2 = (r"\[TextAgent\] working on question a_q1\..*"
                    r'Step 2:","role":"user"\}\]\}$')
B_FIRST_PASS = rf'^caption:\{{"image":"golden_b:frame:\d+","prompt":"[^"]*{GENERIC_PHRASE}'


def _is_build_b_call(rendered: str) -> bool:
    """A first call golden_b's build can make: a classification of one of
    its questions, or a caption of one of its frames."""
    return ("golden_b:frame:" in rendered
            or (rendered.startswith('chat:{"messages":[{"content":"Classify')
                and any(text in rendered for text in B_TEXTS)))


def _within(run, seconds: float = 30.0):
    """`run()`'s result, or its error, on a thread joined within `seconds`,
    so a deadlock fails the test instead of hanging it."""
    outcome: list = []

    def target() -> None:
        try:
            outcome.append(("result", run()))
        except BaseException as exc:  # handed to the test thread
            outcome.append(("error", exc))

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), f"still running after {seconds} s"
    kind, value = outcome[0]
    if kind == "error":
        raise value
    return value


def test_last_answer_call_of_a_video_meets_the_next_build(tmp_path) -> None:
    """golden_a's fifth explanation call is its answers' last call: every
    question drafts its explanation last. It waits at a barrier for
    golden_b's first build call, which goes out only once the build of
    golden_b has started beside golden_a's answers."""
    world = build_golden_world(tmp_path / "golden")
    barrier = threading.Barrier(2, timeout=5)
    drafted_a = itertools.count(1)
    built_b = itertools.count(1)
    lock = threading.Lock()
    script = world.script()
    lookup = script.lookup

    def meeting_lookup(rendered: str):
        with lock:
            last_answer = ("drafting explanation for question a_" in rendered
                           and next(drafted_a) == 5)
            first_build = _is_build_b_call(rendered) and next(built_b) == 1
        if last_answer or first_build:
            barrier.wait()
        return lookup(rendered)

    script.lookup = meeting_lookup
    _, report = evaluate(world.dataset_path, EngineConfig(),
                         Backend.from_mock(script, max_inflight=8))
    assert report.accuracy_overall == 1.0 and not barrier.broken


def _golden_backend(tmp_path: Path, limit: int) -> tuple[Path, Backend]:
    world = build_golden_world(tmp_path / "golden")
    return world.dataset_path, Backend.from_mock(world.script(), limit)


@pytest.fixture(scope="module")
def batch_world(tmp_path_factory):
    """perfbench's eval_batch world (seed 4): six videos, five questions
    each, and its fake model."""
    if not PERFBENCH.is_dir():
        pytest.skip(f"no world generator: {PERFBENCH} is absent")
    sys.path.append(str(PERFBENCH))
    from gen_inputs import prepare

    directory = tmp_path_factory.mktemp("batch")
    return directory, prepare("eval_batch", 4, directory)


def _batch_backend(batch_world, limit: int) -> tuple[Path, Backend]:
    from fake_model import FakeModel

    directory, world = batch_world
    script = MockScript(default_response=FakeModel(world, 0.0))
    return directory / world["dataset"], Backend.from_mock(script, limit)


@pytest.mark.parametrize("world", ["golden", "eval_batch"])
def test_eval_outputs_and_requests_are_independent_of_the_limit(
        tmp_path, batch_world, world) -> None:
    outputs = []
    for limit in LIMITS:
        dataset, inner = (_golden_backend(tmp_path / str(limit), limit)
                          if world == "golden"
                          else _batch_backend(batch_world, limit))
        backend = RecordingBackend(inner)
        records, report = _within(
            lambda: evaluate(dataset, EngineConfig(), backend))
        outputs.append(([r.to_json() for r in records], report.to_json(),
                        backend.request_lines()))
    assert len(outputs[0][0]) == (10 if world == "golden" else 30)
    for limit, output in zip(LIMITS[1:], outputs[1:]):
        assert output == outputs[0], f"in-flight limit {limit}"


def _failing_world(tmp_path: Path):
    """The golden world, and a script file under which a_q1's text step 2
    and every first-pass caption of golden_b fail with a transport error."""
    world = build_golden_world(tmp_path / "golden")
    rules = [{"match": pattern, "regex": True, "error": "transport"}
             for pattern in (A_Q1_TEXT_STEP_2, B_FIRST_PASS)]
    path = tmp_path / "failing_script.json"
    path.write_text(json.dumps({"rules": rules + json.loads(
        world.script_path.read_text())["rules"]}), encoding="utf-8")
    return world, path


@pytest.mark.parametrize("max_inflight", [1, 8])
def test_eval_raises_the_earlier_videos_error_first(tmp_path, capsys,
                                                    max_inflight) -> None:
    """a_q1's text step 2 fails while golden_b's first-pass captions all
    fail too. `eval` raises a_q1's error, the one running the videos in
    turn raises, after golden_b's build has failed beside it; the CLI exits
    3 with that error's message and writes nothing."""
    world, script = _failing_world(tmp_path)
    backend = RecordingBackend(Backend.from_mock(MockScript.from_file(script),
                                                 max_inflight))
    with pytest.raises(TransportError,
                       match="^scripted transport failure$") as raised:
        _within(lambda: evaluate(world.dataset_path, EngineConfig(), backend))
    assert isinstance(raised.value.__context__, BackendError)
    assert str(raised.value.__context__) == (
        "caption backend failed for all 3 frames under the Descriptive "
        "prompt")
    failed = [c.rendered for c in backend.calls if c.error is not None]
    assert sum("a_q1" in c for c in failed) == 1
    assert sum("golden_b:frame:" in c for c in failed) == 3

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


def test_eval_leaves_no_thread_running(tmp_path) -> None:
    """Neither a whole eval nor one that fails in video a's answers and
    video b's build leaves a thread it started running."""
    before = set(threading.enumerate())
    dataset, backend = _golden_backend(tmp_path / "ok", 8)
    evaluate(dataset, EngineConfig(), backend)
    world, script = _failing_world(tmp_path / "failing")
    with pytest.raises(TransportError):
        evaluate(world.dataset_path, EngineConfig(),
                 Backend.from_mock(MockScript.from_file(script), 8))
    assert set(threading.enumerate()) <= before
