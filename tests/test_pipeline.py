from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from videoqa.backends import Backend, CachingBackend, MockRule, MockScript
from videoqa.captioning import SENTINEL_CAPTION, generic_prompt
from videoqa.cli import main
from videoqa.config import EngineConfig
from videoqa.errors import BackendError, InputError, ValidationError
from videoqa.ingest import read_embeddings
from videoqa import pipeline
from videoqa import tree as tree_module
from videoqa.orchestrator import AGENT_REGISTRY
from videoqa.pipeline import (
    RawQuestion,
    build_video,
    evaluate,
    load_dataset_manifest,
    load_question_file,
    uniform_leaf_shots,
)
from videoqa.tree import tree_to_json

from conftest import (GENERIC_PHRASE, GOLDEN_QUESTIONS, RecordedCall,
                      RecordingBackend, build_golden_world, write_video)


def _twelve_frame_script() -> MockScript:
    """Two planted shots; the second scores high and expands."""
    script = MockScript()
    script.add("single causal-focused summary", "fused causal summary")
    for frame in range(6):
        script.add(f"vid12:frame:{frame}\"", "caption shot one")
    for frame in range(6, 12):
        script.add(f"vid12:frame:{frame}\"", "caption shot two")
    script.add("caption: caption shot one", "1")
    script.add("caption: caption shot two", "4")
    script.add("Question: Why does it happen?", "Causal")
    script.add("Describe what triggers the main action", "look for causes")
    return script


def _question() -> RawQuestion:
    return RawQuestion("q1", "Why does it happen?", ("because", "chance"))


def _caption_prompts(backend: RecordingBackend) -> set[str]:
    """The visual prompts the recorded caption calls carried."""
    return {json.loads(call.rendered.split(":", 1)[1])["prompt"]
            for call in backend.calls if call.capability == "caption"}


def test_build_two_shots_one_expanded(tmp_path) -> None:
    manifest = write_video(tmp_path, "vid12", [6, 6], seed=2)
    config = EngineConfig(seed=5)
    backend = RecordingBackend(Backend.from_mock(_twelve_frame_script()))
    result = build_video(manifest, [_question()], config, backend)

    tree = result.tree
    assert len(tree.shot_order) == 2
    assert [tree.nodes[s].relevance.value for s in tree.shot_order] == [1.0, 4.0]
    expanded = [s for s in tree.shot_order if tree.nodes[s].children]
    assert len(expanded) == 1, "only the shot above tau expands"
    assert tree.nodes[expanded[0]].start_frame == 6
    tree.validate()

    # depth retrieval: 1/2 high shots > gamma=0.4 -> breadth... 0.5 > 0.4
    assert len(result.retrieved_frames) == 2, "breadth mode at 1/2 high"
    assert result.bundles[0].qtype == "Causal"
    assert result.store.first_pass[tree.shot_order[0]] == "caption shot one"
    assert "look for causes" in _caption_prompts(backend), \
        "the synthesized Causal prompt steers the question-aware captions"


def test_build_rerun_with_cache_makes_zero_backend_calls(tmp_path) -> None:
    manifest = write_video(tmp_path, "vid12", [6, 6], seed=2)
    config = EngineConfig(seed=5)

    inner_one = RecordingBackend(Backend.from_mock(_twelve_frame_script()))
    backend = CachingBackend(inner_one, tmp_path / "cache")
    build_video(manifest, [_question()], config, backend)
    assert len(inner_one.calls) > 0

    inner_two = RecordingBackend(Backend.from_mock(_twelve_frame_script()))
    backend_two = CachingBackend(inner_two, tmp_path / "cache")
    result = build_video(manifest, [_question()], config, backend_two)
    assert len(inner_two.calls) == 0, "second run is fully cache-served"
    assert result.tree.validate() is None


def test_build_missing_manifest_raises_input_error(tmp_path) -> None:
    config = EngineConfig()
    backend = Backend.from_mock(MockScript(default_response="x"))
    with pytest.raises(InputError, match="absent.json"):
        build_video(tmp_path / "absent.json", [], config, backend)


def test_uniform_leaf_shots_partition() -> None:
    shots = uniform_leaf_shots(18, 8)
    assert len(shots) == 8
    covered = [f for s in shots for f in s]
    assert covered == list(range(18))
    sizes = [len(s) for s in shots]
    assert max(sizes) - min(sizes) <= 1, "even split"
    shots_small = uniform_leaf_shots(3, 8)
    assert len(shots_small) == 3, "clamped to the frame count"
    assert uniform_leaf_shots(1, 8) == [range(0, 1)]


@pytest.mark.parametrize("field,value", [
    ("question_id", None), ("question_id", 7), ("text", ["x"]), ("text", None),
    ("options", [None, {"a": 1}]), ("options", ["a", 2]),
])
def test_question_fields_must_be_strings(tmp_path, field, value) -> None:
    """A question's id, text and options are taken as given, never turned
    into their string form."""
    doc = {"question_id": "q1", "text": "Why?", "options": ["a", "b"]}
    doc[field] = value
    qfile = tmp_path / "questions.json"
    qfile.write_text(json.dumps([doc]))
    with pytest.raises(ValidationError, match=rf"#/0/{field}(/\d+)?: expected"):
        load_question_file(qfile)


def test_question_file_and_manifest_validation(tmp_path) -> None:
    qfile = tmp_path / "questions.json"
    qfile.write_text(json.dumps([{
        "question_id": "q1", "text": "Why?", "options": ["a", "b"],
        "gold_index": 1, "declared_type": "Causal"}]))
    questions = load_question_file(qfile)
    assert questions[0].gold_index == 1

    for gold in (2, 7):
        qfile.write_text(json.dumps([{
            "question_id": "q1", "text": "Why?", "options": ["a", "b"],
            "gold_index": gold}]))
        with pytest.raises(ValidationError, match=f"#/0/gold_index: {gold} is "
                                                  "outside the option range"):
            load_question_file(qfile)

    qfile.write_text(json.dumps([{
        "question_id": "q1", "text": "Why?", "options": ["a", "b"],
        "declared_type": "Philosophical"}]))
    with pytest.raises(ValidationError, match="declared_type"):
        load_question_file(qfile)

    qfile.write_text(json.dumps([{
        "question_id": "q1", "text": "Why?", "options": 5}]))
    with pytest.raises(ValidationError, match="/options: expected a list"):
        load_question_file(qfile)

    mfile = tmp_path / "dataset.json"
    mfile.write_text(json.dumps({"entries": [
        {"video_id": "v1", "frame_manifest_path": "a.json", "questions": []},
        {"video_id": "v1", "frame_manifest_path": "b.json", "questions": []},
    ]}))
    with pytest.raises(ValidationError, match="duplicate"):
        load_dataset_manifest(mfile)


def test_question_file_rejects_a_repeated_question_id(tmp_path) -> None:
    """The second question with an id already used fails at its own
    pointer, before any model call."""
    qfile = tmp_path / "questions.json"
    question = {"question_id": "q1", "text": "Why?", "options": ["a", "b"]}
    qfile.write_text(json.dumps({"questions": [
        question, {**question, "question_id": "q2"}, question]}))
    with pytest.raises(ValidationError, match=r"#/questions/2/question_id: "
                                              r"duplicate question_id q1"):
        load_question_file(qfile)


@pytest.mark.parametrize("second", [(0, 1), (1, 0)],
                         ids=["same-entry", "across-entries"])
def test_dataset_manifest_rejects_a_repeated_question_id(tmp_path,
                                                         second) -> None:
    """A question id names one record of the eval, so it may appear once in
    the whole manifest; the error points at the second occurrence."""
    question = {"question_id": "q1", "text": "Why?", "options": ["a", "b"]}
    entries = [{"video_id": f"v{i}", "frame_manifest_path": f"v{i}.json",
                "questions": [question]} for i in range(2)]
    entries[1]["questions"] = [{**question, "question_id": "q2"}]
    entry, index = second
    entries[entry]["questions"].insert(index, question)
    mfile = tmp_path / "dataset.json"
    mfile.write_text(json.dumps({"entries": entries}))
    pointer = f"#/entries/{entry}/questions/{index}/question_id"
    with pytest.raises(ValidationError,
                       match=rf"{pointer}: duplicate question_id q1"):
        load_dataset_manifest(mfile)


def test_cli_eval_repeated_question_id_exits_2(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    doc = json.loads(world.dataset_path.read_text())
    doc["entries"][1]["questions"][0]["question_id"] = "a_q1"
    world.dataset_path.write_text(json.dumps(doc))
    assert main(["eval", str(world.dataset_path),
                 "--mock-script", str(world.script_path)]) == 2
    err = capsys.readouterr().err
    assert "#/entries/1/questions/0/question_id: duplicate question_id a_q1" \
        in err and "Traceback" not in err


def test_dataset_manifest_rejects_malformed_entries(tmp_path) -> None:
    mfile = tmp_path / "dataset.json"
    mfile.write_text(json.dumps({"entries": [42]}))
    with pytest.raises(ValidationError, match="#/entries/0: expected an object"):
        load_dataset_manifest(mfile)

    mfile.write_text(json.dumps({"entries": [
        {"video_id": "v1", "frame_manifest_path": "a.json", "questions": [
            {"question_id": "q1", "text": "Why?", "options": ["a", "b"],
             "gold_index": "x"}]}]}))
    with pytest.raises(ValidationError, match="/gold_index: expected an int"):
        load_dataset_manifest(mfile)

    mfile.write_text(json.dumps({"entries": [
        {"video_id": "v1", "frame_manifest_path": "a.json", "questions": 5}]}))
    with pytest.raises(ValidationError, match="/questions: expected a list"):
        load_dataset_manifest(mfile)


def test_evaluate_refuses_an_entry_whose_manifest_names_another_video(
        tmp_path) -> None:
    """A dataset entry's video_id must be its frame manifest's; a mismatch
    is refused, naming both ids, before any model call."""
    world = build_golden_world(tmp_path / "golden")
    doc = json.loads(world.dataset_path.read_text())
    doc["entries"][0]["video_id"] = "golden_z"
    world.dataset_path.write_text(json.dumps(doc))
    backend = world.backend()
    with pytest.raises(ValidationError, match="'golden_a'.*'golden_z'"):
        evaluate(world.dataset_path, EngineConfig(), backend)
    assert backend.calls == []


def test_cli_eval_malformed_dataset_entry_exits_2(tmp_path, capsys) -> None:
    mfile = tmp_path / "dataset.json"
    mfile.write_text(json.dumps({"entries": [42]}))
    script = tmp_path / "mock.json"
    script.write_text(json.dumps({"default_response": "x"}))
    assert main(["eval", str(mfile), "--mock-script", str(script)]) == 2
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Build concurrency
# ---------------------------------------------------------------------------

def _golden_questions(video_id: str, *qids: str) -> list[RawQuestion]:
    return [RawQuestion(q.question_id, q.text, q.options)
            for q in GOLDEN_QUESTIONS
            if q.video_id == video_id and (not qids or q.question_id in qids)]


def test_classification_overlaps_first_pass_captioning(tmp_path) -> None:
    """A first-pass caption and the classification meet at one barrier, so
    the build passes only when the two run at the same time."""
    barrier = threading.Barrier(2, timeout=5)
    first_caption = threading.Lock()

    def respond(rendered: str) -> str:
        if "Classify this multiple-choice" in rendered:
            barrier.wait()
            return "Causal"
        if (rendered.startswith("caption:") and GENERIC_PHRASE in rendered
                and first_caption.acquire(blocking=False)):
            barrier.wait()
        if "Rate how relevant" in rendered:
            return "3"
        return "text"

    manifest = write_video(tmp_path, "vid12", [6, 6], seed=2)
    backend = Backend.from_mock(MockScript(default_response=respond))
    result = build_video(manifest, [_question()], EngineConfig(seed=5), backend)
    assert result.bundles[0].qtype == "Causal"


def test_build_output_independent_of_inflight_limit(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    questions = _golden_questions("golden_a")
    outputs = []
    for max_inflight in (1, 8):
        backend = world.backend(max_inflight)
        result = build_video(world.video_manifests["golden_a"], questions,
                             EngineConfig(seed=3), backend)
        assert len(_caption_prompts(backend) - {generic_prompt().text}) == 3
        outputs.append((tree_to_json(result.tree),
                        json.dumps(result.store.to_sidecar(), sort_keys=True),
                        [b.qtype for b in result.bundles]))
    assert outputs[0] == outputs[1]


def test_build_output_holds_under_thread_switching_stress(tmp_path) -> None:
    """With more call threads than cores and the interpreter switching
    threads every microsecond, calls finish in many orders around the build
    thread's queueing; the tree and store stay those of one call at a
    time."""
    world = build_golden_world(tmp_path / "golden")
    manifest, questions = (world.video_manifests["golden_a"],
                           _golden_questions("golden_a"))

    def built(max_inflight: int) -> tuple[str, str]:
        result = build_video(manifest, questions, EngineConfig(seed=3),
                             world.backend(max_inflight))
        return (tree_to_json(result.tree),
                json.dumps(result.store.to_sidecar(), sort_keys=True))

    expected = built(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stressed = [built(16) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert stressed == [expected] * 5


@pytest.mark.parametrize("max_inflight", [1, 8])
def test_build_respects_mock_inflight_limit(tmp_path, max_inflight) -> None:
    """The mock's limit caps the calls in flight during a golden build, and
    a limit of 8 does let calls overlap."""
    world = build_golden_world(tmp_path / "golden")
    script = world.script()
    lookup, lock = script.lookup, threading.Lock()
    inflight = {"now": 0, "peak": 0}

    def counting_lookup(rendered: str):
        with lock:
            inflight["now"] += 1
            inflight["peak"] = max(inflight["peak"], inflight["now"])
        time.sleep(0.002)
        with lock:
            inflight["now"] -= 1
        return lookup(rendered)

    script.lookup = counting_lookup
    build_video(world.video_manifests["golden_a"],
                _golden_questions("golden_a"), EngineConfig(seed=3),
                Backend.from_mock(script, max_inflight=max_inflight))
    if max_inflight == 1:
        assert inflight["peak"] == 1
    else:
        assert 1 < inflight["peak"] <= max_inflight


@pytest.mark.parametrize("images", [False, True],
                         ids=["embeddings", "images"])
def test_build_runs_every_call_on_one_executor(tmp_path, monkeypatch,
                                               images) -> None:
    """A golden build creates one executor, and every model call it makes
    runs on that executor's worker threads: the embed calls of an image-path
    manifest too, which give the tree the embeddings file gives."""
    executors: list[str] = []

    class NamedExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers: int) -> None:
            executors.append(f"executor{len(executors)}")
            super().__init__(max_workers, thread_name_prefix=executors[-1])

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", NamedExecutor)
    world = build_golden_world(tmp_path / "golden")
    script, manifest = world.script(), world.video_manifests["golden_a"]
    questions = _golden_questions("golden_a")
    expected = tree_to_json(build_video(manifest, questions,
                                        EngineConfig(seed=3),
                                        Backend.from_mock(script)).tree)
    executors.clear()
    if images:
        # A path named as the frame's reference keeps every caption request.
        doc = json.loads(manifest.read_text())
        rows = read_embeddings(manifest.parent / doc.pop("embeddings_path"))[:]
        for frame in doc["frames"]:
            frame["path"] = f"golden_a:frame:{frame['index']}"
            script.rules.insert(0, MockRule(
                f'embed:{{"image":"{frame["path"]}"}}',
                rows[frame["index"]].tolist()))
        manifest = tmp_path / "images.json"
        manifest.write_text(json.dumps(doc))
    lookup, threads = script.lookup, []

    def thread_lookup(rendered: str):
        threads.append((threading.current_thread().name,
                        rendered.split(":", 1)[0]))
        return lookup(rendered)

    script.lookup = thread_lookup
    result = build_video(manifest, questions, EngineConfig(seed=3),
                         Backend.from_mock(script))
    assert executors == ["executor0"]
    assert threads and {name.rsplit("_", 1)[0] for name, _ in threads} == \
        {"executor0"}
    assert ("embed" in {kind for _, kind in threads}) is images
    assert tree_to_json(result.tree) == expected


def _stage(call: RecordedCall) -> str:
    """The build stage that made a recorded call."""
    if call.capability == "caption":
        return ("first-pass caption" if GENERIC_PHRASE in call.rendered
                else "typed caption")
    for marker, stage in (("Classify this multiple-choice", "classification"),
                          ("You write visual captioning prompts", "synthesis"),
                          ("Rate how relevant", "score"),
                          ("Fuse these frame captions", "fusion")):
        if marker in call.rendered:
            return stage
    return call.capability


def test_build_calls_run_in_queue_order_at_one_in_flight(tmp_path) -> None:
    """With one call in flight, a golden build's calls arrive stage by
    stage, in the order the stages are queued."""
    world = build_golden_world(tmp_path / "golden")
    backend = world.backend(max_inflight=1)
    build_video(world.video_manifests["golden_a"],
                _golden_questions("golden_a"), EngineConfig(seed=3), backend)
    stages = [stage for stage, _ in itertools.groupby(map(_stage, backend.calls))]
    assert stages == ["classification", "first-pass caption", "score",
                      "synthesis", "typed caption", "fusion"]


def test_build_one_type_caption_outage_raises(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    script = world.script()
    script.rules.insert(0, MockRule(r"^caption:.*temporal-view", regex=True,
                                    error="transport"))
    questions = _golden_questions("golden_a", "a_q1", "a_q3")
    with pytest.raises(BackendError, match="failed for all"):
        build_video(world.video_manifests["golden_a"], questions,
                    EngineConfig(seed=3), Backend.from_mock(script))


def _failing_build(tmp_path, max_inflight: int, *patterns: str):
    """A golden_a build whose calls matching any regex of `patterns` fail
    with a transport error past their retries: its recording backend and
    the build's result, or the exception it raised."""
    world = build_golden_world(tmp_path / "golden")
    script = world.script()
    for pattern in patterns:
        script.rules.insert(0, MockRule(pattern, regex=True, error="transport"))
    backend = RecordingBackend(Backend.from_mock(script, max_inflight))
    try:
        return backend, build_video(world.video_manifests["golden_a"],
                                    _golden_questions("golden_a"),
                                    EngineConfig(seed=3), backend)
    except BackendError as exc:
        return backend, exc


def _calls_to(backend: RecordingBackend, stage: str) -> list[RecordedCall]:
    return [call for call in backend.calls if _stage(call) == stage]


@pytest.mark.parametrize("max_inflight", [1, 8])
def test_build_failing_first_pass_caption_still_scores_its_shot(
        tmp_path, max_inflight) -> None:
    """Frame 8 is shot 1's representative: its first-pass caption gets the
    sentinel, and shot 1 is scored from it."""
    backend, result = _failing_build(
        tmp_path, max_inflight,
        r'^caption:\{"image":"golden_a:frame:8","prompt":"Describe')
    assert result.store.first_pass == {
        0: "a man sits on a park bench reading", 1: SENTINEL_CAPTION,
        2: "children playing near a fountain",
        3: "the man looks up toward the fountain"}
    assert result.tree.nodes[1].relevance is not None
    assert any("Segment 1 (" in call.rendered
               and SENTINEL_CAPTION in call.rendered
               for call in _calls_to(backend, "score"))


@pytest.mark.parametrize("max_inflight", [1, 8])
def test_build_failing_typed_caption_gets_the_sentinel(tmp_path,
                                                       max_inflight) -> None:
    backend, result = _failing_build(
        tmp_path, max_inflight,
        r'^caption:\{"image":"golden_a:frame:15","prompt":"\[causal-view\]')
    captions = result.store.captions
    assert captions[15, "Causal"].text == SENTINEL_CAPTION
    assert [key for key, cap in captions.items()
            if cap.text == SENTINEL_CAPTION] == [(15, "Causal")]
    assert len(_calls_to(backend, "fusion")) == 3, "every group is fused"


@pytest.mark.parametrize("max_inflight", [1, 8])
def test_build_score_failure_names_the_lowest_failing_shot(
        tmp_path, max_inflight) -> None:
    """Shots 3 and 1 both fail to score; the error names shot 1 however
    the two calls finish."""
    _, raised = _failing_build(tmp_path, max_inflight,
                               r"Segment 3 \(", r"Segment 1 \(")
    assert isinstance(raised, BackendError)
    assert str(raised).startswith("scoring shot 1 failed")


@pytest.mark.parametrize("max_inflight", [1, 8])
def test_build_fusion_failure_names_the_lowest_failing_group(
        tmp_path, max_inflight) -> None:
    """The Temporal and Descriptive fusions of shot 2 both fail; the error
    names (2, Descriptive) however the two calls finish."""
    _, raised = _failing_build(tmp_path, max_inflight, "temporal-focused",
                               "descriptive-focused")
    assert isinstance(raised, BackendError)
    assert str(raised).startswith("summarizing shot 2 Descriptive failed")


@pytest.mark.parametrize("max_inflight", [1, 8])
def test_build_synthesis_failure_names_its_type(tmp_path, max_inflight) -> None:
    _, raised = _failing_build(
        tmp_path, max_inflight,
        "You write visual captioning prompts.*attention to ordering")
    assert isinstance(raised, BackendError)
    assert str(raised) == ("synthesizing the Temporal prompt failed: "
                           "scripted transport failure")


def test_failed_build_drops_the_calls_still_queued(tmp_path) -> None:
    """At one call in flight, shot 1's score fails while shot 2's is in
    flight: the build raises without making shot 3's score call or any
    synthesis, which were queued behind them."""
    world = build_golden_world(tmp_path / "golden")
    script = world.script()
    script.rules.insert(0, MockRule(r"Segment 1 \(", regex=True,
                                    error="transport"))
    lookup = script.lookup

    def slow_lookup(rendered: str):
        if "Segment 2 (" in rendered:
            time.sleep(0.2)
        return lookup(rendered)

    script.lookup = slow_lookup
    backend = RecordingBackend(Backend.from_mock(script, max_inflight=1))
    with pytest.raises(BackendError, match="scoring shot 1 failed"):
        build_video(world.video_manifests["golden_a"],
                    _golden_questions("golden_a"), EngineConfig(seed=3),
                    backend)
    assert [call.rendered.split("Segment ")[1][0]
            for call in _calls_to(backend, "score")] == ["0", "1", "2"]
    assert not _calls_to(backend, "synthesis")


@pytest.mark.parametrize("max_inflight", [1, 8])
@pytest.mark.parametrize("prompt,absent", [
    ("Describe this frame in one or two sentences", {"score", "fusion"}),
    (r"\[temporal-view\]", {"fusion"}),
], ids=["first-pass", "typed"])
def test_build_caption_outage_raises_before_its_dependants_are_queued(
        tmp_path, max_inflight, prompt, absent) -> None:
    """When every frame fails under one prompt the build raises "failed
    for all", and queues no score or fusion call that depends on those
    captions."""
    backend, raised = _failing_build(tmp_path, max_inflight,
                                     rf"^caption:.*{prompt}")
    assert isinstance(raised, BackendError)
    assert "failed for all" in str(raised)
    assert not [call for call in backend.calls if _stage(call) in absent]


def test_expansion_overlaps_later_scores(tmp_path, monkeypatch) -> None:
    """Shot 2 of golden_a expands while shot 3's score call is in flight:
    its first K-Means call and that score call meet at one barrier."""
    barrier = threading.Barrier(2, timeout=5)
    first_kmeans = threading.Lock()
    kmeans = tree_module.kmeans

    def meeting_kmeans(*args, **kwargs):
        if first_kmeans.acquire(blocking=False):
            barrier.wait()
        return kmeans(*args, **kwargs)

    monkeypatch.setattr(tree_module, "kmeans", meeting_kmeans)
    world = build_golden_world(tmp_path / "golden")
    script = world.script()
    lookup = script.lookup

    def meeting_lookup(rendered: str):
        if "Rate how relevant" in rendered and "Segment 3 (" in rendered:
            barrier.wait()
        return lookup(rendered)

    script.lookup = meeting_lookup
    result = build_video(world.video_manifests["golden_a"],
                         _golden_questions("golden_a"), EngineConfig(seed=3),
                         Backend.from_mock(script, max_inflight=8))
    assert result.tree.nodes[2].children and not barrier.broken


def test_fusion_overlaps_other_groups_typed_captions(tmp_path) -> None:
    """A fusion call and the first Temporal typed caption meet at one
    barrier: the Causal and Descriptive groups are fused while a caption of
    the Temporal group is still in flight."""
    barrier = threading.Barrier(2, timeout=5)
    first_fusion, first_temporal = threading.Lock(), threading.Lock()
    world = build_golden_world(tmp_path / "golden")
    script = world.script()
    lookup = script.lookup

    def meeting_lookup(rendered: str):
        if ("Fuse these frame captions" in rendered
                and first_fusion.acquire(blocking=False)):
            barrier.wait()
        if ("[temporal-view]" in rendered and rendered.startswith("caption:")
                and first_temporal.acquire(blocking=False)):
            barrier.wait()
        return lookup(rendered)

    script.lookup = meeting_lookup
    result = build_video(world.video_manifests["golden_a"],
                         _golden_questions("golden_a"), EngineConfig(seed=3),
                         Backend.from_mock(script, max_inflight=8))
    assert len(result.store.summaries) == 3 and not barrier.broken


# ---------------------------------------------------------------------------
# Eval scheduling
# ---------------------------------------------------------------------------

def test_eval_plans_questions_while_their_video_builds(tmp_path) -> None:
    """The eval's first analysis call and golden_a's first typed caption
    meet at one barrier: questions are planned while the build that
    classified them is still captioning."""
    barrier = threading.Barrier(2, timeout=5)
    first_analysis, first_typed = threading.Lock(), threading.Lock()
    world = build_golden_world(tmp_path / "golden")
    script = world.script()
    lookup = script.lookup

    def meeting_lookup(rendered: str):
        if ("[ProblemAnalysisAgent] analyzing" in rendered
                and first_analysis.acquire(blocking=False)):
            barrier.wait()
        if (rendered.startswith("caption:") and GENERIC_PHRASE not in rendered
                and first_typed.acquire(blocking=False)):
            barrier.wait()
        return lookup(rendered)

    script.lookup = meeting_lookup
    _, report = evaluate(world.dataset_path, EngineConfig(seed=3),
                         Backend.from_mock(script, max_inflight=8))
    assert report.accuracy_overall == 1.0 and not barrier.broken


@pytest.mark.parametrize("max_inflight", [1, 8])
def test_eval_whose_build_fails_answers_nothing(tmp_path, max_inflight) -> None:
    """Every first-pass caption of golden_a fails: the eval raises the
    build's error, makes no planning, ReAct or answer call, and leaves no
    thread it started running."""
    world = build_golden_world(tmp_path / "golden")
    script = world.script()
    script.rules.insert(0, MockRule(rf"^caption:.*{GENERIC_PHRASE}",
                                    regex=True, error="transport"))
    backend = RecordingBackend(Backend.from_mock(script, max_inflight))
    before = set(threading.enumerate())
    with pytest.raises(BackendError) as raised:
        evaluate(world.dataset_path, EngineConfig(seed=3), backend)
    assert type(raised.value) is BackendError
    assert str(raised.value) == ("caption backend failed for all 4 frames "
                                 "under the Descriptive prompt")
    assert not [call for call in backend.calls
                if "[ProblemAnalysisAgent]" in call.rendered
                or "[TaskPlanningAgent]" in call.rendered
                or "working on question" in call.rendered
                or "drafting explanation" in call.rendered]
    assert set(threading.enumerate()) <= before


def test_plan_task_sends_no_step_1_once_its_build_has_failed(
        tmp_path, monkeypatch) -> None:
    """Every Causal typed caption of golden_a fails, so its build raises
    after the plan tasks have started. Each planning reply is held until
    that error has left `build_video`; the plan tasks then send no step-1
    call, since each question's view, scoped to the build's, refuses it,
    and the eval raises the build's error."""
    world = build_golden_world(tmp_path / "golden")
    script = world.script()
    script.rules.insert(0, MockRule(r"^caption:.*causal-view", regex=True,
                                    error="transport"))
    failed = threading.Event()
    build = pipeline.build_video

    def failing_build(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except BackendError:
            failed.set()
            raise

    lookup = script.lookup

    def holding_lookup(rendered: str):
        if "[TaskPlanningAgent]" in rendered:
            failed.wait(5)
        return lookup(rendered)

    script.lookup = holding_lookup
    monkeypatch.setattr(pipeline, "build_video", failing_build)
    backend = RecordingBackend(Backend.from_mock(script, max_inflight=8))
    with pytest.raises(BackendError, match=r"^caption backend failed for all "
                       r"\d+ frames under the Causal prompt$"):
        evaluate(world.dataset_path, EngineConfig(seed=3), backend)
    assert failed.is_set()
    assert [c for c in backend.calls if "[TaskPlanningAgent]" in c.rendered]
    assert not [c for c in backend.calls if 'Step 1:","role"' in c.rendered]


# ---------------------------------------------------------------------------
# Golden-suite evaluation
# ---------------------------------------------------------------------------

def test_golden_suite_full_accuracy(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    config = EngineConfig(seed=3)
    records, report = evaluate(world.dataset_path, config, world.backend())

    assert report.num_questions == 10
    assert report.accuracy_overall == 1.0
    assert set(report.accuracy_by_type) == {"Causal", "Temporal", "Descriptive"}
    assert all(acc == 1.0 for acc in report.accuracy_by_type.values())
    assert report.ablation_flags == []
    assert report.mean_rounds > 0

    # independent recount from the emitted records
    gold = {q.question_id: q.gold_index for q in GOLDEN_QUESTIONS}
    hits = sum(1 for r in records if r.chosen_index == gold[r.question_id])
    assert hits / len(records) == report.accuracy_overall
    assert all(r.validated for r in records)
    assert all(r.rounds_used <= config.max_iterations for r in records)


def test_golden_descriptive_questions_skip_visual_agent(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    records, _ = evaluate(world.dataset_path, EngineConfig(seed=3),
                          world.backend())
    by_id = {r.question_id: r for r in records}
    static_trace = {s.agent for s in by_id["a_q2"].trace}
    assert "VisualAnalysisAgent" not in static_trace
    causal_trace = {s.agent for s in by_id["a_q1"].trace}
    assert "VisualAnalysisAgent" in causal_trace


def test_golden_fig_scenario_answers_overlooking_children(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    records, _ = evaluate(world.dataset_path, EngineConfig(seed=3),
                          world.backend())
    record = next(r for r in records if r.question_id == "a_q1")
    assert record.chosen_text == "overlooking the children"
    assert record.rounds_used == 4, "two-step text + two-step visual"


def test_manifest_without_gold_omits_accuracy(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    doc = json.loads(world.dataset_path.read_text())
    for entry in doc["entries"]:
        for question in entry["questions"]:
            question.pop("gold_index")
    ungraded = world.root / "ungraded.json"
    ungraded.write_text(json.dumps(doc))
    records, report = evaluate(ungraded, EngineConfig(seed=3), world.backend())
    assert len(records) == 10
    assert report.accuracy_overall is None
    assert "accuracy_overall" not in report.to_doc()


def test_declared_type_skips_classifier(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    doc = json.loads(world.dataset_path.read_text())
    for entry in doc["entries"]:
        for question in entry["questions"]:
            gold_q = next(q for q in GOLDEN_QUESTIONS
                          if q.question_id == question["question_id"])
            question["declared_type"] = gold_q.qtype
    declared = world.root / "declared.json"
    declared.write_text(json.dumps(doc))
    backend = world.backend()
    records, report = evaluate(declared, EngineConfig(seed=3), backend)
    assert report.accuracy_overall == 1.0
    classify_calls = [r for r in backend.calls
                      if "Classify this multiple-choice" in r.rendered]
    assert not classify_calls, "declared types bypass the classifier"


# ---------------------------------------------------------------------------
# Ablation modes
# ---------------------------------------------------------------------------

def test_ablation_uniform_sampling_leaf_only_even_shots(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    config = EngineConfig(seed=3, uniform_sampling=True)
    backend = world.backend()
    records, report = evaluate(world.dataset_path, config, backend)
    assert report.ablation_flags == ["uniform-sampling"]
    assert len(records) == 10

    # observable structure: no scoring calls, no expansion anywhere
    scoring_calls = [r for r in backend.calls
                     if "Rate how relevant" in r.rendered]
    assert not scoring_calls

    manifest = world.video_manifests["golden_a"]
    result = build_video(manifest, [], config, world.backend())
    assert len(result.tree.shot_order) == 8
    assert all(not result.tree.nodes[s].children
               for s in result.tree.shot_order), "leaf-only"
    sizes = [result.tree.nodes[s].num_frames for s in result.tree.shot_order]
    assert max(sizes) - min(sizes) <= 1, "evenly spaced"


def test_ablation_generic_captions_skips_prompt_synthesis(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    config = EngineConfig(seed=3, generic_captions=True)
    backend = world.backend()
    _, report = evaluate(world.dataset_path, config, backend)
    assert report.ablation_flags == ["generic-captions"]
    synthesis_calls = [r for r in backend.calls
                       if "You write visual captioning prompts" in r.rendered]
    assert not synthesis_calls, "no prompt-synthesis call in the log"


def test_ablation_fixed_workflow_all_agents_same_answers(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    adaptive_records, adaptive_report = evaluate(
        world.dataset_path, EngineConfig(seed=3), world.backend())
    fixed_records, fixed_report = evaluate(
        world.dataset_path, EngineConfig(seed=3, fixed_workflow=True),
        world.backend())

    assert fixed_report.ablation_flags == ["fixed-workflow"]
    assert [r.chosen_index for r in fixed_records] == \
        [r.chosen_index for r in adaptive_records], "identical answers"
    assert fixed_report.mean_rounds > adaptive_report.mean_rounds, \
        "every question now runs the visual stage"
    for record in fixed_records:
        agents = {s.agent for s in record.trace}
        assert "VisualAnalysisAgent" in agents, "all-agent workflows"


def test_fixed_workflow_skips_planning_calls(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    backend = world.backend()
    records, _ = evaluate(world.dataset_path,
                          EngineConfig(seed=3, fixed_workflow=True), backend)
    planning_calls = [r for r in backend.calls
                      if "[ProblemAnalysisAgent]" in r.rendered
                      or "[TaskPlanningAgent]" in r.rendered]
    assert not planning_calls, "a fixed workflow makes no planning call"
    for record in records:
        assert record.trace[0].observation == ", ".join(AGENT_REGISTRY)


def test_reclassify_flag_forces_classifier(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    doc = json.loads(world.dataset_path.read_text())
    for entry in doc["entries"]:
        for question in entry["questions"]:
            gold_q = next(q for q in GOLDEN_QUESTIONS
                          if q.question_id == question["question_id"])
            question["declared_type"] = gold_q.qtype
    declared = world.root / "declared.json"
    declared.write_text(json.dumps(doc))
    backend = world.backend()
    evaluate(declared, EngineConfig(seed=3, reclassify=True), backend)
    classify_calls = [r for r in backend.calls
                      if "Classify this multiple-choice" in r.rendered]
    assert classify_calls, "reclassify forces the classifier to run"


def test_golden_eval_call_count_and_prompt_bytes_bounded(tmp_path) -> None:
    """Cost guard on the golden world. A change may tighten these bounds
    when it earns it, but must never raise them to hide a regression."""
    world = build_golden_world(tmp_path / "golden")
    backend = world.backend()
    evaluate(world.dataset_path, EngineConfig(seed=3), backend)
    calls = Counter(r.capability for r in backend.calls)
    assert sum(calls.values()) <= 101
    assert calls["chat"] <= 75
    assert calls["caption"] <= 26
    assert calls["embed"] == 0
    assert sum(len(r.rendered.encode("utf-8"))
               for r in backend.calls) <= 44_047


def test_ablation_flags_compose(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    config = EngineConfig(seed=3, uniform_sampling=True, generic_captions=True,
                          fixed_workflow=True)
    _, report = evaluate(world.dataset_path, config, world.backend())
    assert report.ablation_flags == ["uniform-sampling", "generic-captions",
                                     "fixed-workflow"]
