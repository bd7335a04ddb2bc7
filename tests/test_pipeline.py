from __future__ import annotations

import json
import threading
import time
from collections import Counter

import numpy as np
import pytest

from videoqa.backends import Backend, CachingBackend, MockRule, MockScript
from videoqa.captioning import generic_prompt
from videoqa.cli import main
from videoqa.config import EngineConfig
from videoqa.errors import BackendError, InputError, ValidationError
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

from conftest import (GENERIC_PHRASE, GOLDEN_QUESTIONS, RecordingBackend,
                      build_golden_world, write_video)


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
    emb = np.random.default_rng(1).normal(1, 1, (18, 4)).astype(np.float32)
    shots = uniform_leaf_shots(18, 8, emb)
    assert len(shots) == 8
    covered = [f for s in shots for f in range(s.start_frame, s.end_frame + 1)]
    assert covered == list(range(18))
    sizes = [s.end_frame - s.start_frame + 1 for s in shots]
    assert max(sizes) - min(sizes) <= 1, "even split"
    shots_small = uniform_leaf_shots(3, 8, emb[:3])
    assert len(shots_small) == 3, "clamped to the frame count"


def test_question_file_and_manifest_validation(tmp_path) -> None:
    qfile = tmp_path / "questions.json"
    qfile.write_text(json.dumps([{
        "question_id": "q1", "text": "Why?", "options": ["a", "b"],
        "gold_index": 1, "declared_type": "Causal"}]))
    questions = load_question_file(qfile)
    assert questions[0].gold_index == 1

    qfile.write_text(json.dumps([{
        "question_id": "q1", "text": "Why?", "options": ["a", "b"],
        "gold_index": 7}]))
    with pytest.raises(ValidationError, match="gold_index"):
        load_question_file(qfile)

    qfile.write_text(json.dumps([{
        "question_id": "q1", "text": "Why?", "options": ["a", "b"],
        "declared_type": "Philosophical"}]))
    with pytest.raises(ValidationError, match="declared_type"):
        load_question_file(qfile)

    qfile.write_text(json.dumps([{
        "question_id": "q1", "text": "Why?", "options": 5}]))
    with pytest.raises(ValidationError, match="options must be a list"):
        load_question_file(qfile)

    mfile = tmp_path / "dataset.json"
    mfile.write_text(json.dumps({"entries": [
        {"video_id": "v1", "frame_manifest_path": "a.json", "questions": []},
        {"video_id": "v1", "frame_manifest_path": "b.json", "questions": []},
    ]}))
    with pytest.raises(ValidationError, match="duplicate"):
        load_dataset_manifest(mfile)


def test_dataset_manifest_rejects_malformed_entries(tmp_path) -> None:
    mfile = tmp_path / "dataset.json"
    mfile.write_text(json.dumps({"entries": [42]}))
    with pytest.raises(ValidationError, match="must be an object"):
        load_dataset_manifest(mfile)

    mfile.write_text(json.dumps({"entries": [
        {"video_id": "v1", "frame_manifest_path": "a.json", "questions": [
            {"question_id": "q1", "text": "Why?", "options": ["a", "b"],
             "gold_index": "x"}]}]}))
    with pytest.raises(ValidationError, match="gold_index must be an integer"):
        load_dataset_manifest(mfile)

    mfile.write_text(json.dumps({"entries": [
        {"video_id": "v1", "frame_manifest_path": "a.json", "questions": 5}]}))
    with pytest.raises(ValidationError, match="questions must be a list"):
        load_dataset_manifest(mfile)


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


def test_build_one_type_caption_outage_raises(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    script = world.script()
    script.rules.insert(0, MockRule(r"^caption:.*temporal-view", regex=True,
                                    error="transport"))
    questions = _golden_questions("golden_a", "a_q1", "a_q3")
    with pytest.raises(BackendError, match="failed for all"):
        build_video(world.video_manifests["golden_a"], questions,
                    EngineConfig(seed=3), Backend.from_mock(script))


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


def test_parallel_videos_matches_sequential(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    seq_records, seq_report = evaluate(world.dataset_path, EngineConfig(seed=3),
                                       world.backend())
    par_records, par_report = evaluate(world.dataset_path,
                                       EngineConfig(seed=3, parallel_videos=True),
                                       world.backend())
    assert [r.to_json() for r in par_records] == \
        [r.to_json() for r in seq_records]
    assert par_report.to_doc() == seq_report.to_doc()


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
