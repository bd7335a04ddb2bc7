from __future__ import annotations

import argparse
import json

import pytest

from videoqa.backends import CachingBackend
from videoqa.cli import _make_backend, main
from videoqa.config import EngineConfig

from conftest import GOLDEN_QUESTIONS, build_golden_world


def _build_args(world, tmp_path, *extra: str) -> list[str]:
    questions = tmp_path / "questions.json"
    questions.write_text(json.dumps([
        {"question_id": "a_q1",
         "text": "Why is the man on the bench looking up?",
         "options": ["a bird flying overhead", "overlooking the children",
                     "rain starting to fall"]},
        {"question_id": "a_q2", "text": "What is the location?",
         "options": ["a park", "a kitchen"]},
    ]))
    return ["build", str(world.video_manifests["golden_a"]), str(questions),
            str(tmp_path / "tree.json"),
            "--mock-script", str(world.script_path), *extra]


def test_cli_build_writes_tree_and_sidecar(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    assert main(_build_args(world, tmp_path)) == 0
    out = capsys.readouterr().out
    assert "4 shots" in out and "1 expanded" in out

    tree_doc = json.loads((tmp_path / "tree.json").read_text())
    assert tree_doc["video_id"] == "golden_a"
    sidecar_doc = json.loads((tmp_path / "tree.sidecar.json").read_text())
    assert sidecar_doc["video_id"] == "golden_a"
    assert sidecar_doc["captions"], "question-aware captions persisted"
    assert sidecar_doc["first_pass"], "generic captions persisted"


def test_cli_build_malformed_questions_exits_2(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    code = main(["build", str(world.video_manifests["golden_a"]), str(bad),
                 str(tmp_path / "tree.json"),
                 "--mock-script", str(world.script_path)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_ask_malformed_sidecar_exits_2(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    main(_build_args(world, tmp_path))
    capsys.readouterr()
    broken = tmp_path / "broken.sidecar.json"
    broken.write_text("{{{{")
    code = main(["ask", str(tmp_path / "tree.json"), str(broken),
                 "--question", "What is the location?",
                 "--option", "a park", "--option", "a kitchen",
                 "--mock-script", str(world.script_path)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_ask_malformed_sidecar_item_exits_2(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    main(_build_args(world, tmp_path))
    capsys.readouterr()
    sidecar = json.loads((tmp_path / "tree.sidecar.json").read_text())
    del sidecar["captions"][0]["text"]
    broken = tmp_path / "broken.sidecar.json"
    broken.write_text(json.dumps(sidecar))
    code = main(["ask", str(tmp_path / "tree.json"), str(broken),
                 "--question", "What is the location?",
                 "--option", "a park", "--option", "a kitchen",
                 "--mock-script", str(world.script_path)])
    assert code == 2
    assert "sidecar captions[0]" in capsys.readouterr().err


def test_cli_eval_malformed_manifest_exits_2(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    bad = tmp_path / "bad_manifest.json"
    bad.write_text("[")
    code = main(["eval", str(bad), "--mock-script", str(world.script_path)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_build_missing_manifest_exits_2(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    questions = tmp_path / "questions.json"
    questions.write_text("[]")
    code = main(["build", str(tmp_path / "nowhere.json"), str(questions),
                 str(tmp_path / "tree.json"),
                 "--mock-script", str(world.script_path)])
    assert code == 2
    assert "nowhere.json" in capsys.readouterr().err


def test_cli_build_image_manifest_without_embedder_exits_2(tmp_path, capsys) -> None:
    """A remote config with no embed endpoint cannot embed image frames."""
    manifest = tmp_path / "images.json"
    manifest.write_text(json.dumps({
        "video_id": "v", "fps": 1,
        "frames": [{"index": 0, "path": "a.jpg"}, {"index": 1, "path": "b.jpg"}]}))
    questions = tmp_path / "questions.json"
    questions.write_text("[]")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"backend": {
        "chat_endpoint": "http://unit.test/chat",
        "caption_endpoint": "http://unit.test/caption"}}))
    code = main(["build", str(manifest), str(questions),
                 str(tmp_path / "tree.json"), "--config", str(config)])
    assert code == 2
    assert "an embedding backend is required" in capsys.readouterr().err


def test_cli_build_idempotent_with_cache(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"backend": {"cache_dir": str(tmp_path / "cache")}}))
    args = _build_args(world, tmp_path, "--cache", "--config", str(config))
    assert main(args) == 0
    first = (tmp_path / "tree.json").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "tree.json").read_bytes() == first


def _ask(world, tmp_path, capsys, *extra: str) -> dict:
    main(_build_args(world, tmp_path))
    capsys.readouterr()
    code = main(["ask", str(tmp_path / "tree.json"),
                 str(tmp_path / "tree.sidecar.json"),
                 "--question", "Why is the man on the bench looking up?",
                 "--option", "a bird flying overhead",
                 "--option", "overlooking the children",
                 "--option", "rain starting to fall",
                 "--question-id", "a_q1",
                 "--mock-script", str(world.script_path), *extra])
    assert code == 0
    return json.loads(capsys.readouterr().out)


def test_cli_ask_answers_fig_scenario(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    record = _ask(world, tmp_path, capsys)
    assert record["chosen"]["text"] == "overlooking the children"
    assert record["validated"] is True
    assert record["rounds_used"] <= 15


def test_cli_ask_descriptive_static_has_no_visual_stage(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    main(_build_args(world, tmp_path))
    capsys.readouterr()
    code = main(["ask", str(tmp_path / "tree.json"),
                 str(tmp_path / "tree.sidecar.json"),
                 "--question", "What is the location?",
                 "--option", "a park", "--option", "a kitchen",
                 "--question-id", "a_q2",
                 "--mock-script", str(world.script_path)])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    agents = {step["agent"] for step in record["trace"]}
    assert "VisualAnalysisAgent" not in agents
    assert record["chosen"]["text"] == "a park"


def test_cli_ask_never_finalizing_mock_hits_budget(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    main(_build_args(world, tmp_path))
    capsys.readouterr()

    stubborn = tmp_path / "stubborn.json"
    stubborn.write_text(json.dumps({
        "rules": [
            {"match": "Classify this multiple-choice", "response": "Causal"},
            {"match": "analyzing question", "response":
             "Causal. TextAgent, VisualAnalysisAgent, "
             "EvidenceIntegrationAgent, AnswerGenerationAgent."},
            {"match": "planning question", "response": "no plan from me"},
            {"match": "drafting explanation", "response": "inconclusive"},
        ],
        "default_response": "THOUGHT: still looking\nACTION: temporal_index {}",
    }))
    code = main(["ask", str(tmp_path / "tree.json"),
                 str(tmp_path / "tree.sidecar.json"),
                 "--question", "Why is the man on the bench looking up?",
                 "--option", "a", "--option", "b",
                 "--mock-script", str(stubborn)])
    assert code == 0, "exits 0 even when validated is false"
    record = json.loads(capsys.readouterr().out)
    assert record["rounds_used"] == 15
    assert record["truncated"] is True
    assert record["validated"] is False


def test_cli_eval_golden_suite(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    records_path = tmp_path / "records.jsonl"
    report_path = tmp_path / "report.json"
    code = main(["eval", str(world.dataset_path),
                 "--out-records", str(records_path),
                 "--out-report", str(report_path),
                 "--mock-script", str(world.script_path), "--seed", "3"])
    assert code == 0
    assert "accuracy 1.000" in capsys.readouterr().out

    lines = records_path.read_text().strip().split("\n")
    assert len(lines) == 10
    report = json.loads(report_path.read_text())
    assert report["accuracy_overall"] == 1.0
    assert report["num_questions"] == 10
    gold = {q.question_id: q.gold_index for q in GOLDEN_QUESTIONS}
    recount = sum(1 for line in lines
                  if json.loads(line)["chosen"]["index"]
                  == gold[json.loads(line)["question_id"]])
    assert recount == 10


def test_cli_eval_byte_identical_reruns(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")

    def run(suffix: str) -> bytes:
        records_path = tmp_path / f"records_{suffix}.jsonl"
        code = main(["eval", str(world.dataset_path),
                     "--out-records", str(records_path),
                     "--out-report", str(tmp_path / f"report_{suffix}.json"),
                     "--mock-script", str(world.script_path), "--seed", "3"])
        assert code == 0
        return records_path.read_bytes()

    assert run("one") == run("two")


def test_cli_inspect_prints_structure(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    main(_build_args(world, tmp_path))
    capsys.readouterr()
    assert main(["inspect", str(tmp_path / "tree.json")]) == 0
    out = capsys.readouterr().out
    assert "golden_a" in out
    assert "relevance=5.0" in out
    assert "d2:2" in out, "expanded shot shows its depth-2 clusters"


def test_cli_bad_config_exits_4(tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"made_up_key": 1}))
    code = main(["eval", str(tmp_path / "dataset.json"),
                 "--config", str(config)])
    assert code == 4
    assert "made_up_key" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["max_inflight", "question_concurrency"])
def test_cli_removed_engine_concurrency_keys_exit_4(tmp_path, capsys, key) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: 4}))
    code = main(["eval", str(tmp_path / "dataset.json"),
                 "--config", str(config)])
    assert code == 4
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("cache", [False, True])
def test_mock_script_backend_honours_configured_inflight_limit(
        tmp_path, cache) -> None:
    world = build_golden_world(tmp_path / "golden")
    config = EngineConfig(cache_enabled=cache)
    config.backend.max_inflight = 3
    config.backend.cache_dir = str(tmp_path / "cache")
    args = argparse.Namespace(mock_script=str(world.script_path))
    backend = _make_backend(args, config)
    assert isinstance(backend, CachingBackend) is cache
    assert backend.max_inflight == 3
    assert backend.capabilities == ("chat", "caption", "embed")


def test_cli_no_backend_configured_exits_4(tmp_path, capsys) -> None:
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps({"entries": []}))
    code = main(["eval", str(dataset)])
    assert code == 4
    assert "no backend endpoints" in capsys.readouterr().err


def test_cli_ask_declared_qtype_skips_classifier(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    main(_build_args(world, tmp_path))
    capsys.readouterr()
    code = main(["ask", str(tmp_path / "tree.json"),
                 str(tmp_path / "tree.sidecar.json"),
                 "--question", "What is the location?",
                 "--option", "a park", "--option", "a kitchen",
                 "--question-id", "a_q2", "--qtype", "Descriptive",
                 "--mock-script", str(world.script_path)])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["chosen"]["text"] == "a park"
