from __future__ import annotations

import argparse
import itertools
import json
from pathlib import Path

import pytest

from videoqa.backends import Backend, CachingBackend
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
    """Text that is not JSON, or holds an int past Python's 4,300-digit
    conversion limit, which the JSON reader raises as a plain ValueError."""
    world = build_golden_world(tmp_path / "golden")
    bad = tmp_path / "bad.json"
    for text in ("not json {", '[{"question_id": 1%s}]' % ("0" * 4400)):
        bad.write_text(text)
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
    assert "sidecar#/captions/0/text" in capsys.readouterr().err


def test_cli_ask_malformed_tree_exits_2(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    main(_build_args(world, tmp_path))
    capsys.readouterr()
    tree = json.loads((tmp_path / "tree.json").read_text())
    tree["nodes"][0]["children"] = ["x"]
    broken = tmp_path / "broken.tree.json"
    broken.write_text(json.dumps(tree))
    code = main(["ask", str(broken), str(tmp_path / "tree.sidecar.json"),
                 "--question", "What is the location?",
                 "--option", "a park", "--option", "a kitchen",
                 "--mock-script", str(world.script_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "/nodes/0/children" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("key", ["max_inflight", "question_concurrency", "fps"])
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


@pytest.mark.parametrize("mutate", [
    lambda doc: doc["nodes"][0].update(children=[999]),
    lambda doc: doc["nodes"][0].update(frames=[5, 2]),
    lambda doc: doc.update(shot_order=doc["shot_order"] + [0]),
    lambda doc: doc.update(shot_order=doc["shot_order"][::-1]),
], ids=["unknown-child", "reversed-shot", "shot-listed-twice", "shots-reordered"])
def test_cli_inspect_invalid_tree_exits_2(tmp_path, capsys, mutate) -> None:
    """A tree that parses but breaks the tree's structure is rejected when
    it loads, the last case by HybridTree.validate()."""
    world = build_golden_world(tmp_path / "golden")
    main(_build_args(world, tmp_path))
    capsys.readouterr()
    tree = json.loads((tmp_path / "tree.json").read_text())
    mutate(tree)
    broken = tmp_path / "broken.tree.json"
    broken.write_text(json.dumps(tree))
    assert main(["inspect", str(broken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("doc,key", [
    ({"seed": "x"}, "seed"),
    ({"k": 2.5}, "k"),
    ({"max_iterations": 3.5}, "max_iterations"),
    ({"uniform_shots": "x", "uniform_sampling": True}, "uniform_shots"),
    ({"template_dir": 5}, "template_dir"),
    ({"backend": {"max_inflight": "8"}}, "max_inflight"),
    ({"backend": {"timeout_s": "x"}}, "timeout_s"),
])
def test_cli_mistyped_config_value_exits_4(tmp_path, capsys, doc, key) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code = main(["eval", str(tmp_path / "dataset.json"),
                 "--config", str(config)])
    assert code == 4
    err = capsys.readouterr().err
    assert f"/{key}: expected" in err and "Traceback" not in err


def test_cli_every_file_argument_fails_with_its_exit_code(tmp_path, capsys) -> None:
    """Every file argument of every command, given a missing file, a
    directory, non-UTF-8 bytes or invalid JSON, and every output path in a
    missing directory, ends in its documented exit code with `error:` on
    stderr and no traceback. An unreadable path exits 2; the contents of the
    config, mock script, profile and template exit 4, of any other input 2.
    A missing profile or template is not an error: the built-in one is used."""
    world = build_golden_world(tmp_path / "golden")
    assert main(_build_args(world, tmp_path)) == 0
    tree, sidecar = tmp_path / "tree.json", tmp_path / "tree.sidecar.json"
    manifest = world.video_manifests["golden_a"]
    script, dataset = world.script_path, world.dataset_path
    rows = itertools.count()

    def bad(kind: str, name: str) -> Path:
        path = tmp_path / "bad" / str(next(rows)) / name
        path.parent.mkdir(parents=True)
        if kind == "directory":
            path.mkdir()
        elif kind == "non-utf8":
            path.write_bytes(b'{"a": "\xff\xfe"}')
        elif kind == "invalid-json":
            path.write_text("{not json")
        return path

    def config(doc: dict) -> list[str]:
        path = tmp_path / "bad" / f"config{next(rows)}.json"
        path.write_text(json.dumps(doc))
        return ["--config", str(path)]

    def mock_script(doc) -> list[str]:
        path = tmp_path / "bad" / f"script{next(rows)}.json"
        path.write_text(json.dumps(doc))
        return ["--mock-script", str(path)]

    def build(*extra, manifest=manifest, questions=tmp_path / "questions.json",
              out=tmp_path / "out.tree.json") -> list[str]:
        return ["build", str(manifest), str(questions), str(out),
                "--mock-script", str(script), *extra]

    def ask(*extra, tree=tree, sidecar=sidecar) -> list[str]:
        return ["ask", str(tree), str(sidecar), "--question",
                "What is the location?", "--option", "a park",
                "--option", "a kitchen", "--mock-script", str(script), *extra]

    def evaluate(*extra, dataset=dataset) -> list[str]:
        return ["eval", str(dataset), "--mock-script", str(script),
                "--out-records", str(tmp_path / "records.jsonl"),
                "--out-report", str(tmp_path / "report.json"), *extra]

    def embeddings(path: Path) -> Path:
        doc = json.loads(manifest.read_text())
        doc["embeddings_path"] = str(path)
        out = tmp_path / "bad" / f"manifest{next(rows)}.json"
        out.write_text(json.dumps(doc))
        return out

    table = []
    for kind in ("missing", "directory", "non-utf8", "invalid-json"):
        contents = 2 if kind in ("missing", "directory") else 4
        table += [
            (f"ask tree {kind}", ask(tree=bad(kind, "t.json")), 2),
            (f"ask sidecar {kind}", ask(sidecar=bad(kind, "s.json")), 2),
            (f"inspect tree {kind}", ["inspect", str(bad(kind, "t.json"))], 2),
            (f"build manifest {kind}", build(manifest=bad(kind, "m.json")), 2),
            (f"build questions {kind}", build(questions=bad(kind, "q.json")), 2),
            (f"build embeddings {kind}",
             build(manifest=embeddings(bad(kind, "e.emb"))), 2),
            (f"eval manifest {kind}", evaluate(dataset=bad(kind, "d.json")), 2),
            (f"--config {kind}",
             evaluate("--config", str(bad(kind, "c.json"))), contents),
            (f"--mock-script {kind}",
             evaluate("--mock-script", str(bad(kind, "ms.json"))), contents),
        ]
        if kind != "missing":
            profiles = bad(kind, "causal.json").parent
            table.append((f"profile {kind}",
                          ask(*config({"profile_dir": str(profiles)})), contents))
        if kind in ("directory", "non-utf8"):
            templates = bad(kind, "generic.txt").parent
            table.append((f"template {kind}",
                          build(*config({"template_dir": str(templates)})),
                          contents))
    nowhere = tmp_path / "no_such_dir"
    cache_file = bad("invalid-json", "cache")
    v1_sidecar = tmp_path / "bad" / "v1.sidecar.json"
    v1_doc = json.loads(sidecar.read_text())
    del v1_doc["version"], v1_doc["fps"], v1_doc["frame_paths"]
    v1_sidecar.write_text(json.dumps(v1_doc))
    table += [
        ("ask sidecar of version 1", ask(sidecar=v1_sidecar), 2),
        ("build tree output", build(out=nowhere / "t.json"), 2),
        ("build sidecar output",
         build("--out-sidecar", str(nowhere / "s.json")), 2),
        ("eval records output",
         evaluate("--out-records", str(nowhere / "r.jsonl")), 2),
        ("eval report output",
         evaluate("--out-report", str(nowhere / "r.json")), 2),
        ("cache_dir is a file", evaluate("--cache", *config(
            {"backend": {"cache_dir": str(cache_file)}})), 4),
        ("cache_dir under a file", evaluate("--cache", *config(
            {"backend": {"cache_dir": str(cache_file / "sub")}})), 4),
        ("config value NaN", evaluate(*config({"tau": float("nan")})), 4),
        ("backend.timeout_s not positive",
         evaluate(*config({"backend": {"timeout_s": 0}})), 4),
        ("--mock-script regex that does not compile", ask(*mock_script(
            {"rules": [{"match": "(", "regex": True}],
             "default_response": "x"})), 4),
        ("--mock-script match that is not a string",
         ask(*mock_script([{"match": 5}])), 4),
    ]

    failures = []
    for name, argv, expected in table:
        capsys.readouterr()
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - a traceback is the failure
            failures.append(f"{name}: raised {exc!r}")
            continue
        err = capsys.readouterr().err
        if code != expected or "error:" not in err or "Traceback" in err:
            failures.append(f"{name}: exit {code}, want {expected}; {err!r}")
    assert not failures, "\n".join(failures)


def test_cli_unwritable_output_fails_before_any_model_call(tmp_path, capsys,
                                                           monkeypatch) -> None:
    """An output in a missing directory, or one that is a directory, exits 2
    before the first model call, not after the whole build or eval."""
    world = build_golden_world(tmp_path / "golden")
    build_args = _build_args(world, tmp_path)
    nowhere = tmp_path / "no_such_dir"
    taken = tmp_path / "taken"
    taken.mkdir()

    def evaluate(*extra: str) -> list[str]:
        return ["eval", str(world.dataset_path),
                "--mock-script", str(world.script_path),
                "--out-records", str(tmp_path / "records.jsonl"),
                "--out-report", str(tmp_path / "report.json"), *extra]

    build = build_args[:3]
    table = [
        ("build tree in a missing directory",
         [*build, str(nowhere / "t.json"), *build_args[4:]]),
        ("build tree is a directory", [*build, str(taken), *build_args[4:]]),
        ("build sidecar in a missing directory",
         [*build_args, "--out-sidecar", str(nowhere / "s.json")]),
        ("build sidecar is a directory",
         [*build_args, "--out-sidecar", str(taken)]),
        ("eval records in a missing directory",
         evaluate("--out-records", str(nowhere / "r.jsonl"))),
        ("eval records is a directory", evaluate("--out-records", str(taken))),
        ("eval report in a missing directory",
         evaluate("--out-report", str(nowhere / "r.json"))),
        ("eval report is a directory", evaluate("--out-report", str(taken))),
    ]
    calls = []
    real_call = Backend.call

    def counting_call(self, request):
        calls.append(request.capability)
        return real_call(self, request)

    monkeypatch.setattr(Backend, "call", counting_call)
    for name, argv in table:
        capsys.readouterr()
        calls.clear()
        assert main(argv) == 2, name
        assert "cannot be written" in capsys.readouterr().err, name
        assert calls == [], f"{name}: {len(calls)} model calls"
    assert main(evaluate()) == 0
    assert calls, "the wrapper counts the calls of a run that makes them"
