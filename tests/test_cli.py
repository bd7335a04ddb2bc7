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
            str(tmp_path / "build.json"),
            "--mock-script", str(world.script_path), *extra]


def test_cli_build_writes_tree_and_sidecar(tmp_path, capsys) -> None:
    """The one file `build` writes holds the tree and the store."""
    world = build_golden_world(tmp_path / "golden")
    args = _build_args(world, tmp_path)
    before = set(tmp_path.iterdir())
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "4 shots" in out and "1 expanded" in out
    assert set(tmp_path.iterdir()) - before == {tmp_path / "build.json"}

    doc = json.loads((tmp_path / "build.json").read_text())
    assert doc["version"] == "4"
    assert doc["tree"]["video_id"] == "golden_a"
    assert "video_id" not in doc and "tree_crc32" not in doc
    assert doc["captions"], "question-aware captions persisted"
    assert doc["first_pass"], "generic captions persisted"


def test_cli_build_malformed_questions_exits_2(tmp_path, capsys) -> None:
    """Text that is not JSON, or holds an int past Python's 4,300-digit
    conversion limit, which the JSON reader raises as a plain ValueError."""
    world = build_golden_world(tmp_path / "golden")
    bad = tmp_path / "bad.json"
    for text in ("not json {", '[{"question_id": 1%s}]' % ("0" * 4400)):
        bad.write_text(text)
        code = main(["build", str(world.video_manifests["golden_a"]), str(bad),
                     str(tmp_path / "build.json"),
                     "--mock-script", str(world.script_path)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err


def test_cli_ask_malformed_sidecar_exits_2(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    broken = tmp_path / "broken.json"
    broken.write_text("{{{{")
    code = main(["ask", str(broken),
                 "--question", "What is the location?",
                 "--option", "a park", "--option", "a kitchen",
                 "--mock-script", str(world.script_path)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_ask_malformed_sidecar_item_exits_2(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    main(_build_args(world, tmp_path))
    capsys.readouterr()
    doc = json.loads((tmp_path / "build.json").read_text())
    del doc["captions"][0]["text"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code = main(["ask", str(broken),
                 "--question", "What is the location?",
                 "--option", "a park", "--option", "a kitchen",
                 "--mock-script", str(world.script_path)])
    assert code == 2
    assert f"{broken}#/captions/0/text" in capsys.readouterr().err



def test_cli_ask_malformed_tree_exits_2(tmp_path, capsys) -> None:
    world = build_golden_world(tmp_path / "golden")
    main(_build_args(world, tmp_path))
    capsys.readouterr()
    doc = json.loads((tmp_path / "build.json").read_text())
    doc["tree"]["nodes"][0]["children"] = ["x"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code = main(["ask", str(broken),
                 "--question", "What is the location?",
                 "--option", "a park", "--option", "a kitchen",
                 "--mock-script", str(world.script_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{broken}#/tree/nodes/0/children" in err
    assert "Traceback" not in err


def _old_sidecar(doc: dict) -> dict:
    """A version 3 sidecar: the store half, with its video and tree CRC."""
    sidecar = {key: value for key, value in doc.items() if key != "tree"}
    return dict(sidecar, version="3", video_id="golden_a", tree_crc32=1)


@pytest.mark.parametrize("command", ["ask", "inspect"])
@pytest.mark.parametrize("kind,version", [
    (_old_sidecar, "'3'"),
    (lambda doc: doc["tree"], "'1'"),
], ids=["v3-sidecar", "bare-tree"])
def test_cli_file_of_an_older_format_asks_for_a_rebuild(tmp_path, capsys,
                                                        command, kind,
                                                        version) -> None:
    """A version 3 sidecar and a bare version 1 tree file, as earlier
    builds wrote them, exit 2 on one `error:` line that names the file's
    version and says to rebuild, before any other field is read."""
    world = build_golden_world(tmp_path / "golden")
    assert main(_build_args(world, tmp_path)) == 0
    old = tmp_path / "old.json"
    old.write_text(json.dumps(kind(json.loads(
        (tmp_path / "build.json").read_text()))))
    capsys.readouterr()
    argv = [command, str(old)]
    if command == "ask":
        argv += ["--question", "What is the location?", "--option", "a park",
                 "--option", "a kitchen", "--mock-script",
                 str(world.script_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {old}#/version: unsupported build file "
                            f"version {version}; rebuild it\n")


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
                 str(tmp_path / "build.json"),
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
                 str(tmp_path / "build.json"), "--config", str(config)])
    assert code == 2
    assert "an embedding backend is required" in capsys.readouterr().err


def test_cli_build_idempotent_with_cache(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"backend": {"cache_dir": str(tmp_path / "cache")}}))
    args = _build_args(world, tmp_path, "--cache", "--config", str(config))
    assert main(args) == 0
    first = (tmp_path / "build.json").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "build.json").read_bytes() == first


def _ask(world, tmp_path, capsys, *extra: str) -> dict:
    main(_build_args(world, tmp_path))
    capsys.readouterr()
    code = main(["ask", str(tmp_path / "build.json"),
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
    code = main(["ask", str(tmp_path / "build.json"),
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
    code = main(["ask", str(tmp_path / "build.json"),
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
    assert main(["inspect", str(tmp_path / "build.json")]) == 0
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


@pytest.mark.parametrize("key", ["max_inflight", "question_concurrency", "fps",
                                 "parallel_videos", "cache_enabled"])
def test_cli_removed_engine_concurrency_keys_exit_4(tmp_path, capsys, key) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: 4}))
    code = main(["eval", str(tmp_path / "dataset.json"),
                 "--config", str(config)])
    assert code == 4
    err = capsys.readouterr().err
    assert key in err
    assert "unknown config key" in err
    with pytest.raises(SystemExit) as exc:  # and no flag sets it either
        main(["eval", str(tmp_path / "dataset.json"),
              "--" + key.replace("_", "-")])
    assert exc.value.code == 2


@pytest.mark.parametrize("cache", [False, True])
def test_mock_script_backend_honours_configured_inflight_limit(
        tmp_path, cache) -> None:
    world = build_golden_world(tmp_path / "golden")
    config = EngineConfig()
    config.backend.max_inflight = 3
    if cache:
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
    code = main(["ask", str(tmp_path / "build.json"),
                 "--question", "What is the location?",
                 "--option", "a park", "--option", "a kitchen",
                 "--question-id", "a_q2", "--qtype", "Descriptive",
                 "--mock-script", str(world.script_path)])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["chosen"]["text"] == "a park"


def _node(doc: dict, node_id: int) -> dict:
    return next(node for node in doc["nodes"] if node["id"] == node_id)


def _shot_as_child(doc: dict) -> None:
    """Shot 2's clusters 4 and 5 become one child, node 4, of kind shot."""
    _node(doc, 2)["children"] = [4]
    _node(doc, 4).update(kind="shot", frames=[12, 17])
    doc["nodes"].remove(_node(doc, 5))


# golden_a's tree: shots 0-3 over frames 0-23, six frames each; only shot 2
# (frames 12-17, relevance 5) is expanded, into clusters 4 [12, 14, 17] and
# 5 [13, 15, 16] at depth 2.
@pytest.mark.parametrize("mutate,message", [
    pytest.param(lambda doc: _node(doc, 0).update(children=[999]),
                 "unknown node id 999", id="unknown-child"),
    pytest.param(lambda doc: _node(doc, 0).update(frames=[5, 2]),
                 "no frames", id="reversed-shot"),
    pytest.param(lambda doc: doc.update(shot_order=doc["shot_order"] + [0]),
                 "listed twice", id="shot-listed-twice"),
    pytest.param(lambda doc: doc.update(shot_order=doc["shot_order"][::-1]),
                 "starts at", id="shots-reordered"),
    pytest.param(lambda doc: doc["nodes"].append(
        {"id": 7, "kind": "shot", "frames": [100, 200000], "rep": 100,
         "depth": 1, "children": []}),
                 "node 7 is reached from no shot", id="unreached-node"),
    pytest.param(_shot_as_child, "child 4 of node 2 is not a cluster",
                 id="shot-as-child"),
    pytest.param(lambda doc: doc["nodes"].append(dict(_node(doc, 0))),
                 "#/tree/nodes/6/id: duplicate node id 0",
                 id="duplicate-node-id"),
    pytest.param(lambda doc: _node(doc, 4).update(rep=13),
                 "node 4 representative not a member frame",
                 id="rep-not-a-member"),
    pytest.param(lambda doc: doc["params"].update(max_depth=1),
                 "node 4 exceeds max depth", id="deeper-than-max-depth"),
    pytest.param(lambda doc: _node(doc, 4).update(frames=[11, 14, 17]),
                 "cluster 4 leaks outside shot 2", id="cluster-leaks-its-shot"),
    pytest.param(lambda doc: _node(doc, 2)["relevance"].update(value=1.0),
                 "shot 2 expanded without passing the relevance gate",
                 id="expanded-below-tau"),
    pytest.param(lambda doc: _node(doc, 5).update(depth=3),
                 "node 5 has wrong depth", id="child-at-wrong-depth"),
    pytest.param(lambda doc: _node(doc, 5).update(frames=[13, 15]),
                 "children of node 2 do not partition", id="not-a-partition"),
])
def test_cli_inspect_invalid_tree_exits_2(tmp_path, capsys, mutate,
                                          message) -> None:
    """A tree that parses but breaks the tree's structure is rejected when
    it loads, from `unreached-node` on (but `duplicate-node-id`) by
    HybridTree.validate(), with a message naming the broken rule."""
    world = build_golden_world(tmp_path / "golden")
    main(_build_args(world, tmp_path))
    capsys.readouterr()
    doc = json.loads((tmp_path / "build.json").read_text())
    mutate(doc["tree"])
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["inspect", str(broken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert message in captured.err


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
    built = tmp_path / "build.json"
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
              out=tmp_path / "out.json") -> list[str]:
        return ["build", str(manifest), str(questions), str(out),
                "--mock-script", str(script), *extra]

    def ask(*extra, file=built) -> list[str]:
        return ["ask", str(file), "--question",
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
            (f"ask build file {kind}", ask(file=bad(kind, "b.json")), 2),
            (f"inspect build file {kind}",
             ["inspect", str(bad(kind, "b.json"))], 2),
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
    unversioned = tmp_path / "bad" / "unversioned.json"
    doc = json.loads(built.read_text())
    del doc["version"], doc["fps"], doc["frame_paths"]
    unversioned.write_text(json.dumps(doc))
    table += [
        ("ask build file without a version", ask(file=unversioned), 2),
        ("build file output", build(out=nowhere / "b.json"), 2),
        ("eval records output",
         evaluate("--out-records", str(nowhere / "r.jsonl")), 2),
        ("eval report output",
         evaluate("--out-report", str(nowhere / "r.json")), 2),
        ("cache_dir is a file", evaluate("--cache", *config(
            {"backend": {"cache_dir": str(cache_file)}})), 4),
        ("cache_dir under a file", evaluate("--cache", *config(
            {"backend": {"cache_dir": str(cache_file / "sub")}})), 4),
        ("config value NaN", evaluate(*config({"tau": float("nan")})), 4),
        ("config seed negative", evaluate(*config({"seed": -5})), 4),
        ("config sensitivity not positive",
         evaluate(*config({"sensitivity": 0})), 4),
        ("config k 0", evaluate(*config({"k": 0})), 4),
        ("config max_depth 0", evaluate(*config({"max_depth": 0})), 4),
        ("config gamma 0", evaluate(*config({"gamma": 0})), 4),
        ("config gamma 1", evaluate(*config({"gamma": 1})), 4),
        ("config max_iterations 0", evaluate(*config({"max_iterations": 0})), 4),
        ("config max_iterations 16",
         evaluate(*config({"max_iterations": 16})), 4),
        ("--seed negative", evaluate("--seed", "-1"), 4),
        ("backend.timeout_s not positive",
         evaluate(*config({"backend": {"timeout_s": 0}})), 4),
        ("backend.max_inflight 0",
         evaluate(*config({"backend": {"max_inflight": 0}})), 4),
        ("backend.max_inflight negative",
         evaluate(*config({"backend": {"max_inflight": -3}})), 4),
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


def test_cli_broken_question_fails_before_any_model_call(tmp_path, capsys,
                                                        monkeypatch) -> None:
    """A question with blank text or other than 2-5 options, in a build's
    question file, an eval's manifest or on `ask`'s command line, exits 2
    naming the field at fault before the first model call."""
    world = build_golden_world(tmp_path / "golden")
    build_args = _build_args(world, tmp_path)
    assert main(build_args) == 0
    built = tmp_path / "build.json"
    dataset = json.loads(world.dataset_path.read_text())
    rows = itertools.count()

    def build(question: dict) -> list[str]:
        path = tmp_path / f"questions{next(rows)}.json"
        path.write_text(json.dumps([question]))
        return [build_args[0], build_args[1], str(path), *build_args[3:]]

    def evaluate(question: dict) -> list[str]:
        doc = json.loads(json.dumps(dataset))
        doc["entries"][0]["questions"] = [question]
        path = world.dataset_path.with_name(f"dataset{next(rows)}.json")
        path.write_text(json.dumps(doc))
        return ["eval", str(path), "--mock-script", str(world.script_path),
                "--out-records", str(tmp_path / "records.jsonl"),
                "--out-report", str(tmp_path / "report.json")]

    def ask(text: str, *options: str) -> list[str]:
        argv = ["ask", str(built), "--question", text,
                "--mock-script", str(world.script_path)]
        for option in options:
            argv += ["--option", option]
        return argv

    one_option = {"question_id": "q", "text": "Where?", "options": ["a park"]}
    blank = {"question_id": "q", "text": " ", "options": ["a park", "a kitchen"]}
    six_options = dict(one_option, options=list("abcdef"))
    table = [
        ("build, one option", build(one_option), "#/0/options"),
        ("build, six options", build(six_options), "#/0/options"),
        ("build, blank text", build(blank), "#/0/text"),
        ("build, no options", build(dict(blank, text="Where?", options=[])),
         "#/0/options"),
        ("eval, one option", evaluate(one_option),
         "#/entries/0/questions/0/options"),
        ("eval, blank text", evaluate(blank), "#/entries/0/questions/0/text"),
        ("ask, one option", ask("Where?", "a park"), "q0#/options"),
        ("ask, no option", ask("Where?"), "q0#/options"),
        ("ask, blank text", ask("", "a park", "a kitchen"), "q0#/text"),
    ]
    calls = []
    real_call = Backend.call

    def counting_call(self, request):
        calls.append(request.capability)
        return real_call(self, request)

    monkeypatch.setattr(Backend, "call", counting_call)
    for name, argv, pointer in table:
        capsys.readouterr()
        calls.clear()
        assert main(argv) == 2, name
        assert pointer in capsys.readouterr().err, name
        assert calls == [], f"{name}: {len(calls)} model calls"


def test_cli_unwritable_output_fails_before_any_model_call(tmp_path, capsys,
                                                           monkeypatch) -> None:
    """An output in a missing directory, one that is a directory, or one
    that is also the command's other output or one of its inputs exits 2
    before the first model call, not after the whole build or eval, and
    leaves every input as it was."""
    world = build_golden_world(tmp_path / "golden")
    build_args = _build_args(world, tmp_path)
    nowhere = tmp_path / "no_such_dir"
    taken = tmp_path / "taken"
    taken.mkdir()
    config = tmp_path / "config.json"
    config.write_text("{}")
    manifest, questions = build_args[1], build_args[2]
    inputs = [Path(p) for p in (manifest, questions, config, world.dataset_path,
                                world.script_path)]
    before = [p.read_bytes() for p in inputs]

    def evaluate(*extra: str) -> list[str]:
        return ["eval", str(world.dataset_path),
                "--mock-script", str(world.script_path),
                "--out-records", str(tmp_path / "records.jsonl"),
                "--out-report", str(tmp_path / "report.json"), *extra]

    build = build_args[:3]
    table = [
        ("build file in a missing directory",
         [*build, str(nowhere / "b.json"), *build_args[4:]]),
        ("build file is a directory", [*build, str(taken), *build_args[4:]]),
        ("eval records in a missing directory",
         evaluate("--out-records", str(nowhere / "r.jsonl"))),
        ("eval records is a directory", evaluate("--out-records", str(taken))),
        ("eval report in a missing directory",
         evaluate("--out-report", str(nowhere / "r.json"))),
        ("eval report is a directory", evaluate("--out-report", str(taken))),
        ("eval report is the records file",
         evaluate("--out-report", str(tmp_path / "records.jsonl"))),
        ("build file is the frame manifest", [*build, manifest, *build_args[4:]]),
        ("build file is the question file",
         [*build, f"{taken}/../questions.json", *build_args[4:]]),
        ("build file is the mock script",
         [*build, str(world.script_path), *build_args[4:]]),
        ("build file is the config file",
         [*build, str(config), *build_args[4:], "--config", str(config)]),
        ("eval records is the dataset manifest",
         evaluate("--out-records", str(world.dataset_path))),
        ("eval report is the config file",
         evaluate("--config", str(config), "--out-report", f"{taken}/../config.json")),
        ("eval records is the mock script",
         evaluate("--out-records", str(world.script_path))),
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
    assert [p.read_bytes() for p in inputs] == before

    main(evaluate("--config", str(config), "--out-report", f"{taken}/../config.json"))
    assert (f"report file {taken}/../config.json cannot be written: it is also "
            f"the config file {config}") in capsys.readouterr().err
    assert main(evaluate()) == 0
    assert calls, "the wrapper counts the calls of a run that makes them"
