"""`build` then `ask` answers from the store that `eval` answers from.

The sidecar holds the whole store but its tree: the manifest's fps and the
frames' image paths included. So a store loaded from a build's files equals
the one `build_video` made, shot times and inspected frames included, and
each golden question answered through `build` and `ask` gives the record
`eval` wrote for it.
"""

from __future__ import annotations

import json
from pathlib import Path

from videoqa.backends import Backend, MockScript
from videoqa.cli import main
from videoqa.config import EngineConfig
from videoqa.errors import read_json
from videoqa.knowledge import KnowledgeStore
from videoqa.pipeline import build_video, load_question_file
from videoqa.tree import load_tree, tree_to_json

from conftest import GOLDEN_QUESTIONS, build_golden_world

GOLDEN_DIR = Path(__file__).parent / "golden"

# Twelve frames at 2 fps in three shots of four: shot 0 ends at 2.0 s.
FRAMES, FPS, SHOT_LENGTH = 12, 2, 4
FRAME_THREE_CAPTION = "a kite over the hill in frame three"
FINAL = ('THOUGHT: enough\nFINAL: {"option_support": [0.8, 0.2], '
         '"confidence": 0.9, "rationale": "seen", "direction_check": '
         '{"cause_supported": true, "effect_supported": true}}')


def _image_world(root: Path) -> tuple[Path, Path, Path]:
    """A manifest of image paths, a question file and a mock script whose
    only caption rule matches `frames/3.jpg`."""
    root.mkdir(parents=True, exist_ok=True)
    manifest = root / "images.json"
    manifest.write_text(json.dumps({
        "video_id": "v", "fps": FPS,
        "frames": [{"index": i, "path": f"frames/{i}.jpg"}
                   for i in range(FRAMES)]}))
    questions = root / "questions.json"
    questions.write_text(json.dumps([{
        "question_id": "q1", "text": "Why does the kite rise?",
        "options": ["the wind", "a string"], "declared_type": "Causal"}]))
    rules = [
        # A ReAct stage's second step finalizes.
        {"match": "Step 2:", "response": FINAL},
        {"match": "[TextAgent] working on question",
         "response": "THOUGHT: order the shots\nACTION: temporal_index {}"},
        {"match": "[VisualAnalysisAgent] working on question",
         "response": 'THOUGHT: look\nACTION: inspect_frame {"frame_index": 3}'},
        {"match": 'caption:{"image":"frames/3.jpg"',
         "response": FRAME_THREE_CAPTION},
    ]
    for i in range(FRAMES):
        basis = [0.0, 0.0, 0.0]
        basis[i // SHOT_LENGTH] = 1.0
        rules.append({"match": f'embed:{{"image":"frames/{i}.jpg"}}',
                      "response": basis})
    script = root / "script.json"
    script.write_text(json.dumps({"rules": rules,
                                  "default_response": "unscripted"}))
    return manifest, questions, script


def _build(manifest: Path, questions: Path, script: Path,
           out: Path) -> tuple[Path, Path]:
    tree_path, sidecar_path = out / "tree.json", out / "sidecar.json"
    assert main(["build", str(manifest), str(questions), str(tree_path),
                 "--out-sidecar", str(sidecar_path),
                 "--mock-script", str(script)]) == 0
    return tree_path, sidecar_path


def test_store_loaded_from_a_build_equals_the_built_store(tmp_path) -> None:
    manifest, questions, script = _image_world(tmp_path / "world")
    tree_path, sidecar_path = _build(manifest, questions, script, tmp_path)
    loaded = KnowledgeStore.from_sidecar(load_tree(tree_path),
                                         read_json(sidecar_path, "sidecar"))
    built = build_video(manifest, load_question_file(questions),
                        EngineConfig(),
                        Backend.from_mock(MockScript.from_file(script))).store
    assert loaded.fps == built.fps == 2.0
    assert loaded.frame_paths == built.frame_paths == {
        i: f"frames/{i}.jpg" for i in range(FRAMES)}
    assert loaded.captions == built.captions
    assert loaded.summaries == built.summaries
    assert loaded.first_pass == built.first_pass
    assert tree_to_json(loaded.tree) == tree_to_json(built.tree)
    assert loaded.frame_ref(3) == built.frame_ref(3) == "frames/3.jpg"


def test_ask_over_a_build_keeps_fps_and_frame_paths(tmp_path, capsys) -> None:
    manifest, questions, script = _image_world(tmp_path / "world")
    tree_path, sidecar_path = _build(manifest, questions, script, tmp_path)
    capsys.readouterr()
    assert main(["ask", str(tree_path), str(sidecar_path),
                 "--question", "Why does the kite rise?",
                 "--option", "the wind", "--option", "a string",
                 "--qtype", "Causal", "--fixed-workflow",
                 "--mock-script", str(script)]) == 0
    record = json.loads(capsys.readouterr().out)
    observations = {step["action"]: step["observation"]
                    for step in record["trace"]}
    index = observations["temporal_index {}"].split("\n")
    assert index[0].startswith("end_s=2.0  node_id=0  ")
    assert "start_s=4.0" in index[2] and "end_s=6.0" in index[2]
    assert observations['inspect_frame {"frame_index": 3}'] == \
        FRAME_THREE_CAPTION


def test_golden_questions_through_build_and_ask_match_eval(tmp_path,
                                                           capsys) -> None:
    """Each golden question, answered by `ask` over a `build` of its video,
    prints the record the default golden `eval` wrote for it."""
    world = build_golden_world(tmp_path / "golden")
    expected = {}
    for line in (GOLDEN_DIR / "default" / "records.jsonl").read_text(
            encoding="utf-8").splitlines():
        expected[json.loads(line)["question_id"]] = line
    dataset = json.loads(world.dataset_path.read_text())
    asked = []
    for entry in dataset["entries"]:
        video = entry["video_id"]
        questions = tmp_path / f"{video}.questions.json"
        questions.write_text(json.dumps(entry["questions"]))
        out = tmp_path / video
        out.mkdir()
        tree_path, sidecar_path = _build(world.video_manifests[video],
                                         questions, world.script_path, out)
        for question in entry["questions"]:
            capsys.readouterr()
            options = [arg for option in question["options"]
                       for arg in ("--option", option)]
            assert main(["ask", str(tree_path), str(sidecar_path),
                         "--question", question["text"], *options,
                         "--question-id", question["question_id"],
                         "--mock-script", str(world.script_path)]) == 0
            printed = capsys.readouterr().out.rstrip("\n")
            assert printed == expected[question["question_id"]], \
                question["question_id"]
            asked.append(question["question_id"])
    assert sorted(asked) == sorted(q.question_id for q in GOLDEN_QUESTIONS)
