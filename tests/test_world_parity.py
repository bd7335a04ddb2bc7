"""Aim-3 parity on generated worlds, not only the golden one.

perfbench's seeded world generator writes six 1,200-frame videos with
planted shots and 30 questions, and its deterministic fake model serves
them. On those worlds:

- `eval` records and report, and every tree and knowledge store it builds,
  are byte-identical at in-flight limits 1 and 8 under the default config
  and under each ablation flag, and at 2 and 3 under the default. Above
  limit 1 every even-numbered shot's score call is held back a
  millisecond, so scores finish out of shot order, and a build that
  expanded shots as their scores land would differ from the one at
  limit 1;
- each question answered through the CLI's `build` then `ask` prints the
  record `eval` wrote for it;
- every tree a build makes passes `validate`;
- no record uses more rounds than `max_iterations`.

The configs are spread over three seeds so the whole module stays near
5 s on a 2-vCPU host: one `evaluate` of a world takes about 0.3 s, 0.1 s
under uniform sampling. `reclassify` is not among them: the generated
questions declare no type, so it would rerun the default config.
"""

from __future__ import annotations

import json
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from videoqa import cli, pipeline
from videoqa.backends import Backend, MockScript
from videoqa.config import EngineConfig
from videoqa.tree import tree_to_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if not PERFBENCH.is_dir():
    pytest.skip(f"no world generator: {PERFBENCH} is absent",
                allow_module_level=True)
sys.path.append(str(PERFBENCH))

from fake_model import FakeModel  # noqa: E402
from gen_inputs import prepare  # noqa: E402

_SCORED_SHOT = re.compile(r"Rate how relevant.*?Segment (\d+) \(")
# (seed, config flags): each seed's world is generated once.
MATRIX = [
    (1, ()),
    (2, ("uniform_sampling",)),
    (2, ("fixed_workflow",)),
    (3, ("generic_captions",)),
]
LIMITS = (1, 8)
# Further limits, run under the default config only (the one that scores
# and expands with no ablation) so that the module stays near 5 s.
OUT_OF_ORDER_LIMITS = (2, 3)


@pytest.fixture(scope="module")
def worlds(tmp_path_factory):
    """seed -> (directory, world), generated on first use."""
    made: dict[int, tuple[Path, dict]] = {}

    def world(seed: int) -> tuple[Path, dict]:
        if seed not in made:
            directory = tmp_path_factory.mktemp(f"world{seed}")
            made[seed] = directory, prepare("eval_batch", seed, directory)
        return made[seed]

    return world


def _backend(world: dict, max_inflight: int) -> Backend:
    """The world's fake model, with no latency; when calls can overlap,
    every even-numbered shot's score call takes a millisecond."""
    fake = FakeModel(world, 0.0)

    def respond(rendered: str):
        scored = _SCORED_SHOT.search(rendered[:400])
        if max_inflight > 1 and scored and int(scored.group(1)) % 2 == 0:
            time.sleep(0.001)
        return fake(rendered)

    return Backend.from_mock(MockScript(default_response=respond), max_inflight)


@pytest.fixture(scope="module")
def evaluated(worlds):
    """(seed, flags, limit) -> the eval records and report as written, and
    each build's tree and knowledge store, each run once; every tree the run
    builds is validated as it is built."""
    made: dict[tuple, tuple[list[str], str, list[str]]] = {}

    def outputs(seed: int, flags: tuple[str, ...],
                limit: int) -> tuple[list[str], str, list[str]]:
        if (seed, flags, limit) in made:
            return made[seed, flags, limit]
        directory, world = worlds(seed)
        config = replace(EngineConfig(), **dict.fromkeys(flags, True))
        build_video = pipeline.build_video
        builds = []

        def checked(*args, **kwargs):
            result = build_video(*args, **kwargs)
            result.tree.validate()
            builds.append(tree_to_json(result.tree) + json.dumps(
                result.store.to_sidecar(), sort_keys=True))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "build_video", checked)
            records, report = pipeline.evaluate(directory / world["dataset"],
                                                config, _backend(world, limit))
        for record in records:
            assert record.rounds_used <= config.max_iterations, \
                record.question_id
        made[seed, flags, limit] = ([r.to_json() for r in records],
                                    report.to_json(), builds)
        return made[seed, flags, limit]

    return outputs


@pytest.mark.parametrize("seed,flags", MATRIX)
def test_eval_is_independent_of_the_inflight_limit(worlds, evaluated, seed,
                                                   flags) -> None:
    limits = LIMITS + (() if flags else OUT_OF_ORDER_LIMITS)
    outputs = [evaluated(seed, flags, limit) for limit in limits]
    for limit, output in zip(limits[1:], outputs[1:]):
        assert output == outputs[0], f"in-flight limit {limit}"
    assert len(outputs[0][0]) == len(worlds(seed)[1]["questions"])


def test_build_then_ask_gives_the_eval_record(worlds, evaluated, monkeypatch,
                                              tmp_path, capsys) -> None:
    seed, flags = MATRIX[0]
    directory, world = worlds(seed)
    expected = {json.loads(line)["question_id"]: line
                for line in evaluated(seed, flags, LIMITS[-1])[0]}
    # The CLI serves every model call from the world's fake model.
    monkeypatch.setattr(cli, "_make_backend",
                        lambda args, config: _backend(world, LIMITS[-1]))
    dataset = json.loads((directory / world["dataset"]).read_text())
    asked = []
    for entry in dataset["entries"]:
        video = entry["video_id"]
        questions = tmp_path / f"{video}.questions.json"
        questions.write_text(json.dumps(entry["questions"]))
        built = tmp_path / f"{video}.build.json"
        assert cli.main(["build", str(directory / entry["frame_manifest_path"]),
                         str(questions), str(built)]) == 0
        for question in entry["questions"]:
            capsys.readouterr()
            options = [arg for option in question["options"]
                       for arg in ("--option", option)]
            assert cli.main(["ask", str(built),
                             "--question", question["text"], *options,
                             "--question-id", question["question_id"]]) == 0
            printed = capsys.readouterr().out.rstrip("\n")
            assert printed == expected[question["question_id"]], \
                question["question_id"]
            asked.append(question["question_id"])
    assert sorted(asked) == sorted(world["questions"])
