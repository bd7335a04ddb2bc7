"""The three workloads: set-up, closed op loops and per-op correctness checks.

Every call into the program goes through a module attribute
(`pipeline.build_video`, `tree.load_tree`, ...) so that the traced run can
rebind it.
"""

from __future__ import annotations

import json
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from fake_model import FakeModel

LATENCY_S = 0.020       # fixed round-trip latency L of every model call
# Client processes per workload: ask_3h has one per core of a 2-core host.
CLIENTS = {"build_1h": 1, "ask_3h": 2, "eval_batch": 1}
TREE_FILE = "long.tree.json"
SIDECAR_FILE = "long.sidecar.json"


@dataclass
class Env:
    """What set-up hands to the op loop."""

    workdir: Path
    world: dict
    config: object
    profiles: dict
    fake: FakeModel
    suite: object
    store: object = None


@dataclass
class Phase:
    """Outcome of one timed op loop."""

    latencies: list[float] = field(default_factory=list)  # successful ops, s
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    calls: int = 0
    prompt_bytes: int = 0


def setup(workload: str, workdir: Path, tracer=None) -> tuple[Env, float]:
    """The program's set-up before the first op, timed from the first import
    of the package: config, profiles and backend construction, plus loading
    the built tree and knowledge store for ask_3h."""
    start = perf_counter()
    from videoqa import backends, config, knowledge, pipeline, tree  # noqa: F401

    if tracer is not None:
        tracer.install()
    cfg = config.EngineConfig()
    profiles = knowledge.load_profiles(cfg.profile_dir)
    world = json.loads((workdir / "world.json").read_text(encoding="utf-8"))
    fake = FakeModel(world, LATENCY_S)
    suite = backends.BackendSuite.from_mock(backends.MockScript(default_response=fake))
    env = Env(workdir, world, cfg, profiles, fake, suite)
    if workload == "ask_3h":
        built = tree.load_tree(workdir / TREE_FILE)
        sidecar = json.loads((workdir / SIDECAR_FILE).read_text(encoding="utf-8"))
        env.store = knowledge.KnowledgeStore.from_sidecar(built, sidecar, fps=cfg.fps)
    return env, perf_counter() - start


def prebuild_ask_3h(workdir: Path, world: dict) -> None:
    """Build the 3-hour video's tree and store for the built question types.
    This is input preparation: it runs with zero model latency."""
    from videoqa import backends, config, pipeline, tree

    fake = FakeModel(world, latency_s=0.0)
    suite = backends.BackendSuite.from_mock(backends.MockScript(default_response=fake))
    questions = [
        pipeline.RawQuestion(qid, q["text"], tuple(q["option_texts"]), q["gold"],
                             q["qtype"])
        for qid, q in world["questions"].items() if q["qtype"] in world["built_types"]]
    result = pipeline.build_video(workdir / world["manifest"], questions,
                                  config.EngineConfig(), suite)
    _write_build(result, workdir / TREE_FILE, workdir / SIDECAR_FILE)


def _write_build(result, tree_path: Path, sidecar_path: Path) -> None:
    """Serialize a build the way the `build` command does."""
    from videoqa import tree

    tree_path.write_text(tree.tree_to_json(result.tree) + "\n", encoding="utf-8")
    sidecar_path.write_text(
        json.dumps(result.store.to_sidecar(), sort_keys=True,
                   separators=(",", ":")) + "\n", encoding="utf-8")


def _scope(tracer, op_id: str):
    return tracer.op(op_id) if tracer is not None else nullcontext()


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _close(phase: Phase, env: Env, before: dict, start: float) -> Phase:
    phase.wall_s = perf_counter() - start
    after = env.fake.snapshot()
    phase.calls = after["calls"] - before["calls"]
    phase.prompt_bytes = after["prompt_bytes"] - before["prompt_bytes"]
    return phase


# ---------------------------------------------------------------------------
# build_1h: one client builds 1-hour videos back to back
# ---------------------------------------------------------------------------

def run_build_1h(env: Env, seconds: float, tracer, tag: str, client: int) -> Phase:
    from videoqa import knowledge, pipeline, tree

    out = env.workdir / f"out-{tag}"
    out.mkdir(exist_ok=True)
    pool = [(entry["manifest"], [_raw(pipeline, q) for q in entry["questions"]])
            for entry in env.world["pool"]]
    phase = Phase()
    before, start = env.fake.snapshot(), perf_counter()
    # Stop only after whole (depth-gated, breadth-gated) pairs, so both kinds
    # of video are always equally represented.
    while phase.attempted % 2 or perf_counter() - start < seconds:
        manifest, questions = pool[phase.attempted % len(pool)]
        phase.attempted += 1
        video_id = Path(manifest).stem
        tree_path = out / f"{video_id}.tree.json"
        sidecar_path = out / f"{video_id}.sidecar.json"
        try:
            t0 = perf_counter()
            with _scope(tracer, f"{tag}{phase.attempted}"):
                result = pipeline.build_video(env.workdir / manifest, questions,
                                              env.config, env.suite)
                _write_build(result, tree_path, sidecar_path)
            latency = perf_counter() - t0
            _check_build(result, tree_path, sidecar_path, tree, knowledge, env)
        except Exception:
            _report_failure(f"build of {video_id}")
            phase.failed += 1
            continue
        phase.latencies.append(latency)
    return _close(phase, env, before, start)


def _raw(pipeline, doc: dict):
    return pipeline.RawQuestion(doc["question_id"], doc["text"],
                                tuple(doc["options"]), doc["gold_index"])


def _check_build(result, tree_path, sidecar_path, tree, knowledge, env) -> None:
    """The tree validates, and both artefacts load back to the same store."""
    result.tree.validate()
    loaded = tree.load_tree(tree_path)
    loaded.validate()
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    store = knowledge.KnowledgeStore.from_sidecar(loaded, sidecar,
                                                  fps=env.config.fps)
    if (len(loaded.nodes) != len(result.tree.nodes)
            or store.captions.keys() != result.store.captions.keys()
            or store.summaries.keys() != result.store.summaries.keys()):
        raise AssertionError("reloaded build differs from the built one")


# ---------------------------------------------------------------------------
# ask_3h: each client process asks questions against one built 3-hour video
# ---------------------------------------------------------------------------

def run_ask_3h(env: Env, seconds: float, tracer, tag: str, client: int) -> Phase:
    from videoqa import captioning, pipeline

    questions = env.world["questions"]
    bundles = [captioning.QuestionBundle(
        question_id=qid, text=questions[qid]["text"],
        options=tuple(questions[qid]["option_texts"]),
        qtype=questions[qid]["qtype"]) for qid in env.world["asks"]]
    # Clients start half the question list apart, so they ask different
    # questions; the order still cycles through the three types.
    first = index = client * len(bundles) // CLIENTS["ask_3h"]
    cycle = len({bundle.qtype for bundle in bundles})
    phase = Phase()
    before, start = env.fake.snapshot(), perf_counter()
    # Stop only after whole cycles through the question types.
    while (index - first) % cycle or perf_counter() - start < seconds:
        bundle = bundles[index % len(bundles)]
        index += 1
        phase.attempted += 1
        try:
            t0 = perf_counter()
            with _scope(tracer, f"{tag}{phase.attempted}"):
                record = pipeline.answer_question(bundle, env.store, env.profiles,
                                                  env.config, env.suite)
            latency = perf_counter() - t0
            gold = questions[bundle.question_id]["gold"]
            if record.chosen_index != gold or not record.validated or record.truncated:
                raise AssertionError(
                    f"{bundle.question_id}: chose {record.chosen_index} "
                    f"(gold {gold}), validated={record.validated}, "
                    f"truncated={record.truncated}")
        except Exception:
            _report_failure(f"ask {bundle.question_id}")
            phase.failed += 1
            continue
        phase.latencies.append(latency)
    return _close(phase, env, before, start)


# ---------------------------------------------------------------------------
# eval_batch: evaluate() over a six-video dataset, called back to back
# ---------------------------------------------------------------------------

def run_eval_batch(env: Env, seconds: float, tracer, tag: str, client: int) -> Phase:
    from videoqa import pipeline

    manifest = env.workdir / env.world["dataset"]
    gold = {qid: q["gold"] for qid, q in env.world["questions"].items()}
    phase = Phase()
    latencies: list[float] = []
    answer_question = pipeline.answer_question

    def timed_answer(*args, **kwargs):
        t0 = perf_counter()
        record = answer_question(*args, **kwargs)
        latencies.append(perf_counter() - t0)
        return record

    # Each answered question is one op; time it where evaluate() calls it.
    pipeline.answer_question = timed_answer
    before, start = env.fake.snapshot(), perf_counter()
    try:
        batch = 0
        while perf_counter() - start < seconds:
            batch += 1
            phase.attempted += len(gold)
            done = len(latencies)
            try:
                with _scope(tracer, f"{tag}{batch}"):
                    records, report = pipeline.evaluate(manifest, env.config,
                                                        env.suite)
            except Exception:
                _report_failure("evaluate")
                phase.failed += len(gold)
                del latencies[done:]
                continue
            wrong = {r.question_id for r in records
                     if r.chosen_index != gold.get(r.question_id)}
            missing = set(gold) - {r.question_id for r in records}
            if (wrong or missing or len(records) != len(gold)
                    or report.accuracy_overall != 1.0):
                print(f"perfbench: evaluate gave {len(records)} records for "
                      f"{len(gold)} questions, answered {sorted(wrong)} wrongly, "
                      f"missed {sorted(missing)}, accuracy "
                      f"{report.accuracy_overall}", file=sys.stderr)
                phase.failed += max(len(wrong | missing), 1)
    finally:
        pipeline.answer_question = answer_question
    phase.latencies = latencies
    return _close(phase, env, before, start)


RUNNERS = {"build_1h": run_build_1h, "ask_3h": run_ask_3h,
           "eval_batch": run_eval_batch}
