"""Acceptance suite: every release criterion in one module, one printed
pass/fail line per criterion. Runs fully offline against scripted mocks."""

from __future__ import annotations

import contextlib
import random
import socket
import time
import zlib

import numpy as np

from videoqa.backends import Backend, MockScript
from videoqa.captioning import QuestionBundle
from videoqa.cli import main
from videoqa.config import EngineConfig
from videoqa.knowledge import builtin_profiles
from videoqa.orchestrator import (
    AGENT_REGISTRY,
    EvidenceItem,
    TEXT_AGENT,
    VISUAL_AGENT,
    analyze_problem,
    execute_workflow,
    integrate_evidence,
    plan_tasks,
    template_workflow,
)
from videoqa.pipeline import build_video, evaluate
from videoqa.tree import (
    RelevanceScore,
    TreeParams,
    expand_tree,
    kmeans,
    tree_from_shots,
    vtsearch,
)

from conftest import GOLDEN_QUESTIONS, build_golden_world, kmeans_cost, write_video
from test_orchestrator import _random_items, _weights_profile, oracle_scores
from test_tree import bruteforce_two_partition_cost, make_separated_instance


@contextlib.contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------
# 1. Tree structural suite
# ---------------------------------------------------------------------------

def _structural_mock() -> MockScript:
    def default(rendered: str) -> str:
        if rendered.startswith("caption:"):
            return f"segment view {zlib.crc32(rendered.encode()) % 1000}"
        if "Rate how relevant" in rendered:
            return str(1 + zlib.crc32(rendered.encode()) % 5)
        return "ok"

    return MockScript(default_response=default)


def _check_structure(tree, params: TreeParams) -> None:
    tree.validate()  # partition, no-cross-shot, depth, child ordering
    for node in tree.nodes.values():
        assert node.depth <= params.max_depth
        if node.children:
            assert node.kind == "cluster" or tree.is_high_relevance(node)
        if node.depth < params.max_depth and node.num_frames >= 2:
            if node.kind == "shot" and tree.is_high_relevance(node):
                assert node.children
            if node.kind == "cluster" and node.num_frames >= 2 * params.k:
                assert node.children


def test_acceptance_tree_structural_suite(tmp_path) -> None:
    with criterion("tree-structural-suite (200 videos, 0 violations, <30s)"):
        rng = np.random.default_rng(20240901)
        params = TreeParams(tau=2.5, k=2, max_depth=3, gamma=0.4)
        config = EngineConfig(seed=7)
        start = time.monotonic()
        for index in range(200):
            n_shots = int(rng.integers(4, 41))
            lengths = [int(rng.integers(3, 13)) for _ in range(n_shots)]
            manifest = write_video(tmp_path, f"v{index:03d}", lengths,
                                   seed=index)
            backend = Backend.from_mock(_structural_mock())
            result = build_video(manifest, [], config, backend)
            _check_structure(result.tree, params)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"structural suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. K-Means oracle
# ---------------------------------------------------------------------------

def test_acceptance_kmeans_oracle() -> None:
    with criterion("kmeans-oracle (500 separated instances within 1e-9)"):
        rng = np.random.default_rng(777)
        for trial in range(500):
            pts = make_separated_instance(rng)
            cost = kmeans_cost(pts, kmeans(pts, 2, seed=trial))
            optimal = bruteforce_two_partition_cost(pts)
            assert abs(cost - optimal) <= 1e-9, \
                f"instance {trial}: {cost} vs optimal {optimal}"
        for trial in range(200):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, 4))
            pts = rng.normal(0, 2, (n, d))
            cost = kmeans_cost(pts, kmeans(pts, 2, seed=trial))
            assert cost >= bruteforce_two_partition_cost(pts) - 1e-9


# ---------------------------------------------------------------------------
# 3. Evidence-fusion oracle
# ---------------------------------------------------------------------------

def test_acceptance_fusion_oracle() -> None:
    with criterion("fusion-oracle (1000 instances within 1e-12, worked "
                   "example exact)"):
        items = [EvidenceItem(VISUAL_AGENT, (0.9, 0.1), 1.0),
                 EvidenceItem(TEXT_AGENT, (0.2, 0.8), 1.0)]
        profile = _weights_profile(text=0.3, visual=0.7)
        worked = integrate_evidence(items, profile, "Descriptive")
        assert worked.scores == (0.69, 0.31)
        assert worked.chosen_index == 0

        rng = random.Random(171717)
        for _ in range(1000):
            sample, qtype = _random_items(rng)
            w_text = rng.random()
            prof = _weights_profile(text=w_text, visual=1.0 - w_text)
            result = integrate_evidence(sample, prof, qtype)
            expected = oracle_scores(
                sample, {TEXT_AGENT: prof.weights["text"],
                         VISUAL_AGENT: prof.weights["visual"]}, qtype)
            for got, want in zip(result.scores, expected):
                assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------------------
# 4. Gamma gate
# ---------------------------------------------------------------------------

def _ten_shot_tree(high_count: int):
    rng = np.random.default_rng(4)
    emb = rng.normal(0, 1, (80, 6)).astype(np.float32)
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    shots = [range(start, start + 8) for start in range(0, 80, 8)]
    tree = tree_from_shots("gate", shots, emb,
                           TreeParams(tau=2.5, k=2, max_depth=3, gamma=0.4))
    values = [4.0] * high_count + [1.0] * (10 - high_count)
    for shot, value in zip(tree.shots(), values):
        shot.relevance = RelevanceScore(value)
    expand_tree(tree, emb, seed=2, shots=tree.shot_order)
    return tree


def test_acceptance_gamma_gate() -> None:
    with criterion("gamma-gate (5/10 high -> breadth; 3/10 high -> depth)"):
        breadth_tree = _ten_shot_tree(high_count=5)
        frames = vtsearch(breadth_tree)
        assert frames == [breadth_tree.nodes[s].representative_frame
                          for s in breadth_tree.shot_order]
        assert len(frames) == 10, "5/10 > gamma=0.4 stays at the shot layer"

        depth_tree = _ten_shot_tree(high_count=3)
        frames = vtsearch(depth_tree)
        high_ranges = [(depth_tree.nodes[s].start_frame,
                        depth_tree.nodes[s].end_frame)
                       for s in depth_tree.shot_order[:3]]
        assert all(any(a <= f <= b for a, b in high_ranges) for f in frames), \
            "depth mode draws only from high-relevance shots"
        leaf_count = sum(len(depth_tree.leaves_under(s))
                         for s in depth_tree.shot_order[:3])
        assert len(frames) == leaf_count
        assert leaf_count > 3, "expansion actually deepened those shots"


# ---------------------------------------------------------------------------
# 5. Planning minimality + the worked causal scenario
# ---------------------------------------------------------------------------

def test_acceptance_planning_minimality(tmp_path) -> None:
    with criterion("planning-minimality (static skips visual; causal is "
                   "four-stage bidirectional; answer matches)"):
        world = build_golden_world(tmp_path / "golden")
        backend = world.backend()
        profiles = builtin_profiles()

        static = QuestionBundle("a_q2", "What is the location?",
                                ("a park", "a kitchen"), "Descriptive")
        template = analyze_problem(static, profiles, backend)
        workflow = plan_tasks(template, static, backend)
        agents = [s.agent for s in workflow.stages]
        assert VISUAL_AGENT not in agents
        assert agents[0] == TEXT_AGENT and agents[-1] == "AnswerGenerationAgent"

        causal = QuestionBundle(
            "a_q1", "Why is the man on the bench looking up?",
            ("a bird flying overhead", "overlooking the children",
             "rain starting to fall"), "Causal")
        template = analyze_problem(causal, profiles, backend)
        workflow = plan_tasks(template, causal, backend)
        assert [s.agent for s in workflow.stages] == list(AGENT_REGISTRY), \
            "four-stage workflow"
        text_stage = workflow.stages[0]
        assert "search backward" in text_stage.task_description.lower()
        assert "forward" in text_stage.task_description.lower()

        records, _ = evaluate(world.dataset_path, EngineConfig(seed=3),
                              world.backend())
        fig = next(r for r in records if r.question_id == "a_q1")
        assert fig.chosen_text == "overlooking the children"
        static_rec = next(r for r in records if r.question_id == "a_q2")
        assert VISUAL_AGENT not in {s.agent for s in static_rec.trace}


# ---------------------------------------------------------------------------
# 6. Budget law
# ---------------------------------------------------------------------------

def test_acceptance_budget_law(tmp_path, pool) -> None:
    with criterion("budget-law (adversarial mock consumes exactly 15, "
                   "answer still emitted)"):
        world = build_golden_world(tmp_path / "golden")
        config = EngineConfig(seed=3)
        result = build_video(world.video_manifests["golden_a"], [], config,
                             world.backend())
        stubborn = MockScript(
            default_response="THOUGHT: still looking\n"
                             "ACTION: temporal_index {}")
        stubborn.add("drafting explanation", "inconclusive evidence")
        backend = Backend.from_mock(stubborn)
        bundle = QuestionBundle("adv", "Why?", ("a", "b"), "Causal")
        workflow = template_workflow("Causal", AGENT_REGISTRY, max_iterations=15)
        record = execute_workflow(workflow, bundle, result.store,
                                  builtin_profiles()["Causal"], backend, pool)
        assert record.rounds_used == 15, "hard iteration cap respected"
        assert record.truncated is True
        assert record.chosen_index in (0, 1), "a flagged answer is emitted"
        assert record.validated is False


# ---------------------------------------------------------------------------
# 7. Determinism
# ---------------------------------------------------------------------------

def test_acceptance_determinism(tmp_path) -> None:
    with criterion("determinism (two cmd_eval runs byte-identical)"):
        world = build_golden_world(tmp_path / "golden")

        def run(tag: str) -> bytes:
            records = tmp_path / f"records_{tag}.jsonl"
            code = main(["eval", str(world.dataset_path),
                         "--out-records", str(records),
                         "--out-report", str(tmp_path / f"report_{tag}.json"),
                         "--mock-script", str(world.script_path),
                         "--seed", "3"])
            assert code == 0
            return records.read_bytes()

        first, second = run("one"), run("two")
        assert first == second
        assert len(first.strip().split(b"\n")) == 10


# ---------------------------------------------------------------------------
# 8. Ablation plumbing
# ---------------------------------------------------------------------------

def test_acceptance_ablation_plumbing(tmp_path) -> None:
    with criterion("ablation-plumbing (uniform shots; no prompt synthesis; "
                   "all-agent workflows)"):
        world = build_golden_world(tmp_path / "golden")

        uniform = build_video(world.video_manifests["golden_a"], [],
                              EngineConfig(seed=3, uniform_sampling=True),
                              world.backend())
        assert len(uniform.tree.shot_order) == 8
        assert all(not uniform.tree.nodes[s].children
                   for s in uniform.tree.shot_order)
        sizes = [uniform.tree.nodes[s].num_frames
                 for s in uniform.tree.shot_order]
        assert max(sizes) - min(sizes) <= 1

        backend = world.backend()
        _, report = evaluate(world.dataset_path,
                             EngineConfig(seed=3, generic_captions=True),
                             backend)
        assert report.ablation_flags == ["generic-captions"]
        assert not any("You write visual captioning prompts" in r.rendered
                       for r in backend.calls)

        fixed_records, fixed_report = evaluate(
            world.dataset_path, EngineConfig(seed=3, fixed_workflow=True),
            world.backend())
        assert fixed_report.ablation_flags == ["fixed-workflow"]
        assert all(VISUAL_AGENT in {s.agent for s in r.trace}
                   for r in fixed_records)


# ---------------------------------------------------------------------------
# 9. Offline completeness
# ---------------------------------------------------------------------------

def test_acceptance_offline_completeness(tmp_path, monkeypatch) -> None:
    with criterion("offline-completeness (full run with network blocked)"):
        def refuse(*args, **kwargs):
            raise AssertionError("network access attempted")

        # Refused at the socket, so the criterion holds whatever HTTP
        # client a backend uses.
        monkeypatch.setattr(socket.socket, "connect", refuse)

        world = build_golden_world(tmp_path / "golden")
        records, report = evaluate(world.dataset_path, EngineConfig(seed=3),
                                   world.backend())
        assert report.accuracy_overall == 1.0
        assert len(records) == len(GOLDEN_QUESTIONS)
