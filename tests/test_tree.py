from __future__ import annotations

import itertools
import logging
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import videoqa.tree as tree_module
from videoqa.backends import MockBackend, MockScript
from videoqa.errors import (
    BackendError,
    Doc,
    ValidationError,
)
from videoqa.ingest import detect_shots
from videoqa.tree import (
    KIND_SHOT,
    MAX_TREE_FRAMES,
    HybridTree,
    RelevanceScore,
    TreeNode,
    TreeParams,
    _node_seed,
    _randint,
    deserialize_tree,
    expand_tree,
    kmeans,
    score_shots,
    serialize_tree,
    tree_from_shots,
    tree_to_json,
    vtsearch,
)

from conftest import (
    TREE_PARAMS,
    RecordingBackend,
    kmeans_cost,
    shot_embeddings,
)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

def bruteforce_two_partition_cost(pts: np.ndarray) -> float:
    """Optimal 2-partition cost by exhaustive enumeration (n <= ~12)."""
    n = pts.shape[0]
    if n <= 2:
        return 0.0
    best = float("inf")
    for mask in range(1, 2 ** (n - 1)):
        group = [(mask >> i) & 1 for i in range(n)]
        assign = np.array(group + [0][:0], dtype=np.int64) if len(group) == n \
            else None
        assign = np.array(group, dtype=np.int64)
        cost = kmeans_cost(pts, assign)
        best = min(best, cost)
    return best


def make_separated_instance(rng: np.random.Generator) -> np.ndarray:
    """Two blobs with inter-center distance >= 4x the blob diameter."""
    d = int(rng.integers(1, 4))
    n = int(rng.integers(2, 11))
    n_a = int(rng.integers(1, n))
    direction = rng.normal(0, 1, d)
    direction /= np.linalg.norm(direction)
    distance = float(rng.uniform(8.0, 16.0))
    center_a = rng.normal(0, 1, d)
    center_b = center_a + direction * distance
    pts = []
    for i in range(n):
        center = center_a if i < n_a else center_b
        pts.append(center + rng.uniform(-0.5, 0.5, d))
    return np.asarray(pts)


# ---------------------------------------------------------------------------
# K-Means
# ---------------------------------------------------------------------------

def test_kmeans_four_point_optimum() -> None:
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    assign = kmeans(pts, 2, seed=42)
    assert set(map(tuple, [np.flatnonzero(assign == c) for c in (0, 1)])) == \
        {(0, 1), (2, 3)}
    cost = kmeans_cost(pts, assign)
    assert cost == pytest.approx(1.0, abs=1e-12)
    assert cost == pytest.approx(bruteforce_two_partition_cost(pts), abs=1e-12)


def test_kmeans_single_point() -> None:
    assert list(kmeans(np.array([[3.0, 4.0]]), 2, seed=0)) == [0]


def test_kmeans_points_leq_k_one_cluster_each() -> None:
    pts = np.array([[0.0], [5.0], [9.0]])
    assert list(kmeans(pts, 3, seed=1)) == [0, 1, 2]
    assert list(kmeans(pts, 5, seed=1)) == [0, 1, 2]


def test_kmeans_identical_points_deterministic() -> None:
    pts = np.ones((6, 3))
    a = kmeans(pts, 2, seed=9)
    b = kmeans(pts, 2, seed=9)
    assert np.array_equal(a, b)
    assert kmeans_cost(pts, a) == 0.0
    assert len(np.unique(a)) == 2, "empty-cluster repair fills both clusters"


def test_kmeans_deterministic_given_seed() -> None:
    rng = np.random.default_rng(4)
    pts = rng.normal(0, 1, (30, 4))
    assert np.array_equal(kmeans(pts, 2, seed=123), kmeans(pts, 2, seed=123))


def test_kmeans_no_empty_clusters() -> None:
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = int(rng.integers(3, 20))
        pts = rng.normal(0, 1, (n, 2))
        assign = kmeans(pts, 2, seed=trial)
        assert set(np.unique(assign)) == {0, 1}


def reference_lloyd(pts: np.ndarray, k: int, first: int) -> np.ndarray:
    """Plain Lloyd's K-Means from farthest-point seeds that start at point
    `first`: assign each point to its nearest centre, move each centre to
    its members' mean, and stop when the assignment holds."""
    chosen = [first]
    while len(chosen) < k:
        chosen.append(int(np.argmax([min(np.linalg.norm(p - pts[c])
                                         for c in chosen) for p in pts])))
    centers = pts[chosen]
    assign = None
    for _ in range(100):
        nearest = np.array([int(np.argmin([np.linalg.norm(p - c)
                                           for c in centers])) for p in pts])
        if assign is not None and np.array_equal(nearest, assign):
            break
        assign = nearest
        assert len(np.unique(assign)) == k, "no cluster empties here"
        centers = np.array([pts[assign == c].mean(axis=0) for c in range(k)])
    return assign


def test_kmeans_matches_a_reference_lloyd_run_from_its_seeds() -> None:
    """Random instances, where the seeding alone does not settle the
    clusters: the centre updates must move them as Lloyd's do."""
    rng = np.random.default_rng(11)
    for trial in range(20):
        pts = rng.normal(0, 1, (40, 3))
        expected = reference_lloyd(pts, 4, _randint(trial, len(pts)))
        assert np.array_equal(kmeans(pts, 4, seed=trial), expected), trial


def test_kmeans_stops_after_100_rounds_when_assignments_never_settle(
        monkeypatch) -> None:
    """Lloyd's loop is bounded: an assignment that flips every round ends
    after the first assignment and 100 more."""
    calls = []

    def flipping(pts, centers):
        calls.append(len(calls))
        return np.arange(len(pts)) % 2 ^ len(calls) % 2

    monkeypatch.setattr(tree_module, "_assign", flipping)
    kmeans(np.arange(8.0).reshape(4, 2), 2, seed=0)
    assert len(calls) == 101


def test_kmeans_oracle_separated_instances() -> None:
    rng = np.random.default_rng(2024)
    for trial in range(120):
        pts = make_separated_instance(rng)
        assign = kmeans(pts, 2, seed=trial)
        cost = kmeans_cost(pts, assign)
        optimal = bruteforce_two_partition_cost(pts)
        assert cost <= optimal + 1e-9, f"trial {trial}: beat optimum is impossible"
        assert cost >= optimal - 1e-9, f"trial {trial}: missed the optimum"


def test_kmeans_never_below_optimal_on_arbitrary_inputs() -> None:
    rng = np.random.default_rng(31)
    for trial in range(60):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 4))
        pts = rng.normal(0, 2, (n, d))
        assign = kmeans(pts, 2, seed=trial)
        assert kmeans_cost(pts, assign) >= \
            bruteforce_two_partition_cost(pts) - 1e-9


# ---------------------------------------------------------------------------
# K-Means seeding: numpy.random's streams, reproduced without it
# ---------------------------------------------------------------------------

FIRST_INDEX_BOUNDS = (1, 2, 3, 45, 2**31 + 1, 2**32 - 1)

# (master seed, node id) -> _node_seed, then default_rng(that seed)
# .integers(0, n) for each n in FIRST_INDEX_BOUNDS, as numpy 2.4 computes them.
PINNED_SEEDS = [
    (0, 0, 2968811710, (0, 1, 2, 32, 8787345, 3065586048)),
    (0, 1, 3964924996, (0, 0, 0, 8, 419593122, 839186244)),
    (2**32 - 1, 5, 2732042765, (0, 0, 0, 13, 117073878, 1273231719)),
    (2**64 + 1, 2, 3667626515, (0, 0, 1, 17, 187434421, 1708700531)),
    (7, 4999, 110728852, (0, 1, 1, 22, 1085507223, 2171014445)),
    (2**200 + 3, 17, 1915914846, (0, 1, 2, 41, 1996474419, 3992948837)),
]


@pytest.mark.parametrize("master,node_id,seed,firsts", PINNED_SEEDS)
def test_seeding_matches_pinned_numpy_values(master, node_id, seed,
                                             firsts) -> None:
    assert _node_seed(master, node_id) == seed
    assert tuple(_randint(seed, n) for n in FIRST_INDEX_BOUNDS) == firsts


def test_seeding_matches_numpy_random_draw_for_draw() -> None:
    """Against numpy.random itself, over seeds up to 2**200, node ids up to
    5,000 and bounds up to 2**32 - 1. A bound just above 2**31 rejects about
    half its first draws, so the redraw path runs too."""
    draws = random.Random(15)
    rejected = 0
    for _ in range(3000):
        master = draws.choice([draws.randrange(16), draws.randrange(2**64),
                               draws.randrange(2**200)])
        node_id = draws.randrange(5001)
        n = draws.choice([draws.randrange(1, 100), draws.randrange(1, 2**32),
                          2**31 + draws.randrange(1, 1000)])
        seed = _node_seed(master, node_id)
        assert seed == int(np.random.SeedSequence([master, node_id])
                           .generate_state(1)[0]), (master, node_id)
        rng = np.random.default_rng(seed)
        assert _randint(seed, n) == int(rng.integers(0, n)), (seed, n)
        # numpy buffers the high half of each 64-bit output, so an accepted
        # first draw leaves one buffered and one redraw consumes it.
        rejected += not rng.bit_generator.state["has_uint32"]
    assert rejected > 0, "no draw took the rejection branch"


def test_seeding_matches_numpy_random_at_power_of_two_bounds() -> None:
    """A power-of-two bound rejects no draw: at 2**31 half the draws have a
    low word of exactly 0, the rejection threshold, and are accepted."""
    for seed in range(20):
        for n in (2, 2**20, 2**31):
            assert _randint(seed, n) == \
                int(np.random.default_rng(seed).integers(0, n)), (seed, n)


# ---------------------------------------------------------------------------
# Relevance scoring
# ---------------------------------------------------------------------------

def _shots(lengths: list[int]) -> list[range]:
    shots = []
    start = 0
    for length in lengths:
        shots.append(range(start, start + length))
        start += length
    return shots


def _layer1(lengths: list[int], params: TreeParams = TREE_PARAMS,
            emb: np.ndarray | None = None) -> HybridTree:
    """The unexpanded tree over shots of `lengths` frames. With no `emb`,
    identical rows make each shot's first frame its representative."""
    if emb is None:
        emb = np.ones((sum(lengths), 1))
    return tree_from_shots("v", _shots(lengths), emb, params)


def _set_scores(tree: HybridTree, values: list[float]) -> None:
    for shot, value in zip(tree.shots(), values, strict=True):
        shot.relevance = RelevanceScore(value)


def test_score_shots_parses_scripted_scores() -> None:
    tree = _layer1([4, 4, 4])
    script = MockScript(default_response="1")
    script.add("Segment 2 (", "4")
    scores = [score_shots(shot, f"c{shot.node_id}", "why?", MockBackend(script))
              for shot in tree.shots()]
    assert [s.value for s in scores] == [1.0, 1.0, 4.0]
    assert not any(s.defaulted for s in scores)
    assert all(shot.relevance is None for shot in tree.shots()), \
        "scoring leaves setting the scores to the caller"


def test_score_shots_gate_is_strict_at_tau() -> None:
    tree = _layer1([4, 4], TreeParams(tau=2.5, k=2, max_depth=3, gamma=0.4))
    script = MockScript(default_response="2.5")
    _set_scores(tree, [score_shots(shot, "c", "q", MockBackend(script)).value
                       for shot in tree.shots()])
    emb = shot_embeddings([4, 4])
    expand_tree(tree, emb, seed=0, shots=tree.shot_order)
    assert all(not tree.nodes[s].children for s in tree.shot_order), \
        "score == tau must not expand (strict inequality)"


def test_score_shots_unparseable_retried_once_then_default() -> None:
    tree = _layer1([4])
    backend = RecordingBackend(MockBackend(MockScript(
        default_response="no idea, sorry")))
    score = score_shots(tree.nodes[0], "c", "q", backend)
    assert len(backend.calls) == 2, "one retry before defaulting"
    assert score.value == 3.0
    assert score.defaulted is True


def test_score_shots_keeps_the_head_of_the_reply(caplog) -> None:
    """The warning shows 80 characters of the reply, and the rationale,
    defaulted or not, 200."""
    tree = _layer1([4])
    reply = "".join(chr(ord("a") + i % 26) for i in range(300))
    with caplog.at_level(logging.WARNING, logger="videoqa.tree"):
        score = score_shots(tree.nodes[0], "c", "q",
                            MockBackend(MockScript(default_response=reply)))
    assert score.rationale == reply[:200]
    assert caplog.messages == [f"shot 0: unparseable relevance {reply[:80]!r}, "
                               "defaulting to 3.0"]
    parsed = score_shots(tree.nodes[0], "c", "q", MockBackend(MockScript(
        default_response="4 " + reply)))
    assert parsed.rationale == ("4 " + reply)[:200]


def test_score_shots_out_of_range_number_is_unparseable() -> None:
    tree = _layer1([4])
    script = MockScript(default_response="9")
    score = score_shots(tree.nodes[0], "c", "q", MockBackend(script))
    assert score.defaulted is True


def test_score_shots_backend_error_names_shot() -> None:
    tree = _layer1([4])
    script = MockScript()
    script.add("Segment 0", error="transport")
    with pytest.raises(BackendError, match="shot 0"):
        score_shots(tree.nodes[0], "c", "q", MockBackend(script))


def test_tau_sweep_expansion_changes_only_at_integers() -> None:
    scored = _layer1([8, 8, 8, 8, 8])
    script = MockScript()
    for i in range(5):
        script.add(f"Segment {i} (", str(i + 1))
    for shot in scored.shots():
        shot.relevance = score_shots(shot, f"c{shot.node_id}", "q",
                                     MockBackend(script))
    emb = shot_embeddings([8, 8, 8, 8, 8])

    def expansion_set(tau: float) -> tuple[int, ...]:
        tree = _layer1([8, 8, 8, 8, 8],
                       TreeParams(tau=tau, k=2, max_depth=3, gamma=0.4))
        for shot, scored_shot in zip(tree.shots(), scored.shots()):
            shot.relevance = scored_shot.relevance
        expand_tree(tree, emb, seed=1, shots=tree.shot_order)
        return tuple(s for s in tree.shot_order if tree.nodes[s].children)

    inside = {t: expansion_set(t) for t in (2.0, 2.1, 2.5, 2.9, 2.999)}
    assert len(set(inside.values())) == 1, \
        "stable across tau in [2.0, 3.0) with integer scores"
    assert expansion_set(2.5) == (2, 3, 4)
    assert expansion_set(3.0) == (3, 4), "crossing the integer changes the set"


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------

def _sub_event_embeddings() -> np.ndarray:
    """16 frames in 4 well-separated sub-events of 4 frames each."""
    rng = np.random.default_rng(8)
    corners = np.array([[0.0, 0.0], [0.0, 40.0], [40.0, 0.0], [40.0, 40.0]])
    rows = []
    for corner in corners:
        for _ in range(4):
            rows.append(corner + rng.uniform(-0.5, 0.5, 2))
    return np.asarray(rows, dtype=np.float32)


def test_expand_sixteen_frame_shot_binary_subtree() -> None:
    emb = _sub_event_embeddings()
    tree = _layer1([16], TreeParams(tau=2.5, k=2, max_depth=3, gamma=0.4), emb)
    _set_scores(tree, [4.0])
    expand_tree(tree, emb, seed=5, shots=tree.shot_order)
    by_depth: dict[int, int] = {}
    for node in tree.nodes.values():
        by_depth[node.depth] = by_depth.get(node.depth, 0) + 1
    assert by_depth[2] == 2
    assert by_depth[3] == 4
    tree.validate()


def test_expand_no_qualifying_shot_leaves_tree_unchanged() -> None:
    emb = shot_embeddings([6, 6])
    tree = _layer1([6, 6], TreeParams(tau=2.5, k=2, max_depth=3, gamma=0.4),
                   emb)
    _set_scores(tree, [2.0, 1.0])
    before = tree_to_json(tree)
    expand_tree(tree, emb, seed=0, shots=tree.shot_order)
    assert tree_to_json(tree) == before


def test_expand_three_frame_shot_singleton_not_recursed() -> None:
    emb = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0]], dtype=np.float32)
    tree = _layer1([3], TreeParams(tau=2.5, k=2, max_depth=3, gamma=0.4), emb)
    _set_scores(tree, [5.0])
    expand_tree(tree, emb, seed=7, shots=tree.shot_order)
    shot = tree.nodes[0]
    children = [tree.nodes[c] for c in shot.children]
    assert sorted(len(c.frames) for c in children) == [1, 2], \
        "any 2-partition of 3 points has sizes {1, 2}"
    assert all(not c.children for c in children), \
        "children below 2k frames must not recurse"
    tree.validate()


def test_expand_two_frame_shot_splits_into_its_frames() -> None:
    """A shot passing the gate gets its first split down to two frames."""
    emb = np.array([[0.0, 0.0], [10.0, 0.0]], dtype=np.float32)
    tree = _layer1([2], TreeParams(tau=2.5, k=2, max_depth=3, gamma=0.4), emb)
    _set_scores(tree, [5.0])
    expand_tree(tree, emb, seed=7, shots=tree.shot_order)
    assert [tree.nodes[c].frames for c in tree.nodes[0].children] == [(0,), (1,)]
    tree.validate()


def test_expand_determinism_byte_identical() -> None:
    emb = shot_embeddings([9, 9, 9], seed=21)
    values = [4.5, 1.0, 3.5]

    def build() -> str:
        tree = _layer1([9, 9, 9], TREE_PARAMS, emb)
        _set_scores(tree, values)
        expand_tree(tree, emb, seed=77, shots=tree.shot_order)
        return tree_to_json(tree)

    assert build() == build()


def test_random_trees_satisfy_structural_invariants() -> None:
    rng = np.random.default_rng(55)
    params = TreeParams(tau=2.5, k=2, max_depth=3, gamma=0.4)
    for trial in range(40):
        lengths = rng.integers(3, 14, size=int(rng.integers(2, 9))).tolist()
        emb = shot_embeddings(lengths, seed=trial)
        shots = detect_shots(emb, 2.0)
        tree = tree_from_shots("v", shots, emb, params)
        _set_scores(tree, [float(rng.integers(1, 6)) for _ in shots])
        expand_tree(tree, emb, seed=trial, shots=tree.shot_order)
        tree.validate()

        # Gating soundness both ways: only gate-passing shots (or their
        # cluster descendants) carry children, and anything expandable
        # within the depth/size limits was expanded.
        for node in tree.nodes.values():
            if node.children:
                assert (node.kind == "cluster"
                        or tree.is_high_relevance(node))
            if node.depth < params.max_depth and node.num_frames >= 2:
                if node.kind == "shot" and tree.is_high_relevance(node):
                    assert node.children, \
                        f"shot {node.node_id} should have been expanded"
                if node.kind == "cluster" and node.num_frames >= 2 * params.k:
                    assert node.children, \
                        f"cluster {node.node_id} should have been expanded"

        # Temporal topology: shots strictly increasing, and every node's
        # children ordered by minimum frame. (Cluster frame sets may
        # interleave inside a shot, so ordering is sibling-level.)
        shot_minima = [tree.nodes[sid].start_frame for sid in tree.shot_order]
        assert shot_minima == sorted(shot_minima)
        for node in tree.nodes.values():
            child_minima = [min(tree.nodes[c].frames) for c in node.children]
            assert child_minima == sorted(child_minima)
        # Across shots the in-order leaf minima are still non-decreasing.
        last_max = -1
        for sid in tree.shot_order:
            leaf_minima = [min(leaf.frames)
                           for leaf in tree.leaves_under(sid)]
            assert min(leaf_minima) > last_max
            last_max = tree.nodes[sid].end_frame


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lengths=st.lists(st.integers(1, 8), min_size=1, max_size=8),
       scores=st.lists(st.integers(1, 5), min_size=8, max_size=8),
       reload=st.booleans())
def test_shot_at_matches_a_linear_scan(lengths, scores, reload) -> None:
    """On random valid trees with sparse shot ids, expanded or not, built or
    loaded, for every frame from before the first to past the last."""
    nodes = {}
    for i, frames in enumerate(_shots(lengths)):
        nodes[10 + 3 * i] = TreeNode(10 + 3 * i, KIND_SHOT, frames, frames.start,
                                     1, relevance=RelevanceScore(scores[i]))
    tree = HybridTree("v", TREE_PARAMS, nodes, list(nodes))
    expand_tree(tree, shot_embeddings(lengths, seed=len(lengths)), seed=1,
                shots=tree.shot_order)
    if reload:
        tree = _load(serialize_tree(tree))
    tree.validate()
    for frame in range(-3, sum(lengths) + 3):
        scan = next((shot for shot in tree.shots()
                     if shot.start_frame <= frame <= shot.end_frame), None)
        assert tree.shot_at(frame) is scan


# ---------------------------------------------------------------------------
# VTSearch
# ---------------------------------------------------------------------------

def _scored_tree(lengths: list[int], values: list[float],
                 params: TreeParams = TREE_PARAMS,
                 emb: np.ndarray | None = None):
    tree = _layer1(lengths, params, emb)
    _set_scores(tree, values)
    if emb is not None:
        expand_tree(tree, emb, seed=3, shots=tree.shot_order)
    return tree


def test_vtsearch_breadth_when_half_the_shots_are_high() -> None:
    lengths = [4] * 10
    values = [4.0] * 5 + [1.0] * 5
    tree = _scored_tree(lengths, values,
                        TreeParams(tau=2.5, k=2, max_depth=3, gamma=0.4))
    frames = vtsearch(tree)
    assert len(frames) == 10, "5/10 > gamma=0.4 selects the breadth layer"
    assert frames == [tree.nodes[s].representative_frame
                      for s in tree.shot_order]


def test_vtsearch_depth_mode_single_expanded_shot() -> None:
    lengths = [16] + [4] * 9
    emb = np.vstack([_sub_event_embeddings(),
                     shot_embeddings([4] * 9, dim=2, seed=3) + 100.0])
    values = [5.0] + [1.0] * 9
    tree = _scored_tree(lengths, values,
                        TreeParams(tau=2.5, k=2, max_depth=3, gamma=0.4),
                        emb=emb.astype(np.float32))
    frames = vtsearch(tree)
    leaves = tree.leaves_under(tree.shot_order[0])
    assert len(leaves) == 4, "16 frames at k=2 reach four depth-3 leaves"
    assert len(frames) == 4
    assert all(0 <= f <= 15 for f in frames), "all frames from the high shot"


def test_vtsearch_depth_when_the_high_fraction_equals_gamma() -> None:
    """2 of 5 shots high is not more than gamma 0.4: depth, over the two."""
    tree = _scored_tree([4] * 5, [5.0, 5.0, 1.0, 1.0, 1.0],
                        TreeParams(tau=2.5, k=2, max_depth=3, gamma=0.4))
    assert vtsearch(tree) == [tree.nodes[s].representative_frame
                              for s in tree.shot_order[:2]]


def test_vtsearch_zero_high_relevance_falls_back_to_breadth() -> None:
    tree = _scored_tree([4, 4, 4], [1.0, 2.0, 1.5])
    frames = vtsearch(tree)
    assert len(frames) == 3


def test_vtsearch_output_nonempty_strictly_increasing() -> None:
    rng = np.random.default_rng(66)
    for trial in range(30):
        lengths = rng.integers(3, 14, size=int(rng.integers(2, 8))).tolist()
        emb = shot_embeddings(lengths, seed=trial + 500)
        tree = _scored_tree(lengths,
                            [float(rng.integers(1, 6)) for _ in lengths],
                            TREE_PARAMS, emb=emb)
        frames = vtsearch(tree)
        assert frames, "vtsearch must never return empty"
        assert all(a < b for a, b in itertools.pairwise(frames))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _expanded_tree():
    emb = _sub_event_embeddings()
    tree = tree_from_shots("vid-9", [range(16)], emb,
                           TreeParams(tau=2.5, k=2, max_depth=3, gamma=0.4))
    tree.nodes[0].relevance = RelevanceScore(4.0, rationale="looks key")
    expand_tree(tree, emb, seed=5, shots=tree.shot_order)
    return tree


def _load(doc: dict) -> HybridTree:
    return deserialize_tree(Doc(doc, ValidationError))


def test_serialize_roundtrip_identity() -> None:
    tree = _expanded_tree()
    clone = _load(serialize_tree(tree))
    assert tree_to_json(clone) == tree_to_json(tree)
    assert clone == tree


def test_serialize_missing_shot_order_pointer() -> None:
    doc = serialize_tree(_expanded_tree())
    del doc["shot_order"]
    with pytest.raises(ValidationError, match="/shot_order"):
        _load(doc)


def test_serialize_unknown_version() -> None:
    doc = serialize_tree(_expanded_tree())
    doc["version"] = "999"
    with pytest.raises(ValidationError,
                       match="#/version: unsupported tree schema version '999'"):
        _load(doc)


def test_serialize_bad_node_pointer() -> None:
    table = [
        (lambda doc: doc["nodes"][1].pop("kind"), "/nodes/1/kind"),
        (lambda doc: doc["nodes"][1].update(frames=["a", "b"]), "/nodes/1/frames/0"),
        (lambda doc: doc["nodes"][1].update(children=["x"]), "/nodes/1/children/0"),
        (lambda doc: doc.update(shot_order=[[0]]), "/shot_order/0"),
        (lambda doc: doc["nodes"][1].update(children=[999]), "/nodes/1/children"),
        (lambda doc: doc.update(shot_order=[0, 0]), "/shot_order"),
        (lambda doc: doc["nodes"][0].update(frames=[15, 0]), "/nodes/0/frames"),
        (lambda doc: doc["nodes"][1].update(frames=[]), "/nodes/1/frames"),
        (lambda doc: doc["nodes"][1].update(relevance={"value": 9.0}),
         "/nodes/1/relevance/value"),
        (lambda doc: doc["nodes"][0].update(frames=[0, 1, 2]), "/nodes/0/frames"),
    ]
    for mutate, pointer in table:
        doc = serialize_tree(_expanded_tree())
        mutate(doc)
        with pytest.raises(ValidationError, match=pointer) as caught:
            _load(doc)
        assert f"#{pointer}: " in str(caught.value)


@pytest.mark.parametrize("shots", [[[0, MAX_TREE_FRAMES]],
                                   [[0, 1 << 19], [(1 << 19) + 1, 1 << 20]]],
                         ids=["one-shot", "two-shots"])
def test_shots_spanning_more_than_the_frame_bound_are_refused(shots) -> None:
    """MAX_TREE_FRAMES + 1 frames, in one shot or summed over two."""
    last = len(shots) - 1
    doc = {"version": "1", "video_id": "long",
           "shot_order": list(range(len(shots))),
           "params": {"tau": 2.5, "k": 2, "max_depth": 3, "gamma": 0.4},
           "nodes": [{"id": i, "kind": "shot", "frames": frames,
                      "rep": frames[0], "depth": 1, "children": []}
                     for i, frames in enumerate(shots)]}
    with pytest.raises(ValidationError,
                       match=f"^#/nodes/{last}/frames: shots span more "
                             f"than {MAX_TREE_FRAMES} frames$"):
        _load(doc)


def test_serialize_bad_params_pointer() -> None:
    doc = serialize_tree(_expanded_tree())
    del doc["params"]["gamma"]
    with pytest.raises(ValidationError, match="/params/gamma"):
        _load(doc)


def test_serialize_shot_frames_as_range_clusters_as_sets() -> None:
    doc = serialize_tree(_expanded_tree())
    by_id = {n["id"]: n for n in doc["nodes"]}
    assert by_id[0]["kind"] == "shot"
    assert by_id[0]["frames"] == [0, 15]
    cluster = next(n for n in doc["nodes"] if n["kind"] == "cluster")
    assert len(cluster["frames"]) > 2 or sorted(cluster["frames"]) == \
        cluster["frames"]
