"""Shot-rooted hierarchical video tree.

Layer 1 is the temporally ordered shot sequence. Shots whose relevance to
the question exceeds tau are expanded in place with K-Means sub-event
clusters, recursively, down to max_depth. Low-relevance shots stay leaves,
so global temporal order survives while question-critical regions gain
resolution.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import Executor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .backends import Backend, chat_request
from .errors import (
    BackendError,
    Doc,
    TreeParseError,
    UnsupportedVersionError,
    ValidationError,
    canonical_json,
    read_json,
)
from .ingest import Shot, nearest_to_centroid

logger = logging.getLogger(__name__)

TREE_SCHEMA_VERSION = "1"
# A loaded tree's shots may span at most this many frames (12 days at 1 FPS).
# A shot is stored as [start, end] but held as a frame tuple, so without a
# bound one corrupt range could ask for terabytes.
MAX_TREE_FRAMES = 1 << 20

KIND_SHOT = "shot"
KIND_CLUSTER = "cluster"

DEFAULT_SCORE = 3.0
KMEANS_MAX_ITER = 100


@dataclass
class RelevanceScore:
    """LLM-assessed shot/question alignment on a 1-5 scale."""

    value: float
    rationale: str = ""
    defaulted: bool = False

    def __post_init__(self) -> None:
        if not 1.0 <= self.value <= 5.0:
            raise ValidationError(f"relevance {self.value} outside [1, 5]")


@dataclass
class TreeNode:
    node_id: int
    kind: str                      # "shot" or "cluster"
    frames: tuple[int, ...]        # sorted member frames (contiguous for shots)
    representative_frame: int
    depth: int
    children: list[int] = field(default_factory=list)
    relevance: RelevanceScore | None = None

    @property
    def start_frame(self) -> int:
        return self.frames[0]

    @property
    def end_frame(self) -> int:
        return self.frames[-1]

    @property
    def num_frames(self) -> int:
        return len(self.frames)


@dataclass
class TreeParams:
    tau: float = 2.5
    k: int = 2
    max_depth: int = 3
    gamma: float = 0.4


@dataclass
class HybridTree:
    video_id: str
    params: TreeParams
    nodes: dict[int, TreeNode]
    shot_order: list[int]

    def shots(self) -> list[TreeNode]:
        return [self.nodes[i] for i in self.shot_order]

    def is_high_relevance(self, node: TreeNode) -> bool:
        return node.relevance is not None and node.relevance.value > self.params.tau

    def leaves_under(self, node_id: int) -> list[TreeNode]:
        """Leaf nodes of the subtree, children visited in stored order."""
        node = self.nodes[node_id]
        if not node.children:
            return [node]
        leaves = []
        for child_id in node.children:
            leaves.extend(self.leaves_under(child_id))
        return leaves

    def num_frames(self) -> int:
        return self.shots()[-1].end_frame + 1 if self.shot_order else 0

    def validate(self) -> None:
        """Raise ValidationError on any structural invariant violation."""
        if not self.shot_order:
            raise ValidationError("tree has no shots")
        prev_end = -1
        for sid in self.shot_order:
            shot = self.nodes[sid]
            if shot.kind != KIND_SHOT:
                raise ValidationError(f"shot_order entry {sid} is not a shot node")
            if shot.start_frame != prev_end + 1:
                raise ValidationError(
                    f"shot {sid} starts at {shot.start_frame}, expected {prev_end + 1}")
            if list(shot.frames) != list(range(shot.start_frame, shot.end_frame + 1)):
                raise ValidationError(f"shot {sid} frames are not contiguous")
            prev_end = shot.end_frame
            self._validate_subtree(shot, shot)

    def _validate_subtree(self, node: TreeNode, owner_shot: TreeNode) -> None:
        if node.representative_frame not in node.frames:
            raise ValidationError(
                f"node {node.node_id} representative not a member frame")
        if node.depth > self.params.max_depth:
            raise ValidationError(f"node {node.node_id} exceeds max depth")
        if node.kind == KIND_CLUSTER and not set(node.frames) <= set(owner_shot.frames):
            raise ValidationError(
                f"cluster {node.node_id} leaks outside shot {owner_shot.node_id}")
        if node.children:
            if node.kind == KIND_SHOT and not self.is_high_relevance(node):
                raise ValidationError(
                    f"shot {node.node_id} expanded without passing the relevance gate")
            child_frames: list[int] = []
            for child_id in node.children:
                child = self.nodes[child_id]
                if child.depth != node.depth + 1:
                    raise ValidationError(f"node {child_id} has wrong depth")
                child_frames.extend(child.frames)
                self._validate_subtree(child, owner_shot)
            if sorted(child_frames) != list(node.frames):
                raise ValidationError(
                    f"children of node {node.node_id} do not partition its frames")


def tree_from_shots(video_id: str, shots: list[Shot],
                    params: TreeParams | None = None) -> HybridTree:
    """Layer-1 tree: one node per shot, in temporal order, no expansion."""
    params = params or TreeParams()
    nodes = {}
    order = []
    for shot in shots:
        node = TreeNode(
            node_id=shot.shot_id,
            kind=KIND_SHOT,
            frames=tuple(range(shot.start_frame, shot.end_frame + 1)),
            representative_frame=shot.representative_frame,
            depth=1,
        )
        nodes[node.node_id] = node
        order.append(node.node_id)
    return HybridTree(video_id=video_id, params=params, nodes=nodes,
                      shot_order=order)


# ---------------------------------------------------------------------------
# Relevance scoring
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"(\d+(?:\.\d+)?)")


def _parse_score(text: str) -> float | None:
    m = _NUMBER.search(text)
    if not m:
        return None
    value = float(m.group(1))
    return value if 1.0 <= value <= 5.0 else None


def scoring_prompt(caption: str, question: str, shot: Shot) -> str:
    return (
        "Rate how relevant this video segment is to the question on a scale "
        "of 1 (irrelevant) to 5 (essential). Respond with a single number.\n"
        f"Question: {question}\n"
        f"Segment {shot.shot_id} (frames {shot.start_frame}-{shot.end_frame}) "
        f"caption: {caption}\n"
        "Relevance:"
    )


def score_shots(shots: list[Shot], captions: list[str], question: str,
                llm: Backend, pool: Executor) -> list[RelevanceScore]:
    """Score each shot against the question via the chat backend, fanning
    the calls out on `pool`.

    Unparseable replies are retried once, then default to 3.0 with the
    defaulted flag set. Transport failures carry the shot id.
    """
    if len(captions) != len(shots):
        raise ValidationError(
            f"need one caption per shot: {len(captions)} captions, {len(shots)} shots")

    def score_one(item: tuple[Shot, str]) -> RelevanceScore:
        shot, caption = item
        prompt = scoring_prompt(caption, question, shot)
        try:
            reply = llm.call(chat_request(prompt))
            value = _parse_score(reply)
            if value is None:
                reply = llm.call(chat_request(prompt))
                value = _parse_score(reply)
        except BackendError as exc:
            raise BackendError(f"scoring shot {shot.shot_id} failed: {exc}") from exc
        if value is None:
            logger.warning("shot %d: unparseable relevance %r, defaulting to %.1f",
                           shot.shot_id, reply[:80], DEFAULT_SCORE)
            return RelevanceScore(DEFAULT_SCORE, rationale=reply[:200],
                                  defaulted=True)
        return RelevanceScore(value, rationale=reply[:200])

    return list(pool.map(score_one, zip(shots, captions)))


def attach_scores(tree: HybridTree, scores: list[RelevanceScore]) -> None:
    if len(scores) != len(tree.shot_order):
        raise ValidationError("one score per shot required")
    for sid, score in zip(tree.shot_order, scores):
        tree.nodes[sid].relevance = score


# ---------------------------------------------------------------------------
# K-Means
# ---------------------------------------------------------------------------

def kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Cluster points into k groups; returns an assignment per point.

    Deterministic given the seed: the first center is drawn from the seeded
    RNG, the rest by farthest-point selection; Lloyd iterations run until
    assignments stabilize or 100 rounds. With n <= k each point is its own
    cluster. Empty clusters are repaired by stealing the farthest point
    from the largest cluster.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n == 0:
        raise ValidationError("kmeans needs at least one point")
    if k < 1:
        raise ValidationError("k must be >= 1")
    if n <= k:
        return np.arange(n, dtype=np.int64)

    rng = np.random.default_rng(seed)
    centers = _farthest_point_init(pts, k, rng)
    assign = _assign(pts, centers)
    for _ in range(KMEANS_MAX_ITER):
        centers = _update_centers(pts, assign, centers, k)
        assign, prev = _assign(pts, centers), assign
        assign = _repair_empty(pts, assign, centers, k)
        if np.array_equal(assign, prev):
            break
    return assign


def _farthest_point_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    first = int(rng.integers(0, pts.shape[0]))
    chosen = [first]
    min_d = np.linalg.norm(pts - pts[first], axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(min_d))  # argmax breaks ties at the lowest index
        chosen.append(nxt)
        min_d = np.minimum(min_d, np.linalg.norm(pts - pts[nxt], axis=1))
    return pts[chosen].copy()


def _assign(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2)
    return np.argmin(d, axis=1)


def _update_centers(pts: np.ndarray, assign: np.ndarray, centers: np.ndarray,
                    k: int) -> np.ndarray:
    out = centers.copy()
    for c in range(k):
        members = pts[assign == c]
        if members.shape[0]:
            out[c] = members.mean(axis=0)
    return out


def _repair_empty(pts: np.ndarray, assign: np.ndarray, centers: np.ndarray,
                  k: int) -> np.ndarray:
    assign = assign.copy()
    for c in range(k):
        if np.any(assign == c):
            continue
        sizes = np.bincount(assign, minlength=k)
        donor = int(np.argmax(sizes))
        member_idx = np.flatnonzero(assign == donor)
        d = np.linalg.norm(pts[member_idx] - centers[donor], axis=1)
        assign[member_idx[int(np.argmax(d))]] = c
    return assign


# ---------------------------------------------------------------------------
# Selective expansion
# ---------------------------------------------------------------------------

def _node_seed(master_seed: int, node_id: int) -> int:
    return int(np.random.SeedSequence([master_seed, node_id]).generate_state(1)[0])


def expand_tree(tree: HybridTree, embeddings: np.ndarray, seed: int) -> HybridTree:
    """Grow sub-event clusters under every shot that passes the relevance
    gate (value > tau, strict). The shot itself always gets its first split;
    recursion on a child stops at max_depth or below 2k frames.
    Low-relevance shots stay leaves."""
    unscored = [sid for sid in tree.shot_order if tree.nodes[sid].relevance is None]
    if unscored:
        raise ValidationError(f"shots not yet scored: {unscored[:5]}")
    for sid in list(tree.shot_order):
        shot = tree.nodes[sid]
        if tree.is_high_relevance(shot):
            _expand_node(tree, shot, embeddings, seed, force=True)
    return tree


def _expand_node(tree: HybridTree, node: TreeNode, embeddings: np.ndarray,
                 seed: int, force: bool = False) -> None:
    k = tree.params.k
    if node.depth >= tree.params.max_depth or node.num_frames < 2:
        return
    if not force and node.num_frames < 2 * k:
        return
    frames = np.array(node.frames, dtype=np.int64)
    assign = kmeans(embeddings[frames], k, _node_seed(seed, node.node_id))
    groups = [frames[assign == c] for c in range(int(assign.max()) + 1)]
    groups = [g for g in groups if g.size]
    groups.sort(key=lambda g: int(g.min()))

    next_id = max(tree.nodes) + 1
    for group in groups:
        rep = int(group[nearest_to_centroid(embeddings[group])])
        child = TreeNode(
            node_id=next_id,
            kind=KIND_CLUSTER,
            frames=tuple(int(f) for f in group),
            representative_frame=rep,
            depth=node.depth + 1,
        )
        tree.nodes[next_id] = child
        node.children.append(next_id)
        next_id += 1
    for child_id in list(node.children):
        _expand_node(tree, tree.nodes[child_id], embeddings, seed)


# ---------------------------------------------------------------------------
# Multi-scale retrieval
# ---------------------------------------------------------------------------

def vtsearch(tree: HybridTree) -> list[int]:
    """Pick frames to caption, adapting to how relevance is distributed.

    When the fraction of high-relevance shots exceeds gamma the question
    needs global context: return every shot's representative (breadth). When
    relevance concentrates in a few shots, return the deepest-layer
    representatives inside those shots (depth). No high-relevance shots at
    all falls back to breadth.
    """
    shots = tree.shots()
    high = [s for s in shots if tree.is_high_relevance(s)]
    if not high or len(high) / len(shots) > tree.params.gamma:
        return [s.representative_frame for s in shots]
    frames = []
    for shot in high:
        leaves = tree.leaves_under(shot.node_id)
        frames.extend(sorted(leaf.representative_frame for leaf in leaves))
    return frames


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_tree(tree: HybridTree) -> dict:
    nodes = []
    for node_id in sorted(tree.nodes):
        node = tree.nodes[node_id]
        doc: dict[str, Any] = {
            "id": node.node_id,
            "kind": node.kind,
            "frames": ([node.start_frame, node.end_frame]
                       if node.kind == KIND_SHOT else list(node.frames)),
            "rep": node.representative_frame,
            "depth": node.depth,
            "children": list(node.children),
        }
        if node.relevance is not None:
            doc["relevance"] = {
                "value": node.relevance.value,
                "rationale": node.relevance.rationale,
                "defaulted": node.relevance.defaulted,
            }
        nodes.append(doc)
    return {
        "version": TREE_SCHEMA_VERSION,
        "video_id": tree.video_id,
        "params": {
            "tau": tree.params.tau,
            "k": tree.params.k,
            "max_depth": tree.params.max_depth,
            "gamma": tree.params.gamma,
        },
        "nodes": nodes,
        "shot_order": list(tree.shot_order),
    }


def tree_to_json(tree: HybridTree) -> str:
    """Deterministic rendering: identical trees serialize byte-identically."""
    return canonical_json(serialize_tree(tree))


def deserialize_tree(doc: Any, source: str = "tree") -> HybridTree:
    """The tree a document holds; TreeParseError names the field at fault."""
    root = Doc(doc, TreeParseError, source)
    version = root.string("version")
    if version != TREE_SCHEMA_VERSION:
        root.fail(f"unsupported tree schema version {version!r}", "version",
                  UnsupportedVersionError)
    params_doc = root.obj("params")
    params = TreeParams(tau=params_doc.number("tau"), k=params_doc.integer("k"),
                        max_depth=params_doc.integer("max_depth"),
                        gamma=params_doc.number("gamma"))
    node_docs = root.objects("nodes")
    nodes: dict[int, TreeNode] = {}
    shot_frames = 0
    for node_doc in node_docs:
        node_id = node_doc.integer("id")
        kind = node_doc.enum("kind", (KIND_SHOT, KIND_CLUSTER))
        frames = node_doc.integers("frames")
        if kind == KIND_SHOT:
            if len(frames) != 2:
                node_doc.fail("shot frames must be [start, end]", "frames")
            shot_frames += max(0, frames[1] + 1 - frames[0])
            if shot_frames > MAX_TREE_FRAMES:
                node_doc.fail(f"shots span more than {MAX_TREE_FRAMES} frames",
                              "frames")
            frames = range(frames[0], frames[1] + 1)
        if not frames:
            node_doc.fail("no frames (an empty cluster or a reversed shot)",
                          "frames")
        rel_doc = node_doc.obj("relevance", None)
        relevance = None if rel_doc is None else RelevanceScore(
            value=rel_doc.number("value"),
            rationale=rel_doc.string("rationale", ""),
            defaulted=rel_doc.boolean("defaulted", False))
        nodes[node_id] = TreeNode(
            node_id=node_id,
            kind=kind,
            frames=tuple(frames),
            representative_frame=node_doc.integer("rep"),
            depth=node_doc.integer("depth"),
            children=node_doc.integers("children"),
            relevance=relevance,
        )
    for node_doc in node_docs:
        for child_id in node_doc.value["children"]:
            if child_id not in nodes:
                node_doc.fail(f"unknown node id {child_id}", "children")
    shot_order = root.integers("shot_order")
    for sid in shot_order:
        if sid not in nodes:
            root.fail(f"unknown node id {sid}", "shot_order")
    if len(set(shot_order)) != len(shot_order):
        root.fail("a node id is listed twice", "shot_order")
    return HybridTree(video_id=root.string("video_id"), params=params,
                      nodes=nodes, shot_order=shot_order)


def load_tree(path: str | Path) -> HybridTree:
    """Read, parse and validate a tree file."""
    tree = deserialize_tree(read_json(path, "tree file", TreeParseError),
                            str(path))
    tree.validate()
    return tree
