"""Shot-rooted hierarchical video tree.

Layer 1 is the temporally ordered shot sequence, and the tree owns it: each
shot that `ingest.detect_shots` finds, a range of frames, becomes a shot
node whose representative is its frame nearest the shot's embedding
centroid, and relevance scores are set on these nodes. Shots whose
relevance to the question exceeds tau are expanded in place with K-Means
sub-event clusters, recursively, down to max_depth. Low-relevance shots
stay leaves, so global temporal order survives while question-critical
regions gain resolution.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Protocol, Sequence

from . import np
from .backends import Backend, chat_request
from .errors import (
    BackendError,
    Doc,
    ValidationError,
    canonical_json,
    read_doc,
)

logger = logging.getLogger(__name__)

TREE_SCHEMA_VERSION = "1"
# A loaded tree's shots may span at most this many frames (12 days at 1 FPS).
# A shot is held as a range, so a long one costs no memory; the bound keeps
# the frame indices a build file names within a video's length.
MAX_TREE_FRAMES = 1 << 20

KIND_SHOT = "shot"
KIND_CLUSTER = "cluster"

DEFAULT_SCORE = 3.0
KMEANS_MAX_ITER = 100


class Rows(Protocol):
    """A video's embedding rows, read a run of frames at a time: `rows[a:b]`
    is frames a..b-1's rows as a float32 array. An ndarray is one; so is the
    embeddings-file reader of `ingest`, which reads each run from the file."""

    def __getitem__(self, frames: slice, /) -> np.ndarray: ...


@dataclass
class RelevanceScore:
    """LLM-assessed shot/question alignment on a 1-5 scale."""

    value: float
    rationale: str = ""
    defaulted: bool = False


@dataclass
class TreeNode:
    node_id: int
    kind: str                      # "shot" or "cluster"
    frames: Sequence[int]          # a shot's range; a cluster's sorted tuple
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
    tau: float
    k: int
    max_depth: int
    gamma: float


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

    @cached_property
    def _shot_starts(self) -> list[int]:
        return [self.nodes[sid].start_frame for sid in self.shot_order]

    def shot_at(self, frame: int) -> TreeNode | None:
        """The shot node holding `frame`, or None past either end. Shots run
        in order with no gaps (see `validate`), so this bisects their first
        frames, listed once per tree: a tree's shots never change once it
        exists, since expansion adds only clusters."""
        i = bisect_right(self._shot_starts, frame)
        shot = self.nodes[self.shot_order[i - 1]] if i else None
        return shot if shot and frame <= shot.end_frame else None

    def validate(self) -> None:
        """Raise ValidationError on any structural invariant violation. The
        walk from `shot_order` must reach every node, and every child be a
        cluster node; the depth, leak and partition checks then make each
        node's reach unique."""
        if not self.shot_order:
            raise ValidationError("tree has no shots")
        reached: set[int] = set()
        prev_end = -1
        for sid in self.shot_order:
            shot = self.nodes[sid]
            if shot.kind != KIND_SHOT:
                raise ValidationError(f"shot_order entry {sid} is not a shot node")
            if shot.start_frame != prev_end + 1:
                raise ValidationError(
                    f"shot {sid} starts at {shot.start_frame}, expected {prev_end + 1}")
            prev_end = shot.end_frame
            self._validate_subtree(shot, shot, reached)
        if len(reached) != len(self.nodes):
            stray = min(self.nodes.keys() - reached)
            raise ValidationError(f"node {stray} is reached from no shot")

    def _validate_subtree(self, node: TreeNode, owner_shot: TreeNode,
                          reached: set[int]) -> None:
        reached.add(node.node_id)
        if node.representative_frame not in node.frames:
            raise ValidationError(
                f"node {node.node_id} representative not a member frame")
        if node.depth > self.params.max_depth:
            raise ValidationError(f"node {node.node_id} exceeds max depth")
        if node.kind == KIND_CLUSTER and not all(
                frame in owner_shot.frames for frame in node.frames):
            raise ValidationError(
                f"cluster {node.node_id} leaks outside shot {owner_shot.node_id}")
        if node.children:
            if node.kind == KIND_SHOT and not self.is_high_relevance(node):
                raise ValidationError(
                    f"shot {node.node_id} expanded without passing the relevance gate")
            child_frames: list[int] = []
            for child_id in node.children:
                child = self.nodes[child_id]
                if child.kind != KIND_CLUSTER:
                    raise ValidationError(f"child {child_id} of node "
                                          f"{node.node_id} is not a cluster")
                if child.depth != node.depth + 1:
                    raise ValidationError(f"node {child_id} has wrong depth")
                child_frames.extend(child.frames)
                self._validate_subtree(child, owner_shot, reached)
            if sorted(child_frames) != list(node.frames):
                raise ValidationError(
                    f"children of node {node.node_id} do not partition its frames")


def tree_from_shots(video_id: str, shots: list[range], embeddings: Rows,
                    params: TreeParams) -> HybridTree:
    """Layer-1 tree: shot node i holds the i-th range of frames, in temporal
    order, represented by its frame nearest the centroid; no expansion. Each
    shot's rows are read once, and let go before the next shot's."""
    nodes = {}
    for shot_id, frames in enumerate(shots):
        rep = frames.start + nearest_to_centroid(
            embeddings[frames.start:frames.stop])
        nodes[shot_id] = TreeNode(
            node_id=shot_id,
            kind=KIND_SHOT,
            frames=frames,
            representative_frame=rep,
            depth=1,
        )
    return HybridTree(video_id=video_id, params=params, nodes=nodes,
                      shot_order=list(nodes))


def nearest_to_centroid(rows: np.ndarray) -> int:
    """Index (within rows) of the row nearest the arithmetic mean; ties go
    to the lowest index."""
    centroid = rows.mean(axis=0)
    dists = np.linalg.norm(rows - centroid, axis=1)
    return int(np.argmin(dists))


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


def scoring_prompt(caption: str, question: str, shot: TreeNode) -> str:
    return (
        "Rate how relevant this video segment is to the question on a scale "
        "of 1 (irrelevant) to 5 (essential). Respond with a single number.\n"
        f"Question: {question}\n"
        f"Segment {shot.node_id} (frames {shot.start_frame}-{shot.end_frame}) "
        f"caption: {caption}\n"
        "Relevance:"
    )


def score_shots(shot: TreeNode, caption: str, question: str,
                llm: Backend) -> RelevanceScore:
    """Score one shot node against the question from its first-pass
    caption via the chat backend; the caller sets the score, in shot order.

    An unparseable reply is retried once, then defaults to 3.0 with the
    defaulted flag set. A transport failure carries the shot id."""
    prompt = scoring_prompt(caption, question, shot)
    try:
        reply = llm.call(chat_request(prompt))
        value = _parse_score(reply)
        if value is None:
            reply = llm.call(chat_request(prompt))
            value = _parse_score(reply)
    except BackendError as exc:
        raise BackendError(f"scoring shot {shot.node_id} failed: {exc}") from exc
    if value is None:
        logger.warning("shot %d: unparseable relevance %r, defaulting to %.1f",
                       shot.node_id, reply[:80], DEFAULT_SCORE)
        return RelevanceScore(DEFAULT_SCORE, rationale=reply[:200],
                              defaulted=True)
    return RelevanceScore(value, rationale=reply[:200])


# ---------------------------------------------------------------------------
# K-Means
# ---------------------------------------------------------------------------

def kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Cluster points into k groups; returns an assignment per point.

    Deterministic given the seed: the first center is the index
    `numpy.random.default_rng(seed).integers(0, n)` draws (PCG64 seeded
    through SeedSequence, reproduced in pure Python by `_randint`), the rest
    come by farthest-point selection; Lloyd iterations run until
    assignments stabilize or 100 rounds. With n <= k each point is its own
    cluster. Empty clusters are repaired by stealing the farthest point
    from the largest cluster.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n <= k:
        return np.arange(n, dtype=np.int64)

    centers = _farthest_point_init(pts, k, _randint(seed, n))
    assign = _assign(pts, centers)
    for _ in range(KMEANS_MAX_ITER):
        centers = _update_centers(pts, assign, centers, k)
        assign, prev = _assign(pts, centers), assign
        assign = _repair_empty(pts, assign, centers, k)
        if np.array_equal(assign, prev):
            break
    return assign


def _farthest_point_init(pts: np.ndarray, k: int, first: int) -> np.ndarray:
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

# numpy.random's seeding, bit for bit, so a build need not load numpy.random
# (which imports hashlib and OpenSSL's libcrypto) for two integers per
# K-Means call. Constants from numpy's SeedSequence and PCG64.
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _node_seed(master_seed: int, node_id: int) -> int:
    """`SeedSequence([master_seed, node_id]).generate_state(1)[0]`."""
    return _seed_sequence((master_seed, node_id), 1)[0]


def _seed_sequence(entropy: tuple[int, ...], n_words: int) -> list[int]:
    """`numpy.random.SeedSequence(entropy).generate_state(n_words)` for
    non-negative ints: each is split into little-endian uint32 words, hashed
    into a pool of four, and the pool hashed out into n_words words."""
    words = []
    for value in entropy:
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b = 0x8B51F9DD
    state = []
    for i in range(n_words):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _MASK32
        value = value * hash_b & _MASK32
        state.append(value ^ value >> 16)
    return state


def _randint(seed: int, n: int) -> int:
    """`numpy.random.default_rng(seed).integers(0, n)` for 0 < n <= 2**32:
    Lemire's bounded draw over PCG64's uint32 stream, which takes the low,
    then the high half of each 64-bit XSL-RR output."""
    w = _seed_sequence((seed,), 8)
    u = [w[i] | w[i + 1] << 32 for i in range(0, 8, 2)]  # little-endian uint64s
    initstate, initseq = u[0] << 64 | u[1], u[2] << 64 | u[3]
    inc = (initseq << 1 | 1) & _MASK128
    # PCG's seeding: one step from state 0, add initstate, one more step.
    state = ((inc + initstate) * _PCG64_MULT + inc) & _MASK128
    threshold = (1 << 32) % n  # low residues below it are biased: draw again
    while True:
        state = (state * _PCG64_MULT + inc) & _MASK128
        rot = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        out = (x >> rot | x << (64 - rot)) & _MASK64
        for half in (out & _MASK32, out >> 32):
            m = half * n
            if m & _MASK32 >= threshold:
                return m >> 32


def expand_tree(tree: HybridTree, embeddings: Rows, seed: int,
                shots: Sequence[int]) -> HybridTree:
    """Grow sub-event clusters under each of `shots` (node ids) that passes
    the relevance gate (value > tau, strict). The shot itself always gets
    its first split; recursion on a child stops at max_depth or below 2k
    frames. Low-relevance shots stay leaves, and only an expanded shot's
    rows are read, once, for its whole subtree.

    New nodes take the next free ids, so shots expanded one call at a time
    in shot order get the ids, and the K-Means seeds, of one call over all
    of them."""
    for sid in shots:
        shot = tree.nodes[sid]
        if tree.is_high_relevance(shot):
            frames = shot.frames  # a shot's frames are a range
            _expand_node(tree, shot, embeddings[frames.start:frames.stop],
                         frames.start, seed, force=True)
    return tree


def _expand_node(tree: HybridTree, node: TreeNode, rows: np.ndarray,
                 first: int, seed: int, force: bool = False) -> None:
    """Split `node`, and its children in turn; `rows` are the embedding rows
    of its shot, whose first frame is `first`."""
    k = tree.params.k
    if node.depth >= tree.params.max_depth or node.num_frames < 2:
        return
    if not force and node.num_frames < 2 * k:
        return
    frames = np.array(node.frames, dtype=np.int64)
    assign = kmeans(rows[frames - first], k, _node_seed(seed, node.node_id))
    groups = [frames[assign == c] for c in range(int(assign.max()) + 1)]
    groups.sort(key=lambda g: int(g.min()))

    next_id = max(tree.nodes) + 1
    for group in groups:
        rep = int(group[nearest_to_centroid(rows[group - first])])
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
        _expand_node(tree, tree.nodes[child_id], rows, first, seed)


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


def deserialize_tree(root: Doc) -> HybridTree:
    """The tree `root` holds; a fault raises its error, naming the field."""
    version = root.string("version")
    if version != TREE_SCHEMA_VERSION:
        root.fail(f"unsupported tree schema version {version!r}", "version")
    params_doc = root.obj("params")
    params = TreeParams(tau=params_doc.number("tau"), k=params_doc.integer("k"),
                        max_depth=params_doc.integer("max_depth"),
                        gamma=params_doc.number("gamma"))
    node_docs = root.objects("nodes")
    nodes: dict[int, TreeNode] = {}
    shot_frames = 0
    for node_doc in node_docs:
        node_id = node_doc.integer("id")
        if node_id in nodes:
            node_doc.fail(f"duplicate node id {node_id}", "id")
        kind = node_doc.enum("kind", (KIND_SHOT, KIND_CLUSTER))
        frames = node_doc.integers("frames")
        if kind == KIND_SHOT:
            if len(frames) != 2:
                node_doc.fail("shot frames must be [start, end]", "frames")
            shot_frames += frames[1] + 1 - frames[0]
            if shot_frames > MAX_TREE_FRAMES:
                node_doc.fail(f"shots span more than {MAX_TREE_FRAMES} frames",
                              "frames")
            frames = range(frames[0], frames[1] + 1)
        if not frames:
            node_doc.fail("no frames (an empty cluster or a reversed shot)",
                          "frames")
        rel_doc = node_doc.obj("relevance", None)
        relevance = None
        if rel_doc is not None:
            value = rel_doc.number("value")
            if not 1.0 <= value <= 5.0:
                rel_doc.fail(f"must be in [1, 5], got {value}", "value")
            relevance = RelevanceScore(
                value=value, rationale=rel_doc.string("rationale", ""),
                defaulted=rel_doc.boolean("defaulted", False))
        nodes[node_id] = TreeNode(
            node_id=node_id,
            kind=kind,
            frames=frames if kind == KIND_SHOT else tuple(frames),
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
    tree = deserialize_tree(read_doc(path, "tree file", ValidationError))
    tree.validate()
    return tree
