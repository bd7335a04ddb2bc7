"""Knowledge store and per-question-type agent profiles.

The store wraps one video's tree with its captions and summaries, is built
once from all of them, and answers type-aware retrievals at three scopes:
the temporal index, moment captions, and segment summaries. A retrieval's
text is paged by whole rows, `PAGE_ROWS` at a time and in shot order, so one
observation stays bounded however long the video is; every scope takes an
`offset` selector key to read the later pages. Profiles are declarative
JSON documents bundling a reasoning strategy, tool list, and evidence
weights per type.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from .captioning import (
    QTYPE_CAUSAL,
    QTYPE_DESCRIPTIVE,
    QTYPE_TEMPORAL,
    QTYPES,
    FrameCaption,
    SegmentSummary,
)
from .errors import (
    ConfigError,
    Doc,
    NotFoundError,
    ValidationError,
    canonical_json,
    read_doc,
    read_json,
)
from .tree import HybridTree, TreeNode, deserialize_tree, serialize_tree

SCOPE_TEMPORAL_INDEX = "temporal_index"
SCOPE_MOMENT_CAPTIONS = "moment_captions"
SCOPE_SEGMENT_SUMMARIES = "segment_summaries"
RETRIEVAL_SCOPES = (SCOPE_TEMPORAL_INDEX, SCOPE_MOMENT_CAPTIONS,
                    SCOPE_SEGMENT_SUMMARIES)
TOOL_INSPECT_FRAME = "inspect_frame"
KNOWN_TOOLS = RETRIEVAL_SCOPES + (TOOL_INSPECT_FRAME,)
# Rows one retrieval observation shows. Every ReAct step resends the whole
# transcript, so an uncut observation of a long video would be paid again at
# every later step. From 8 rows up, every golden observation fits on a page.
PAGE_ROWS = 20
BUILD_VERSION = "4"


# ---------------------------------------------------------------------------
# Agent profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Strategy:
    name: str
    instructions: str


@dataclass(frozen=True)
class AgentProfile:
    qtype: str
    strategy: Strategy
    tools: tuple[str, ...]
    weights: dict[str, float]          # {"text": w, "visual": w}, sums to 1
    requires_visual_agent: bool

    @classmethod
    def from_doc(cls, doc: Any, source: str = "profile") -> "AgentProfile":
        root = Doc(doc, ConfigError, source)
        qtype = root.enum("qtype", QTYPES)
        strategy = root.obj("strategy")
        tools = root.strings("tools", [])
        for i, tool in enumerate(tools):
            if tool not in KNOWN_TOOLS:
                root.fail(f"unknown tool {tool!r} (known: {', '.join(KNOWN_TOOLS)})",
                          f"tools/{i}")
        weights_doc = root.obj("weights")
        weights = {}
        for key in weights_doc.value:
            if key not in ("text", "visual"):
                weights_doc.fail("is not a known evidence source", key)
            weights[key] = weights_doc.number(key)
            if weights[key] < 0:
                weights_doc.fail(f"must be >= 0, got {weights[key]}", key)
        total = sum(weights.values())
        if not total > 0:
            root.fail("must sum to a positive value", "weights")
        return cls(
            qtype=qtype,
            strategy=Strategy(name=strategy.string("name", nonempty=True),
                              instructions=strategy.string("instructions", "")),
            tools=tuple(tools),
            weights={k: v / total for k, v in weights.items()},
            requires_visual_agent=root.boolean("requires_visual_agent", True),
        )


def builtin_profiles() -> dict[str, AgentProfile]:
    docs = {
        QTYPE_CAUSAL: {
            "qtype": QTYPE_CAUSAL,
            "strategy": {
                "name": "bidirectional_temporal_search",
                "instructions": (
                    "Search backward for action triggers and forward for action "
                    "consequences; judge causal direction from the semantics of "
                    "the evidence, not temporal proximity alone."),
            },
            "tools": list(KNOWN_TOOLS),
            "weights": {"text": 0.5, "visual": 0.5},
            "requires_visual_agent": True,
        },
        QTYPE_TEMPORAL: {
            "qtype": QTYPE_TEMPORAL,
            "strategy": {
                "name": "ordered_event_reconstruction",
                "instructions": (
                    "Reconstruct the order of events from the temporal index and "
                    "segment summaries before judging any before/after claim."),
            },
            "tools": list(KNOWN_TOOLS),
            "weights": {"text": 0.7, "visual": 0.3},
            "requires_visual_agent": True,
        },
        QTYPE_DESCRIPTIVE: {
            "qtype": QTYPE_DESCRIPTIVE,
            "strategy": {
                "name": "attribute_grounding",
                "instructions": (
                    "Ground every claimed attribute, object, or location in a "
                    "caption or summary; static questions need no temporal chain."),
            },
            "tools": list(KNOWN_TOOLS),
            "weights": {"text": 0.3, "visual": 0.7},
            "requires_visual_agent": False,
        },
    }
    return {qtype: AgentProfile.from_doc(doc) for qtype, doc in docs.items()}


def load_profiles(config_dir: str | Path | None) -> dict[str, AgentProfile]:
    """One profile per type; files named <qtype>.json override the
    built-in defaults."""
    profiles = builtin_profiles()
    if config_dir is None:
        return profiles
    directory = Path(config_dir)
    for qtype in QTYPES:
        path = directory / f"{qtype.lower()}.json"
        try:
            doc = read_json(path, "profile", ConfigError)
        except NotFoundError:
            continue
        profile = AgentProfile.from_doc(doc, str(path))
        if profile.qtype != qtype:
            raise ConfigError(
                f"profile field qtype in {path.name} is {profile.qtype}, "
                f"expected {qtype}")
        profiles[qtype] = profile
    return profiles


# ---------------------------------------------------------------------------
# Knowledge store
# ---------------------------------------------------------------------------

@dataclass
class RetrievalResult:
    """One page of a retrieval: the selected rows from `offset` on, at most
    `PAGE_ROWS` of them, and the count of rows selected."""

    scope: str
    degraded: bool
    rows: list[dict]
    offset: int
    selected: int

    def as_text(self) -> str:
        """The page's rows, one per line. A cut page ends with a line naming
        the rows left and the offset that reads on; an offset past the end
        gives the empty observation and the row count."""
        if not self.rows:
            empty = f"({self.scope}: no entries)"
            if self.offset:
                empty += (f" {self.selected} rows; offset {self.offset} "
                          "is past the end")
            return empty
        lines = []
        for row in self.rows:
            parts = [f"{k}={row[k]}" for k in sorted(row)]
            lines.append("  ".join(parts))
        end = self.offset + len(self.rows)
        if self.selected > end:
            lines.append(f'{self.selected - end} more rows; pass '
                         f'{{"offset": {end}}}')
        prefix = "[degraded: generic captions] " if self.degraded else ""
        return prefix + "\n".join(lines)


def _page(scope: str, degraded: bool, keys: Sequence[int], lo: int, hi: int,
          offset: int, row: Callable[[int], dict]) -> RetrievalResult:
    """The page at `offset` of the selection `keys[lo:hi]`: `row` builds the
    rows of the page's keys alone."""
    start = lo + offset
    page = keys[start:min(hi, start + PAGE_ROWS)]
    return RetrievalResult(scope, degraded, [row(key) for key in page],
                           offset, max(0, hi - lo))


@dataclass
class KnowledgeStore:
    """Retrieval surface over one video, built once: the constructor sorts
    every index, and nothing writes a store after it.

    Retrieval is indexed: a selector becomes a frame interval, a few bisects
    turn it into a run of sorted keys, and only the rows of the page shown
    are built. So a retrieval costs O(log n + PAGE_ROWS) however long the
    video; a selector that lists shot ids also costs its length. The
    tree answers which shot holds a frame.
    """

    tree: HybridTree
    fps: float = 1.0
    frame_paths: dict[int, str] = field(default_factory=dict)
    first_pass: dict[int, str] = field(default_factory=dict)
    captions: dict[tuple[int, str], FrameCaption] = field(default_factory=dict)
    summaries: dict[tuple[int, str], SegmentSummary] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # In frame order: per type, its captions' frames and the first
        # frames of the shots it has summaries of (a key for each type with
        # any); and the first frames of the shots with first-pass text.
        def start(shot_id: int) -> int:
            return _shot_by_id(self.tree, shot_id).start_frame

        self._caption_frames = _by_type(self.captions, lambda frame: frame)
        self._summary_starts = _by_type(self.summaries, start)
        self._first_pass_frames = sorted(map(start, self.first_pass))

    def frame_ref(self, frame_index: int) -> str:
        """The reference a model call names a frame by: its image path, or
        `<video>:frame:<i>` when it has none (mock scripts match on the
        latter). NotFoundError for a frame that falls outside every shot,
        so no caption call is made for it."""
        _owner_shot_id(self.tree, frame_index)
        return (self.frame_paths.get(frame_index)
                or f"{self.tree.video_id}:frame:{frame_index}")

    def retrieve(self, scope: str, qtype: str,
                 selector: dict | None = None) -> RetrievalResult:
        """Pure read at one of the three scopes. A store not populated for
        the requested type falls back to the generic first-pass captions
        with degraded=True. The result holds the page of selected rows that
        starts at the selector's `offset` (default 0, any scope), and how
        many rows were selected. A selector key of another type than the
        README's raises ValidationError."""
        selector = Doc(selector or {}, ValidationError, scope)
        offset = selector.integer("offset", 0)
        if offset < 0:
            selector.fail(f"must be >= 0, got {offset}", "offset")
        if scope == SCOPE_TEMPORAL_INDEX:
            return self._temporal_index(offset)
        if scope == SCOPE_MOMENT_CAPTIONS:
            return self._moment_captions(qtype, selector, offset)
        return self._segment_summaries(qtype, selector, offset)

    def _temporal_index(self, offset: int) -> RetrievalResult:
        def row(shot_id: int) -> dict:
            shot = self.tree.nodes[shot_id]
            return {
                "shot_id": shot.node_id,
                "node_id": shot.node_id,
                "start_s": shot.start_frame / self.fps,
                "end_s": (shot.end_frame + 1) / self.fps,
                "relevance": (shot.relevance.value
                              if shot.relevance is not None else None),
            }

        order = self.tree.shot_order
        return _page(SCOPE_TEMPORAL_INDEX, False, order, 0, len(order), offset,
                     row)

    def _selected_interval(self, selector: Doc) -> tuple[int, int] | None:
        """The frames a selector names, as [first, last]; a model-chosen
        range is never expanded, so its size costs nothing."""
        if "shot_id" in selector.value:
            shot = _shot_by_id(self.tree, selector.integer("shot_id"))
            return shot.start_frame, shot.end_frame
        if "frame_range" in selector.value:
            bounds = selector.integers("frame_range")
            if len(bounds) != 2:
                selector.fail(f"expected two ints, got {len(bounds)}",
                              "frame_range")
            return bounds[0], bounds[1]
        return None

    def _moment_captions(self, qtype: str, selector: Doc,
                         offset: int) -> RetrievalResult:
        interval = self._selected_interval(selector)
        frames = self._caption_frames.get(qtype)
        if not frames:
            return self._first_pass_page(SCOPE_MOMENT_CAPTIONS, interval, offset)
        first, last = interval or (frames[0], frames[-1])

        def row(frame: int) -> dict:
            return {"frame": frame, "node_id": _owner_shot_id(self.tree, frame),
                    "text": self.captions[(frame, qtype)].text}

        return _page(SCOPE_MOMENT_CAPTIONS, False, frames,
                     bisect_left(frames, first), bisect_right(frames, last),
                     offset, row)

    def _segment_summaries(self, qtype: str, selector: Doc,
                           offset: int) -> RetrievalResult:
        shot_ids = selector.integers("shot_ids", None)
        if shot_ids is None and "shot_id" in selector.value:
            shot_ids = [selector.integer("shot_id")]
        degraded = qtype not in self._summary_starts
        if shot_ids is None:
            starts = (self._first_pass_frames if degraded
                      else self._summary_starts[qtype])
        else:
            # Each selected shot once, in shot order.
            shots = [_shot_by_id(self.tree, s) for s in shot_ids]
            starts = sorted({shot.start_frame for shot in shots
                             if (shot.node_id in self.first_pass if degraded
                                 else (shot.node_id, qtype) in self.summaries)})

        def row(start: int) -> dict:
            shot_id = self.tree.shot_at(start).node_id
            return {"shot_id": shot_id, "node_id": shot_id,
                    "text": self.summaries[(shot_id, qtype)].text}

        return _page(SCOPE_SEGMENT_SUMMARIES, degraded, starts, 0, len(starts),
                     offset, self._first_pass_row if degraded else row)

    def _first_pass_page(self, scope: str, interval: tuple[int, int] | None,
                         offset: int) -> RetrievalResult:
        """First-pass captions of the shots that overlap `interval`, in shot
        order; every shot when it is None. The shots run in frame order, so
        they are those from the one holding its first frame, or starting
        after it, to the last starting by its last."""
        starts = self._first_pass_frames
        lo, hi = 0, len(starts)
        if interval is not None:
            first, last = interval
            shot = self.tree.shot_at(first)
            lo = bisect_left(starts, shot.start_frame if shot else first)
            hi = bisect_right(starts, last) if first <= last else lo
        return _page(scope, True, starts, lo, hi, offset, self._first_pass_row)

    def _first_pass_row(self, start: int) -> dict:
        shot_id = self.tree.shot_at(start).node_id
        return {"shot_id": shot_id, "node_id": shot_id,
                "text": self.first_pass[shot_id]}

    # -- sidecar ------------------------------------------------------------

    def to_sidecar(self) -> dict:
        """The build file but its tree, so `from_sidecar` rebuilds the store."""
        return {
            "version": BUILD_VERSION,
            "fps": self.fps,
            "frame_paths": [
                {"frame": frame, "path": path}
                for frame, path in sorted(self.frame_paths.items())
            ],
            "captions": [
                {"frame": frame, "qtype": qtype, "text": cap.text}
                for (frame, qtype), cap in sorted(self.captions.items())
            ],
            "summaries": [
                {"shot": shot, "qtype": qtype, "text": summary.text}
                for (shot, qtype), summary in sorted(self.summaries.items())
            ],
            "first_pass": [
                {"shot": shot, "text": text}
                for shot, text in sorted(self.first_pass.items())
            ],
        }

    @classmethod
    def from_sidecar(cls, tree: HybridTree, doc: Any,
                     fps: float | None = None) -> "KnowledgeStore":
        # `doc` is a parsed sidecar or a build file's Doc. Only perfbench/
        # passes `fps`; a value other than the document's is refused.
        root = (doc if isinstance(doc, Doc)
                else Doc(doc, ValidationError, "sidecar")).obj()
        _check_version(root)
        doc_fps = root.number("fps")
        if not doc_fps > 0:
            root.fail(f"must be positive, got {doc_fps}", "fps")
        if fps is not None and fps != doc_fps:
            root.fail(f"fps {fps} differs from the sidecar's {doc_fps}", "fps")

        def index(item: Doc, key: str, find: Callable[[HybridTree, int], Any]
                  ) -> int:
            value = item.integer(key)
            try:
                find(tree, value)
            except NotFoundError:
                item.fail(f"{key} {value} is not in the tree", key)
            return value

        frame_paths = {index(item, "frame", _owner_shot_id):
                       item.string("path", nonempty=True)
                       for item in root.objects("frame_paths", [])}
        captions = [FrameCaption(
            index(item, "frame", _owner_shot_id), item.enum("qtype", QTYPES),
            item.string("text")) for item in root.objects("captions", [])]
        summaries = [SegmentSummary(
            index(item, "shot", _shot_by_id), item.enum("qtype", QTYPES),
            item.string("text")) for item in root.objects("summaries", [])]
        first_pass = {index(item, "shot", _shot_by_id): item.string("text")
                      for item in root.objects("first_pass", [])}
        return cls(tree=tree, fps=doc_fps, frame_paths=frame_paths,
                   first_pass=first_pass,
                   captions={(c.frame_index, c.qtype): c for c in captions},
                   summaries={(s.shot_id, s.qtype): s for s in summaries})


def _shot_by_id(tree: HybridTree, shot_id: int) -> TreeNode:
    """A listed shot: the node the tree finds at its own first frame."""
    shot = tree.nodes.get(shot_id)
    if shot is None or tree.shot_at(shot.start_frame) is not shot:
        raise NotFoundError(f"shot {shot_id} does not exist in this tree")
    return shot


def _owner_shot_id(tree: HybridTree, frame: int) -> int:
    shot = tree.shot_at(frame)
    if shot is None:
        raise NotFoundError(f"frame {frame} falls outside every shot")
    return shot.node_id


def _by_type(keyed: dict[tuple[int, str], Any],
             start: Callable[[int], int]) -> dict[str, list[int]]:
    """Per type, the sorted `start` of each `(key, qtype)` in `keyed`."""
    index: dict[str, list[int]] = {}
    for key, qtype in keyed:
        index.setdefault(qtype, []).append(start(key))
    for starts in index.values():
        starts.sort()
    return index


def _check_version(root: Doc) -> None:
    version = root.value.get("version")
    if version != BUILD_VERSION:
        root.fail(f"unsupported build file version {version!r}; rebuild it",
                  "version")


def build_json(store: KnowledgeStore) -> str:
    """The build file of `store`: its sidecar, with its tree under `tree`."""
    return canonical_json(dict(store.to_sidecar(), tree=serialize_tree(store.tree)))


def load_build(path: str | Path) -> KnowledgeStore:
    """The store the build file at `path` holds, its tree validated. The
    version comes first, so an older file is told to rebuild. A structural
    fault of the tree is named at `#/tree`, like every other fault."""
    root = read_doc(path, "build file", ValidationError).obj()
    _check_version(root)
    tree_doc = root.obj("tree")
    tree = deserialize_tree(tree_doc)
    try:
        tree.validate()
    except ValidationError as exc:
        tree_doc.fail(str(exc))
    return KnowledgeStore.from_sidecar(tree, root)
