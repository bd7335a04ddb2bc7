"""Knowledge store and per-question-type agent profiles.

The store wraps one video's tree with its captions and summaries and
answers type-aware retrievals at three scopes: the temporal index, moment
captions, and segment summaries. A retrieval's text is paged by whole rows,
`PAGE_ROWS` at a time and in shot order, so one observation stays bounded
however long the video is; every scope takes an `offset` selector key to read
the later pages. Profiles are declarative JSON documents bundling a reasoning
strategy, tool list, and evidence weights per type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

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
    UnsupportedVersionError,
    ValidationError,
    canonical_json,
    read_doc,
    read_json,
)
from .tree import HybridTree, deserialize_tree, serialize_tree

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
    scope: str
    degraded: bool
    rows: list[dict]
    offset: int = 0

    def as_text(self) -> str:
        """The page of at most `PAGE_ROWS` whole rows that starts at `offset`,
        one row per line. A cut page ends with a line naming the rows left
        and the offset that reads on; an offset past the end gives the empty
        observation and the row count."""
        end = self.offset + PAGE_ROWS
        page = self.rows[self.offset:end]
        if not page:
            empty = f"({self.scope}: no entries)"
            if self.offset:
                empty += (f" {len(self.rows)} rows; offset {self.offset} "
                          "is past the end")
            return empty
        lines = []
        for row in page:
            parts = [f"{k}={row[k]}" for k in sorted(row)]
            lines.append("  ".join(parts))
        if len(self.rows) > end:
            lines.append(f'{len(self.rows) - end} more rows; pass '
                         f'{{"offset": {end}}}')
        prefix = "[degraded: generic captions] " if self.degraded else ""
        return prefix + "\n".join(lines)


@dataclass
class KnowledgeStore:
    """Immutable-after-population retrieval surface over one video.

    Retrieval is indexed: a selector becomes a frame interval, and each
    scope costs O(shots + rows returned). The tree answers which shot holds
    a frame.
    """

    tree: HybridTree
    fps: float = 1.0
    captions: dict[tuple[int, str], FrameCaption] = field(default_factory=dict)
    summaries: dict[tuple[int, str], SegmentSummary] = field(default_factory=dict)
    first_pass: dict[int, str] = field(default_factory=dict)
    frame_paths: dict[int, str] = field(default_factory=dict)

    def add_captions(self, captions: list[FrameCaption]) -> None:
        for cap in captions:
            self.captions[(cap.frame_index, cap.qtype)] = cap

    def add_summaries(self, summaries: list[SegmentSummary]) -> None:
        for summary in summaries:
            self.summaries[(summary.shot_id, summary.qtype)] = summary

    def frame_ref(self, frame_index: int) -> str:
        """The reference a model call names a frame by: its image path, or
        `<video>:frame:<i>` when it has none (mock scripts match on the
        latter). NotFoundError for a frame that falls outside every shot,
        so no caption call is made for it."""
        self._owner_shot_id(frame_index)
        return (self.frame_paths.get(frame_index)
                or f"{self.tree.video_id}:frame:{frame_index}")

    def _shot_by_id(self, shot_id: int):
        """A listed shot: the node the tree finds at its own first frame."""
        shot = self.tree.nodes.get(shot_id)
        if shot is None or self.tree.shot_at(shot.start_frame) is not shot:
            raise NotFoundError(f"shot {shot_id} does not exist in this tree")
        return shot

    def _owner_shot_id(self, frame: int) -> int:
        shot = self.tree.shot_at(frame)
        if shot is None:
            raise NotFoundError(f"frame {frame} falls outside every shot")
        return shot.node_id

    def retrieve(self, scope: str, qtype: str,
                 selector: dict | None = None) -> RetrievalResult:
        """Pure read at one of the three scopes. A store not populated for
        the requested type falls back to the generic first-pass captions
        with degraded=True. The result holds every selected row; the
        selector's `offset` (default 0, any scope) picks the page its text
        shows. A selector key of another type than the README's raises
        ValidationError."""
        if scope not in RETRIEVAL_SCOPES:
            raise ValidationError(f"unknown retrieval scope {scope!r}")
        selector = Doc(selector or {}, ValidationError, scope)
        offset = selector.integer("offset", 0)
        if offset < 0:
            selector.fail(f"must be >= 0, got {offset}", "offset")
        if scope == SCOPE_TEMPORAL_INDEX:
            result = self._temporal_index()
        elif scope == SCOPE_MOMENT_CAPTIONS:
            result = self._moment_captions(qtype, selector)
        else:
            result = self._segment_summaries(qtype, selector)
        result.offset = offset
        return result

    def _temporal_index(self) -> RetrievalResult:
        rows = []
        for shot in self.tree.shots():
            rows.append({
                "shot_id": shot.node_id,
                "node_id": shot.node_id,
                "start_s": shot.start_frame / self.fps,
                "end_s": (shot.end_frame + 1) / self.fps,
                "relevance": (shot.relevance.value
                              if shot.relevance is not None else None),
            })
        return RetrievalResult(SCOPE_TEMPORAL_INDEX, False, rows)

    def _selected_interval(self, selector: Doc) -> tuple[int, int] | None:
        """The frames a selector names, as [first, last]; a model-chosen
        range is never expanded, so its size costs nothing."""
        if "shot_id" in selector.value:
            shot = self._shot_by_id(selector.integer("shot_id"))
            return shot.start_frame, shot.end_frame
        if "frame_range" in selector.value:
            bounds = selector.integers("frame_range")
            if len(bounds) != 2:
                selector.fail(f"expected two ints, got {len(bounds)}",
                              "frame_range")
            return bounds[0], bounds[1]
        return None

    def _moment_captions(self, qtype: str, selector: Doc) -> RetrievalResult:
        interval = self._selected_interval(selector)
        typed = [(frame, cap) for (frame, ctype), cap in self.captions.items()
                 if ctype == qtype]
        if not typed:
            selected = None
            if interval is not None:
                lo, hi = interval
                selected = {shot.node_id for shot in self.tree.shots()
                            if max(lo, shot.start_frame) <= min(hi, shot.end_frame)}
            return self._first_pass_rows(SCOPE_MOMENT_CAPTIONS, selected)
        if interval is not None:
            lo, hi = interval
            typed = [(frame, cap) for frame, cap in typed if lo <= frame <= hi]
        rows = [{"frame": frame, "node_id": self._owner_shot_id(frame),
                 "text": cap.text}
                for frame, cap in sorted(typed, key=lambda item: item[0])]
        return RetrievalResult(SCOPE_MOMENT_CAPTIONS, False, rows)

    def _segment_summaries(self, qtype: str, selector: Doc) -> RetrievalResult:
        shot_ids = selector.integers("shot_ids", None)
        if shot_ids is None and "shot_id" in selector.value:
            shot_ids = [selector.integer("shot_id")]
        if shot_ids is None:
            shots = self.tree.shots()
        else:
            shots = [self._shot_by_id(s) for s in shot_ids]
        populated = any(key[1] == qtype for key in self.summaries)
        if populated:
            rows = []
            for shot in shots:
                summary = self.summaries.get((shot.node_id, qtype))
                if summary is not None:
                    rows.append({"shot_id": shot.node_id, "node_id": shot.node_id,
                                 "text": summary.text})
            return RetrievalResult(SCOPE_SEGMENT_SUMMARIES, False, rows)
        selected = (None if shot_ids is None
                    else {shot.node_id for shot in shots})
        return self._first_pass_rows(SCOPE_SEGMENT_SUMMARIES, selected)

    def _first_pass_rows(self, scope: str,
                         selected: set[int] | None) -> RetrievalResult:
        """First-pass captions of the selected shots, in shot order; every
        shot when `selected` is None. Shots partition the frames, so a shot
        overlaps the selected frames exactly when it is selected."""
        rows = []
        for shot in self.tree.shots():
            if selected is not None and shot.node_id not in selected:
                continue
            text = self.first_pass.get(shot.node_id)
            if text is not None:
                rows.append({"shot_id": shot.node_id, "node_id": shot.node_id,
                             "text": text})
        return RetrievalResult(scope, True, rows)

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
        store = cls(tree=tree, fps=doc_fps)
        frames, shots = store._owner_shot_id, store._shot_by_id

        def index(item: Doc, key: str, find: Callable[[int], Any]) -> int:
            value = item.integer(key)
            try:
                find(value)
            except NotFoundError:
                item.fail(f"{key} {value} is not in the tree", key)
            return value

        for item in root.objects("frame_paths", []):
            store.frame_paths[index(item, "frame", frames)] = item.string(
                "path", nonempty=True)
        store.add_captions([FrameCaption(
            index(item, "frame", frames), item.enum("qtype", QTYPES),
            item.string("text")) for item in root.objects("captions", [])])
        store.add_summaries([SegmentSummary(
            index(item, "shot", shots), item.enum("qtype", QTYPES),
            item.string("text")) for item in root.objects("summaries", [])])
        for item in root.objects("first_pass", []):
            store.first_pass[index(item, "shot", shots)] = item.string("text")
        return store


def _check_version(root: Doc) -> None:
    version = root.value.get("version")
    if version != BUILD_VERSION:
        root.fail(f"unsupported build file version {version!r}; rebuild it",
                  "version", UnsupportedVersionError)


def build_json(store: KnowledgeStore) -> str:
    """The build file of `store`: its sidecar, with its tree under `tree`."""
    return canonical_json(dict(store.to_sidecar(), tree=serialize_tree(store.tree)))


def load_build(path: str | Path) -> KnowledgeStore:
    """The store the build file at `path` holds, its tree validated. The
    version comes first, so an older file is told to rebuild."""
    root = read_doc(path, "build file", ValidationError).obj()
    _check_version(root)
    tree = deserialize_tree(root.obj("tree"))
    tree.validate()
    return KnowledgeStore.from_sidecar(tree, root)
