"""Knowledge store and per-question-type agent profiles.

The store wraps one video's tree with its captions and summaries and
answers type-aware retrievals at three scopes: the temporal index, moment
captions, and segment summaries. Profiles are declarative JSON documents
bundling a reasoning strategy, tool list, and evidence weights per type.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .captioning import (
    QTYPE_CAUSAL,
    QTYPE_DESCRIPTIVE,
    QTYPE_TEMPORAL,
    QTYPES,
    FrameCaption,
    SegmentSummary,
)
from .errors import ConfigError, NotFoundError, ValidationError
from .ingest import synthetic_frame_ref
from .tree import HybridTree

logger = logging.getLogger(__name__)

SCOPE_TEMPORAL_INDEX = "temporal_index"
SCOPE_MOMENT_CAPTIONS = "moment_captions"
SCOPE_SEGMENT_SUMMARIES = "segment_summaries"
RETRIEVAL_SCOPES = (SCOPE_TEMPORAL_INDEX, SCOPE_MOMENT_CAPTIONS,
                    SCOPE_SEGMENT_SUMMARIES)
TOOL_INSPECT_FRAME = "inspect_frame"
KNOWN_TOOLS = RETRIEVAL_SCOPES + (TOOL_INSPECT_FRAME,)


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
    requires_bidirectional_check: bool

    @classmethod
    def from_doc(cls, doc: dict) -> "AgentProfile":
        if not isinstance(doc, dict):
            raise ConfigError("profile must be a JSON object")
        qtype = doc.get("qtype")
        if qtype not in QTYPES:
            raise ConfigError(f"profile field qtype must be one of {QTYPES}, "
                              f"got {qtype!r}")
        strategy_doc = doc.get("strategy")
        if not isinstance(strategy_doc, dict) or not strategy_doc.get("name"):
            raise ConfigError("profile field strategy.name is required")
        tools_doc = doc.get("tools", [])
        if not isinstance(tools_doc, list):
            raise ConfigError("profile field tools must be a list")
        for tool in tools_doc:
            if tool not in KNOWN_TOOLS:
                raise ConfigError(f"profile field tools contains unknown tool "
                                  f"{tool!r} (known: {KNOWN_TOOLS})")
        weights_doc = doc.get("weights")
        if not isinstance(weights_doc, dict) or not weights_doc:
            raise ConfigError("profile field weights must be a non-empty object")
        weights = {}
        for key, value in weights_doc.items():
            if key not in ("text", "visual"):
                raise ConfigError(f"profile field weights.{key} is not a known source")
            if not isinstance(value, (int, float)) or value < 0:
                raise ConfigError(f"profile field weights.{key} must be >= 0")
            weights[key] = float(value)
        total = sum(weights.values())
        if total <= 0:
            raise ConfigError("profile field weights must sum to a positive value")
        weights = {k: v / total for k, v in weights.items()}
        requires_bidi = bool(doc.get("requires_bidirectional_check", False))
        if qtype == QTYPE_CAUSAL and not requires_bidi:
            raise ConfigError(
                "profile field requires_bidirectional_check must be true for Causal")
        return cls(
            qtype=qtype,
            strategy=Strategy(name=str(strategy_doc["name"]),
                              instructions=str(strategy_doc.get("instructions", ""))),
            tools=tuple(tools_doc),
            weights=weights,
            requires_visual_agent=bool(doc.get("requires_visual_agent", True)),
            requires_bidirectional_check=requires_bidi,
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
            "requires_bidirectional_check": True,
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
            "requires_bidirectional_check": False,
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
            "requires_bidirectional_check": False,
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
        if not path.exists():
            continue
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"profile {path} is not valid JSON: {exc}") from exc
        profile = AgentProfile.from_doc(doc)
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

    def as_text(self) -> str:
        if not self.rows:
            return f"({self.scope}: no entries)"
        lines = []
        for row in self.rows:
            parts = [f"{k}={row[k]}" for k in sorted(row)]
            lines.append("  ".join(parts))
        prefix = "[degraded: generic captions] " if self.degraded else ""
        return prefix + "\n".join(lines)


@dataclass
class KnowledgeStore:
    """Immutable-after-population retrieval surface over one video.

    Retrieval is indexed: a selector becomes a frame interval, and each
    scope costs O(shots + rows returned). The shot index (the shot ids, and
    each frame's first owning shot in shot order) is built lazily, on the
    first retrieval that needs it, so creating or loading a store does no
    extra work.
    """

    tree: HybridTree
    fps: float = 1.0
    captions: dict[tuple[int, str], FrameCaption] = field(default_factory=dict)
    summaries: dict[tuple[int, str], SegmentSummary] = field(default_factory=dict)
    first_pass: dict[int, str] = field(default_factory=dict)
    frame_refs: dict[int, str] = field(default_factory=dict)
    _shot_index: tuple[frozenset[int], dict[int, int]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def add_captions(self, captions: list[FrameCaption]) -> None:
        for cap in captions:
            self.captions[(cap.frame_index, cap.qtype)] = cap

    def add_summaries(self, summaries: list[SegmentSummary]) -> None:
        for summary in summaries:
            self.summaries[(summary.shot_id, summary.qtype)] = summary

    def frame_ref(self, frame_index: int) -> str:
        return self.frame_refs.get(
            frame_index, synthetic_frame_ref(self.tree.video_id, frame_index))

    def _index(self) -> tuple[frozenset[int], dict[int, int]]:
        # Threads racing on the first retrieval build equal indexes, and
        # whichever is stored last wins; the tree never changes after build.
        if self._shot_index is None:
            owner: dict[int, int] = {}
            for shot in self.tree.shots():
                for frame in range(shot.start_frame, shot.end_frame + 1):
                    owner.setdefault(frame, shot.node_id)
            self._shot_index = (frozenset(self.tree.shot_order), owner)
        return self._shot_index

    def _shot_by_id(self, shot_id: int):
        if shot_id not in self._index()[0]:
            raise NotFoundError(f"shot {shot_id} does not exist in this tree")
        return self.tree.nodes[shot_id]

    def _owner_shot_id(self, frame: int) -> int:
        owner = self._index()[1].get(frame)
        if owner is None:
            raise NotFoundError(f"frame {frame} falls outside every shot")
        return owner

    def retrieve(self, scope: str, qtype: str,
                 selector: dict | None = None) -> RetrievalResult:
        """Pure read at one of the three scopes. A store not populated for
        the requested type falls back to the generic first-pass captions
        with degraded=True."""
        if scope not in RETRIEVAL_SCOPES:
            raise ValidationError(f"unknown retrieval scope {scope!r}")
        selector = selector or {}
        if scope == SCOPE_TEMPORAL_INDEX:
            return self._temporal_index()
        if scope == SCOPE_MOMENT_CAPTIONS:
            return self._moment_captions(qtype, selector)
        return self._segment_summaries(qtype, selector)

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

    def _selected_interval(self, selector: dict) -> tuple[int, int] | None:
        """The frames a selector names, as [first, last]; a model-chosen
        range is never expanded, so its size costs nothing."""
        if "shot_id" in selector:
            shot = self._shot_by_id(int(selector["shot_id"]))
            return shot.start_frame, shot.end_frame
        if "frame_range" in selector:
            a, b = selector["frame_range"]
            return int(a), int(b)
        return None

    def _moment_captions(self, qtype: str, selector: dict) -> RetrievalResult:
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

    def _segment_summaries(self, qtype: str, selector: dict) -> RetrievalResult:
        shot_ids = selector.get("shot_ids")
        if shot_ids is None and "shot_id" in selector:
            shot_ids = [selector["shot_id"]]
        if shot_ids is None:
            shots = self.tree.shots()
        else:
            shots = [self._shot_by_id(int(s)) for s in shot_ids]
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
        return {
            "video_id": self.tree.video_id,
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
    def from_sidecar(cls, tree: HybridTree, doc: dict,
                     fps: float = 1.0) -> "KnowledgeStore":
        if not isinstance(doc, dict):
            raise ValidationError("sidecar must be a JSON object")
        store = cls(tree=tree, fps=fps)
        for cap in _sidecar_items(doc, "captions", lambda item: FrameCaption(
                int(item["frame"]), _item_qtype(item), _item_text(item))):
            store.captions[(cap.frame_index, cap.qtype)] = cap
        for summary in _sidecar_items(doc, "summaries", lambda item: SegmentSummary(
                int(item["shot"]), _item_qtype(item), _item_text(item))):
            store.summaries[(summary.shot_id, summary.qtype)] = summary
        for shot, text in _sidecar_items(doc, "first_pass", lambda item: (
                int(item["shot"]), _item_text(item))):
            store.first_pass[shot] = text
        valid_frames = set(range(tree.num_frames()))
        for frame, _ in store.captions:
            if frame not in valid_frames:
                raise ValidationError(f"sidecar caption frame {frame} not in tree")
        valid_shots = set(tree.shot_order)
        for shot, _ in store.summaries:
            if shot not in valid_shots:
                raise ValidationError(f"sidecar summary shot {shot} not in tree")
        return store


def _sidecar_items(doc: dict, section: str, parse) -> list:
    """Parse one sidecar section; a malformed item (not an object, a missing
    key, a non-integer index, a non-string text, an unknown question type)
    raises ValidationError naming it."""
    items = doc.get(section, [])
    if not isinstance(items, list):
        raise ValidationError(f"sidecar {section} must be a list")
    parsed = []
    for i, item in enumerate(items):
        try:
            parsed.append(parse(item))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"sidecar {section}[{i}] is malformed: {exc!r}") from None
    return parsed


def _item_text(item: dict) -> str:
    text = item["text"]
    if not isinstance(text, str):
        raise TypeError(f"text must be a string, got {type(text).__name__}")
    return text


def _item_qtype(item: dict) -> str:
    qtype = item["qtype"]
    if qtype not in QTYPES:
        raise ValueError(f"qtype must be one of {QTYPES}, got {qtype!r}")
    return qtype
