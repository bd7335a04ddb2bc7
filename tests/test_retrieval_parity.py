"""Property test: indexed retrieval returns what the scan-based retrieval it
replaced returned, row for row, page for page and error for error.

`ScanKnowledgeStore` keeps the earlier scan-based read path verbatim as the
reference oracle. It expands every selector into a frame list, so the
generated frame ranges stay within a few frames of the video; the huge-range
case is covered in test_knowledge.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from videoqa.captioning import QTYPES, FrameCaption, SegmentSummary
from videoqa.errors import NotFoundError, ValidationError
import videoqa.knowledge as knowledge
from videoqa.knowledge import (
    PAGE_ROWS,
    RETRIEVAL_SCOPES,
    SCOPE_MOMENT_CAPTIONS,
    SCOPE_SEGMENT_SUMMARIES,
    SCOPE_TEMPORAL_INDEX,
    KnowledgeStore,
    RetrievalResult,
)
from videoqa.tree import (
    KIND_CLUSTER,
    KIND_SHOT,
    HybridTree,
    RelevanceScore,
    TreeNode,
)

from conftest import TREE_PARAMS

CLUSTER_ID = 999


class ScanRetrievalResult(RetrievalResult):
    """Pages by slicing: the page's rows rendered as a result that fits on
    one page, then the footer when rows follow."""

    def as_text(self) -> str:
        start, end = self.offset, self.offset + knowledge.PAGE_ROWS
        page, rest = self.rows[start:end], self.rows[end:]
        if start and not page:
            return (f"({self.scope}: no entries) {len(self.rows)} rows; "
                    f"offset {start} is past the end")
        text = RetrievalResult(self.scope, self.degraded, page, 0,
                               len(page)).as_text()
        if rest:
            text += f'\n{len(rest)} more rows; pass {{"offset": {end}}}'
        return text


class ScanKnowledgeStore(KnowledgeStore):
    """The scan-based retrieval: linear shot and owner lookups, selectors
    expanded into frame lists, and membership scans over them. The page
    offset is checked first, in every scope."""

    def _shot_by_id(self, shot_id: int):
        for sid in self.tree.shot_order:
            if sid == shot_id:
                return self.tree.nodes[sid]
        raise NotFoundError(f"shot {shot_id} does not exist in this tree")

    def retrieve(self, scope: str, qtype: str,
                 selector: dict | None = None) -> RetrievalResult:
        selector = selector or {}
        offset = selector.get("offset", 0)
        if isinstance(offset, bool) or not isinstance(offset, int):
            raise ValidationError(f"{scope}#/offset: expected an int, got "
                                  f"{json.dumps(offset)}")
        if offset < 0:
            raise ValidationError(f"{scope}#/offset: must be >= 0, got {offset}")
        if scope == SCOPE_TEMPORAL_INDEX:
            result = self._temporal_index(qtype)
        elif scope == SCOPE_MOMENT_CAPTIONS:
            result = self._moment_captions(qtype, selector)
        else:
            result = self._segment_summaries(qtype, selector)
        return ScanRetrievalResult(result.scope, result.degraded, result.rows,
                                   offset, len(result.rows))

    def _temporal_index(self, qtype: str) -> RetrievalResult:
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
        return RetrievalResult(SCOPE_TEMPORAL_INDEX, False, rows, 0, len(rows))

    def _selected_frames(self, selector: dict) -> list[int] | None:
        if "shot_id" in selector:
            shot = self._shot_by_id(int(selector["shot_id"]))
            return list(shot.frames)
        if "frame_range" in selector:
            a, b = selector["frame_range"]
            return list(range(int(a), int(b) + 1))
        return None

    def _moment_captions(self, qtype: str, selector: dict) -> RetrievalResult:
        wanted = self._selected_frames(selector)
        populated = any(key[1] == qtype for key in self.captions)
        if populated:
            rows = []
            for (frame, ctype), cap in sorted(self.captions.items()):
                if ctype != qtype:
                    continue
                if wanted is not None and frame not in wanted:
                    continue
                rows.append({"frame": frame, "node_id": self._owner_shot_id(frame),
                             "text": cap.text})
            return RetrievalResult(SCOPE_MOMENT_CAPTIONS, False, rows, 0,
                                   len(rows))
        return self._first_pass_rows(SCOPE_MOMENT_CAPTIONS, qtype, wanted)

    def _segment_summaries(self, qtype: str, selector: dict) -> RetrievalResult:
        shot_ids = selector.get("shot_ids")
        if shot_ids is None and "shot_id" in selector:
            shot_ids = [selector["shot_id"]]
        if shot_ids is None:
            shot_ids = list(self.tree.shot_order)
        shots = [self._shot_by_id(int(s)) for s in shot_ids]
        populated = any(key[1] == qtype for key in self.summaries)
        if populated:
            rows = []
            # Each selected shot once, in shot order.
            for shot in sorted({s.node_id: s for s in shots}.values(),
                               key=lambda s: s.start_frame):
                summary = self.summaries.get((shot.node_id, qtype))
                if summary is not None:
                    rows.append({"shot_id": shot.node_id, "node_id": shot.node_id,
                                 "text": summary.text})
            return RetrievalResult(SCOPE_SEGMENT_SUMMARIES, False, rows, 0,
                                   len(rows))
        wanted_frames = [f for shot in shots for f in shot.frames]
        return self._first_pass_rows(SCOPE_SEGMENT_SUMMARIES, qtype, wanted_frames)

    def _first_pass_rows(self, scope: str, qtype: str,
                         wanted_frames: list[int] | None) -> RetrievalResult:
        rows = []
        for shot in self.tree.shots():
            if wanted_frames is not None and not any(
                    f in shot.frames for f in wanted_frames):
                continue
            text = self.first_pass.get(shot.node_id)
            if text is not None:
                rows.append({"shot_id": shot.node_id, "node_id": shot.node_id,
                             "text": text})
        return RetrievalResult(scope, True, rows, 0, len(rows))

    def _owner_shot_id(self, frame: int) -> int:
        for shot in self.tree.shots():
            if shot.start_frame <= frame <= shot.end_frame:
                return shot.node_id
        raise NotFoundError(f"frame {frame} falls outside every shot")


@st.composite
def worlds(draw, populated: bool):
    """A tree of contiguous shots with sparse ids and one cluster node; its
    captions, summaries and first-pass texts; and a question type and a
    selector to retrieve with. The asked type has captions and summaries
    only when `populated`; another type always may. Every selector object
    may carry an `offset`: a page inside or past the result, or an invalid
    one."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    nodes, start = {}, 0
    for i, length in enumerate(lengths):
        nodes[10 + 3 * i] = TreeNode(10 + 3 * i, KIND_SHOT,
                                     range(start, start + length), start, 1)
        start += length
    num_frames = start
    shot_ids = list(nodes)
    tree = HybridTree("v", TREE_PARAMS, nodes, list(shot_ids))
    if draw(st.booleans()):
        for shot in tree.shots():
            shot.relevance = RelevanceScore(draw(st.integers(1, 5)))
    tree.nodes[CLUSTER_ID] = TreeNode(CLUSTER_ID, KIND_CLUSTER, (0,), 0, 2)

    qtype, other = draw(st.permutations(QTYPES))[:2]
    frames = st.sets(st.integers(0, num_frames - 1), max_size=num_frames)
    typed_frames = {qtype: draw(frames) if populated else set(),
                    other: draw(frames)}
    shot_sets = st.sets(st.sampled_from(shot_ids))
    typed_shots = {qtype: draw(shot_sets) if populated else set(),
                   other: draw(shot_sets)}
    if populated and not typed_frames[qtype]:
        typed_frames[qtype] = {draw(st.integers(0, num_frames - 1))}
    if populated and not typed_shots[qtype]:
        typed_shots[qtype] = {draw(st.sampled_from(shot_ids))}
    data = {
        "captions": {(f, q): FrameCaption(f, q, f"caption {f} {q}")
                     for q, fs in typed_frames.items() for f in fs},
        "summaries": {(s, q): SegmentSummary(s, q, f"summary {s} {q}")
                      for q, ss in typed_shots.items() for s in ss},
        "first_pass": {s: f"generic {s}" for s in shot_ids
                       if draw(st.integers(0, 3)) != 3},
    }

    any_id = st.sampled_from(shot_ids + [-1, 11, CLUSTER_ID])
    frame = st.integers(-3, num_frames + 3)
    frame_range = st.tuples(frame, frame).map(list)
    offset = st.one_of(st.integers(0, 7), st.integers(0, num_frames + 2),
                       st.sampled_from([-2, -1, "x", 1.5, True, None]))
    selector = st.one_of(
        st.fixed_dictionaries({"frame_range": frame_range, "offset": offset}),
        st.fixed_dictionaries({"shot_ids": st.lists(any_id, max_size=5),
                               "offset": offset}),
        st.fixed_dictionaries({"shot_id": any_id, "offset": offset}),
        st.fixed_dictionaries({"shot_id": any_id, "frame_range": frame_range,
                               "offset": offset}),
        st.fixed_dictionaries({"shot_ids": st.lists(any_id, max_size=3),
                               "shot_id": any_id, "offset": offset}),
        st.fixed_dictionaries({}, optional={"offset": offset}),
        st.none(),
    )
    return tree, data, qtype, draw(selector)


def _outcome(store: KnowledgeStore, scope: str, qtype: str, selector):
    try:
        result = store.retrieve(scope, qtype, selector)
    except (ValidationError, NotFoundError) as exc:
        return type(exc), str(exc)
    rows = result.rows
    if isinstance(result, ScanRetrievalResult):
        rows = rows[result.offset:result.offset + knowledge.PAGE_ROWS]
    fields = (result.scope, result.degraded, rows, result.selected,
              result.offset)
    return fields, result.as_text()


@pytest.mark.parametrize("populated", [True, False])
@pytest.mark.parametrize("scope", RETRIEVAL_SCOPES)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_indexed_retrieval_matches_scan(scope, populated, data) -> None:
    """At the real page size and at one small enough that these short
    videos span several pages."""
    tree, contents, qtype, selector = data.draw(worlds(populated))
    indexed = KnowledgeStore(tree=tree, fps=2.0, **contents)
    scan = ScanKnowledgeStore(tree=tree, fps=2.0, **contents)
    for page_rows in (PAGE_ROWS, 3):
        with mock.patch.object(knowledge, "PAGE_ROWS", page_rows):
            assert _outcome(indexed, scope, qtype, selector) == \
                _outcome(scan, scope, qtype, selector)
