from __future__ import annotations

import copy
import json
import re
import tracemalloc
from dataclasses import replace

import pytest

from videoqa.captioning import FrameCaption, SegmentSummary
from videoqa.errors import (
    ConfigError,
    NotFoundError,
    ValidationError,
)
import videoqa.knowledge as knowledge
from videoqa.knowledge import (
    PAGE_ROWS,
    RETRIEVAL_SCOPES,
    AgentProfile,
    KnowledgeStore,
    builtin_profiles,
    load_profiles,
)
from videoqa.tree import (
    MAX_TREE_FRAMES,
    RelevanceScore,
    load_tree,
    tree_from_shots,
)

from conftest import TREE_PARAMS, frame_line, long_store, profile_doc


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def test_builtin_descriptive_weights() -> None:
    profiles = builtin_profiles()
    descriptive = profiles["Descriptive"]
    assert descriptive.weights["visual"] == pytest.approx(0.7)
    assert descriptive.weights["text"] == pytest.approx(0.3)
    assert descriptive.requires_visual_agent is False


def test_builtin_causal_strategy() -> None:
    causal = builtin_profiles()["Causal"]
    assert causal.strategy.name == "bidirectional_temporal_search"
    assert causal.weights == {"text": 0.5, "visual": 0.5}


def test_builtin_temporal_mirrors_descriptive_weights() -> None:
    temporal = builtin_profiles()["Temporal"]
    assert temporal.weights["text"] == pytest.approx(0.7)
    assert temporal.weights["visual"] == pytest.approx(0.3)


def test_weights_normalized_at_load() -> None:
    doc = profile_doc(builtin_profiles()["Temporal"])
    doc["weights"] = {"text": 2, "visual": 2}
    profile = AgentProfile.from_doc(doc)
    assert profile.weights == {"text": 0.5, "visual": 0.5}


def test_negative_weight_names_field() -> None:
    doc = profile_doc(builtin_profiles()["Temporal"])
    doc["weights"]["text"] = -1
    with pytest.raises(ConfigError, match="weights.text"):
        AgentProfile.from_doc(doc)


def test_unknown_weight_source_names_field() -> None:
    doc = profile_doc(builtin_profiles()["Temporal"])
    doc["weights"]["audio"] = 0.5
    with pytest.raises(ConfigError, match="weights.audio"):
        AgentProfile.from_doc(doc)


def test_missing_strategy_name_names_field() -> None:
    doc = profile_doc(builtin_profiles()["Temporal"])
    doc["strategy"] = {"instructions": "no name"}
    with pytest.raises(ConfigError, match="strategy.name"):
        AgentProfile.from_doc(doc)


def test_unknown_tool_rejected() -> None:
    doc = profile_doc(builtin_profiles()["Temporal"])
    doc["tools"] = ["temporal_index", "crystal_ball"]
    with pytest.raises(ConfigError, match="crystal_ball"):
        AgentProfile.from_doc(doc)


def test_profile_roundtrip_identity() -> None:
    for profile in builtin_profiles().values():
        assert AgentProfile.from_doc(profile_doc(profile)) == profile


def test_load_profiles_overrides_from_directory(tmp_path) -> None:
    doc = profile_doc(builtin_profiles()["Descriptive"])
    doc["weights"] = {"text": 0.9, "visual": 0.1}
    (tmp_path / "descriptive.json").write_text(json.dumps(doc))
    profiles = load_profiles(tmp_path)
    assert profiles["Descriptive"].weights["text"] == pytest.approx(0.9)
    assert profiles["Causal"] == builtin_profiles()["Causal"], \
        "missing files keep the builtin default"


def test_load_profiles_wrong_qtype_in_file(tmp_path) -> None:
    doc = profile_doc(builtin_profiles()["Causal"])
    (tmp_path / "temporal.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="qtype"):
        load_profiles(tmp_path)


# ---------------------------------------------------------------------------
# Knowledge store
# ---------------------------------------------------------------------------

def _store() -> KnowledgeStore:
    shots = [range(i * 4, i * 4 + 4) for i in range(4)]
    tree = tree_from_shots("vid", shots, frame_line(16), TREE_PARAMS)
    for shot, value in zip(tree.shots(), (1.0, 4.0, 2.0, 5.0)):
        shot.relevance = RelevanceScore(value)
    return KnowledgeStore(
        tree=tree, fps=2.0,
        first_pass={0: "gen0", 1: "gen1", 2: "gen2", 3: "gen3"},
        captions={(5, "Descriptive"): FrameCaption(5, "Descriptive", "a sunny park"),
                  (13, "Descriptive"): FrameCaption(13, "Descriptive", "a fountain")},
        summaries={
            (1, "Descriptive"): SegmentSummary(1, "Descriptive", "park overview"),
            (3, "Descriptive"): SegmentSummary(3, "Descriptive",
                                               "fountain closeup")})


def test_temporal_index_projects_all_shots() -> None:
    result = _store().retrieve("temporal_index", "Causal")
    assert result.scope == "temporal_index"
    assert not result.degraded
    assert len(result.rows) == 4
    assert result.rows[0] == {"shot_id": 0, "node_id": 0, "start_s": 0.0,
                              "end_s": 2.0, "relevance": 1.0}
    assert [r["shot_id"] for r in result.rows] == [0, 1, 2, 3]


def test_moment_captions_filter_by_shot() -> None:
    result = _store().retrieve("moment_captions", "Descriptive",
                               {"shot_id": 1})
    assert [r["frame"] for r in result.rows] == [5]
    assert result.rows[0]["text"] == "a sunny park"
    assert not result.degraded


def test_moment_captions_filter_by_frame_range() -> None:
    result = _store().retrieve("moment_captions", "Descriptive",
                               {"frame_range": [0, 15]})
    assert [r["frame"] for r in result.rows] == [5, 13]


@pytest.mark.parametrize("qtype,whole,tail", [
    ("Descriptive", [1, 3], [3]),          # captioned type: one row per caption
    ("Causal", [0, 1, 2, 3], [2, 3]),      # degraded: one row per shot
])
def test_moment_captions_frame_range_is_an_interval(qtype, whole, tail) -> None:
    """A model-chosen range costs nothing per frame: 10**15 frames would not
    fit in memory as a list."""
    store = _store()

    def moments(a, b):
        return store.retrieve("moment_captions", qtype, {"frame_range": [a, b]})

    assert moments(0, 10**15) == moments(0, 15)
    assert [r["node_id"] for r in moments(0, 10**15).rows] == whole
    assert [r["node_id"] for r in moments(9, 10**3).rows] == tail, \
        "a range past the video stops at its end"
    assert moments(14, 12).rows == [], "a reversed range selects nothing"


def test_moment_captions_fallback_degraded_for_unpopulated_type() -> None:
    result = _store().retrieve("moment_captions", "Causal", {"shot_id": 1})
    assert result.degraded is True
    assert [r["text"] for r in result.rows] == ["gen1"]


def test_moment_captions_unknown_shot_not_found() -> None:
    with pytest.raises(NotFoundError, match="99"):
        _store().retrieve("moment_captions", "Descriptive", {"shot_id": 99})


def test_segment_summaries_selected_shots() -> None:
    result = _store().retrieve("segment_summaries", "Descriptive",
                               {"shot_ids": [1, 3]})
    assert [r["text"] for r in result.rows] == \
        ["park overview", "fountain closeup"]


@pytest.mark.parametrize("qtype", ["Descriptive", "Temporal"])
def test_segment_summaries_list_each_selected_shot_once_in_shot_order(
        qtype) -> None:
    """Typed (Descriptive) and degraded (Temporal) rows alike."""
    result = long_store(5).retrieve("segment_summaries", qtype,
                                    {"shot_ids": [3, 1, 3]})
    assert [r["shot_id"] for r in result.rows] == [1, 3]
    assert result.selected == 2


def test_segment_summaries_unknown_shot_not_found() -> None:
    with pytest.raises(NotFoundError, match="99"):
        _store().retrieve("segment_summaries", "Descriptive", {"shot_id": 99})


def test_segment_summaries_fallback_degraded() -> None:
    result = _store().retrieve("segment_summaries", "Temporal", {"shot_id": 2})
    assert result.degraded is True
    assert [r["text"] for r in result.rows] == ["gen2"]


def test_retrieval_is_a_pure_read() -> None:
    store = _store()
    snapshot = (copy.deepcopy(store.captions), copy.deepcopy(store.summaries),
                copy.deepcopy(store.first_pass))
    first = store.retrieve("moment_captions", "Descriptive", {"shot_id": 1})
    second = store.retrieve("moment_captions", "Descriptive", {"shot_id": 1})
    assert first == second
    assert (store.captions, store.summaries, store.first_pass) == snapshot


def test_retrieval_provenance_node_ids_exist() -> None:
    store = _store()
    for scope, selector in (("temporal_index", None),
                            ("moment_captions", {"frame_range": [0, 15]}),
                            ("segment_summaries", None)):
        result = store.retrieve(scope, "Descriptive", selector)
        for row in result.rows:
            assert row["node_id"] in store.tree.nodes


def test_frame_ref_fallback_pattern() -> None:
    assert _store().frame_ref(7) == "vid:frame:7"


def test_frame_ref_names_the_frame_path() -> None:
    store = replace(_store(), frame_paths={7: "frames/7.jpg"})
    assert store.frame_ref(7) == "frames/7.jpg"
    assert store.frame_ref(6) == "vid:frame:6"


# ---------------------------------------------------------------------------
# Paging
# ---------------------------------------------------------------------------

FOOTER = re.compile(r'^(\d+) more rows; pass \{"offset": (\d+)\}$')
DEGRADED = "[degraded: generic captions] "

# 2 * PAGE_ROWS + 3 shots of two frames: three pages of shots, five of frames.
LONG_SHOTS = 2 * PAGE_ROWS + 3


def _unpaged(store, scope, qtype, monkeypatch):
    """The whole selection, as one page."""
    with monkeypatch.context() as patch:
        patch.setattr(knowledge, "PAGE_ROWS", 10**9)
        return store.retrieve(scope, qtype)


@pytest.mark.parametrize("qtype,degraded", [("Descriptive", False),
                                            ("Causal", True)])
@pytest.mark.parametrize("scope", RETRIEVAL_SCOPES)
def test_pages_hold_whole_rows_in_shot_order(scope, qtype, degraded,
                                             monkeypatch) -> None:
    store = long_store(LONG_SHOTS)
    whole = _unpaged(store, scope, qtype, monkeypatch)
    assert whole.degraded is (degraded and scope != "temporal_index")
    total = len(whole.rows)
    assert total > 2 * PAGE_ROWS
    owners = [row["node_id"] for row in whole.rows]
    assert owners == sorted(owners), "rows come in shot order"

    seen, offset = [], 0
    while True:
        text = store.retrieve(scope, qtype, {"offset": offset}).as_text()
        assert text.startswith(DEGRADED) is whole.degraded
        lines = text.removeprefix(DEGRADED).split("\n")
        footer = FOOTER.match(lines[-1])
        if footer is None:
            assert len(lines) == total - offset <= PAGE_ROWS, \
                "the last page holds the rest and no footer"
            seen += lines
            break
        rows = lines[:-1]
        assert len(rows) == PAGE_ROWS
        seen += rows
        offset += PAGE_ROWS
        assert (int(footer.group(1)), int(footer.group(2))) == \
            (total - offset, offset)
    assert seen == whole.as_text().removeprefix(DEGRADED).split("\n"), \
        "the pages put together are the whole result"


@pytest.mark.parametrize("scope", RETRIEVAL_SCOPES)
def test_page_ending_at_the_last_row_has_no_footer(scope) -> None:
    store = long_store(LONG_SHOTS)
    total = store.retrieve(scope, "Descriptive").selected
    text = store.retrieve(scope, "Descriptive",
                          {"offset": total - PAGE_ROWS}).as_text()
    assert len(text.split("\n")) == PAGE_ROWS
    assert "more rows" not in text


@pytest.mark.parametrize("qtype", ["Descriptive", "Causal"])
@pytest.mark.parametrize("scope", RETRIEVAL_SCOPES)
def test_offset_past_the_end_names_the_row_count(scope, qtype) -> None:
    store = long_store(LONG_SHOTS)
    total = store.retrieve(scope, qtype).selected
    for offset in (total, total + 7):
        assert store.retrieve(scope, qtype, {"offset": offset}).as_text() == \
            f"({scope}: no entries) {total} rows; offset {offset} is past the end"


def test_offset_pages_a_selection() -> None:
    store = long_store(LONG_SHOTS)
    selector = {"frame_range": [10, 10 + PAGE_ROWS + 4]}
    first = store.retrieve("moment_captions", "Descriptive", selector).as_text()
    assert first.endswith(f'5 more rows; pass {{"offset": {PAGE_ROWS}}}')
    rest = store.retrieve("moment_captions", "Descriptive",
                          {**selector, "offset": PAGE_ROWS}).as_text()
    assert [line.split("  ")[0] for line in rest.split("\n")] == \
        [f"frame={f}" for f in range(10 + PAGE_ROWS, 10 + PAGE_ROWS + 5)]


def test_empty_first_page_names_no_count() -> None:
    assert _store().retrieve("segment_summaries", "Causal",
                             {"shot_ids": []}).as_text() == \
        "(segment_summaries: no entries)"


def test_page_size_is_twenty_rows() -> None:
    """Written out, not derived from PAGE_ROWS: the page size shapes every
    paged ReAct prompt."""
    store = long_store(25)
    assert store.retrieve("temporal_index", "Causal").as_text() == "\n".join([
        "end_s=2.0  node_id=0  relevance=1.0  shot_id=0  start_s=0.0",
        "end_s=4.0  node_id=1  relevance=2.0  shot_id=1  start_s=2.0",
        "end_s=6.0  node_id=2  relevance=3.0  shot_id=2  start_s=4.0",
        "end_s=8.0  node_id=3  relevance=4.0  shot_id=3  start_s=6.0",
        "end_s=10.0  node_id=4  relevance=5.0  shot_id=4  start_s=8.0",
        "end_s=12.0  node_id=5  relevance=1.0  shot_id=5  start_s=10.0",
        "end_s=14.0  node_id=6  relevance=2.0  shot_id=6  start_s=12.0",
        "end_s=16.0  node_id=7  relevance=3.0  shot_id=7  start_s=14.0",
        "end_s=18.0  node_id=8  relevance=4.0  shot_id=8  start_s=16.0",
        "end_s=20.0  node_id=9  relevance=5.0  shot_id=9  start_s=18.0",
        "end_s=22.0  node_id=10  relevance=1.0  shot_id=10  start_s=20.0",
        "end_s=24.0  node_id=11  relevance=2.0  shot_id=11  start_s=22.0",
        "end_s=26.0  node_id=12  relevance=3.0  shot_id=12  start_s=24.0",
        "end_s=28.0  node_id=13  relevance=4.0  shot_id=13  start_s=26.0",
        "end_s=30.0  node_id=14  relevance=5.0  shot_id=14  start_s=28.0",
        "end_s=32.0  node_id=15  relevance=1.0  shot_id=15  start_s=30.0",
        "end_s=34.0  node_id=16  relevance=2.0  shot_id=16  start_s=32.0",
        "end_s=36.0  node_id=17  relevance=3.0  shot_id=17  start_s=34.0",
        "end_s=38.0  node_id=18  relevance=4.0  shot_id=18  start_s=36.0",
        "end_s=40.0  node_id=19  relevance=5.0  shot_id=19  start_s=38.0",
        '5 more rows; pass {"offset": 20}',
    ])
    assert store.retrieve("temporal_index", "Causal",
                          {"offset": 20}).as_text() == "\n".join([
        "end_s=42.0  node_id=20  relevance=1.0  shot_id=20  start_s=40.0",
        "end_s=44.0  node_id=21  relevance=2.0  shot_id=21  start_s=42.0",
        "end_s=46.0  node_id=22  relevance=3.0  shot_id=22  start_s=44.0",
        "end_s=48.0  node_id=23  relevance=4.0  shot_id=23  start_s=46.0",
        "end_s=50.0  node_id=24  relevance=5.0  shot_id=24  start_s=48.0",
    ])


@pytest.fixture(scope="module")
def ten_thousand_shots() -> KnowledgeStore:
    """One Descriptive caption, summary and first-pass text per shot."""
    return long_store(10_000, frames_per_shot=1)


@pytest.mark.parametrize("offset", [0, 5_000])
@pytest.mark.parametrize("qtype", ["Descriptive", "Causal"])
@pytest.mark.parametrize("scope", RETRIEVAL_SCOPES)
def test_a_page_builds_only_its_own_rows(ten_thousand_shots, scope, qtype,
                                         offset) -> None:
    """Typed and degraded, each scope builds one page of rows and counts
    the rest."""
    result = ten_thousand_shots.retrieve(scope, qtype, {"offset": offset})
    assert len(result.rows) == PAGE_ROWS
    assert result.selected == 10_000
    assert [row["node_id"] for row in result.rows] == \
        list(range(offset, offset + PAGE_ROWS))


@pytest.mark.parametrize("offset", [-1, "x", 1.5, True, None, [2]])
@pytest.mark.parametrize("scope", RETRIEVAL_SCOPES)
def test_offset_must_be_a_non_negative_integer(scope, offset) -> None:
    with pytest.raises(ValidationError, match="offset"):
        _store().retrieve(scope, "Descriptive", {"offset": offset})


# ---------------------------------------------------------------------------
# Sidecar round-trip
# ---------------------------------------------------------------------------

def test_sidecar_roundtrip() -> None:
    store = replace(_store(), frame_paths={5: "frames/5.jpg"})
    doc = store.to_sidecar()
    assert doc["version"] == "4"
    assert "tree" not in doc, "`build` adds the tree to the store half"
    assert "video_id" not in doc, "the tree names the video"
    assert doc["fps"] == 2.0
    assert doc["frame_paths"] == [{"frame": 5, "path": "frames/5.jpg"}]
    assert {"frame", "qtype", "text"} == set(doc["captions"][0])
    clone = KnowledgeStore.from_sidecar(store.tree, doc)
    assert clone == store
    assert clone.to_sidecar() == doc


def test_sidecar_fps_keyword_only_checks() -> None:
    store = _store()
    doc = store.to_sidecar()
    assert KnowledgeStore.from_sidecar(store.tree, doc, fps=2.0).fps == 2.0
    with pytest.raises(ValidationError, match="differs"):
        KnowledgeStore.from_sidecar(store.tree, doc, fps=1.0)


@pytest.mark.parametrize("version", [None, "1", "2", "3", 4])
def test_sidecar_other_version_rejected(version) -> None:
    store = _store()
    doc = store.to_sidecar()
    if version is None:
        del doc["version"]
    else:
        doc["version"] = version
    with pytest.raises(ValidationError, match=(
            "#/version: unsupported build file version .*; rebuild it")):
        KnowledgeStore.from_sidecar(store.tree, doc)


@pytest.mark.parametrize("fps", [0, -2.0, float("nan"), float("inf"), "2",
                                 True, None])
def test_sidecar_bad_fps_rejected(fps) -> None:
    store = _store()
    doc = store.to_sidecar()
    doc["fps"] = fps
    with pytest.raises(ValidationError, match="fps"):
        KnowledgeStore.from_sidecar(store.tree, doc)


@pytest.mark.parametrize("item", [
    {"frame": 16, "path": "x.jpg"},
    {"frame": -1, "path": "x.jpg"},
    {"frame": 10**9, "path": "x.jpg"},
    {"frame": 3, "path": 5},
    {"frame": 3, "path": ""},
    {"frame": 3, "path": ["a"]},
    {"frame": 3},
    {"frame": 3.0, "path": "x.jpg"},
])
def test_sidecar_bad_frame_path_rejected(item) -> None:
    store = _store()
    doc = store.to_sidecar()
    doc["frame_paths"].append(item)
    with pytest.raises(ValidationError, match="frame_paths"):
        KnowledgeStore.from_sidecar(store.tree, doc)


def test_sidecar_rejects_unknown_frames() -> None:
    store = _store()
    doc = store.to_sidecar()
    doc["captions"].append({"frame": 400, "qtype": "Causal", "text": "x"})
    with pytest.raises(ValidationError, match="400"):
        KnowledgeStore.from_sidecar(store.tree, doc)


def test_sidecar_rejects_unknown_shots() -> None:
    store = _store()
    doc = store.to_sidecar()
    doc["summaries"].append({"shot": 44, "qtype": "Causal", "text": "x"})
    with pytest.raises(ValidationError, match="44"):
        KnowledgeStore.from_sidecar(store.tree, doc)


def test_sidecar_rejects_first_pass_of_unknown_shot() -> None:
    store = _store()
    doc = store.to_sidecar()
    doc["first_pass"].append({"shot": 44, "text": "x"})
    with pytest.raises(ValidationError, match="first_pass.*44"):
        KnowledgeStore.from_sidecar(store.tree, doc)


def test_sidecar_item_missing_key_rejected() -> None:
    store = _store()
    doc = store.to_sidecar()
    doc["captions"].append({"frame": 5, "qtype": "Causal"})
    with pytest.raises(ValidationError, match="captions"):
        KnowledgeStore.from_sidecar(store.tree, doc)


@pytest.mark.parametrize("section,item", [
    ("captions", {"frame": "five", "qtype": "Causal", "text": "x"}),
    ("summaries", {"shot": None, "qtype": "Causal", "text": "x"}),
    ("first_pass", {"shot": [1], "text": "x"}),
    ("captions", {"frame": 5, "qtype": "Causal", "text": 42}),
    ("summaries", {"shot": 1, "qtype": "Causal", "text": None}),
    ("first_pass", {"shot": 1, "text": ["x"]}),
    ("captions", {"frame": 5, "qtype": "Nonsense", "text": "x"}),
    ("summaries", {"shot": 1, "qtype": ["Causal"], "text": "x"}),
])
def test_sidecar_item_non_integer_index_rejected(section, item) -> None:
    store = _store()
    doc = store.to_sidecar()
    doc[section].append(item)
    with pytest.raises(ValidationError, match=section):
        KnowledgeStore.from_sidecar(store.tree, doc)


@pytest.mark.parametrize("item", [42, "frame", ["frame", 5]])
def test_sidecar_item_not_an_object_rejected(item) -> None:
    store = _store()
    doc = store.to_sidecar()
    doc["summaries"].append(item)
    with pytest.raises(ValidationError, match="summaries"):
        KnowledgeStore.from_sidecar(store.tree, doc)


def test_longest_loadable_shot_costs_no_memory(tmp_path) -> None:
    """One shot of MAX_TREE_FRAMES frames: loading its tree, naming its last
    frame and retrieving over all of it allocate nothing per frame."""
    last = MAX_TREE_FRAMES - 1
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({
        "version": "1", "video_id": "long", "shot_order": [0],
        "params": {"tau": 2.5, "k": 2, "max_depth": 3, "gamma": 0.4},
        "nodes": [{"id": 0, "kind": "shot", "frames": [0, last], "rep": last,
                   "depth": 1, "children": []}]}))
    tracemalloc.start()
    try:
        store = KnowledgeStore(tree=load_tree(path), first_pass={0: "generic"})
        assert store.frame_ref(last) == f"long:frame:{last}"
        rows = store.retrieve("moment_captions", "Causal",
                              {"frame_range": [0, last]}).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == [{"shot_id": 0, "node_id": 0, "text": "generic"}]
    assert peak < 1 << 20, f"traced peak {peak} bytes"
