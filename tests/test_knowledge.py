from __future__ import annotations

import copy
import json
import re
import tracemalloc

import pytest

from videoqa.captioning import FrameCaption, SegmentSummary
from videoqa.errors import (
    ConfigError,
    NotFoundError,
    UnsupportedVersionError,
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
    TreeParams,
    load_tree,
    tree_from_shots,
)

from conftest import frame_line, long_store, profile_doc


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
    tree = tree_from_shots("vid", shots, frame_line(16), TreeParams())
    for shot, value in zip(tree.shots(), (1.0, 4.0, 2.0, 5.0)):
        shot.relevance = RelevanceScore(value)
    store = KnowledgeStore(tree=tree, fps=2.0)
    store.add_captions([
        FrameCaption(5, "Descriptive", "a sunny park"),
        FrameCaption(13, "Descriptive", "a fountain"),
    ])
    store.add_summaries([
        SegmentSummary(1, "Descriptive", "park overview"),
        SegmentSummary(3, "Descriptive", "fountain closeup"),
    ])
    store.first_pass = {0: "gen0", 1: "gen1", 2: "gen2", 3: "gen3"}
    return store


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


def test_unknown_scope_rejected() -> None:
    with pytest.raises(ValidationError, match="scope"):
        _store().retrieve("psychic_hotline", "Causal")


def test_frame_ref_fallback_pattern() -> None:
    assert _store().frame_ref(7) == "vid:frame:7"


def test_frame_ref_names_the_frame_path() -> None:
    store = _store()
    store.frame_paths = {7: "frames/7.jpg"}
    assert store.frame_ref(7) == "frames/7.jpg"
    assert store.frame_ref(6) == "vid:frame:6"


# ---------------------------------------------------------------------------
# Paging
# ---------------------------------------------------------------------------

FOOTER = re.compile(r'^(\d+) more rows; pass \{"offset": (\d+)\}$')
DEGRADED = "[degraded: generic captions] "

# 2 * PAGE_ROWS + 3 shots of two frames: three pages of shots, five of frames.
LONG_SHOTS = 2 * PAGE_ROWS + 3


def _unpaged_lines(result, monkeypatch) -> list[str]:
    with monkeypatch.context() as patch:
        patch.setattr(knowledge, "PAGE_ROWS", len(result.rows) + 1)
        text = result.as_text()
    return text.removeprefix(DEGRADED).split("\n")


@pytest.mark.parametrize("qtype,degraded", [("Descriptive", False),
                                            ("Causal", True)])
@pytest.mark.parametrize("scope", RETRIEVAL_SCOPES)
def test_pages_hold_whole_rows_in_shot_order(scope, qtype, degraded,
                                             monkeypatch) -> None:
    store = long_store(LONG_SHOTS)
    whole = store.retrieve(scope, qtype)
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
    assert seen == _unpaged_lines(whole, monkeypatch), \
        "the pages put together are the whole result"


@pytest.mark.parametrize("scope", RETRIEVAL_SCOPES)
def test_page_ending_at_the_last_row_has_no_footer(scope) -> None:
    store = long_store(LONG_SHOTS)
    total = len(store.retrieve(scope, "Descriptive").rows)
    text = store.retrieve(scope, "Descriptive",
                          {"offset": total - PAGE_ROWS}).as_text()
    assert len(text.split("\n")) == PAGE_ROWS
    assert "more rows" not in text


@pytest.mark.parametrize("qtype", ["Descriptive", "Causal"])
@pytest.mark.parametrize("scope", RETRIEVAL_SCOPES)
def test_offset_past_the_end_names_the_row_count(scope, qtype) -> None:
    store = long_store(LONG_SHOTS)
    total = len(store.retrieve(scope, qtype).rows)
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


@pytest.mark.parametrize("offset", [-1, "x", 1.5, True, None, [2]])
@pytest.mark.parametrize("scope", RETRIEVAL_SCOPES)
def test_offset_must_be_a_non_negative_integer(scope, offset) -> None:
    with pytest.raises(ValidationError, match="offset"):
        _store().retrieve(scope, "Descriptive", {"offset": offset})


# ---------------------------------------------------------------------------
# Sidecar round-trip
# ---------------------------------------------------------------------------

def test_sidecar_roundtrip() -> None:
    store = _store()
    store.frame_paths = {5: "frames/5.jpg"}
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
    with pytest.raises(UnsupportedVersionError, match="rebuild it"):
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
