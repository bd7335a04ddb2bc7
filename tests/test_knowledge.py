from __future__ import annotations

import copy
import json

import pytest

from videoqa.captioning import FrameCaption, SegmentSummary
from videoqa.errors import ConfigError, NotFoundError, ValidationError
from videoqa.ingest import Shot
from videoqa.knowledge import (
    AgentProfile,
    KnowledgeStore,
    builtin_profiles,
    load_profiles,
)
from videoqa.tree import RelevanceScore, TreeParams, attach_scores, tree_from_shots

from conftest import profile_doc


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
    assert causal.requires_bidirectional_check is True
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


def test_causal_requires_bidirectional_check() -> None:
    doc = profile_doc(builtin_profiles()["Causal"])
    doc["requires_bidirectional_check"] = False
    with pytest.raises(ConfigError, match="requires_bidirectional_check"):
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
    shots = [Shot(i, i * 4, i * 4 + 3, i * 4 + 1) for i in range(4)]
    tree = tree_from_shots("vid", shots, TreeParams())
    attach_scores(tree, [RelevanceScore(v) for v in (1.0, 4.0, 2.0, 5.0)])
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


# ---------------------------------------------------------------------------
# Sidecar round-trip
# ---------------------------------------------------------------------------

def test_sidecar_roundtrip() -> None:
    store = _store()
    doc = store.to_sidecar()
    assert doc["video_id"] == "vid"
    assert {"frame", "qtype", "text"} == set(doc["captions"][0])
    clone = KnowledgeStore.from_sidecar(store.tree, doc, fps=2.0)
    assert clone.captions == store.captions
    assert clone.summaries == store.summaries
    assert clone.first_pass == store.first_pass
    assert clone.to_sidecar() == doc


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
