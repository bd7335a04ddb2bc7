"""Property test: every loader ends a malformed document in its documented
error, never a traceback, and never coerces a value of the wrong type.

Nine loaders read the program's JSON inputs: the frame manifest, question
file, dataset manifest, build file, config, agent profile and mock script, and
the sidecar and tree files perfbench writes apart. The build file is read as
`ask` and `inspect` read it, its tree nested under `tree`.
Each is fed arbitrary JSON values (NaN and the infinities included, since the
JSON reader accepts them) and one-field mutations of a valid document: one
value anywhere in it replaced by an arbitrary JSON value, or one object key
removed. Each input must load, or raise InputError or ConfigError, which the
CLI turns into exit code 2 or 4. A mock script that loads must also serve a
call or fail it with a BackendError (exit 3). A mutation that gives a value
another JSON type (another Python type after `json.loads`) must raise,
unless the README documents that type for the field: an int for a number,
null for the fields in `NULLABLE`, and any JSON for a mock reply.

Examples the property once failed on are pinned in `PINNED`. The build
file, and its tree and sidecar halves written apart, must also load back to
what was written.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from videoqa.backends import MockBackend, MockScript, caption_request, chat_request
from videoqa.captioning import QTYPES, FrameCaption, SegmentSummary
from videoqa.config import BackendConfig, EngineConfig
from videoqa.errors import (
    BackendError,
    ConfigError,
    InputError,
    canonical_json,
    read_json,
)
from videoqa.ingest import load_frames
from videoqa.knowledge import (
    KnowledgeStore,
    build_json,
    builtin_profiles,
    load_build,
    load_profiles,
)
from videoqa.pipeline import (
    RawQuestion,
    build_video,
    load_dataset_manifest,
    load_question_file,
)
from videoqa.tree import (
    RelevanceScore,
    TreeParams,
    expand_tree,
    load_tree,
    tree_from_shots,
    tree_to_json,
)

from conftest import build_golden_world, profile_doc

EDGES = st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, 0.5, 2**63,
                         10**12, "", "Causal", "golden_a"])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | EDGES,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=10)


class Fixture:
    """The valid document of each loader, and how to load a file."""

    def __init__(self, root: Path):
        world = build_golden_world(root / "golden")
        self.dir = world.root
        manifest = world.video_manifests["golden_a"]
        built = build_video(
            manifest, [RawQuestion("a_q1", "Why is the man on the bench looking up?",
                                   ("a bird flying overhead",
                                    "overlooking the children"))],
            EngineConfig(), world.backend())
        self.tree = built.tree
        profile_dir = root / "profiles"
        profile_dir.mkdir()
        self.valid = {
            "manifest": json.loads(manifest.read_text()),
            "questions": [{"question_id": "q1", "text": "Why?",
                           "options": ["a", "b"], "gold_index": 1,
                           "declared_type": "Causal"}],
            "dataset": json.loads(world.dataset_path.read_text()),
            "sidecar": built.store.to_sidecar(),
            "tree": json.loads(tree_to_json(built.tree)),
            # Every optional string set, so each field's valid type shows.
            "config": dataclasses.asdict(EngineConfig(
                template_dir=str(root), profile_dir=str(profile_dir),
                backend=BackendConfig(
                    chat_endpoint="http://localhost:1/chat",
                    caption_endpoint="http://localhost:1/caption",
                    embed_endpoint="http://localhost:1/embed",
                    cache_dir=str(root / "cache")))),
            "profile": profile_doc(builtin_profiles()["Causal"]),
            "mock script": json.loads(world.script_path.read_text()),
        }
        self.valid["mock script"]["default_response"] = "fallback"
        # An image path on one frame, so its checks are fuzzed as well.
        self.valid["manifest"]["frames"][0]["path"] = "frames/0.jpg"
        self.valid["sidecar"]["frame_paths"] = [{"frame": 0,
                                                 "path": "frames/0.jpg"}]
        self.valid["build"] = dict(self.valid["sidecar"],
                                   tree=self.valid["tree"])
        self.profile_path = profile_dir / "causal.json"

    def load(self, loader: str, doc) -> None:
        path = (self.profile_path if loader == "profile"
                else self.dir / f"fuzz_{loader.replace(' ', '_')}.json")
        path.write_text(json.dumps(doc), encoding="utf-8")
        if loader == "manifest":
            load_frames(path)
        elif loader == "questions":
            load_question_file(path)
        elif loader == "dataset":
            load_dataset_manifest(path)
        elif loader == "build":
            load_build(path)
        elif loader == "sidecar":
            KnowledgeStore.from_sidecar(self.tree, read_json(path, "sidecar"))
        elif loader == "tree":
            load_tree(path)
        elif loader == "config":
            EngineConfig.from_file(path)
        elif loader == "profile":
            load_profiles(path.parent)
        else:
            backend = MockBackend(MockScript.from_file(path))
            for request in (chat_request("Classify this multiple-choice"),
                            caption_request("golden_a:frame:3", "describe")):
                try:
                    backend.call(request)
                except BackendError:
                    pass


LOADERS = ("manifest", "questions", "dataset", "build", "sidecar", "tree",
           "config", "profile", "mock script")


@pytest.fixture(scope="module")
def fixture(tmp_path_factory) -> Fixture:
    return Fixture(tmp_path_factory.mktemp("loaders"))


ANY = None  # a list index in a field path: whichever item is drawn


def _fields(doc, prefix=()) -> set[tuple]:
    """Every field path into `doc` below the root, with list indices
    replaced by ANY: the frames of a 3,000-frame manifest are one field."""
    fields = set()
    items = (doc.items() if isinstance(doc, dict)
             else ((ANY, item) for item in doc) if isinstance(doc, list) else ())
    for key, item in items:
        fields.add(prefix + (key,))
        fields |= _fields(item, prefix + (key,))
    return fields


def _has(doc, field: tuple) -> bool:
    if not field:
        return True
    key, rest = field[0], field[1:]
    if key is ANY:
        return isinstance(doc, list) and any(_has(item, rest) for item in doc)
    return isinstance(doc, dict) and key in doc and _has(doc[key], rest)


# (loader, field name): the fields that also take null, read as absent.
NULLABLE = {(loader, name) for loader in ("questions", "dataset")
            for name in ("gold_index", "declared_type")} | {
    ("mock script", "error")} | {
    ("config", name) for name in ("template_dir", "profile_dir", "cache_dir",
                                  "chat_endpoint", "caption_endpoint",
                                  "embed_endpoint")}
ANY_JSON = {("mock script", "response"), ("mock script", "default_response")}


def _retyped(loader: str, key, old, new) -> bool:
    """Whether `new` in place of `old` at field `key` is of a JSON type the
    field does not take."""
    if type(new) is type(old) or (loader, key) in ANY_JSON:
        return False
    if type(old) is float and type(new) is int:
        return False  # an int where a number is expected
    return not (new is None and (loader, key) in NULLABLE)


@st.composite
def mutations(draw, loader, valid):
    """`valid` with one field, drawn uniformly, replaced by arbitrary JSON
    (half the time a value of another JSON type) or removed; and whether the
    loader must refuse it for its type."""
    field = draw(st.sampled_from(sorted(_fields(valid), key=repr)),
                 label="field")
    doc = copy.deepcopy(valid)
    parent, key, node = None, None, doc
    for depth, part in enumerate(field):
        if part is ANY:
            part = draw(st.sampled_from(
                [i for i, item in enumerate(node)
                 if _has(item, field[depth + 1:])]), label="index")
        parent, key, node = node, part, node[part]
    if isinstance(parent, dict) and draw(st.booleans(), label="remove"):
        del parent[key]
        return doc, False
    other_types = [value for value in (None, True, 1, 0.5, "x", [], {})
                   if type(value) is not type(node)]
    parent[key] = draw(JSON | st.sampled_from(other_types), label="value")
    return doc, _retyped(loader, key, node, parent[key])


@pytest.mark.parametrize("loader", LOADERS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_loader_gives_a_value_or_its_error(fixture, loader, data) -> None:
    valid = fixture.valid[loader]
    doc, retyped = data.draw(mutations(loader, valid)
                             | JSON.map(lambda doc: (doc, False)),
                             label="document")
    if retyped:
        with pytest.raises((InputError, ConfigError)):
            fixture.load(loader, doc)
    else:
        with contextlib.suppress(InputError, ConfigError):
            fixture.load(loader, doc)


# (loader, field, value): the valid document with `field` set to `value`, or
# `value` itself when `field` is empty. Each once ended in a traceback (a
# MemoryError for the tree), or loaded a NaN, an infinity, a truncated 1.5, a
# negative timeout, a frame outside the tree, an older sidecar version or a
# value of the wrong type (kept, or turned into a bool, a number or its
# string) as a working value; each must now be refused.
PINNED = [
    ("manifest", ("embeddings_path",), []),
    ("manifest", ("fps",), math.nan),
    ("dataset", ("entries", 1, "frame_manifest_path"), True),
    ("questions", (0, "gold_index"), math.inf),
    ("questions", (0, "gold_index"), 1.5),
    ("sidecar", ("captions", 0, "frame"), math.inf),
    ("sidecar", ("summaries", 0, "shot"), -math.inf),
    ("tree", ("nodes", 0, "frames"), [0, 10**12]),
    ("config", ("tau",), math.nan),
    ("config", ("backend", "timeout_s"), -1),
    ("profile", ("weights", "text"), math.inf),
    ("mock script", ("rules", 0, "match"), 5),
    ("mock script", (), {"rules": [{"match": "(", "regex": True}],
                         "default_response": "x"}),
    ("mock script", ("rules", 0, "error"), []),
    ("mock script", ("rules",), 5),
    ("manifest", ("frames", 0, "path"), 5),
    ("questions", (0, "question_id"), None),
    ("questions", (0, "text"), ["x"]),
    ("questions", (0, "options"), [None, {"a": 1}]),
    ("sidecar", ("version",), "1"),
    ("sidecar", ("fps",), math.nan),
    ("sidecar", ("frame_paths", 0, "frame"), 10**9),
    ("tree", ("params", "k"), True),
    ("tree", ("params", "tau"), True),
    ("tree", ("nodes", 0, "rep"), True),
    ("tree", ("nodes", 0, "relevance", "rationale"), ["x"]),
    ("tree", ("nodes", 0, "relevance", "defaulted"), "no"),
    ("manifest", ("fps",), True),
    ("manifest", ("frames", 0, "index"), False),
    ("dataset", ("entries", 0, "video_id"), 5),
    ("profile", ("strategy", "name"), 5),
    ("profile", ("requires_visual_agent",), "no"),
    ("mock script", ("rules", 0, "regex"), "no"),
    ("build", ("version",), "3"),
    ("build", ("tree", "version"), "4"),
    ("build", ("tree", "nodes", 0, "rep"), True),
    ("build", ("captions", 0, "frame"), math.inf),
]


def _with(doc, field: tuple, value):
    if not field:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = value
    return doc


@pytest.mark.parametrize("loader, field, value", PINNED)
def test_loader_pinned_examples(fixture, loader, field, value) -> None:
    with pytest.raises((InputError, ConfigError)):
        fixture.load(loader, _with(fixture.valid[loader], field, value))


@pytest.mark.parametrize("loader", LOADERS)
def test_loader_valid_documents_load(fixture, loader) -> None:
    fixture.load(loader, fixture.valid[loader])


@pytest.mark.parametrize("field, value, pointer", [
    (("version",), "3", "/version"),
    (("tree",), None, "/tree"),
    (("tree", "version"), "4", "/tree/version"),
    (("tree", "params", "tau"), "x", "/tree/params/tau"),
    (("tree", "nodes", 0, "rep"), True, "/tree/nodes/0/rep"),
    (("tree", "shot_order", 0), 999, "/tree/shot_order"),
    (("fps",), 0, "/fps"),
    (("frame_paths", 0, "path"), "", "/frame_paths/0/path"),
    (("captions", 0, "frame"), 10**9, "/captions/0/frame"),
    (("summaries", 0, "qtype"), "Nonsense", "/summaries/0/qtype"),
    (("first_pass", 0, "text"), 5, "/first_pass/0/text"),
])
def test_build_file_fault_names_its_pointer(fixture, field, value,
                                            pointer) -> None:
    """A fault in the build file's nested tree or in its store half exits 2,
    naming the file and the field's pointer."""
    with pytest.raises(InputError) as caught:
        fixture.load("build", _with(fixture.valid["build"], field, value))
    assert caught.value.exit_code == 2
    assert caught.value.pointer == pointer
    assert f"fuzz_build.json#{pointer}: " in str(caught.value)


# ---------------------------------------------------------------------------
# Round trips of the build file and of its halves written apart
# ---------------------------------------------------------------------------

@st.composite
def trees(draw):
    """A valid tree: shots of drawn lengths over random embeddings, scored
    and expanded unless left at layer 1."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    embeddings = np.random.default_rng(draw(st.integers(0, 99))).normal(
        size=(sum(lengths), 3))
    shots, start = [], 0
    for length in lengths:
        shots.append(range(start, start + length))
        start += length
    unit = st.floats(0.01, 0.99)
    params = TreeParams(tau=draw(st.floats(1.0, 5.0)), k=draw(st.integers(1, 3)),
                        max_depth=draw(st.integers(1, 3)), gamma=draw(unit))
    tree = tree_from_shots(draw(st.text(max_size=6)), shots, embeddings, params)
    if draw(st.booleans()):
        for shot in tree.shots():
            shot.relevance = RelevanceScore(draw(st.floats(1.0, 5.0)),
                                            draw(st.text(max_size=6)),
                                            draw(st.booleans()))
        expand_tree(tree, embeddings, seed=0)
    return tree


@st.composite
def stores(draw):
    """A store over a drawn tree, every section drawn."""
    tree = draw(trees())
    frame = st.integers(0, tree.num_frames() - 1)
    shot = st.sampled_from(tree.shot_order)
    text, qtype = st.text(max_size=6), st.sampled_from(QTYPES)
    store = KnowledgeStore(tree=tree, fps=draw(st.floats(
        0.0, 1e6, exclude_min=True)))
    store.frame_paths = draw(st.dictionaries(frame, st.text(min_size=1,
                                                            max_size=6)))
    store.add_captions([FrameCaption(f, q, t) for (f, q), t in draw(
        st.dictionaries(st.tuples(frame, qtype), text, max_size=4)).items()])
    store.add_summaries([SegmentSummary(s, q, t) for (s, q), t in draw(
        st.dictionaries(st.tuples(shot, qtype), text, max_size=4)).items()])
    store.first_pass = draw(st.dictionaries(shot, text, max_size=4))
    return store


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(tree=trees())
def test_tree_loads_back_as_written(fixture, tree) -> None:
    path = fixture.dir / "roundtrip.tree.json"
    path.write_text(tree_to_json(tree), encoding="utf-8")
    assert load_tree(path) == tree


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(store=stores())
def test_sidecar_loads_back_as_written(fixture, store) -> None:
    path = fixture.dir / "roundtrip.sidecar.json"
    path.write_text(canonical_json(store.to_sidecar()), encoding="utf-8")
    assert KnowledgeStore.from_sidecar(store.tree, read_json(path, "sidecar")) \
        == store


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(store=stores())
def test_build_file_loads_back_as_written(fixture, store) -> None:
    path = fixture.dir / "roundtrip.build.json"
    path.write_text(build_json(store), encoding="utf-8")
    assert load_build(path) == store
