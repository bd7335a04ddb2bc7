"""Property test: every loader ends a malformed document in its documented
error, never a traceback.

Eight loaders read the program's JSON inputs: the frame manifest, question
file, dataset manifest, sidecar, tree, config, agent profile and mock script.
Each is fed arbitrary JSON values (NaN and the infinities included, since the
JSON reader accepts them) and one-field mutations of a valid document: one
value anywhere in it replaced by an arbitrary JSON value, or one object key
removed. Each input must load, or raise InputError or ConfigError, which the
CLI turns into exit code 2 or 4. A mock script that loads must also serve a
call or fail it with a BackendError (exit 3).

Examples the property once failed on are pinned in `PINNED`.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from videoqa.backends import MockBackend, MockScript, caption_request, chat_request
from videoqa.config import EngineConfig
from videoqa.errors import BackendError, ConfigError, InputError, read_json
from videoqa.ingest import load_frames
from videoqa.knowledge import KnowledgeStore, builtin_profiles, load_profiles
from videoqa.pipeline import (
    RawQuestion,
    build_video,
    load_dataset_manifest,
    load_question_file,
)
from videoqa.tree import load_tree, tree_to_json

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
            "config": dataclasses.asdict(EngineConfig(
                template_dir=str(root), profile_dir=str(profile_dir))),
            "profile": profile_doc(builtin_profiles()["Causal"]),
            "mock script": json.loads(world.script_path.read_text()),
        }
        self.valid["mock script"]["default_response"] = "fallback"
        # An image path on one frame, so its checks are fuzzed as well.
        self.valid["manifest"]["frames"][0]["path"] = "frames/0.jpg"
        self.valid["sidecar"]["frame_paths"] = [{"frame": 0,
                                                 "path": "frames/0.jpg"}]
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


LOADERS = ("manifest", "questions", "dataset", "sidecar", "tree", "config",
           "profile", "mock script")


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


@st.composite
def mutations(draw, valid):
    """`valid` with one field, drawn uniformly, replaced by arbitrary JSON
    or removed."""
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
    else:
        parent[key] = draw(JSON, label="value")
    return doc


@pytest.mark.parametrize("loader", LOADERS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_loader_gives_a_value_or_its_error(fixture, loader, data) -> None:
    valid = fixture.valid[loader]
    doc = data.draw(mutations(valid) | JSON, label="document")
    with contextlib.suppress(InputError, ConfigError):
        fixture.load(loader, doc)


# (loader, field, value): the valid document with `field` set to `value`, or
# `value` itself when `field` is empty. Each once ended in a traceback (a
# MemoryError for the tree), or loaded a NaN, an infinity, a truncated 1.5, a
# negative timeout, a frame outside the tree, an older sidecar version or a
# value of the wrong type (kept, or turned into its string) as a working
# value; each must now be refused.
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
