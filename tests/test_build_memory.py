"""What a build holds, and when it lets go.

A build's memory grows with video length, one embedding row per frame, so
each input is held only while a later stage reads it. Here:

- `load_frames` of an hour of 1-FPS, 256-d embeddings peaks below the
  matrix's bytes plus 1 MB: nothing of the parsed manifest is held while
  the matrix is read, and validation reads the matrix a block of rows at a
  time;
- an image-path manifest of 20 minutes, embedded on 8 threads, peaks
  below three times the matrix's bytes: each embed reply becomes a float32
  row on the thread that called for it, never a list of Python floats
  waiting for the rest, and the rows are those one `np.asarray` of every
  reply gives, bit for bit;
- the matrix `load_frames` returned is unreachable by the time the first
  typed-caption request reaches the backend, and under `--uniform-sampling`
  by the time the first caption request does;
- once a `SharedCaptions` view's calls have returned it holds each
  answered reply and no Future, and a request that raised is sent again.

The 3-hour world's build is held to its peak in `test_world_3h.py`.
"""

from __future__ import annotations

import gc
import json
import threading
import tracemalloc
import weakref
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable

import numpy as np
import pytest

from videoqa import pipeline
from videoqa.backends import (
    Backend,
    BackendRequest,
    MockScript,
    SharedCaptions,
    caption_request,
)
from videoqa.captioning import generic_prompt
from videoqa.config import EngineConfig
from videoqa.errors import TransportError
from videoqa.ingest import load_frames, write_embeddings

from conftest import GOLDEN_QUESTIONS, RecordingBackend, build_golden_world

FRAMES, DIM = 3600, 256  # an hour at 1 FPS
MB = 1_000_000


def _peak(load: Callable[[], Any]) -> tuple[Any, int]:
    """What `load` returns, and the peak of Python-level memory it reached."""
    tracemalloc.start()
    try:
        return load(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_embeddings_manifest_peaks_below_the_matrix_plus_1_mb(tmp_path) -> None:
    rng = np.random.default_rng(5)
    write_embeddings(tmp_path / "hour.emb",
                     rng.normal(size=(FRAMES, DIM)).astype(np.float32))
    manifest = tmp_path / "hour.json"
    manifest.write_text(json.dumps({
        "video_id": "v", "fps": 1, "embeddings_path": "hour.emb",
        "frames": [{"index": i} for i in range(FRAMES)]}))
    frames, peak = _peak(lambda: load_frames(manifest))
    assert frames.embeddings.shape == (FRAMES, DIM)
    assert peak < frames.embeddings.nbytes + MB


def _reply(frame: int) -> list[float]:
    """A 256-d embedding, different for each frame, with values float32
    cannot hold exactly."""
    return [(frame + 1) / 3 + j / 7 for j in range(DIM)]


def test_image_manifest_peaks_below_three_matrices(tmp_path) -> None:
    manifest = tmp_path / "images.json"
    frames = FRAMES // 3
    manifest.write_text(json.dumps({
        "video_id": "v", "fps": 1,
        "frames": [{"index": i, "path": f"img{i}.jpg"} for i in range(frames)]}))

    def embed(rendered: str) -> list[float]:
        return _reply(int(rendered.split("img", 1)[1].split(".", 1)[0]))

    backend = Backend.from_mock(MockScript(default_response=embed))
    with ThreadPoolExecutor(max_workers=8) as pool:
        loaded, peak = _peak(lambda: load_frames(manifest, backend, pool=pool))
    want = np.asarray([_reply(i) for i in range(frames)], dtype=np.float32)
    assert loaded.embeddings.tobytes() == want.tobytes()
    assert peak < 3 * want.nbytes


GENERIC = generic_prompt().text


class _MatrixProbe(RecordingBackend):
    """Records, at the first caption request and at the first typed one,
    whether the matrix `refs` names is still reachable."""

    def __init__(self, inner: Backend, refs: list[weakref.ref]) -> None:
        super().__init__(inner)
        self.refs = refs
        self.alive: dict[str, bool] = {}
        self._probe = threading.Lock()

    def call(self, request: BackendRequest) -> Any:
        if request.capability == "caption":
            kind = ("first-pass" if request.payload["prompt"] == GENERIC
                    else "typed")
            with self._probe:
                if kind not in self.alive:
                    gc.collect()
                    self.alive[kind] = self.refs[0]() is not None
        return super().call(request)


@pytest.mark.parametrize("uniform_sampling", [False, True],
                         ids=["expanded", "uniform-sampling"])
def test_the_matrix_is_let_go_before_the_typed_captions(
        tmp_path, monkeypatch, uniform_sampling) -> None:
    world = build_golden_world(tmp_path / "golden")
    refs: list[weakref.ref] = []

    def loading(*args, **kwargs):
        frames = load_frames(*args, **kwargs)
        refs.append(weakref.ref(frames.embeddings))
        return frames

    monkeypatch.setattr(pipeline, "load_frames", loading)
    backend = _MatrixProbe(Backend.from_mock(world.script()), refs)
    questions = [pipeline.RawQuestion(q.question_id, q.text, q.options)
                 for q in GOLDEN_QUESTIONS if q.video_id == "golden_a"]
    pipeline.build_video(world.video_manifests["golden_a"], questions,
                         EngineConfig(uniform_sampling=uniform_sampling),
                         backend)
    # Expansion reads the matrix after the first-pass captions; with no
    # expansion, nothing does.
    assert backend.alive == {"first-pass": not uniform_sampling,
                             "typed": False}


def test_an_answered_view_holds_each_reply_and_no_future() -> None:
    """80 calls on 8 threads over 8 distinct requests, the first send of
    frame 0 failing: each request is sent once, frame 0's twice, and once
    every call has returned the view holds the 8 replies alone."""
    lock = threading.Lock()
    seen: set[str] = set()

    def respond(rendered: str) -> str:
        image = json.loads(rendered.split(":", 1)[1])["image"]
        with lock:
            first = image not in seen
            seen.add(image)
        if first and image.endswith(":0"):
            raise TransportError("scripted transport failure")
        return image

    inner = RecordingBackend(Backend.from_mock(MockScript(
        default_response=respond)))
    view = SharedCaptions(inner)

    def call(image: str) -> str:
        try:
            return view.call(caption_request(image, "Describe this frame."))
        except TransportError as exc:
            return str(exc)

    with ThreadPoolExecutor(max_workers=8) as pool:
        replies = list(pool.map(call, [f"vid:frame:{i % 8}"
                                       for i in range(80)]))
    assert replies.count("scripted transport failure") == 1
    assert sorted(Counter(c.rendered for c in inner.calls).values()) == \
        [1] * 7 + [2]
    held = list(view._replies.values())
    assert not [reply for reply in held if isinstance(reply, Future)]
    assert sorted(held) == [f"vid:frame:{i}" for i in range(8)]
