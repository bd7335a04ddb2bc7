"""What a build holds, and when it lets go.

A video's embeddings grow with its length, one row per frame, so a build
never holds an embeddings file's matrix: it reads the rows a block, or a
shot, at a time. Here:

- `load_frames` of an hour of 1-FPS, 256-d embeddings (a 3.69 MB matrix)
  peaks below 1.5 MB: nothing of the parsed manifest is held once it
  returns, and validation reads a block of rows at a time;
- an image-path manifest of 20 minutes, embedded on 8 threads, peaks
  below three times the matrix's bytes: each embed reply becomes a float32
  row on the thread that called for it, never a list of Python floats
  waiting for the rest, and the rows are those one `np.asarray` of every
  reply gives, bit for bit;
- no rows are read once the first typed-caption request reaches the
  backend, and under `--uniform-sampling` once the first caption request
  does;
- builds of one shot pattern at one and at three hours peak within 3 MB of
  each other, where their matrices differ by 7.37 MB;
- once a `View`'s calls have returned it holds each answered reply and
  no Future, and a request that raised is sent again.

The 3-hour world's build is held to its peak in `test_world_3h.py`, and
to its resident memory in `test_build_rss.py`.
"""

from __future__ import annotations

import json
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable

import numpy as np
import pytest

from videoqa import ingest, pipeline
from videoqa.backends import (
    Backend,
    BackendRequest,
    MockScript,
    View,
    caption_request,
)
from videoqa.captioning import generic_prompt
from videoqa.config import EngineConfig
from videoqa.errors import TransportError
from videoqa.ingest import load_frames, write_embeddings

from conftest import (
    GOLDEN_QUESTIONS,
    RecordingBackend,
    build_golden_world,
    write_video,
)

FRAMES, DIM = 3600, 256  # an hour at 1 FPS
MB = 1_000_000


def _peak(load: Callable[[], Any]) -> tuple[Any, int]:
    """What `load` returns, and the peak of Python-level memory it reached."""
    tracemalloc.start()
    try:
        return load(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_an_hour_of_embeddings_loads_below_1_5_mb(tmp_path) -> None:
    rng = np.random.default_rng(5)
    write_embeddings(tmp_path / "hour.emb",
                     rng.normal(size=(FRAMES, DIM)).astype(np.float32))
    manifest = tmp_path / "hour.json"
    manifest.write_text(json.dumps({
        "video_id": "v", "fps": 1, "embeddings_path": "hour.emb",
        "frames": [{"index": i} for i in range(FRAMES)]}))
    frames, peak = _peak(lambda: load_frames(manifest))
    assert frames.embeddings.shape == (FRAMES, DIM)
    assert peak < 1.5 * MB


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


class _ReadProbe(RecordingBackend):
    """Records, at the first caption request and at the first typed one,
    how many row reads `reads` holds."""

    def __init__(self, inner: Backend, reads: list[int]) -> None:
        super().__init__(inner)
        self.reads = reads
        self.read_before: dict[str, int] = {}
        self._probe = threading.Lock()

    def call(self, request: BackendRequest) -> Any:
        if request.capability == "caption":
            kind = ("first-pass" if request.payload["prompt"] == GENERIC
                    else "typed")
            with self._probe:
                self.read_before.setdefault(kind, len(self.reads))
        return super().call(request)


@pytest.mark.parametrize("uniform_sampling", [False, True],
                         ids=["expanded", "uniform-sampling"])
def test_no_rows_are_read_after_the_first_typed_caption(
        tmp_path, monkeypatch, uniform_sampling) -> None:
    world = build_golden_world(tmp_path / "golden")
    reads: list[int] = []
    read_rows = ingest.EmbeddingFile.read

    def reading(rows: ingest.EmbeddingFile, start: int,
                into: np.ndarray) -> np.ndarray:
        reads.append(start)
        return read_rows(rows, start, into)

    monkeypatch.setattr(ingest.EmbeddingFile, "read", reading)
    backend = _ReadProbe(Backend.from_mock(world.script()), reads)
    questions = [pipeline.RawQuestion(q.question_id, q.text, q.options)
                 for q in GOLDEN_QUESTIONS if q.video_id == "golden_a"]
    pipeline.build_video(world.video_manifests["golden_a"], questions,
                         EngineConfig(uniform_sampling=uniform_sampling),
                         backend)
    # Expansion reads the expanded shots' rows after the first-pass
    # captions are sent; with no expansion, nothing does.
    first_pass, typed = (backend.read_before[kind]
                         for kind in ("first-pass", "typed"))
    assert 0 < first_pass <= typed == len(reads)
    assert (first_pass < typed) is not uniform_sampling


SHOT_PATTERN = [20, 40, 35, 25]  # two minutes at 1 FPS


def _world_reply(rendered: str) -> str:
    """Every fourth shot scores 5, the rest 1; any other call gets a line
    the classifier reads as Causal."""
    if "Relevance:" in rendered:
        shot = int(rendered.split("Segment ", 1)[1].split(" ", 1)[0])
        return "1" if shot % 4 else "5"
    return "Causal: a person reaches for a box."


def test_a_longer_video_adds_no_matrix_to_the_build_peak(tmp_path) -> None:
    """One shot pattern at one and at three hours, 256-d: the matrices
    differ by 7.37 MB, and the traced build peaks by under 3 MB (what still
    grows with length is the manifest parse, the tree and the captions)."""
    questions = [pipeline.RawQuestion("q", "Why does the person reach?",
                                      ("a box", "a map"))]
    peaks = []
    for hours in (1, 3):
        manifest = write_video(tmp_path, f"h{hours}",
                               SHOT_PATTERN * (30 * hours), dim=DIM)
        backend = Backend.from_mock(MockScript(default_response=_world_reply))
        result, peak = _peak(lambda: pipeline.build_video(
            manifest, questions, EngineConfig(), backend))
        assert len(result.tree.shot_order) == 120 * hours
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 3 * MB, (
        f"peaks {peaks[0] / MB:.2f} and {peaks[1] / MB:.2f} MB")


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
    view = View(inner)

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
