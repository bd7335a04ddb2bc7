"""Frame ingest and shot segmentation.

Turns a frame manifest (image paths or a precomputed embedding matrix) into
an ordered embedding sequence, then segments it into shots by adaptive
thresholding on consecutive-frame cosine distance.

Embedding file format: 16-byte header (magic "HCEM", u32 rows, u32 dim,
u32 reserved, little-endian) followed by row-major float32 data.
"""

from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backends import Backend, embed_request
from .errors import InputError, ValidationError

logger = logging.getLogger(__name__)

EMBED_MAGIC = b"HCEM"
_HEADER = struct.Struct("<4sIII")

DEFAULT_SENSITIVITY = 2.0


@dataclass(frozen=True)
class FrameRecord:
    """One sampled frame."""

    frame_index: int
    source_path: str | None = None


@dataclass(frozen=True)
class Shot:
    """A maximal temporally contiguous segment; frame bounds are inclusive."""

    shot_id: int
    start_frame: int
    end_frame: int
    representative_frame: int

    def __post_init__(self) -> None:
        if not self.start_frame <= self.representative_frame <= self.end_frame:
            raise ValidationError(
                f"shot {self.shot_id}: representative {self.representative_frame} "
                f"outside [{self.start_frame}, {self.end_frame}]")

    def contains(self, frame_index: int) -> bool:
        return self.start_frame <= frame_index <= self.end_frame


@dataclass
class VideoFrames:
    """Ingest result: ordered frames plus their embedding matrix."""

    video_id: str
    fps: float
    frames: list[FrameRecord]
    embeddings: np.ndarray  # (num_frames, dim) float32

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    def frame_ref(self, frame_index: int) -> str:
        """Stable reference string for captioning a frame."""
        path = self.frames[frame_index].source_path
        return path if path else synthetic_frame_ref(self.video_id, frame_index)


def synthetic_frame_ref(video_id: str, frame_index: int) -> str:
    """The reference of a frame that has no image path. Mock scripts match
    on this string."""
    return f"{video_id}:frame:{frame_index}"


# ---------------------------------------------------------------------------
# Embedding file IO
# ---------------------------------------------------------------------------

def write_embeddings(path: str | Path, matrix: np.ndarray) -> None:
    arr = np.ascontiguousarray(matrix, dtype=np.float32)
    if arr.ndim != 2:
        raise ValidationError("embedding matrix must be 2-dimensional")
    rows, dim = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(EMBED_MAGIC, rows, dim, 0))
        fh.write(arr.tobytes())


def read_embeddings(path: str | Path) -> np.ndarray:
    p = Path(path)
    if not p.exists():
        raise InputError(f"embeddings file not found: {p}")
    raw = p.read_bytes()
    if len(raw) < _HEADER.size:
        raise ValidationError(f"embeddings file too short for header: {p}")
    magic, rows, dim, _ = _HEADER.unpack_from(raw)
    if magic != EMBED_MAGIC:
        raise ValidationError(f"bad embeddings magic {magic!r} in {p}")
    expected = _HEADER.size + rows * dim * 4
    if len(raw) != expected:
        raise ValidationError(
            f"embeddings file size {len(raw)} does not match header "
            f"({rows} rows x {dim} dims) in {p}")
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    return data.reshape(rows, dim).astype(np.float32)


# ---------------------------------------------------------------------------
# Manifest loading
# ---------------------------------------------------------------------------

def load_frames(manifest_path: str | Path,
                backend: Backend | None = None) -> VideoFrames:
    """Load a frame manifest and return validated frames + embeddings.

    The manifest either points at a precomputed embedding matrix
    (embeddings_path) or lists per-frame image paths, in which case a
    backend serving "embed" is required.
    """
    p = Path(manifest_path)
    if not p.exists():
        raise InputError(f"frame manifest not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"frame manifest is not valid JSON: {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"manifest {p} must be a JSON object")

    video_id = doc.get("video_id")
    if not isinstance(video_id, str) or not video_id:
        raise ValidationError(f"manifest {p} missing video_id")
    fps = doc.get("fps", 1.0)
    if not isinstance(fps, (int, float)) or fps <= 0:
        raise ValidationError(f"manifest {p} fps must be positive")
    entries = doc.get("frames")
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"manifest {p} has no frames")

    frames = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("index"), int):
            raise ValidationError(f"manifest frame {i} must carry an integer index")
        frames.append(FrameRecord(frame_index=entry["index"],
                                  source_path=entry.get("path")))
    frames.sort(key=lambda f: f.frame_index)
    indices = [f.frame_index for f in frames]
    if indices != list(range(len(frames))):
        raise ValidationError(
            f"frame indices must be unique and contiguous from 0, got {indices[:8]}...")

    embeddings_path = doc.get("embeddings_path")
    if embeddings_path is not None:
        epath = Path(embeddings_path)
        if not epath.is_absolute():
            epath = p.parent / epath
        matrix = read_embeddings(epath)
        if matrix.shape[0] != len(frames):
            raise ValidationError(
                f"embeddings have {matrix.shape[0]} rows for {len(frames)} frames")
    else:
        if backend is None or "embed" not in backend.capabilities:
            raise InputError(
                f"manifest {p} has no embeddings_path; an embedding backend is required")
        matrix = _embed_images(frames, video_id, backend)

    _validate_matrix(matrix)
    return VideoFrames(video_id=video_id, fps=float(fps), frames=frames,
                       embeddings=matrix)


def _embed_images(frames: list[FrameRecord], video_id: str,
                  backend: Backend) -> np.ndarray:
    rows: list[list[float]] = []
    dim: int | None = None
    for rec in frames:
        ref = rec.source_path or synthetic_frame_ref(video_id, rec.frame_index)
        vec = backend.call(embed_request(ref))
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ValidationError(
                f"embedding row for frame {rec.frame_index} has length "
                f"{len(vec)}, expected {dim}")
        rows.append(vec)
    return np.asarray(rows, dtype=np.float32)


def _validate_matrix(matrix: np.ndarray) -> None:
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise ValidationError("embedding matrix must be (frames, dim) with dim > 0")
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ValidationError(f"embedding row {int(bad[0])} has NaN or Inf entries")
    zero = np.flatnonzero(np.linalg.norm(matrix, axis=1) == 0.0)
    if zero.size:
        raise ValidationError(
            f"embedding row {int(zero[0])} is a zero vector (cosine undefined)")


# ---------------------------------------------------------------------------
# Shot detection
# ---------------------------------------------------------------------------

def consecutive_distances(embeddings: np.ndarray) -> np.ndarray:
    """Cosine distance between each adjacent frame pair."""
    a = embeddings[:-1]
    b = embeddings[1:]
    dots = np.einsum("ij,ij->i", a, b)
    norms = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    return 1.0 - dots / norms


def detect_shots(embeddings: np.ndarray,
                 sensitivity: float = DEFAULT_SENSITIVITY) -> list[Shot]:
    """Segment the frame sequence into shots.

    A boundary is placed between frames j and j+1 iff their cosine distance
    exceeds mean + sensitivity * stddev of all consecutive distances.
    Videos with fewer than 3 frames form a single shot.
    """
    n = int(embeddings.shape[0]) if embeddings.ndim == 2 else 0
    if n == 0:
        raise ValidationError("detect_shots needs at least one embedding")
    if sensitivity <= 0:
        raise ValidationError("sensitivity must be positive")

    if n < 3:
        cuts: list[int] = []
    else:
        dists = consecutive_distances(embeddings)
        threshold = float(dists.mean()) + sensitivity * float(dists.std())
        # a cut at j ends the current shot at frame j (boundary j / j+1)
        cuts = [int(j) for j in np.flatnonzero(dists > threshold)]

    shots = []
    start = 0
    for shot_id, cut in enumerate(cuts):
        shots.append(_make_shot(shot_id, start, cut, embeddings))
        start = cut + 1
    shots.append(_make_shot(len(cuts), start, n - 1, embeddings))
    return shots


def _make_shot(shot_id: int, start: int, end: int, embeddings: np.ndarray) -> Shot:
    rep = start + nearest_to_centroid(embeddings[start:end + 1])
    return Shot(shot_id=shot_id, start_frame=start, end_frame=end,
                representative_frame=rep)


def nearest_to_centroid(rows: np.ndarray) -> int:
    """Index (within rows) of the row nearest the arithmetic mean; ties go
    to the lowest index."""
    centroid = rows.mean(axis=0)
    dists = np.linalg.norm(rows - centroid, axis=1)
    return int(np.argmin(dists))

