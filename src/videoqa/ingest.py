"""Frame ingest and shot segmentation.

Turns a frame manifest (image paths or a precomputed embedding matrix) into
an ordered embedding sequence, then segments it into shots by adaptive
thresholding on consecutive-frame cosine distance. A shot here is only the
range of its frames: the tree owns the shots (`tree.tree_from_shots` makes
each range a shot node and picks its representative frame).

Embedding file format: 16-byte header (magic "HCEM", u32 rows, u32 dim,
u32 reserved, little-endian) followed by row-major float32 data.
"""

from __future__ import annotations

import struct
from concurrent.futures import Executor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import np
from .backends import Backend, embed_request
from .errors import InputError, ValidationError, read_bytes, read_doc

EMBED_MAGIC = b"HCEM"
_HEADER = struct.Struct("<4sIII")

_BLOCK_ROWS = 256  # rows per block of `_by_block`


@dataclass
class VideoFrames:
    """Ingest result: the embedding matrix, plus the image path of each
    frame that has one."""

    video_id: str
    fps: float
    paths: dict[int, str]
    embeddings: np.ndarray  # (num_frames, dim) float32

    @property
    def num_frames(self) -> int:
        return int(self.embeddings.shape[0])


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
    raw = read_bytes(path, "embeddings file")
    if len(raw) < _HEADER.size:
        raise ValidationError(f"embeddings file too short for header: {path}")
    magic, rows, dim, _ = _HEADER.unpack_from(raw)
    if magic != EMBED_MAGIC:
        raise ValidationError(f"bad embeddings magic {magic!r} in {path}")
    expected = _HEADER.size + rows * dim * 4
    if len(raw) != expected:
        raise ValidationError(
            f"embeddings file size {len(raw)} does not match header "
            f"({rows} rows x {dim} dims) in {path}")
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    # A view of the file's bytes where float32 is little-endian, as it is on
    # every common host, so the matrix is held once; it is read-only.
    return data.reshape(rows, dim).astype(np.float32, copy=False)


# ---------------------------------------------------------------------------
# Manifest loading
# ---------------------------------------------------------------------------

def load_frames(manifest_path: str | Path, backend: Backend | None = None,
                video_id: str | None = None,
                pool: Executor | None = None) -> VideoFrames:
    """Load a frame manifest and return validated frames + embeddings.

    The manifest either points at a precomputed embedding matrix
    (embeddings_path) or gives every frame an image path, in which case a
    backend serving "embed" is required, and its calls fan out on `pool`
    (or run on the calling thread when there is no pool). A
    `video_id`, when given, is the id the manifest must declare; it is
    checked before any model call. Nothing of the parsed manifest is held
    while the matrix is read or embedded.
    """
    p = Path(manifest_path)
    manifest_id, fps, paths, num_frames, embeddings_path = _read_manifest(
        p, video_id)
    if embeddings_path is not None:
        epath = Path(embeddings_path)
        if not epath.is_absolute():
            epath = p.parent / epath
        matrix = read_embeddings(epath)
        if matrix.shape[0] != num_frames:
            raise ValidationError(
                f"embeddings have {matrix.shape[0]} rows for {num_frames} frames")
    elif backend is None or "embed" not in backend.capabilities:
        raise InputError(
            f"manifest {p} has no embeddings_path; an embedding backend is required")
    else:
        matrix = _embed_images(paths, num_frames, backend, pool)

    _validate_matrix(matrix)
    return VideoFrames(video_id=manifest_id, fps=fps, paths=paths,
                       embeddings=matrix)


def _read_manifest(p: Path, video_id: str | None
                   ) -> tuple[str, float, dict[int, str], int, str | None]:
    """The manifest's video id, fps, frame paths, frame count and
    embeddings path, checked. Its parsed document, and every `Doc` read
    from it, goes when this returns."""
    root = read_doc(p, "frame manifest", ValidationError)
    manifest_id = root.string("video_id", nonempty=True)
    if video_id is not None and manifest_id != video_id:
        root.fail(f"manifest is for video {manifest_id!r}, its dataset entry "
                  f"for {video_id!r}", "video_id")
    fps = root.number("fps", 1.0)
    if not fps > 0:
        root.fail(f"must be positive, got {fps}", "fps")
    frames = root.objects("frames")
    if not frames:
        root.fail("has no frames", "frames")

    paths: dict[int, str] = {}
    indices = []
    pathless = None
    for frame in frames:
        index = frame.integer("index")
        path = frame.string("path", None, nonempty=True)
        if path is not None:
            paths[index] = path
        elif pathless is None:
            pathless = frame
        indices.append(index)
    indices.sort()
    if indices != list(range(len(frames))):
        root.fail("frame indices must be unique and contiguous from 0, got "
                  f"{indices[:8]}...", "frames")

    embeddings_path = root.string("embeddings_path", None)
    if embeddings_path is None and pathless is not None:
        pathless.fail("missing; with no embeddings_path every frame needs "
                      "a path", "path")
    return manifest_id, fps, paths, len(frames), embeddings_path


def _embed_images(paths: dict[int, str], num_frames: int, backend: Backend,
                  pool: Executor | None) -> np.ndarray:
    """One embed call per frame, fanned out on `pool` when there is one;
    rows in frame order. Each reply is made a float32 row by the task that
    called for it, so no reply waits as a list of Python floats."""
    def embed(index: int) -> np.ndarray:
        return np.asarray(backend.call(embed_request(paths[index])),
                          dtype=np.float32)

    rows = list((map if pool is None else pool.map)(embed, range(num_frames)))
    for index, vec in enumerate(rows):
        if len(vec) != len(rows[0]):
            raise ValidationError(
                f"embedding row for frame {index} has length "
                f"{len(vec)}, expected {len(rows[0])}")
    return np.stack(rows)


def _validate_matrix(matrix: np.ndarray) -> None:
    """Refuse a matrix that is not (frames, dim > 0), or that has a row with
    a NaN or Inf entry or a zero row, naming the first such row. Like
    `row_norms`, it reads a block of rows at a time."""
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise ValidationError("embedding matrix must be (frames, dim) with dim > 0")
    bad = np.flatnonzero(~_by_block(lambda rows: np.isfinite(rows).all(axis=1),
                                    matrix))
    if bad.size:
        raise ValidationError(f"embedding row {int(bad[0])} has NaN or Inf entries")
    zero = np.flatnonzero(row_norms(matrix) == 0.0)
    if zero.size:
        raise ValidationError(
            f"embedding row {int(zero[0])} is a zero vector (cosine undefined)")


# ---------------------------------------------------------------------------
# Shot detection
# ---------------------------------------------------------------------------

def _by_block(per_row: Callable[[np.ndarray], np.ndarray],
              matrix: np.ndarray) -> np.ndarray:
    """`per_row` of the whole matrix, one value per row, computed on
    `_BLOCK_ROWS` rows at a time so that no temporary is the size of the
    matrix."""
    return np.concatenate([per_row(matrix[i:i + _BLOCK_ROWS])
                           for i in range(0, max(len(matrix), 1), _BLOCK_ROWS)])


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """Each row's L2 norm, the value `np.linalg.norm(matrix, axis=1)` gives,
    a block of rows at a time: its temporary, the block's squares, is 256 kB
    at 256 dims."""
    return _by_block(lambda rows: np.linalg.norm(rows, axis=1), matrix)


def consecutive_distances(embeddings: np.ndarray) -> np.ndarray:
    """Cosine distance between each adjacent frame pair."""
    dots = np.einsum("ij,ij->i", embeddings[:-1], embeddings[1:])
    norms = row_norms(embeddings)
    return 1.0 - dots / (norms[:-1] * norms[1:])


def detect_shots(embeddings: np.ndarray, sensitivity: float) -> list[range]:
    """Segment the frame sequence into shots, each the range of its frames,
    in temporal order.

    A boundary is placed between frames j and j+1 iff their cosine distance
    exceeds mean + sensitivity * stddev of all consecutive distances.
    Videos with fewer than 3 frames form a single shot.
    """
    n = int(embeddings.shape[0])
    if n < 3:
        cuts: list[int] = []
    else:
        dists = consecutive_distances(embeddings)
        threshold = float(dists.mean()) + sensitivity * float(dists.std())
        # a cut at j ends the current shot at frame j (boundary j / j+1)
        cuts = [int(j) for j in np.flatnonzero(dists > threshold)]

    shots = []
    start = 0
    for cut in cuts:
        shots.append(range(start, cut + 1))
        start = cut + 1
    shots.append(range(start, n))
    return shots
