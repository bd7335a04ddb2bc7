"""Frame ingest and shot segmentation.

Turns a frame manifest (image paths or a precomputed embedding matrix) into
an ordered embedding sequence, then segments it into shots by adaptive
thresholding on consecutive-frame cosine distance. A shot here is only the
range of its frames: the tree owns the shots (`tree.tree_from_shots` makes
each range a shot node and picks its representative frame).

The sequence is read by slices of frames: `rows[a:b]` is frames a..b-1's
embeddings, a float32 array. An embeddings file is never read whole: its
`EmbeddingFile` reads each slice from the file when it is asked for, and
every stage here reads `_BLOCK_ROWS` rows at a time. An image-path
manifest's rows are the matrix of its embed replies, which answers the same
slices.

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
from .errors import (
    InputError,
    ValidationError,
    file_size,
    read_doc,
    read_range,
)

EMBED_MAGIC = b"HCEM"
_HEADER = struct.Struct("<4sIII")

_BLOCK_ROWS = 256  # rows per block of `_by_block`


class EmbeddingFile:
    """The rows of an embeddings file whose header and size were checked.
    `rows[a:b]` reads frames a..b-1's rows from the file at their offset, as
    a (rows, dim) float32 array, so nothing of the matrix is held but the
    slices a caller asks for."""

    def __init__(self, path: Path, rows: int, dim: int) -> None:
        self.path, self.shape = path, (rows, dim)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, frames: slice) -> np.ndarray:
        start, stop, step = frames.indices(len(self))
        if step != 1:
            raise ValueError("embedding rows are read as one run of frames")
        return self.read(start, np.empty((max(stop - start, 0), self.shape[1]),
                                         dtype="<f4"))

    def read(self, start: int, into: np.ndarray) -> np.ndarray:
        """The rows of frames `start`.., as many as `into` has, read into
        that "<f4" array and returned as float32."""
        read_range(self.path, "embeddings file",
                   _HEADER.size + 4 * self.shape[1] * start, into)
        return into.astype(np.float32, copy=False)


@dataclass
class VideoFrames:
    """Ingest result: the frames' embedding rows, an `EmbeddingFile` or the
    matrix of an image-path manifest's embed replies, plus the image path
    of each frame that has one."""

    video_id: str
    fps: float
    paths: dict[int, str]
    embeddings: EmbeddingFile | np.ndarray  # (num_frames, dim) float32

    @property
    def num_frames(self) -> int:
        return len(self.embeddings)


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


def read_embeddings(path: str | Path) -> EmbeddingFile:
    """The embeddings file at `path`, its magic, header and size checked
    from its 16-byte header and its length; its rows are read as they are
    asked for."""
    size = file_size(path, "embeddings file")
    if size < _HEADER.size:
        raise ValidationError(f"embeddings file too short for header: {path}")
    header = bytearray(_HEADER.size)
    read_range(path, "embeddings file", 0, header)
    magic, rows, dim, _ = _HEADER.unpack(header)
    if magic != EMBED_MAGIC:
        raise ValidationError(f"bad embeddings magic {magic!r} in {path}")
    if size != _HEADER.size + rows * dim * 4:
        raise ValidationError(
            f"embeddings file size {size} does not match header "
            f"({rows} rows x {dim} dims) in {path}")
    return EmbeddingFile(Path(path), rows, dim)


# ---------------------------------------------------------------------------
# Manifest loading
# ---------------------------------------------------------------------------

def load_frames(manifest_path: str | Path, backend: Backend | None = None,
                video_id: str | None = None,
                pool: Executor | None = None) -> VideoFrames:
    """Load a frame manifest and return validated frames + embeddings.

    The manifest either points at a precomputed embedding matrix
    (embeddings_path), which stays in its file and is read a block of rows
    at a time, or gives every frame an image path, in which case a backend
    serving "embed" is required, and its calls fan out on `pool` (or run on
    the calling thread when there is no pool). A `video_id`, when given, is
    the id the manifest must declare; it is checked before any model call.
    Nothing of the parsed manifest is held while the rows are checked or
    embedded.
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
    embeddings path, checked. A frame's `Doc` goes once its fields are
    read, and the parsed document when this returns."""
    root = read_doc(p, "frame manifest", ValidationError)
    manifest_id = root.string("video_id", nonempty=True)
    if video_id is not None and manifest_id != video_id:
        root.fail(f"manifest is for video {manifest_id!r}, its dataset entry "
                  f"for {video_id!r}", "video_id")
    fps = root.number("fps", 1.0)
    if not fps > 0:
        root.fail(f"must be positive, got {fps}", "fps")
    paths: dict[int, str] = {}
    indices = []
    pathless = None
    for frame in root.objects("frames", lazy=True):
        index = frame.integer("index")
        path = frame.string("path", None, nonempty=True)
        if path is not None:
            paths[index] = path
        elif pathless is None:
            pathless = frame
        indices.append(index)
    if not indices:
        root.fail("has no frames", "frames")
    indices.sort()
    if indices != list(range(len(indices))):
        root.fail("frame indices must be unique and contiguous from 0, got "
                  f"{indices[:8]}...", "frames")

    embeddings_path = root.string("embeddings_path", None)
    if embeddings_path is None and pathless is not None:
        pathless.fail("missing; with no embeddings_path every frame needs "
                      "a path", "path")
    return manifest_id, fps, paths, len(indices), embeddings_path


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


def _validate_matrix(matrix: EmbeddingFile | np.ndarray) -> None:
    """Refuse a matrix that is not (frames, dim > 0), or that has a row with
    a NaN or Inf entry or a zero row, naming the first such row. Like
    `row_norms`, it reads a block of rows at a time."""
    if len(matrix.shape) != 2 or matrix.shape[1] == 0:
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
              matrix: EmbeddingFile | np.ndarray, overlap: int = 0
              ) -> np.ndarray:
    """`per_row` of each block of `_BLOCK_ROWS` rows, and of the first
    `overlap` rows of the next block, concatenated: one read of each block,
    and no temporary the size of the matrix. A file's blocks are read into
    one buffer, each over the last, so no block is fresh memory to fault
    in."""
    size = _BLOCK_ROWS + overlap
    starts = range(0, max(len(matrix) - overlap, 1), _BLOCK_ROWS)
    if isinstance(matrix, EmbeddingFile):
        buffer = np.empty((min(size, len(matrix)), matrix.shape[1]), "<f4")
        blocks = (matrix.read(i, buffer[:len(matrix) - i]) for i in starts)
    else:
        blocks = (matrix[i:i + size] for i in starts)
    return np.concatenate([per_row(block) for block in blocks])


def row_norms(matrix: EmbeddingFile | np.ndarray) -> np.ndarray:
    """Each row's L2 norm, the value `np.linalg.norm(matrix, axis=1)` gives,
    a block of rows at a time: its temporary, the block's squares, is 256 kB
    at 256 dims."""
    return _by_block(lambda rows: np.linalg.norm(rows, axis=1), matrix)


def consecutive_distances(embeddings: EmbeddingFile | np.ndarray
                          ) -> np.ndarray:
    """Cosine distance between each adjacent frame pair, a block of rows at
    a time, each block read with the first row of the next."""
    def distances(rows: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(rows, axis=1)
        dots = np.einsum("ij,ij->i", rows[:-1], rows[1:])
        return 1.0 - dots / (norms[:-1] * norms[1:])

    return _by_block(distances, embeddings, overlap=1)


def detect_shots(embeddings: EmbeddingFile | np.ndarray,
                 sensitivity: float) -> list[range]:
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
