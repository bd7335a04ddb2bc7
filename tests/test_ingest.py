from __future__ import annotations

import json
import threading
import tracemalloc

import numpy as np
import pytest

from videoqa.backends import MockBackend, MockScript
from videoqa.errors import InputError, ValidationError
from videoqa.ingest import (
    EmbeddingFile,
    _validate_matrix,
    consecutive_distances,
    detect_shots,
    load_frames,
    read_embeddings,
    row_norms,
    write_embeddings,
)
from videoqa.tree import tree_from_shots

from conftest import TREE_PARAMS, RecordingBackend, shot_embeddings, write_video


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b) of two nonzero vectors."""
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    return 1.0 - float(np.dot(a, b)) / denom


def select_representative(shot: range, embeddings: np.ndarray) -> int:
    """The representative frame `tree_from_shots` gives the shot over the
    frames `shot`, given exactly their embedding rows."""
    rows = np.zeros((shot.stop, embeddings.shape[1]), dtype=embeddings.dtype)
    rows[shot.start:] = embeddings
    return tree_from_shots("v", [shot], rows,
                           TREE_PARAMS).shots()[0].representative_frame


# ---------------------------------------------------------------------------
# Embedding file IO
# ---------------------------------------------------------------------------

def test_embeddings_file_roundtrip(tmp_path) -> None:
    matrix = np.arange(12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "m.emb"
    write_embeddings(path, matrix)
    assert np.array_equal(read_embeddings(path)[:], matrix)


def test_embedding_file_reads_each_slice_from_the_file(tmp_path) -> None:
    """`rows[a:b]` is the matrix's `matrix[a:b]`, read when asked for: an
    empty or reversed slice reads no row, and a strided one is refused."""
    matrix = np.arange(15, dtype=np.float32).reshape(5, 3)
    path = tmp_path / "m.emb"
    write_embeddings(path, matrix)
    rows = read_embeddings(path)
    assert len(rows) == 5 and rows.shape == (5, 3)
    path.write_bytes(path.read_bytes()[:16] + (matrix + 1).tobytes())
    for frames in (slice(1, 3), slice(None), slice(-2, None), slice(3, 9),
                   slice(2, 2), slice(4, 1)):
        got = rows[frames]
        assert got.dtype == np.float32
        assert got.tobytes() == (matrix + 1)[frames].tobytes()
        assert got.shape == (matrix + 1)[frames].shape
    with pytest.raises(ValueError, match="one run of frames"):
        rows[::2]


def test_embeddings_file_layout(tmp_path) -> None:
    """The documented bytes: "HCEM", u32 rows, u32 dim, u32 reserved 0, then
    row-major little-endian float32."""
    path = tmp_path / "m.emb"
    write_embeddings(path, np.array([[1.0, 2.0, 3.0]]))
    assert path.read_bytes() == (b"HCEM" + (1).to_bytes(4, "little")
                                 + (3).to_bytes(4, "little") + bytes(4)
                                 + np.array([1, 2, 3], "<f4").tobytes())


def test_embeddings_file_with_no_rows_is_its_header(tmp_path) -> None:
    path = tmp_path / "m.emb"
    write_embeddings(path, np.zeros((0, 3)))
    assert len(path.read_bytes()) == 16
    assert read_embeddings(path).shape == (0, 3)


def test_ingest_holds_one_copy_of_the_matrix(tmp_path) -> None:
    """The file is the one copy of the matrix: reading it checks its header
    and size and reads no row, and validation plus shot detection read a
    block of rows at a time. On a 3600 x 256 hour of 1-FPS embeddings (a
    3.69 MB file) reading peaks under 10 kB and the checks under a fifth of
    the matrix, where reading the file whole peaked at its size."""
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(3600, 256)).astype(np.float32)
    path = tmp_path / "hour.emb"
    write_embeddings(path, matrix)
    shots = detect_shots(matrix, 2.0)
    del matrix
    tracemalloc.start()
    try:
        loaded = read_embeddings(path)
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _validate_matrix(loaded)
        assert detect_shots(loaded, 2.0) == shots
        check_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read_peak < 10_000
    assert check_peak < path.stat().st_size / 5


def test_a_file_cut_after_loading_exits_2_naming_it(tmp_path) -> None:
    """A file cut short between `load_frames`, which checked its size, and
    shot detection, which reads its rows, raises ValidationError (exit code
    2) naming the file, as one replaced by a shorter file does."""
    manifest = write_video(tmp_path, "clip", [300, 300], noise=0.2)
    frames = load_frames(manifest)
    path = frames.embeddings.path
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValidationError) as raised:
        detect_shots(frames.embeddings, 2.0)
    assert str(raised.value) == (
        f"embeddings file {path} ends before byte {16 + 600 * 8 * 4}: it "
        "changed after its size was checked")
    assert raised.value.exit_code == 2


@pytest.mark.parametrize("rows", [0, 1, 2, 3, 256, 257, 258, 513, 514])
def test_blocked_distances_match_numpy_at_block_edges(tmp_path, rows) -> None:
    """Row norms and consecutive distances, from a matrix and from its
    file, are those of one numpy call, bit for bit, whatever the number of
    rows past a whole block."""
    matrix = np.random.default_rng(rows).normal(
        0, 3, (rows, 5)).astype(np.float32)
    write_embeddings(tmp_path / "m.emb", matrix)
    a, b = matrix[:-1], matrix[1:]
    expected = 1.0 - np.einsum("ij,ij->i", a, b) / (
        np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    for source in (matrix, read_embeddings(tmp_path / "m.emb")):
        assert row_norms(source).tobytes() == \
            np.linalg.norm(matrix, axis=1).tobytes()
        assert consecutive_distances(source).tobytes() == expected.tobytes()


def test_a_pass_over_a_file_reads_each_block_into_one_buffer(
        tmp_path, monkeypatch) -> None:
    """A block pass reads every block into the same buffer: a fresh 256 kB
    array per block had its pages faulted in anew, 1,358 page faults per
    detection on an hour of 256-d embeddings, where one buffer takes 97."""
    write_embeddings(tmp_path / "m.emb", np.ones((600, 8), np.float32))
    buffers = []
    read = EmbeddingFile.read

    def recording(rows: EmbeddingFile, start: int, into: np.ndarray):
        buffers.append(into.base)
        return read(rows, start, into)

    monkeypatch.setattr(EmbeddingFile, "read", recording)
    consecutive_distances(read_embeddings(tmp_path / "m.emb"))
    assert len(buffers) == 3
    assert buffers[0] is not None
    assert all(buffer is buffers[0] for buffer in buffers)


def test_row_norms_match_numpy_bit_for_bit() -> None:
    """Blocked row norms give the values one `np.linalg.norm` call gives,
    bit for bit, across block boundaries."""
    rng = np.random.default_rng(6)
    matrix = rng.normal(0, 3, (2500, 7)).astype(np.float32)
    assert row_norms(matrix).tobytes() == \
        np.linalg.norm(matrix, axis=1).tobytes()
    a, b = matrix[:-1], matrix[1:]
    expected = 1.0 - np.einsum("ij,ij->i", a, b) / (
        np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    assert consecutive_distances(matrix).tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_write_embeddings_refuses_a_matrix_that_is_not_2d(tmp_path,
                                                          shape) -> None:
    with pytest.raises(ValidationError, match="must be 2-dimensional"):
        write_embeddings(tmp_path / "x.emb", np.ones(shape))
    assert not (tmp_path / "x.emb").exists()


def test_embeddings_bad_magic(tmp_path) -> None:
    path = tmp_path / "m.emb"
    write_embeddings(path, np.ones((2, 2), dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError, match="magic"):
        read_embeddings(path)


def test_embeddings_truncated_file(tmp_path) -> None:
    path = tmp_path / "m.emb"
    write_embeddings(path, np.ones((4, 4), dtype=np.float32))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValidationError, match="size"):
        read_embeddings(path)


def test_embeddings_file_shorter_than_its_header(tmp_path) -> None:
    path = tmp_path / "m.emb"
    path.write_bytes(b"HCEM" + bytes(8))
    with pytest.raises(ValidationError) as raised:
        read_embeddings(path)
    assert str(raised.value) == f"embeddings file too short for header: {path}"


def test_embeddings_missing_file(tmp_path) -> None:
    with pytest.raises(InputError):
        read_embeddings(tmp_path / "absent.emb")


# ---------------------------------------------------------------------------
# Manifest loading
# ---------------------------------------------------------------------------

def test_load_frames_180_at_1fps(tmp_path) -> None:
    manifest = write_video(tmp_path, "clip", [180], noise=0.2)
    frames = load_frames(manifest)
    assert frames.num_frames == 180
    assert frames.paths == {}, "an embedding manifest names no image"
    assert frames.fps == 1.0
    assert frames.embeddings.shape == (180, 8)


def test_load_frames_single_frame(tmp_path) -> None:
    manifest = write_video(tmp_path, "clip", [1])
    frames = load_frames(manifest)
    assert frames.num_frames == 1
    assert frames.embeddings.shape == (1, 8)


def test_load_frames_respects_fps(tmp_path) -> None:
    manifest = write_video(tmp_path, "clip", [4], fps=2.0)
    frames = load_frames(manifest)
    assert frames.fps == 2.0


def test_load_frames_missing_manifest(tmp_path) -> None:
    with pytest.raises(InputError, match="not found"):
        load_frames(tmp_path / "absent.json")


def _write_manifest(tmp_path, doc) -> str:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_frames_noncontiguous_message_shows_eight_indices(tmp_path) -> None:
    path = _write_manifest(tmp_path, {
        "video_id": "v", "fps": 1,
        "frames": [{"index": i} for i in (*range(10), 11)]})
    with pytest.raises(ValidationError) as raised:
        load_frames(path)
    assert str(raised.value) == (
        f"{path}#/frames: frame indices must be unique and contiguous from 0, "
        "got [0, 1, 2, 3, 4, 5, 6, 7]...")


def test_load_frames_noncontiguous_indices(tmp_path) -> None:
    emb = tmp_path / "x.emb"
    write_embeddings(emb, np.ones((2, 3), dtype=np.float32))
    path = _write_manifest(tmp_path, {
        "video_id": "v", "fps": 1,
        "frames": [{"index": 0}, {"index": 2}],
        "embeddings_path": "x.emb"})
    with pytest.raises(ValidationError, match="contiguous"):
        load_frames(path)

    path = _write_manifest(tmp_path, {
        "video_id": "v", "fps": 1,
        "frames": [{"index": 0}, {"index": "a"}],
        "embeddings_path": "x.emb"})
    with pytest.raises(ValidationError, match="#/frames/1/index: expected an int"):
        load_frames(path)

    path = _write_manifest(tmp_path, [1])
    with pytest.raises(ValidationError, match="#: expected an object"):
        load_frames(path)


def test_load_frames_row_count_mismatch(tmp_path) -> None:
    emb = tmp_path / "x.emb"
    write_embeddings(emb, np.ones((3, 3), dtype=np.float32))
    path = _write_manifest(tmp_path, {
        "video_id": "v", "fps": 1,
        "frames": [{"index": 0}, {"index": 1}],
        "embeddings_path": "x.emb"})
    with pytest.raises(ValidationError, match="3 rows for 2 frames"):
        load_frames(path)


def test_load_frames_nan_names_row(tmp_path) -> None:
    matrix = np.ones((3, 2), dtype=np.float32)
    matrix[1, 0] = np.nan
    emb = tmp_path / "x.emb"
    write_embeddings(emb, matrix)
    path = _write_manifest(tmp_path, {
        "video_id": "v", "fps": 1,
        "frames": [{"index": i} for i in range(3)],
        "embeddings_path": "x.emb"})
    with pytest.raises(ValidationError, match="row 1"):
        load_frames(path)


def test_load_frames_zero_vector_rejected(tmp_path) -> None:
    matrix = np.ones((2, 2), dtype=np.float32)
    matrix[1] = 0.0
    emb = tmp_path / "x.emb"
    write_embeddings(emb, matrix)
    path = _write_manifest(tmp_path, {
        "video_id": "v", "fps": 1,
        "frames": [{"index": 0}, {"index": 1}],
        "embeddings_path": "x.emb"})
    with pytest.raises(ValidationError, match="zero vector"):
        load_frames(path)


def test_load_frames_embedder_backend_route(tmp_path, pool) -> None:
    path = _write_manifest(tmp_path, {
        "video_id": "v", "fps": 1,
        "frames": [{"index": 0, "path": "img0.jpg"},
                   {"index": 1, "path": "img1.jpg"}]})
    script = MockScript()
    script.add("img0.jpg", [1.0, 0.0])
    script.add("img1.jpg", [0.0, 1.0])
    frames = load_frames(path, MockBackend(script), pool=pool)
    assert frames.embeddings.shape == (2, 2)
    assert frames.paths == {0: "img0.jpg", 1: "img1.jpg"}


def test_load_frames_embeds_on_the_calling_thread_without_a_pool(
        tmp_path) -> None:
    path = _write_manifest(tmp_path, {
        "video_id": "v", "fps": 1,
        "frames": [{"index": 0, "path": "img0.jpg"},
                   {"index": 1, "path": "img1.jpg"}]})
    threads = set()

    def embed(rendered: str) -> list[float]:
        threads.add(threading.get_ident())
        return [1.0, 0.0] if "img0.jpg" in rendered else [0.0, 1.0]

    frames = load_frames(path, MockBackend(MockScript(default_response=embed)))
    assert frames.embeddings.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert frames.paths == {0: "img0.jpg", 1: "img1.jpg"}
    assert threads == {threading.get_ident()}


def test_load_frames_embedder_dim_mismatch_names_row(tmp_path, pool) -> None:
    path = _write_manifest(tmp_path, {
        "video_id": "v", "fps": 1,
        "frames": [{"index": i, "path": f"img{i}.jpg"} for i in range(3)]})
    script = MockScript()
    script.add("img0.jpg", [1.0, 0.0, 0.0])
    script.add("img1.jpg", [0.0, 1.0, 0.0])
    script.add("img2.jpg", [0.0, 1.0])
    with pytest.raises(ValidationError, match="frame 2"):
        load_frames(path, MockBackend(script), pool=pool)


def test_load_frames_embedder_rows_take_the_first_rows_length(tmp_path) -> None:
    path = _write_manifest(tmp_path, {
        "video_id": "v", "fps": 1,
        "frames": [{"index": i, "path": f"img{i}.jpg"} for i in range(2)]})
    script = MockScript()
    script.add("img0.jpg", [1.0, 0.0])
    script.add("img1.jpg", [0.0, 1.0, 0.0])
    with pytest.raises(ValidationError, match="^embedding row for frame 1 has "
                                              "length 3, expected 2$"):
        load_frames(path, MockBackend(script))


def test_load_frames_images_without_backend(tmp_path) -> None:
    path = _write_manifest(tmp_path, {
        "video_id": "v", "fps": 1, "frames": [{"index": 0, "path": "a.jpg"}]})
    with pytest.raises(InputError, match="embedding backend"):
        load_frames(path)


ABSENT = object()


@pytest.mark.parametrize("path", [5, ["a"], "", None,
                                  pytest.param(ABSENT, id="absent")])
def test_load_frames_rejects_a_path_that_is_not_a_string(tmp_path, path) -> None:
    """With no embeddings_path, every frame needs a non-empty string path,
    and a frame without one is refused before any embed call."""
    first = {"index": 0} if path is ABSENT else {"index": 0, "path": path}
    manifest = _write_manifest(tmp_path, {
        "video_id": "v", "fps": 1,
        "frames": [first, {"index": 1, "path": "b.jpg"}]})
    backend = RecordingBackend(MockBackend(MockScript(default_response=[1.0, 0.0])))
    with pytest.raises(ValidationError, match="#/frames/0/path: "):
        load_frames(manifest, backend)
    assert backend.calls == []


# ---------------------------------------------------------------------------
# Shot detection
# ---------------------------------------------------------------------------

def _brute_force_cuts(embeddings: np.ndarray, sensitivity: float) -> list[int]:
    dists = []
    for j in range(embeddings.shape[0] - 1):
        dists.append(cosine_distance(embeddings[j], embeddings[j + 1]))
    dists_arr = np.array(dists)
    threshold = dists_arr.mean() + sensitivity * dists_arr.std()
    return [j for j, d in enumerate(dists) if d > threshold]


def test_detect_shots_two_blocks_orthogonal() -> None:
    emb = shot_embeddings([6, 6], dim=4, noise=0.01, seed=5)
    cuts = _brute_force_cuts(emb, 2.0)
    assert cuts == [5], "oracle: exactly one consecutive distance crosses"
    assert detect_shots(emb, 2.0) == [range(0, 6), range(6, 12)]


def test_detect_shots_identical_embeddings_single_shot() -> None:
    emb = np.tile(np.array([1.0, 2.0, 3.0], dtype=np.float32), (12, 1))
    assert detect_shots(emb, 2.0) == [range(0, 12)]


def test_detect_shots_single_embedding() -> None:
    emb = np.array([[1.0, 0.0]], dtype=np.float32)
    assert detect_shots(emb, 2.0) == [range(0, 1)]


def test_detect_shots_two_frames_single_shot() -> None:
    emb = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    assert detect_shots(emb, 2.0) == [range(0, 2)]


def test_detect_shots_three_frames_below_unit_sensitivity() -> None:
    """Distances 0 and 1: mean 0.5 and deviation 0.5 put the threshold at
    0.75 at sensitivity 0.5, so the second pair is cut."""
    e0, e1 = [1.0, 0.0], [0.0, 1.0]
    emb = np.array([e0, e0, e1], dtype=np.float32)
    assert detect_shots(emb, 0.5) == [range(0, 2), range(2, 3)]


def test_detect_shots_matches_bruteforce_threshold() -> None:
    rng = np.random.default_rng(99)
    for trial in range(25):
        lengths = rng.integers(5, 12, size=int(rng.integers(2, 7))).tolist()
        emb = shot_embeddings(lengths, dim=8, noise=0.01, seed=trial)
        cuts = _brute_force_cuts(emb, 2.0)
        shots = detect_shots(emb, 2.0)
        ends = [s[-1] for s in shots[:-1]]
        assert ends == cuts


def test_partition_property_random_inputs() -> None:
    rng = np.random.default_rng(7)
    for trial in range(50):
        n = int(rng.integers(1, 60))
        emb = rng.normal(0, 1, (n, 5)).astype(np.float32)
        emb[np.linalg.norm(emb, axis=1) == 0] = 1.0
        shots = detect_shots(emb, 2.0)
        covered = []
        for shot in shots:
            covered.extend(shot)
        assert covered == list(range(n))
        assert all(shots), "no empty shot"
        for shot in tree_from_shots("v", shots, emb, TREE_PARAMS).shots():
            assert shot.representative_frame in shot.frames


def test_reversal_symmetry_property() -> None:
    rng = np.random.default_rng(13)
    for trial in range(25):
        lengths = rng.integers(4, 10, size=int(rng.integers(2, 6))).tolist()
        emb = shot_embeddings(lengths, dim=8, noise=0.01, seed=100 + trial)
        n = emb.shape[0]
        forward = detect_shots(emb, 2.0)
        backward = detect_shots(emb[::-1].copy(), 2.0)
        fw_cuts = [s[-1] for s in forward[:-1]]
        bw_cuts = [s[-1] for s in backward[:-1]]
        assert sorted(n - 2 - j for j in fw_cuts) == sorted(bw_cuts)


def test_detect_shots_deterministic() -> None:
    emb = shot_embeddings([5, 7, 6], seed=3)
    assert detect_shots(emb, 2.0) == detect_shots(emb.copy(), 2.0)


# ---------------------------------------------------------------------------
# Representative selection
# ---------------------------------------------------------------------------

def test_representative_nearest_centroid() -> None:
    emb = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]], dtype=np.float32)
    # centroid (11/3, 0); distances 11/3, 8/3, 19/3 -> frame 1 wins
    assert select_representative(range(0, 3), emb) == 1


def test_representative_single_frame() -> None:
    assert select_representative(range(4, 5), np.array([[2.0, 2.0]])) == 4


def test_representative_tie_breaks_to_earlier_frame() -> None:
    emb = np.array([[0.0, 0.0], [2.0, 0.0]], dtype=np.float32)
    # centroid (1, 0); both frames at distance 1 -> earlier wins
    assert select_representative(range(10, 12), emb) == 10


def test_representative_matches_bruteforce_oracle() -> None:
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(1, 65))
        emb = rng.normal(0, 1, (n, 4)).astype(np.float32)
        centroid = emb.mean(axis=0)
        best, best_d = 0, float("inf")
        for i in range(n):
            d = float(np.linalg.norm(emb[i] - centroid))
            if d < best_d - 1e-12:
                best, best_d = i, d
        assert select_representative(range(0, n), emb) == best


def test_consecutive_distances_match_pairwise() -> None:
    rng = np.random.default_rng(2)
    emb = rng.normal(1, 1, (10, 3)).astype(np.float32)
    vec = consecutive_distances(emb)
    for j in range(9):
        assert vec[j] == pytest.approx(cosine_distance(emb[j], emb[j + 1]),
                                       abs=1e-6)
