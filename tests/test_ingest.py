from __future__ import annotations

import json

import numpy as np
import pytest

from videoqa.backends import MockBackend, MockScript
from videoqa.errors import InputError, ValidationError
from videoqa.ingest import (
    Shot,
    consecutive_distances,
    detect_shots,
    load_frames,
    nearest_to_centroid,
    read_embeddings,
    write_embeddings,
)

from conftest import shot_embeddings, write_video


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b) of two nonzero vectors."""
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    return 1.0 - float(np.dot(a, b)) / denom


def select_representative(shot: Shot, embeddings: np.ndarray) -> int:
    """Representative frame for a shot given exactly its embedding rows
    (start_frame..end_frame), as an absolute frame index."""
    num_frames = shot.end_frame - shot.start_frame + 1
    if embeddings.shape[0] != num_frames:
        raise ValidationError(
            f"expected {num_frames} rows for shot {shot.shot_id}, "
            f"got {embeddings.shape[0]}")
    return shot.start_frame + nearest_to_centroid(embeddings)


# ---------------------------------------------------------------------------
# Embedding file IO
# ---------------------------------------------------------------------------

def test_embeddings_file_roundtrip(tmp_path) -> None:
    matrix = np.arange(12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "m.emb"
    write_embeddings(path, matrix)
    assert np.array_equal(read_embeddings(path), matrix)


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
    assert [f.frame_index for f in frames.frames] == list(range(180))
    assert frames.fps == 1.0
    assert frames.embeddings.shape == (180, 8)


def test_load_frames_single_frame(tmp_path) -> None:
    manifest = write_video(tmp_path, "clip", [1])
    frames = load_frames(manifest)
    assert frames.num_frames == 1
    assert frames.frames[0].frame_index == 0


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
    with pytest.raises(ValidationError, match="frame 1 must carry an integer index"):
        load_frames(path)

    path = _write_manifest(tmp_path, [1])
    with pytest.raises(ValidationError, match="must be a JSON object"):
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


def test_load_frames_embedder_backend_route(tmp_path) -> None:
    path = _write_manifest(tmp_path, {
        "video_id": "v", "fps": 1,
        "frames": [{"index": 0, "path": "img0.jpg"},
                   {"index": 1, "path": "img1.jpg"}]})
    script = MockScript()
    script.add("img0.jpg", [1.0, 0.0])
    script.add("img1.jpg", [0.0, 1.0])
    frames = load_frames(path, MockBackend(script))
    assert frames.embeddings.shape == (2, 2)
    assert frames.frames[0].source_path == "img0.jpg"


def test_load_frames_embedder_dim_mismatch_names_row(tmp_path) -> None:
    path = _write_manifest(tmp_path, {
        "video_id": "v", "fps": 1,
        "frames": [{"index": i, "path": f"img{i}.jpg"} for i in range(3)]})
    script = MockScript()
    script.add("img0.jpg", [1.0, 0.0, 0.0])
    script.add("img1.jpg", [0.0, 1.0, 0.0])
    script.add("img2.jpg", [0.0, 1.0])
    with pytest.raises(ValidationError, match="frame 2"):
        load_frames(path, MockBackend(script))


def test_load_frames_images_without_backend(tmp_path) -> None:
    path = _write_manifest(tmp_path, {
        "video_id": "v", "fps": 1, "frames": [{"index": 0, "path": "a.jpg"}]})
    with pytest.raises(InputError, match="embedding backend"):
        load_frames(path)


def test_frame_ref_falls_back_to_synthetic_id(tmp_path) -> None:
    manifest = write_video(tmp_path, "clip", [2])
    frames = load_frames(manifest)
    assert frames.frame_ref(1) == "clip:frame:1"


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
    shots = detect_shots(emb, 2.0)
    assert [(s.start_frame, s.end_frame) for s in shots] == [(0, 5), (6, 11)]


def test_detect_shots_identical_embeddings_single_shot() -> None:
    emb = np.tile(np.array([1.0, 2.0, 3.0], dtype=np.float32), (12, 1))
    shots = detect_shots(emb, 2.0)
    assert [(s.start_frame, s.end_frame) for s in shots] == [(0, 11)]


def test_detect_shots_single_embedding() -> None:
    emb = np.array([[1.0, 0.0]], dtype=np.float32)
    shots = detect_shots(emb, 2.0)
    assert [(s.start_frame, s.end_frame) for s in shots] == [(0, 0)]
    assert shots[0].representative_frame == 0


def test_detect_shots_two_frames_single_shot() -> None:
    emb = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    shots = detect_shots(emb, 2.0)
    assert [(s.start_frame, s.end_frame) for s in shots] == [(0, 1)]


def test_detect_shots_empty_and_bad_sensitivity() -> None:
    with pytest.raises(ValidationError):
        detect_shots(np.zeros((0, 3), dtype=np.float32), 2.0)
    with pytest.raises(ValidationError):
        detect_shots(np.ones((4, 3), dtype=np.float32), 0.0)


def test_detect_shots_matches_bruteforce_threshold() -> None:
    rng = np.random.default_rng(99)
    for trial in range(25):
        lengths = rng.integers(5, 12, size=int(rng.integers(2, 7))).tolist()
        emb = shot_embeddings(lengths, dim=8, noise=0.01, seed=trial)
        cuts = _brute_force_cuts(emb, 2.0)
        shots = detect_shots(emb, 2.0)
        ends = [s.end_frame for s in shots[:-1]]
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
            covered.extend(range(shot.start_frame, shot.end_frame + 1))
        assert covered == list(range(n))
        assert [s.shot_id for s in shots] == list(range(len(shots)))
        for shot in shots:
            assert shot.start_frame <= shot.representative_frame <= shot.end_frame


def test_reversal_symmetry_property() -> None:
    rng = np.random.default_rng(13)
    for trial in range(25):
        lengths = rng.integers(4, 10, size=int(rng.integers(2, 6))).tolist()
        emb = shot_embeddings(lengths, dim=8, noise=0.01, seed=100 + trial)
        n = emb.shape[0]
        forward = detect_shots(emb, 2.0)
        backward = detect_shots(emb[::-1].copy(), 2.0)
        fw_cuts = [s.end_frame for s in forward[:-1]]
        bw_cuts = [s.end_frame for s in backward[:-1]]
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
    shot = Shot(0, 0, 2, 0)
    assert select_representative(shot, emb) == 1


def test_representative_single_frame() -> None:
    shot = Shot(0, 4, 4, 4)
    assert select_representative(shot, np.array([[2.0, 2.0]])) == 4


def test_representative_tie_breaks_to_earlier_frame() -> None:
    emb = np.array([[0.0, 0.0], [2.0, 0.0]], dtype=np.float32)
    # centroid (1, 0); both frames at distance 1 -> earlier wins
    shot = Shot(0, 10, 11, 10)
    assert select_representative(shot, emb) == 10


def test_representative_matches_bruteforce_oracle() -> None:
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(1, 65))
        emb = rng.normal(0, 1, (n, 4)).astype(np.float32)
        shot = Shot(0, 0, n - 1, 0)
        centroid = emb.mean(axis=0)
        best, best_d = 0, float("inf")
        for i in range(n):
            d = float(np.linalg.norm(emb[i] - centroid))
            if d < best_d - 1e-12:
                best, best_d = i, d
        assert select_representative(shot, emb) == best


def test_representative_wrong_slice_length() -> None:
    shot = Shot(0, 0, 2, 0)
    with pytest.raises(ValidationError):
        select_representative(shot, np.ones((2, 2)))


def test_consecutive_distances_match_pairwise() -> None:
    rng = np.random.default_rng(2)
    emb = rng.normal(1, 1, (10, 3)).astype(np.float32)
    vec = consecutive_distances(emb)
    for j in range(9):
        assert vec[j] == pytest.approx(cosine_distance(emb[j], emb[j + 1]),
                                       abs=1e-6)
