"""Seeded input generation for the benchmark workloads.

Everything here is derived from the workload seed: frame embeddings with
planted shot boundaries (written with `videoqa.ingest.write_embeddings`),
which shots are highly relevant, the questions with their gold answers, and
the tool steps the fake model's agents take. The planted facts go into
`world.json`, which the fake model reads.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from videoqa.ingest import write_embeddings

DIM = 256
SHOT_MIN, SHOT_MAX = 15, 45
MEAN_SHOT = (SHOT_MIN + SHOT_MAX) // 2
QTYPES = ("Causal", "Temporal", "Descriptive")
# Either side of the default gamma=0.4 gate: depth-gated, then breadth-gated.
HIGH_FRACTIONS = (0.25, 0.60)

OPTION_WORDS = ("a red box", "a ladder", "a blue kettle", "a map", "a bicycle",
                "a green umbrella", "a paper bag", "a wooden chair")


def shot_lengths(rng: np.random.Generator, num_frames: int) -> list[int]:
    """Lengths in [SHOT_MIN, SHOT_MAX] summing exactly to num_frames."""
    count = num_frames // MEAN_SHOT
    lengths = rng.integers(SHOT_MIN, SHOT_MAX + 1, size=count)
    diff = num_frames - int(lengths.sum())
    while diff:
        i = int(rng.integers(count))
        step = 1 if diff > 0 else -1
        if SHOT_MIN <= lengths[i] + step <= SHOT_MAX:
            lengths[i] += step
            diff -= step
    return [int(n) for n in lengths]


def shot_embeddings(rng: np.random.Generator, lengths: list[int]) -> np.ndarray:
    """One random direction per shot (so every boundary is sharp), plus two or
    three sub-event offsets inside each shot for K-Means to find."""
    rows = []
    for length in lengths:
        base = rng.standard_normal(DIM)
        base /= np.linalg.norm(base)
        events = int(rng.integers(2, 4))
        cuts = np.sort(rng.choice(np.arange(1, length), events - 1, replace=False))
        offsets = rng.standard_normal((events, DIM))
        offsets *= 0.3 / np.linalg.norm(offsets, axis=1, keepdims=True)
        event_of_frame = np.searchsorted(cuts, np.arange(length), side="right")
        noise = rng.standard_normal((length, DIM)) * (0.02 / np.sqrt(DIM))
        rows.append(base + offsets[event_of_frame] + noise)
    return np.concatenate(rows).astype(np.float32)


def write_video(directory: Path, video_id: str, rng: np.random.Generator,
                num_frames: int, high_fraction: float) -> tuple[Path, dict, list]:
    """Write one video's embeddings and frame manifest.

    Returns the manifest path, the world entry for the fake model, and the
    planted shots as (start, end, high) tuples.
    """
    lengths = shot_lengths(rng, num_frames)
    write_embeddings(directory / f"{video_id}.emb", shot_embeddings(rng, lengths))
    manifest = {"video_id": video_id, "fps": 1.0,
                "frames": [{"index": i} for i in range(num_frames)],
                "embeddings_path": f"{video_id}.emb"}
    manifest_path = directory / f"{video_id}.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    num_high = round(high_fraction * len(lengths))
    high = set(int(i) for i in rng.choice(len(lengths), num_high, replace=False))
    shots, start = [], 0
    for i, length in enumerate(lengths):
        shots.append((start, start + length - 1, i in high))
        start += length
    entry = {"num_frames": num_frames,
             "high_shots": [[s, e] for s, e, h in shots if h]}
    return manifest_path, entry, shots


def make_question(rng: np.random.Generator, question_id: str, qtype: str,
                  shots: list, long_plan: bool) -> dict:
    """One multiple-choice question aimed at a planted high-relevance shot.
    With `long_plan` each evidence agent takes six tool steps before FINAL;
    otherwise the text agent takes one and the visual agent none."""
    high_ids = [i for i, (_, _, h) in enumerate(shots) if h]
    target = int(rng.choice(high_ids))
    start, end, _ = shots[target]
    neighbour = min(target + 1, len(shots) - 1)
    num_options = int(rng.integers(4, 6))
    picks = rng.choice(len(OPTION_WORDS), num_options, replace=False)
    options = [OPTION_WORDS[i] for i in picks]
    if qtype == "Causal":
        text = f"Why does the person in segment {target} reach for it ({question_id})?"
    elif qtype == "Temporal":
        text = f"What happens right after segment {target} begins ({question_id})?"
    else:
        text = f"What object is visible in segment {target} ({question_id})?"
    frame = start + (end - start) // 2
    if long_plan:
        # Six retrieval steps per evidence agent; the text agent also scans
        # the whole video once.
        text_tools = [["temporal_index", {}], ["segment_summaries", {}],
                      ["moment_captions", {"shot_id": target}],
                      ["segment_summaries", {"shot_ids": [target, neighbour]}],
                      ["moment_captions", {"frame_range": [start, end]}],
                      ["inspect_frame", {"frame_index": frame}]]
        visual_tools = [["moment_captions", {"shot_id": target}],
                        ["inspect_frame", {"frame_index": frame}],
                        ["temporal_index", {}],
                        ["segment_summaries", {"shot_id": target}],
                        ["moment_captions", {}],
                        ["moment_captions", {"frame_range": [start, end]}]]
    else:
        text_tools = [["moment_captions", {"shot_id": target}]]
        visual_tools = []
    return {"text": text, "qtype": qtype, "gold": int(rng.integers(num_options)),
            "options": num_options, "option_texts": options,
            "text_tools": text_tools, "visual_tools": visual_tools}


def raw_question(question_id: str, question: dict) -> dict:
    """The question as a dataset file holds it, with no declared type."""
    return {"question_id": question_id, "text": question["text"],
            "options": question["option_texts"], "gold_index": question["gold"]}


def prepare_build_1h(directory: Path, rng: np.random.Generator) -> dict:
    """A pool of 1-hour videos alternating depth- and breadth-gated relevance,
    each with one question of every type."""
    world = {"videos": {}, "questions": {}}
    pool = []
    for i in range(8):
        video_id = f"b{i}"
        manifest, entry, shots = write_video(directory, video_id, rng, 3600,
                                             HIGH_FRACTIONS[i % 2])
        world["videos"][video_id] = entry
        questions = []
        for qtype in QTYPES:
            qid = f"{video_id}{qtype[0].lower()}"
            world["questions"][qid] = make_question(rng, qid, qtype, shots, False)
            questions.append(raw_question(qid, world["questions"][qid]))
        pool.append({"manifest": manifest.name, "questions": questions})
    world["pool"] = pool
    return world


def prepare_ask_3h(directory: Path, rng: np.random.Generator) -> dict:
    """One depth-gated 3-hour video and twelve questions, four per type.
    Only the Causal and Temporal questions go into the build."""
    world = {"videos": {}, "questions": {}}
    manifest, entry, shots = write_video(directory, "long", rng, 10800,
                                         HIGH_FRACTIONS[0])
    world["videos"]["long"] = entry
    asks = []
    for i in range(12):
        qid = f"a{i}"
        qtype = QTYPES[i % 3]
        world["questions"][qid] = make_question(rng, qid, qtype, shots, True)
        asks.append(qid)
    world["manifest"] = manifest.name
    world["asks"] = asks
    world["built_types"] = ["Causal", "Temporal"]
    return world


def prepare_eval_batch(directory: Path, rng: np.random.Generator) -> dict:
    """Six 20-minute videos with five mixed-type questions each, in one
    dataset manifest. Types are left for the program to classify."""
    world = {"videos": {}, "questions": {}}
    entries = []
    for i in range(6):
        video_id = f"e{i}"
        manifest, entry, shots = write_video(directory, video_id, rng, 1200,
                                             HIGH_FRACTIONS[i % 2])
        world["videos"][video_id] = entry
        questions = []
        for j in range(5):
            qid = f"{video_id}q{j}"
            qtype = QTYPES[(i + j) % 3]
            world["questions"][qid] = make_question(rng, qid, qtype, shots, False)
            questions.append(raw_question(qid, world["questions"][qid]))
        entries.append({"video_id": video_id, "frame_manifest_path": manifest.name,
                        "questions": questions})
    dataset = directory / "dataset.json"
    dataset.write_text(json.dumps({"entries": entries}), encoding="utf-8")
    world["dataset"] = dataset.name
    return world


PREPARERS = {"build_1h": prepare_build_1h, "ask_3h": prepare_ask_3h,
             "eval_batch": prepare_eval_batch}


def prepare(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's inputs under `directory` and return its world."""
    rng = np.random.default_rng([seed, sorted(PREPARERS).index(workload)])
    world = PREPARERS[workload](directory, rng)
    (directory / "world.json").write_text(json.dumps(world), encoding="utf-8")
    return world
