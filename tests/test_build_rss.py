"""Resident memory of a 3-hour build, not only what tracemalloc sees.

tracemalloc counts Python allocations; mapped file pages and allocator
slack it does not see count in RSS. So a fresh interpreter builds
perfbench's ask_3h world (seed 101, zero latency), with numpy and the
package loaded first, and reports the rise of its peak RSS over the build.
It must stay under 8 MB: the world's embedding matrix alone is 11.06 MB,
so a build that held it, or mapped its file, would not.

The peak is read as `VmHWM` from `/proc/self/status`, the high-water mark
of the interpreter's own address space, which is what `ru_maxrss` reports
for a process started from a shell. A child of the test process would read
the test process's own peak as its `ru_maxrss` (Linux carries it over
when the child is spawned), so the test needs `/proc`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import videoqa

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if not PERFBENCH.is_dir():
    pytest.skip(f"no world generator: {PERFBENCH} is absent",
                allow_module_level=True)
sys.path.append(str(PERFBENCH))

from gen_inputs import prepare  # noqa: E402

if not Path("/proc/self/status").is_file():
    pytest.skip("no /proc/self/status to read the peak RSS from",
                allow_module_level=True)

BUILD = """
import json, sys
from pathlib import Path


def peak_rss() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024


directory, perfbench = Path(sys.argv[1]), sys.argv[2]
sys.path.append(perfbench)
import numpy  # noqa: F401  (every build loads it)
from fake_model import FakeModel
from videoqa import pipeline
from videoqa.backends import Backend, MockScript
from videoqa.config import EngineConfig

world = json.loads((directory / "world.json").read_text())
questions = [pipeline.RawQuestion(qid, q["text"], tuple(q["option_texts"]),
                                  q["gold"], q["qtype"])
             for qid, q in world["questions"].items()
             if q["qtype"] in world["built_types"]]
backend = Backend.from_mock(MockScript(default_response=FakeModel(world, 0.0)))
before = peak_rss()
result = pipeline.build_video(directory / world["manifest"], questions,
                              EngineConfig(), backend)
print(len(result.tree.nodes), peak_rss() - before)
"""


def test_a_3h_build_raises_peak_rss_by_under_8_mb(tmp_path) -> None:
    prepare("ask_3h", 101, tmp_path)
    package_root = Path(videoqa.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", BUILD, str(tmp_path), str(PERFBENCH)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(package_root)})
    assert done.returncode == 0, done.stderr
    nodes, rise = (int(word) for word in done.stdout.split())
    assert nodes > 360, "the build expanded no shot"
    assert rise < 8_000_000, f"peak RSS rose {rise / 1e6:.2f} MB over the build"
