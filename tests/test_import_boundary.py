"""Import boundary: a mock-backed run loads no HTTP client and no OpenSSL,
and unless it builds, no numpy; a build loads numpy's core but not
`numpy.random`; the response cache keys entries as it always has.

Each check runs in a fresh interpreter, because this test process has long
since imported everything, with the listed modules and their submodules
refused on `sys.meta_path`. A refused import fails the run even when the
importer catches its ImportError, as `hashlib` does for `_hashlib`. In each
of those runs, importing `videoqa.cli` or `videoqa.np` loads no numpy:
- the golden `eval` refuses `http`, `ssl`, `numpy.random`, `hashlib` and
  `_hashlib`, and its outputs equal the committed snapshot. `urllib` cannot
  be refused by name, as `pathlib` imports `urllib.parse`, but the remote
  transport's `urllib.request` imports `http.client`. The eval loads numpy
  during the build. K-Means seeds itself with a pure-Python copy of
  `numpy.random`'s streams, whose import would pull in `secrets`, hence
  `hmac` and `hashlib`;
- eight threads released at once by a barrier race to `videoqa.np`'s first
  attribute reads, refusing `numpy.random`, `hashlib` and `_hashlib`, and
  each gets numpy's own objects, never those of a half-imported numpy. A
  build makes its first numpy read on the calling thread, so no eval races;
- `ask` over a built tree refuses those plus `numpy`, and prints the record
  an unrefused `ask` prints;
- `ask --cache` refuses nothing and loads `_hashlib`, and a fixed request's
  cache key equals the one computed while `hashlib` was still imported at
  module top, so caches written then still hit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import videoqa
from videoqa.cli import main

from conftest import build_golden_world

# Where this process imported `videoqa` from: the checkout's `src/` under
# the ini's pythonpath, site-packages for an installed copy. The fresh
# interpreters import the same copy.
PACKAGE_ROOT = Path(videoqa.__file__).parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"

HTTP_CLIENT = ("http", "ssl")
OPENSSL = ("hashlib", "_hashlib")
NUMPY = ("numpy",)
NUMPY_RANDOM = ("numpy.random",)

# CachingBackend.cache_key(chat_request("What happens after the goal?")) over
# MockBackend(MockScript([MockRule("hello", "world")], "fallback")), computed
# while `hashlib` was still imported at module top.
FIXED_CACHE_KEY = "163d83714a90ec3f839ca2883e999deeaf2306ecf96f55bae7f493debbca0c5b"
FIXED_IDENTITY = "mock:6461f4860b1445ebbd7df43f12bfc8edf74f444f2841833ba8d2c2877b933c39"

REFUSE_IMPORTS = """
import json, sys
refused = set(json.loads(sys.argv[1]))
preloaded = refused & set(sys.modules)
assert not preloaded, f"loaded at interpreter start-up: {sorted(preloaded)}"

attempted = set()

class Refuse:
    # Refuses a listed module and its submodules, and records the attempt:
    # code that catches the ImportError (hashlib does, for _hashlib) tried.
    def find_spec(self, name, path=None, target=None):
        if any(name == r or name.startswith(r + ".") for r in refused):
            attempted.add(name)
            raise ImportError(f"import of {name} refused")
        return None

sys.meta_path.insert(0, Refuse())
"""

RUN_REFUSING_IMPORTS = REFUSE_IMPORTS + """
from videoqa.cli import main
assert "numpy" not in sys.modules, "importing videoqa.cli loaded numpy"
code = main(sys.argv[2:])
print(json.dumps({"exit": code, "refused": sorted(attempted),
                  "numpy": "numpy" in sys.modules}))
"""

RACE_NUMPY_REFUSING_IMPORTS = REFUSE_IMPORTS + """
import threading
from videoqa import np
assert "numpy" not in sys.modules, "importing videoqa.np loaded numpy"
THREADS = 8
barrier = threading.Barrier(THREADS, timeout=60)
got = [None] * THREADS

def first_read(i):
    barrier.wait()
    got[i] = (np.asarray, np.linalg)

threads = [threading.Thread(target=first_read, args=(i,))
           for i in range(THREADS)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
import numpy
print(json.dumps({"numpy's own": [g is not None and g[0] is numpy.asarray
                                  and g[1] is numpy.linalg for g in got],
                  "refused": sorted(attempted)}))
"""

CACHE_KEY_AFTER_RUN = """
import json, sys
from videoqa.cli import main
code = main(sys.argv[1:])
from videoqa.backends import (CachingBackend, MockBackend, MockRule,
                              MockScript, chat_request)
cached = CachingBackend(
    MockBackend(MockScript([MockRule("hello", "world")], "fallback")), "fixed")
print(json.dumps({"exit": code, "hashlib": "_hashlib" in sys.modules,
                  "identity": cached.identity,
                  "key": cached.cache_key(
                      chat_request("What happens after the goal?"))}))
"""


def _python(code: str, *args: str, cwd: Path) -> tuple[str, dict]:
    """Run `code` in a fresh interpreter: what it printed before its last
    line, and that line read as JSON."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *printed, last = done.stdout.splitlines(keepends=True)
    return "".join(printed), json.loads(last)


@pytest.fixture(scope="module")
def built(tmp_path_factory) -> tuple[list[str], str]:
    """The argv of an `ask` over a built golden_a tree, and the record it
    prints in this process."""
    root = tmp_path_factory.mktemp("built")
    world = build_golden_world(root / "golden")
    questions = root / "questions.json"
    questions.write_text(json.dumps([{
        "question_id": "a_q1", "text": "Why is the man on the bench looking up?",
        "options": ["a bird flying overhead", "overlooking the children"]}]))
    tree = root / "tree.json"
    assert main(["build", str(world.video_manifests["golden_a"]), str(questions),
                 str(tree), "--mock-script", str(world.script_path)]) == 0
    ask = ["ask", str(tree), str(root / "tree.sidecar.json"),
           "--question", "Why is the man on the bench looking up?",
           "--option", "a bird flying overhead",
           "--option", "overlooking the children",
           "--question-id", "a_q1", "--mock-script", str(world.script_path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(ask) == 0
    return ask, out.getvalue()


def test_mock_eval_loads_no_http_client(tmp_path) -> None:
    world = build_golden_world(tmp_path / "golden")
    _, result = _python(
        RUN_REFUSING_IMPORTS, json.dumps(HTTP_CLIENT + NUMPY_RANDOM + OPENSSL),
        "eval", str(world.dataset_path), "--mock-script", str(world.script_path),
        "--out-records", str(tmp_path / "records.jsonl"),
        "--out-report", str(tmp_path / "report.json"), cwd=tmp_path)
    assert result == {"exit": 0, "refused": [], "numpy": True}
    for name in ("records.jsonl", "report.json"):
        expected = GOLDEN_DIR / "default" / name
        assert (tmp_path / name).read_bytes() == expected.read_bytes(), \
            f"{name} differs from the committed default snapshot"


def test_threads_racing_to_first_numpy_read_get_numpy(tmp_path) -> None:
    _, result = _python(RACE_NUMPY_REFUSING_IMPORTS,
                        json.dumps(NUMPY_RANDOM + OPENSSL), cwd=tmp_path)
    assert result == {"numpy's own": [True] * 8, "refused": []}


def test_mock_ask_loads_no_http_client_numpy_or_openssl(built, tmp_path) -> None:
    ask, expected = built
    record, result = _python(RUN_REFUSING_IMPORTS,
                             json.dumps(HTTP_CLIENT + NUMPY + OPENSSL), *ask,
                             cwd=tmp_path)
    assert result == {"exit": 0, "refused": [], "numpy": False}
    assert record == expected


def test_cached_ask_loads_hashlib_and_keeps_cache_keys(built, tmp_path) -> None:
    ask, expected = built
    record, result = _python(CACHE_KEY_AFTER_RUN, *ask, "--cache", cwd=tmp_path)
    assert result == {"exit": 0, "hashlib": True, "identity": FIXED_IDENTITY,
                      "key": FIXED_CACHE_KEY}
    assert record == expected
    assert any((tmp_path / ".videoqa_cache").glob("*.json")), "cache written"
