from __future__ import annotations

import json
import logging
import shutil
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from videoqa.backends import (
    BackendRequest,
    CachingBackend,
    MockBackend,
    MockScript,
    RemoteBackend,
    caption_request,
    chat_request,
    embed_request,
    render_payload,
)
from videoqa.errors import (
    AuthError,
    BackendError,
    BackendTimeout,
    CapabilityMismatchError,
    MalformedResponseError,
    MockScriptError,
    TransportError,
)

from conftest import RecordingBackend


# ---------------------------------------------------------------------------
# Payload rendering
# ---------------------------------------------------------------------------

def test_render_payload_deterministic() -> None:
    req = chat_request("hello")
    assert render_payload(req) == render_payload(chat_request("hello"))


def test_render_payload_caption_includes_prompt_and_image() -> None:
    rendered = render_payload(caption_request("/data/frame_007.jpg", "describe"))
    assert "/data/frame_007.jpg" in rendered
    assert "describe" in rendered


def test_unknown_capability_rejected() -> None:
    with pytest.raises(ValueError):
        BackendRequest("transcribe", {})


# ---------------------------------------------------------------------------
# Mock backend
# ---------------------------------------------------------------------------

def test_mock_first_matching_rule_wins() -> None:
    script = MockScript()
    script.add("relevance", "4")
    script.add("relevance of this", "9")
    backend = MockBackend(script)
    assert backend.call(chat_request("rate the relevance of this")) == "4"


def test_mock_regex_rule() -> None:
    script = MockScript()
    script.add(r"frame:1\d\b", "teen frame", regex=True)
    script.add("frame:", "other frame")
    backend = MockBackend(script)
    assert backend.call(caption_request("vid:frame:12", "x")) == "teen frame"
    assert backend.call(caption_request("vid:frame:3", "x")) == "other frame"


def test_mock_default_response_and_call_log() -> None:
    script = MockScript(default_response="fallback")
    backend = RecordingBackend(MockBackend(script))
    assert backend.call(chat_request("anything")) == "fallback"
    assert backend.call(chat_request("else")) == "fallback"
    assert len(backend.calls) == 2
    assert backend.calls[0].capability == "chat"


def test_mock_callable_default() -> None:
    script = MockScript(default_response=lambda rendered: rendered[:4])
    backend = MockBackend(script)
    assert backend.call(chat_request("x")) == "chat"


def test_mock_no_rule_no_default_raises_and_logs() -> None:
    backend = RecordingBackend(MockBackend(MockScript()))
    with pytest.raises(MockScriptError):
        backend.call(chat_request("nothing matches"))
    assert len(backend.calls) == 1
    assert backend.calls[0].error is not None


def test_mock_embed_response_coercion() -> None:
    """An embed reply is a list of finite numbers, read as floats; a text
    reply is a string. Anything else, a JSON string of a list included, is
    malformed."""
    script = MockScript()
    script.add("as-list", [1, 2.5])
    for name, reply in [("as-json", "[0.1, 0.2]"), ("as-text", "not a vector"),
                        ("bools", [True, 0]), ("digits", ["1.5"]),
                        ("infinite", [float("inf")]), ("null", None)]:
        script.add(name, reply)
    backend = MockBackend(script)
    assert backend.call(embed_request(image_ref="as-list")) == [1.0, 2.5]
    for name in ("as-json", "as-text", "bools", "digits", "infinite", "null"):
        with pytest.raises(MalformedResponseError, match="embed reply#"):
            backend.call(embed_request(image_ref=name))
    for name in ("as-list", "bools", "null"):
        with pytest.raises(MalformedResponseError, match="chat reply#"):
            backend.call(chat_request(name))


def test_mock_scripted_error_kinds() -> None:
    script = MockScript()
    script.add("boom", error="transport")
    script.add("slow", error="timeout")
    script.add("denied", error="auth")
    backend = MockBackend(script)
    with pytest.raises(TransportError):
        backend.call(chat_request("boom"))
    with pytest.raises(BackendTimeout):
        backend.call(chat_request("slow"))
    with pytest.raises(AuthError):
        backend.call(chat_request("denied"))


def test_mock_script_file_roundtrip(tmp_path) -> None:
    path = tmp_path / "script.json"
    path.write_text('{"rules": [{"match": "hi", "response": "there"}], '
                    '"default_response": "dunno"}')
    backend = MockBackend(MockScript.from_file(path))
    assert backend.call(chat_request("hi")) == "there"
    assert backend.call(chat_request("other")) == "dunno"


def test_mock_determinism_identical_sequences() -> None:
    def run() -> list:
        script = MockScript(default_response="d")
        script.add("alpha", "1")
        script.add("beta", "2")
        backend = RecordingBackend(MockBackend(script))
        out = [backend.call(chat_request(p)) for p in ("alpha", "beta", "x")]
        return out + [(r.capability, r.rendered, r.response)
                      for r in backend.calls]

    assert run() == run()


def test_mock_call_log_thread_safe() -> None:
    backend = RecordingBackend(MockBackend(MockScript(default_response="ok")))
    threads = [threading.Thread(
        target=lambda: [backend.call(chat_request(f"t{i}")) for i in range(20)])
        for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(backend.calls) == 160


# ---------------------------------------------------------------------------
# Remote backend (fake transport, no network)
# ---------------------------------------------------------------------------

def _chat_body(content: str) -> dict:
    return {"choices": [{"message": {"content": content}}]}


class FakeTransport:
    """Replays outcomes: an exception to raise, or `(status, body)` or
    `(status, body, reply_headers)`."""

    def __init__(self, outcomes: list):
        self.outcomes = list(outcomes)
        self.calls = 0

    def __call__(self, url, headers, body, timeout):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome if len(outcome) == 3 else (*outcome, {})


def half_of_range(low: float, high: float) -> float:
    """A fixed stand-in for the jitter draw `uniform(low, high)`."""
    return (low + high) / 2


def _remote(outcomes: list) -> tuple[RemoteBackend, FakeTransport]:
    transport = FakeTransport(outcomes)
    backend = RemoteBackend({"chat": "http://unit.test/chat",
                             "embed": "http://unit.test/embed"},
                            transport=transport, sleep=lambda s: None)
    return backend, transport


def test_remote_retries_5xx_then_succeeds() -> None:
    """429 (too many requests) is retried on the same schedule as 5xx."""
    for status in (500, 429):
        sleeps: list[float] = []
        transport = FakeTransport([(status, {}), (status, {}),
                                   (200, _chat_body("ok"))])
        backend = RemoteBackend({"chat": "http://unit.test/chat"},
                                transport=transport, sleep=sleeps.append,
                                uniform=half_of_range)
        assert backend.call(chat_request("q")) == "ok"
        assert transport.calls == 3
        assert sleeps == [0.5, 1.0], "two retries"


def test_remote_gives_up_after_two_retries() -> None:
    for statuses in ((500, 503, 502), (429, 429, 429)):
        backend, transport = _remote([(status, {}) for status in statuses])
        with pytest.raises(TransportError):
            backend.call(chat_request("q"))
        assert transport.calls == 3


def test_remote_transport_errors_retried() -> None:
    backend, transport = _remote([TransportError("reset"),
                                  (200, _chat_body("ok"))])
    assert backend.call(chat_request("q")) == "ok"
    assert transport.calls == 2


def test_remote_auth_failure_not_retried() -> None:
    backend, transport = _remote([(401, {})])
    with pytest.raises(AuthError):
        backend.call(chat_request("q"))
    assert transport.calls == 1


def test_remote_timeout_is_distinct_kind() -> None:
    backend, _ = _remote([BackendTimeout("slow"), BackendTimeout("slow"),
                          BackendTimeout("slow")])
    with pytest.raises(BackendTimeout):
        backend.call(chat_request("q"))


def test_remote_malformed_response() -> None:
    for body in [{"unexpected": True}, [], {"choices": []},
                 {"choices": [{"message": "hi"}]}, _chat_body(None),
                 _chat_body(["hi"]), {"choices": [{"message": {}}]}]:
        backend, _ = _remote([(200, body)])
        with pytest.raises(MalformedResponseError):
            backend.call(chat_request("q"))
    for body in [{"data": [{"embedding": [True, 0]}]},
                 {"data": [{"embedding": ["1.5"]}]}, {"data": [{}]},
                 {"data": [{"embedding": "[0.5]"}]}, {"data": []}]:
        backend, _ = _remote([(200, body)])
        with pytest.raises(MalformedResponseError):
            backend.call(embed_request(image_ref="v"))


def test_remote_4xx_is_backend_error() -> None:
    backend, _ = _remote([(404, {})])
    with pytest.raises(BackendError):
        backend.call(chat_request("q"))


def test_remote_embed_parsing() -> None:
    backend, _ = _remote([(200, {"data": [{"embedding": [0.5, 1.5]}]})])
    assert backend.call(embed_request(image_ref="v")) == [0.5, 1.5]


def test_remote_no_endpoint_for_capability() -> None:
    backend = RemoteBackend({"chat": "http://unit.test/chat"},
                            transport=FakeTransport([]), sleep=lambda s: None)
    with pytest.raises(CapabilityMismatchError):
        backend.call(caption_request("img", "p"))


def test_remote_backoff_schedule() -> None:
    """Full jitter: attempt n sleeps uniform(0, 1 s * 2^n)."""
    sleeps: list[float] = []
    draws: list[tuple[float, float]] = []

    def uniform(low: float, high: float) -> float:
        draws.append((low, high))
        return high / 4

    transport = FakeTransport([(500, {}), TransportError("reset"),
                               (200, _chat_body("ok"))])
    backend = RemoteBackend({"chat": "http://unit.test/chat"},
                            transport=transport, sleep=sleeps.append,
                            uniform=uniform)
    backend.call(chat_request("q"))
    assert draws == [(0.0, 1.0), (0.0, 2.0)]
    assert sleeps == [0.25, 0.5]


@pytest.mark.parametrize("name", ["Retry-After", "retry-after"])
def test_remote_retry_after_seconds_slept_as_given(name) -> None:
    sleeps: list[float] = []
    transport = FakeTransport([(429, None, {name: "3"}),
                               (503, None, {name: " 0 "}),
                               (200, _chat_body("ok"))])
    backend = RemoteBackend({"chat": "http://unit.test/chat"},
                            transport=transport, sleep=sleeps.append,
                            uniform=half_of_range)
    assert backend.call(chat_request("q")) == "ok"
    assert sleeps == [3.0, 0.0]


def test_remote_retry_after_beyond_timeout_fails_without_sleeping() -> None:
    sleeps: list[float] = []
    transport = FakeTransport([(503, None, {"Retry-After": "61"})])
    backend = RemoteBackend({"chat": "http://unit.test/chat"}, timeout_s=60.0,
                            transport=transport, sleep=sleeps.append)
    with pytest.raises(TransportError, match="Retry-After 61 s"):
        backend.call(chat_request("q"))
    assert transport.calls == 1
    assert sleeps == []


@pytest.mark.parametrize("value", ["Wed, 21 Oct 2015 07:28:00 GMT", "soon",
                                   "-5", "1.5", "", "\u00b2"])
def test_remote_retry_after_date_or_garbage_falls_back_to_jitter(value) -> None:
    sleeps: list[float] = []
    transport = FakeTransport([(429, None, {"Retry-After": value}),
                               (200, _chat_body("ok"))])
    backend = RemoteBackend({"chat": "http://unit.test/chat"},
                            transport=transport, sleep=sleeps.append,
                            uniform=half_of_range)
    assert backend.call(chat_request("q")) == "ok"
    assert sleeps == [0.5]


# ---------------------------------------------------------------------------
# Response cache
# ---------------------------------------------------------------------------

def test_cache_serves_repeat_without_inner_call(tmp_path) -> None:
    inner = RecordingBackend(MockBackend(MockScript(default_response="cached-answer")))
    cached = CachingBackend(inner, tmp_path / "cache")
    assert cached.call(chat_request("q")) == "cached-answer"
    assert cached.call(chat_request("q")) == "cached-answer"
    assert len(inner.calls) == 1
    assert cached.hits == 1 and cached.misses == 1


def test_cache_persists_across_instances(tmp_path) -> None:
    first = CachingBackend(MockBackend(MockScript(default_response="answer")),
                           tmp_path / "cache")
    first.call(chat_request("q"))
    fresh = RecordingBackend(MockBackend(MockScript(default_response="answer")))
    second = CachingBackend(fresh, tmp_path / "cache")
    assert second.call(chat_request("q")) == "answer"
    assert len(fresh.calls) == 0


def test_cache_never_serves_another_backends_response(tmp_path) -> None:
    """A mock-served entry must not answer a remote backend's call."""
    mock_cached = CachingBackend(MockBackend(MockScript(default_response="mock")),
                                 tmp_path / "cache")
    assert mock_cached.call(chat_request("q")) == "mock"
    transport = FakeTransport([(200, _chat_body("remote"))])
    remote = RemoteBackend({"chat": "http://unit.test/chat"},
                           transport=transport, sleep=lambda s: None)
    remote_cached = CachingBackend(remote, tmp_path / "cache")
    assert remote_cached.call(chat_request("q")) == "remote"
    assert transport.calls == 1
    assert remote_cached.hits == 0 and remote_cached.misses == 1


def test_cache_never_serves_another_mock_scripts_response(tmp_path) -> None:
    first = CachingBackend(MockBackend(MockScript(default_response="A")),
                           tmp_path / "cache")
    assert first.call(chat_request("q")) == "A"
    second = CachingBackend(MockBackend(MockScript(default_response="B")),
                            tmp_path / "cache")
    assert second.call(chat_request("q")) == "B"
    assert second.hits == 0 and second.misses == 1


def test_cache_counters_thread_safe(tmp_path) -> None:
    """Eight threads share one cache: every call counts as one hit or one
    miss, none is lost."""
    cached = CachingBackend(MockBackend(MockScript(default_response="ok")),
                            tmp_path / "cache")
    threads = [threading.Thread(
        target=lambda: [cached.call(chat_request(f"q{i % 4}")) for i in range(25)])
        for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert cached.hits + cached.misses == 200


def test_cache_distinguishes_payloads(tmp_path) -> None:
    inner = RecordingBackend(MockBackend(MockScript(default_response="x")))
    cached = CachingBackend(inner, tmp_path / "cache")
    cached.call(chat_request("one"))
    cached.call(chat_request("two"))
    assert len(inner.calls) == 2


def test_cache_keeps_inner_inflight_limit(tmp_path) -> None:
    """The cache adds no cap of its own: 16 distinct requests through a
    32-in-flight inner backend all wait inside it at once."""
    barrier = threading.Barrier(16, timeout=5)

    def transport(url, headers, body, timeout):
        barrier.wait()
        return 200, _chat_body("answer"), {}

    inner = RemoteBackend({"chat": "http://unit.test/chat"}, max_inflight=32,
                          transport=transport, sleep=lambda s: None)
    cached = CachingBackend(inner, tmp_path / "cache")
    with ThreadPoolExecutor(max_workers=16) as pool:
        replies = list(pool.map(lambda i: cached.call(chat_request(f"q{i}")),
                                range(16)))
    assert replies == ["answer"] * 16, "peak in flight above 8"


@pytest.mark.parametrize("entry", ["{not json", json.dumps({"reply": "x"}),
                                   json.dumps(["response"]),
                                   json.dumps({"response": None}),
                                   json.dumps({"response": [True]})])
def test_cache_corrupt_entry_is_a_logged_miss(tmp_path, caplog, entry) -> None:
    """An entry that is no reply at all, or whose response fails the reply
    check, on a chat key and on an embed key alike."""
    inner = RecordingBackend(MockBackend(MockScript(
        default_response=lambda r: [1.0] if r.startswith("embed") else "fresh")))
    cached = CachingBackend(inner, tmp_path / "cache")
    for calls, (request, fresh) in enumerate(
            [(chat_request("q"), "fresh"), (embed_request("img"), [1.0])], 1):
        (tmp_path / "cache" / f"{cached.cache_key(request)}.json").write_text(entry)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="videoqa.backends"):
            assert cached.call(request) == fresh
        assert "corrupt cache entry" in caplog.text
        assert len(inner.calls) == calls
        assert cached.hits == calls - 1 and cached.misses == calls
        assert cached.call(request) == fresh, "the entry was rewritten"
        assert len(inner.calls) == calls


def test_cache_directory_removed_is_a_logged_uncached_call(tmp_path,
                                                         caplog) -> None:
    inner = RecordingBackend(MockBackend(MockScript(default_response="fresh")))
    cached = CachingBackend(inner, tmp_path / "cache")
    assert cached.call(chat_request("first")) == "fresh"
    shutil.rmtree(tmp_path / "cache")
    with caplog.at_level(logging.WARNING, logger="videoqa.backends"):
        assert cached.call(chat_request("second")) == "fresh"
        assert cached.call(chat_request("first")) == "fresh"
    assert caplog.text.count("cannot be written") == 2
    assert len(inner.calls) == 3
    assert cached.hits == 0 and cached.misses == 3
    assert not (tmp_path / "cache").exists()


def test_cache_temp_name_unique_per_process(tmp_path) -> None:
    """A writer in another process may hold a temp file named after the same
    key and thread id; this process's write must leave it alone."""
    cached = CachingBackend(MockBackend(MockScript(default_response="mine")),
                            tmp_path / "cache")
    request = chat_request("q")
    other = (tmp_path / "cache"
             / f"{cached.cache_key(request)}.{threading.get_ident()}.tmp")
    other.write_text("half-written by another process")
    assert cached.call(request) == "mine"
    assert other.read_text() == "half-written by another process"
    assert list((tmp_path / "cache").glob("*.tmp")) == [other]
