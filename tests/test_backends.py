from __future__ import annotations

import contextlib
import json
import logging
import shutil
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from videoqa import backends
from videoqa.backends import (
    CachingBackend,
    MockBackend,
    MockScript,
    RemoteBackend,
    View,
    caption_request,
    chat_request,
    embed_request,
    render_payload,
)
from videoqa.errors import (
    BackendError,
    ConfigError,
    MalformedResponseError,
    TransportError,
)

from conftest import RecordingBackend


# ---------------------------------------------------------------------------
# Payload rendering
# ---------------------------------------------------------------------------

def test_default_inflight_limit_is_eight() -> None:
    assert backends.Backend().max_inflight == 8
    assert backends.Backend.from_mock(MockScript()).max_inflight == 8
    assert MockBackend(MockScript()).max_inflight == 8
    assert RemoteBackend({"chat": "http://unit.test/chat"}).max_inflight == 8


def test_render_payload_deterministic() -> None:
    req = chat_request("hello")
    assert render_payload(req) == render_payload(chat_request("hello"))


def test_render_payload_caption_includes_prompt_and_image() -> None:
    rendered = render_payload(caption_request("/data/frame_007.jpg", "describe"))
    assert "/data/frame_007.jpg" in rendered
    assert "describe" in rendered


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


def test_mock_callable_defaults_that_print_alike_have_distinct_identities(
        ) -> None:
    """A callable default is named by the object, not by its repr, so a
    cache never serves one callable's replies to another."""
    class Reply:
        def __init__(self, text: str) -> None:
            self.text = text

        def __call__(self, rendered: str) -> str:
            return self.text

        def __repr__(self) -> str:
            return "Reply()"

    first, second = (MockBackend(MockScript(default_response=Reply(text)))
                     for text in ("A", "B"))
    assert first.identity != second.identity


def test_mock_no_rule_no_default_raises_and_logs() -> None:
    backend = RecordingBackend(MockBackend(MockScript()))
    with pytest.raises(BackendError, match="no mock rule matches: "):
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
    """`transport` and `timeout` are the kind a remote backend retries;
    `auth` is a backend failure that is not, and `malformed` a reply that
    carries no result."""
    script = MockScript()
    script.add("boom", error="transport")
    script.add("slow", error="timeout")
    script.add("denied", error="auth")
    script.add("garbled", error="malformed")
    backend = MockBackend(script)
    with pytest.raises(TransportError, match="scripted transport failure"):
        backend.call(chat_request("boom"))
    with pytest.raises(TransportError, match="scripted timeout failure"):
        backend.call(chat_request("slow"))
    with pytest.raises(BackendError, match="scripted auth failure") as caught:
        backend.call(chat_request("denied"))
    assert not isinstance(caught.value, TransportError)
    with pytest.raises(MalformedResponseError, match="scripted malformed failure"):
        backend.call(chat_request("garbled"))


def test_mock_script_unknown_error_kind_is_refused_at_load(tmp_path) -> None:
    """A misspelt kind exits 4 when the script loads, naming the field,
    rather than failing each call it matches as some backend error."""
    path = tmp_path / "script.json"
    path.write_text('{"rules": [{"match": "hi", "response": "there"}, '
                    '{"match": "boom", "error": "tranport"}]}')
    with pytest.raises(ConfigError, match=(
            r"#/rules/1/error: expected one of transport, timeout, auth, "
            r'malformed, got "tranport"')) as caught:
        MockScript.from_file(path)
    assert caught.value.exit_code == 4
    path.write_text('[{"match": "boom", "error": "malformed"}, '
                    '{"match": "hi", "response": "there", "error": null}]')
    assert [rule.error for rule in MockScript.from_file(path).rules] == [
        "malformed", None]


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


@pytest.mark.parametrize("limit", [0, -3])
def test_inflight_limit_below_one_is_refused(limit) -> None:
    """Refused, not clamped to 1; a semaphore of 0 would block every call."""
    with pytest.raises(ConfigError, match=f"^backend.max_inflight must be >= 1, got {limit}$"):
        MockBackend(MockScript(default_response="ok"), max_inflight=limit)
    with pytest.raises(ConfigError, match="max_inflight"):
        RemoteBackend({"chat": "http://unit.test/chat"}, max_inflight=limit)


# ---------------------------------------------------------------------------
# The in-flight gate and answering views (`View.answering`)
# ---------------------------------------------------------------------------

class HeldModel:
    """A mock default whose chat call on prompt `name` signals `reached[name]`
    and returns only once `go[name]` is set."""

    def __init__(self, *names: str) -> None:
        self.reached = {name: threading.Event() for name in names}
        self.go = {name: threading.Event() for name in names}

    def __call__(self, rendered: str) -> str:
        name = json.loads(rendered.split(":", 1)[1])["messages"][0]["content"]
        self.reached[name].set()
        assert self.go[name].wait(5), f"{name} held past the test"
        return "ok"

    def release_all(self) -> None:
        for go in self.go.values():
            go.set()


def _calling(backend, name: str) -> threading.Thread:
    """`backend.call` on chat prompt `name`, on a thread of its own."""
    thread = threading.Thread(target=backend.call, args=(chat_request(name),),
                              daemon=True)
    thread.start()
    return thread


def _not_reached(model: HeldModel, name: str) -> bool:
    """The call on `name` is still waiting for a slot a while later."""
    return not model.reached[name].wait(0.2)


@pytest.mark.parametrize("ends", ["view closes", "other call returns"])
def test_a_call_outside_a_view_leaves_a_slot_for_an_idle_view(ends) -> None:
    """At limit 2, with one build call in flight and one answering view
    open, a second build call waits: the other slot is the view's. The view
    takes it for a call and frees it again, and the build call still waits,
    until the view closes or the first build call returns. Then a third
    waits: the limit is the same as before the view opened."""
    model = HeldModel("b1", "b2", "b3", "a1")
    backend = MockBackend(MockScript(default_response=model), max_inflight=2)
    threads = [_calling(backend, "b1")]
    try:
        assert model.reached["b1"].wait(5)
        admitted = threading.Event()
        with contextlib.ExitStack() as open_view:
            view = open_view.enter_context(View(backend).answering(admitted))
            threads.append(_calling(backend, "b2"))
            assert _not_reached(model, "b2")
            assert not admitted.is_set()
            model.go["a1"].set()
            assert view.call(chat_request("a1")) == "ok"
            assert admitted.is_set()
            assert _not_reached(model, "b2")
            if ends == "view closes":
                open_view.close()
            else:
                model.go["b1"].set()
            assert model.reached["b2"].wait(5)
            threads.append(_calling(backend, "b3"))
            assert _not_reached(model, "b3")
    finally:
        model.release_all()
        for thread in threads:
            thread.join(5)
    assert not any(thread.is_alive() for thread in threads)


def test_an_answer_call_is_admitted_whenever_a_slot_is_free() -> None:
    """At limit 2, with a build call in flight and two views open, one
    view's call goes out at once, over the other view's held slot, and the
    other's waits only until a slot frees. A view with a call in flight
    holds no slot beyond it: once the other view closes, a build call takes
    the free slot."""
    model = HeldModel("b1", "b2", "a1", "a2")
    backend = MockBackend(MockScript(default_response=model), max_inflight=2)
    threads = [_calling(backend, "b1")]
    try:
        assert model.reached["b1"].wait(5)
        with View(backend).answering(threading.Event()) as first:
            with View(backend).answering(threading.Event()) as second:
                threads.append(_calling(first, "a1"))
                assert model.reached["a1"].wait(5)
                threads.append(_calling(second, "a2"))
                assert _not_reached(model, "a2")
                model.go["b1"].set()
                assert model.reached["a2"].wait(5)
                model.go["a2"].set()
                threads[-1].join(5)
            threads.append(_calling(backend, "b2"))
            assert model.reached["b2"].wait(5)
            model.go["a1"].set()
            threads[1].join(5)  # the view closes once its call returned
    finally:
        model.release_all()
        for thread in threads:
            thread.join(5)
    assert not any(thread.is_alive() for thread in threads)


def test_a_release_wakes_one_waiter_when_no_view_is_open(monkeypatch) -> None:
    """At limit 1, with three calls waiting behind one in flight and no
    view open, each release wakes one waiter, the one it admits; waking
    every waiter cost the build path (build_1h p50 +0.5%)."""
    waiting, woken = [], []

    class CountingCondition(threading.Condition):
        def wait(self, timeout=None):
            waiting.append(1)
            result = super().wait(timeout)
            woken.append(1)
            return result

    model = HeldModel("c0", "c1", "c2", "c3")
    with monkeypatch.context() as patch:
        patch.setattr(threading, "Condition", CountingCondition)
        backend = MockBackend(MockScript(default_response=model),
                              max_inflight=1)
    threads = [_calling(backend, "c0")]
    try:
        assert model.reached["c0"].wait(5)
        threads += [_calling(backend, f"c{i}") for i in (1, 2, 3)]
        for _ in range(500):
            if len(waiting) == 3:
                break
            time.sleep(0.01)
        assert len(waiting) == 3
        model.go["c0"].set()
        admitted = [name for name in ("c1", "c2", "c3")
                    if model.reached[name].wait(0.5)]
        assert len(admitted) == 1
        time.sleep(0.1)
        assert len(woken) == 1
    finally:
        model.release_all()
        for thread in threads:
            thread.join(5)


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


@pytest.mark.parametrize("url", ["model-host/chat", "gopher://model.test/chat",
                                 "file://{reply}", "data:application/json,{{}}"])
def test_remote_unusable_endpoint_url_is_transport_error(url, tmp_path) -> None:
    """An endpoint with no scheme, or with any scheme but http and https,
    fails like an unreachable host: a file holding a valid reply is not
    read."""
    reply = tmp_path / "reply.json"
    reply.write_text(json.dumps(_chat_body("read from a file")))
    url = url.format(reply=reply)
    sleeps: list[float] = []
    backend = RemoteBackend({"chat": url}, sleep=sleeps.append,
                            uniform=lambda low, high: 0.0)
    with pytest.raises(TransportError):
        backend.call(chat_request("q"))
    assert len(sleeps) == 2, "retried twice, as any transport failure"


def test_remote_auth_failure_not_retried() -> None:
    for status in (401, 403):
        backend, transport = _remote([(status, {})])
        with pytest.raises(BackendError, match=f"authentication rejected by "
                           f"http://unit.test/chat \\({status}\\)") as caught:
            backend.call(chat_request("q"))
        assert not isinstance(caught.value, TransportError)
        assert transport.calls == 1


def test_remote_timeout_is_retried_as_transport_error() -> None:
    timeout = TransportError("request to http://unit.test/chat timed out")
    backend, transport = _remote([timeout, timeout, timeout])
    with pytest.raises(TransportError, match="timed out"):
        backend.call(chat_request("q"))
    assert transport.calls == 3, "a timeout is retried twice"


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


def test_remote_3xx_is_backend_error() -> None:
    """Redirects are not followed, so a 3xx reply is an error, not a body."""
    backend, transport = _remote([(300, _chat_body("ok"))])
    with pytest.raises(BackendError, match="returned 300"):
        backend.call(chat_request("q"))
    assert transport.calls == 1


def test_remote_embed_parsing() -> None:
    backend, _ = _remote([(200, {"data": [{"embedding": [0.5, 1.5]}]})])
    assert backend.call(embed_request(image_ref="v")) == [0.5, 1.5]


def test_remote_no_endpoint_for_capability() -> None:
    backend = RemoteBackend({"chat": "http://unit.test/chat"},
                            transport=FakeTransport([]), sleep=lambda s: None)
    with pytest.raises(BackendError,
                       match="no endpoint configured for capability 'caption'"):
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


def test_remote_retry_after_equal_to_the_timeout_is_slept() -> None:
    sleeps: list[float] = []
    transport = FakeTransport([(503, None, {"Retry-After": "60"}),
                               (200, _chat_body("ok"))])
    backend = RemoteBackend({"chat": "http://unit.test/chat"}, timeout_s=60.0,
                            transport=transport, sleep=sleeps.append)
    assert backend.call(chat_request("q")) == "ok"
    assert sleeps == [60.0]


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


def test_cache_checks_each_reply_once(tmp_path, monkeypatch) -> None:
    """A miss is checked by the inner call alone, a hit by the cache alone."""
    checks: list[str] = []
    real_checked = backends._checked

    def spy(capability, reply):
        checks.append(capability)
        return real_checked(capability, reply)

    monkeypatch.setattr(backends, "_checked", spy)
    served: list[str] = []
    cached = CachingBackend(MockBackend(MockScript(
        default_response=lambda rendered: served.append(rendered) or "answer")),
        tmp_path / "cache")
    assert cached.call(chat_request("q")) == "answer"
    assert len(served) == 1 and checks == ["chat"]
    assert cached.call(chat_request("q")) == "answer"
    assert len(served) == 1 and checks == ["chat", "chat"]


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


def test_cache_never_serves_another_mock_scripts_response(tmp_path) -> None:
    first = CachingBackend(MockBackend(MockScript(default_response="A")),
                           tmp_path / "cache")
    assert first.call(chat_request("q")) == "A"
    inner = RecordingBackend(MockBackend(MockScript(default_response="B")))
    second = CachingBackend(inner, tmp_path / "cache")
    assert second.call(chat_request("q")) == "B"
    assert len(inner.calls) == 1


def test_cache_shared_across_threads(tmp_path, caplog) -> None:
    """Eight threads share one cache over four keys: every call gets its
    reply, and concurrent writers of one key leave one whole entry and no
    temp file behind."""
    cached = CachingBackend(MockBackend(MockScript(default_response="ok")),
                            tmp_path / "cache")
    replies: list[str] = []
    threads = [threading.Thread(target=lambda: replies.extend(
        [cached.call(chat_request(f"q{i % 4}")) for i in range(25)]))
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
    assert replies == ["ok"] * 200
    assert "corrupt cache entry" not in caplog.text
    assert sorted(f.name for f in (tmp_path / "cache").iterdir()) == sorted(
        f"{cached.cache_key(chat_request(f'q{i}'))}.json" for i in range(4))


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
        assert cached.call(request) == fresh, "the entry was rewritten"
        assert len(inner.calls) == calls


def test_cache_entry_that_is_a_directory_is_a_logged_miss(tmp_path,
                                                           caplog) -> None:
    """An entry path that cannot be read is a miss, and one that cannot be
    replaced either is a logged uncached call, never a raw OSError."""
    inner = RecordingBackend(MockBackend(MockScript(default_response="fresh")))
    cached = CachingBackend(inner, tmp_path / "cache")
    request = chat_request("q")
    (tmp_path / "cache" / f"{cached.cache_key(request)}.json").mkdir()
    with caplog.at_level(logging.WARNING, logger="videoqa.backends"):
        assert cached.call(request) == "fresh"
    assert "corrupt cache entry" in caplog.text
    assert "cannot be written" in caplog.text
    assert len(inner.calls) == 1


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
    assert not (tmp_path / "cache").exists()


def test_cache_temp_name_unique_per_process(tmp_path) -> None:
    """A writer in another process may hold a temp file named after the same
    key and thread id; this process's write must leave it alone."""
    cached = CachingBackend(MockBackend(MockScript(default_response="mine")),
                            tmp_path / "cache")
    request = chat_request("q")
    name = f"{cached.cache_key(request)}.json.{threading.get_ident()}.tmp"
    other = tmp_path / "cache" / name
    other.write_text("half-written by another process")
    assert cached.call(request) == "mine"
    assert other.read_text() == "half-written by another process"
    assert list((tmp_path / "cache").glob("*.tmp")) == [other]
