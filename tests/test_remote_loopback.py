"""The remote backend's own HTTP transport, over loopback.

Every other RemoteBackend test injects `transport=`. These run an
`http.server` on 127.0.0.1 so that `requests` and `_http_post` carry the
calls: wire shapes, status handling, non-JSON bodies, Retry-After, timeouts,
and concurrent first calls while `requests` is still unloaded. `sleep` and
the jitter draw are injected, so no test waits out a backoff.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from videoqa.backends import (
    RemoteBackend,
    caption_request,
    chat_request,
    embed_request,
)
from videoqa.errors import AuthError, BackendTimeout, MalformedResponseError

TESTS_DIR = Path(__file__).parent
SRC_DIR = TESTS_DIR.parent / "src"

PROXY_VARS = ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY",
              "http_proxy", "https_proxy", "all_proxy")


@dataclass
class Reply:
    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict = field(default_factory=dict)
    delay_s: float = 0.0


def json_reply(doc, status: int = 200, **kwargs) -> Reply:
    return Reply(status, json.dumps(doc).encode("utf-8"), **kwargs)


def chat_reply(content: str) -> Reply:
    return json_reply({"choices": [{"message": {"content": content}}]})


class _Handler(BaseHTTPRequestHandler):
    server: "LoopbackServer"

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        reply = self.server.record(self.path, dict(self.headers),
                                   json.loads(self.rfile.read(length)))
        if reply.delay_s:
            self.server.released.wait(reply.delay_s)
        self.send_response(reply.status)
        self.send_header("Content-Type", reply.content_type)
        self.send_header("Content-Length", str(len(reply.body)))
        for name, value in reply.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(reply.body)

    def log_message(self, format, *args) -> None:
        pass


class LoopbackServer(ThreadingHTTPServer):
    """Serves the queued replies in order, then `default`, and records each
    request as (path, headers, JSON body)."""

    daemon_threads = True

    def __init__(self, default: Reply | None = None):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self.default = default or chat_reply("ok")
        self.queued: list[Reply] = []
        self.requests: list[tuple[str, dict, dict]] = []
        self.released = threading.Event()
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self.serve_forever, args=(0.05,),
                                        daemon=True)

    def record(self, path: str, headers: dict, body: dict) -> Reply:
        with self._lock:
            self.requests.append((path, headers, body))
            return self.queued.pop(0) if self.queued else self.default

    def handle_error(self, request, client_address) -> None:
        pass  # a client that timed out has closed its end

    def __enter__(self) -> "LoopbackServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.released.set()
        self.shutdown()
        self.server_close()


def remote(server: LoopbackServer, sleeps: list | None = None,
           **kwargs) -> RemoteBackend:
    endpoints = {"chat": server.url + "/chat", "caption": server.url + "/chat",
                 "embed": server.url + "/embed"}
    return RemoteBackend(endpoints,
                         sleep=(sleeps.append if sleeps is not None
                                else lambda s: None),
                         uniform=lambda low, high: high / 2, **kwargs)


@pytest.fixture
def server(monkeypatch):
    for var in PROXY_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    with LoopbackServer() as srv:
        yield srv


def test_loopback_wire_shapes_round_trip(server, monkeypatch) -> None:
    monkeypatch.setenv("VIDEOQA_LOOPBACK_KEY", "secret")
    backend = remote(server, api_key_env="VIDEOQA_LOOPBACK_KEY")
    server.queued = [chat_reply("a chat reply"), chat_reply("a caption"),
                     json_reply({"data": [{"embedding": [0.5, 1]}]})]

    assert backend.call(chat_request("what happens?")) == "a chat reply"
    assert backend.call(caption_request("vid:frame:7", "describe")) == "a caption"
    assert backend.call(embed_request("vid:frame:7")) == [0.5, 1.0]

    (chat_path, chat_headers, chat_body), (caption_path, _, caption_body), \
        (embed_path, _, embed_body) = server.requests
    assert chat_path == caption_path == "/chat" and embed_path == "/embed"
    assert chat_headers["Content-Type"] == "application/json"
    assert chat_headers["Authorization"] == "Bearer secret"
    assert chat_body == {"messages": [{"role": "user", "content": "what happens?"}]}
    assert caption_body == {"messages": [
        {"role": "user", "content": "[image: vid:frame:7]\ndescribe"}]}
    assert embed_body == {"input": "vid:frame:7"}


def test_loopback_401_is_auth_error_after_one_request(server) -> None:
    server.default = json_reply({"error": "bad key"}, status=401)
    with pytest.raises(AuthError):
        remote(server).call(chat_request("q"))
    assert len(server.requests) == 1


def test_loopback_200_non_json_is_malformed(server) -> None:
    server.default = Reply(200, b"<html>hello</html>", "text/html")
    with pytest.raises(MalformedResponseError):
        remote(server).call(chat_request("q"))
    assert len(server.requests) == 1


def test_loopback_slow_reply_is_backend_timeout(server) -> None:
    server.default = Reply(delay_s=5.0, body=b"{}")
    with pytest.raises(BackendTimeout):
        remote(server, timeout_s=0.2).call(chat_request("q"))
    assert len(server.requests) == 3, "a timeout is retried twice"


@pytest.mark.parametrize("status", [503, 429])
def test_loopback_error_status_with_html_body_is_retried(server, status) -> None:
    """A load balancer's or rate limiter's HTML error page is retried on its
    status; the body is never parsed."""
    sleeps: list[float] = []
    server.queued = [Reply(status, b"<html>busy</html>", "text/html")]
    assert remote(server, sleeps).call(chat_request("q")) == "ok"
    assert len(server.requests) == 2
    assert sleeps == [0.5], "jittered backoff, uniform(0, 1 s) drawn at its middle"


def test_loopback_retry_after_header_reaches_the_backoff(server) -> None:
    sleeps: list[float] = []
    server.queued = [Reply(429, b"", "text/plain", {"Retry-After": "7"})]
    assert remote(server, sleeps).call(chat_request("q")) == "ok"
    assert sleeps == [7.0]


CONCURRENT_FIRST_CALLS = """
import sys, threading
sys.path.insert(0, sys.argv[1])
import test_remote_loopback as loop

assert "requests" not in sys.modules, "requests loaded before the first call"
with loop.LoopbackServer() as server:
    backend = loop.remote(server)
    start = threading.Barrier(8, timeout=10)
    replies = [None] * 8

    def first_call(i):
        start.wait()
        replies[i] = backend.call(loop.chat_request(f"q{i}"))

    threads = [threading.Thread(target=first_call, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads), "a first call hung"
    assert replies == ["ok"] * 8, replies
    assert len(server.requests) == 8
print("ok")
"""


def test_loopback_concurrent_first_calls_all_succeed() -> None:
    """Eight threads make the process's first remote call at one moment, so
    all of them reach the deferred `import requests` together."""
    env = {k: v for k, v in os.environ.items() if k not in PROXY_VARS}
    env.update(NO_PROXY="127.0.0.1", PYTHONPATH=str(SRC_DIR))
    done = subprocess.run([sys.executable, "-c", CONCURRENT_FIRST_CALLS,
                           str(TESTS_DIR)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
