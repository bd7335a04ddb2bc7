"""The remote backend's own HTTP transport, over loopback.

Every other RemoteBackend test injects `transport=`. These run an
`http.server` on 127.0.0.1 so that `urllib.request` and `_http_post` carry
the calls: wire shapes, status handling, redirects, non-JSON bodies, cut
replies, Retry-After, timeouts, TLS trust, proxies from the environment, and
concurrent first calls in a process that had not loaded `urllib.request`. `sleep` and
the jitter draw are injected, so no test waits out a backoff.

`loopback_cert.pem` and `loopback_key.pem` are a self-signed P-256 pair for
IP 127.0.0.1, valid for 50 years from 2026, made once with
`openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes
-days 18262 -subj /CN=127.0.0.1 -addext subjectAltName=IP:127.0.0.1
-addext basicConstraints=critical,CA:TRUE
-addext keyUsage=critical,digitalSignature,keyCertSign`.
"""

from __future__ import annotations

import json
import os
import ssl
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
from videoqa.errors import (
    BackendError,
    MalformedResponseError,
    TransportError,
)

TESTS_DIR = Path(__file__).parent
SRC_DIR = TESTS_DIR.parent / "src"
CERT = TESTS_DIR / "loopback_cert.pem"
KEY = TESTS_DIR / "loopback_key.pem"

PROXY_VARS = ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY",
              "http_proxy", "https_proxy", "all_proxy")


@dataclass
class Reply:
    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict = field(default_factory=dict)
    delay_s: float = 0.0
    length: int | None = None  # a Content-Length above len(body) cuts the reply


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
        self.send_header("Content-Length", str(reply.length or len(reply.body)))
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

    def __init__(self, default: Reply | None = None, tls: bool = False):
        super().__init__(("127.0.0.1", 0), _Handler)
        if tls:  # each connection's handshake runs in accept()
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(CERT, KEY)
            self.socket = context.wrap_socket(self.socket, server_side=True)
        scheme = "https" if tls else "http"
        self.url = f"{scheme}://127.0.0.1:{self.server_address[1]}"
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
def no_proxy(monkeypatch):
    for var in PROXY_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")


@pytest.fixture
def server(no_proxy):
    with LoopbackServer() as srv:
        yield srv


@pytest.fixture
def tls_server(no_proxy):
    with LoopbackServer(tls=True) as srv:
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
    with pytest.raises(BackendError, match="authentication rejected") as caught:
        remote(server).call(chat_request("q"))
    assert not isinstance(caught.value, TransportError)
    assert len(server.requests) == 1


def test_loopback_200_non_json_is_malformed(server) -> None:
    server.default = Reply(200, b"<html>hello</html>", "text/html")
    with pytest.raises(MalformedResponseError):
        remote(server).call(chat_request("q"))
    assert len(server.requests) == 1


def test_loopback_slow_reply_is_a_transport_error_after_retries(server) -> None:
    server.default = Reply(delay_s=5.0, body=b"{}")
    with pytest.raises(TransportError, match=r"^request to \S+/chat timed out$"):
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


@pytest.mark.parametrize("status", [302, 307])
def test_loopback_redirect_fails_and_the_api_key_stays(server, monkeypatch,
                                                       status) -> None:
    """Redirects are not followed: a 3xx fails the call unretried, and the
    host `Location` names never sees the request or its Authorization."""
    monkeypatch.setenv("VIDEOQA_LOOPBACK_KEY", "secret")
    with LoopbackServer() as elsewhere:
        server.default = Reply(status, b"", "text/plain",
                               {"Location": elsewhere.url + "/chat"})
        with pytest.raises(BackendError, match=f"returned {status}"):
            remote(server, api_key_env="VIDEOQA_LOOPBACK_KEY").call(chat_request("q"))
        assert elsewhere.requests == []
    assert len(server.requests) == 1
    assert server.requests[0][1]["Authorization"] == "Bearer secret"


def test_loopback_cut_reply_is_retried_transport_error(server) -> None:
    """A body shorter than its Content-Length is a transport failure."""
    server.default = Reply(body=b'{"choices": [', length=100)
    with pytest.raises(TransportError):
        remote(server).call(chat_request("q"))
    assert len(server.requests) == 3, "a cut reply is retried twice"


def test_loopback_tls_trusts_the_certificate_ssl_cert_file_names(
        tls_server, monkeypatch) -> None:
    monkeypatch.setenv("SSL_CERT_FILE", str(CERT))
    assert remote(tls_server).call(chat_request("q")) == "ok"
    assert len(tls_server.requests) == 1


def test_loopback_tls_refuses_a_certificate_outside_the_ca_store(
        tls_server, monkeypatch) -> None:
    """Trust comes from OpenSSL's default store, which lacks the self-signed
    certificate: every attempt fails its handshake before any request."""
    for var in ("SSL_CERT_FILE", "SSL_CERT_DIR"):
        monkeypatch.delenv(var, raising=False)
    with pytest.raises(TransportError):
        remote(tls_server).call(chat_request("q"))
    assert tls_server.requests == []


def test_loopback_proxy_from_the_environment_gets_the_absolute_url(
        server, monkeypatch) -> None:
    """The proxy is read when the backend is built."""
    monkeypatch.setenv("HTTP_PROXY", server.url)
    backend = RemoteBackend({"chat": "http://model.invalid/chat"},
                            sleep=lambda s: None)
    assert backend.call(chat_request("q")) == "ok"
    assert [path for path, _, _ in server.requests] == [
        "http://model.invalid/chat"]


CONCURRENT_FIRST_CALLS = """
import sys, threading
sys.path.insert(0, sys.argv[1])
import test_remote_loopback as loop

assert "urllib.request" not in sys.modules, "urllib.request loaded before the first call"
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
    """Eight threads make the process's first remote call at one moment,
    through one backend built after the import boundary was checked."""
    env = {k: v for k, v in os.environ.items() if k not in PROXY_VARS}
    env.update(NO_PROXY="127.0.0.1", PYTHONPATH=str(SRC_DIR))
    done = subprocess.run([sys.executable, "-c", CONCURRENT_FIRST_CALLS,
                           str(TESTS_DIR)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
