"""Model backends: chat, caption, and embedding calls behind one interface.

One backend object serves every stage. Three implementations: a remote
JSON-over-HTTP adapter (chat-completion and embedding wire shapes), a
deterministic scripted mock for offline runs and tests, and a caching
wrapper keyed on the backend's identity and the canonical payload rendering.
Each build and each question call it through a `View` of their own, which
sends each distinct caption request once, meets the calls sent ahead of
need, refuses every call once its build has failed, and marks an answering
question's calls for the backend's in-flight gate (`Gate`), which holds a
slot for each answering question.

Importing this module loads neither the HTTP client nor OpenSSL:
`urllib.request` (with http.client and ssl) loads when a remote backend is
built, and `hashlib` (with libcrypto) on the first cache key or mock identity,
which only `--cache` reads. numpy loads on a build's first numerical call
(see `np.py`), but never `numpy.random`, which would import `hashlib`:
K-Means seeds itself in pure Python. So a mock-backed `ask` without
`--cache` loads none of the three, and a mock-backed build loads only numpy.
"""

from __future__ import annotations

import json
import logging
import os
import random
import re
import threading
import time
from concurrent.futures import CancelledError, Executor, Future
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from .errors import (
    BackendError,
    ConfigError,
    Doc,
    InputError,
    MalformedResponseError,
    TransportError,
    read_doc,
    write_text,
)

logger = logging.getLogger(__name__)

CAPABILITIES = ("chat", "caption", "embed")

MAX_RETRIES = 2
BACKOFF_BASE_S = 1.0


@dataclass(frozen=True)
class BackendRequest:
    """One model call. The payload shape depends on the capability:

    chat    {"messages": [{"role", "content"}, ...]}
    caption {"image": <reference string>, "prompt": <text>}
    embed   {"image": <reference string>}
    """

    capability: str
    payload: dict


def chat_request(prompt: str) -> BackendRequest:
    return BackendRequest("chat", {"messages": [{"role": "user", "content": prompt}]})


def caption_request(image_ref: str, prompt: str) -> BackendRequest:
    return BackendRequest("caption", {"image": image_ref, "prompt": prompt})


def embed_request(image_ref: str) -> BackendRequest:
    return BackendRequest("embed", {"image": image_ref})


def render_payload(request: BackendRequest) -> str:
    """Canonical string for mock matching and cache keys; deterministic
    across runs."""
    body = json.dumps(request.payload, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"))
    return f"{request.capability}:{body}"


def _sha256_hex(text: str) -> str:
    # Local import: hashlib loads OpenSSL's libcrypto, which only the cache needs.
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _checked(capability: str, reply: Any) -> Any:
    """A chat or caption reply as a string, an embed reply as a list of
    finite numbers (no bools) read as floats; MalformedResponseError for any
    other reply."""
    doc = Doc(reply, MalformedResponseError, f"{capability} reply")
    return doc.numbers() if capability == "embed" else doc.string()


_making = threading.local()  # `.view`: the answering view this thread calls through


class Gate:
    """The in-flight limit of one backend, shared by its wrappers and views:
    at most `limit` calls at once. A call made through an answering view
    (`View.answering`) waits only for a free slot. Any other call also
    leaves one slot free for each answering view with no call in flight,
    so the slot a question's step frees is still there for its next step,
    and a build beside the answers cannot take it. With no view answering
    the gate is a semaphore: a release wakes one waiter."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        lock = threading.Lock()
        self._free = threading.Condition(lock)    # answer calls wait here
        self._spare = threading.Condition(lock)   # every other call here
        self._busy = 0   # calls in flight
        self._idle = 0   # answering views with no call in flight

    def enter(self) -> "View | None":
        """Wait until this thread's call is admitted; the view it is made
        through, if any, for `leave`."""
        view = getattr(_making, "view", None)
        with self._free:
            if view is None:
                while self._busy + self._idle >= self.limit:
                    self._spare.wait()
            else:
                while self._busy >= self.limit:
                    self._free.wait()
                if view.calls == 0:
                    self._idle -= 1
                    view.admitted.set()
                view.calls += 1
            self._busy += 1
        return view

    def leave(self, view: "View | None") -> None:
        with self._free:
            self._busy -= 1
            if view is not None:
                view.calls -= 1
                if view.calls == 0:
                    self._idle += 1
            self._free.notify()
            self._spare.notify()

    def open(self) -> None:
        with self._free:
            self._idle += 1

    def close(self) -> None:
        """Called once the view's calls have all returned."""
        with self._free:
            self._idle -= 1
            self._spare.notify()


class Backend:
    """The one model service every stage calls: the in-flight gate and the
    reply check, with subclasses implementing _call().

    `max_inflight` is the only limit on concurrent model calls, and it sizes
    every pool that fans calls out to this backend. Its `gate` admits a call
    made through an answering view (`View.answering`) whenever a slot is
    free, and any other call only if it leaves a slot for each answering
    view with no call in flight. Wrappers and views share their inner
    backend's gate and set no limit of their own. `capabilities` names the
    request kinds it serves; `identity` names the service that answers, so
    a cache never serves one service's response to another.
    """

    capabilities: tuple[str, ...] = CAPABILITIES
    identity: str = ""

    def __init__(self, max_inflight: int = 8) -> None:
        if max_inflight < 1:  # a gate of 0 would block every call
            raise ConfigError(f"backend.max_inflight must be >= 1, got {max_inflight}")
        self.gate = Gate(max_inflight)

    @property
    def max_inflight(self) -> int:
        return self.gate.limit

    @classmethod
    def from_mock(cls, script: "MockScript", max_inflight: int = 8) -> "Backend":
        return MockBackend(script, max_inflight=max_inflight)

    @classmethod
    def from_config(cls, cfg) -> "Backend":
        endpoints = {capability: url for capability, url in (
            ("chat", cfg.chat_endpoint), ("caption", cfg.caption_endpoint),
            ("embed", cfg.embed_endpoint)) if url}
        if not endpoints:
            raise ConfigError("no backend endpoints configured and no mock script given")
        return RemoteBackend(endpoints, api_key_env=cfg.api_key_env,
                             timeout_s=cfg.timeout_s,
                             max_inflight=cfg.max_inflight)

    def call(self, request: BackendRequest) -> Any:
        view = self.gate.enter()
        try:
            return _checked(request.capability, self._call(request))
        finally:
            self.gate.leave(view)

    def _call(self, request: BackendRequest) -> Any:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Scripted mock
# ---------------------------------------------------------------------------

_ERROR_KINDS = {
    "transport": TransportError,
    "timeout": TransportError,
    "auth": BackendError,
    "malformed": MalformedResponseError,
}


@dataclass
class MockRule:
    """First matching rule wins. `match` is a substring, or a regex when
    `regex` is true. A rule with `error` set raises that failure kind."""

    match: str
    response: Any = None
    regex: bool = False
    error: str | None = None

    def matches(self, rendered: str) -> bool:
        if self.regex:
            return re.search(self.match, rendered) is not None
        return self.match in rendered


class MockScript:
    """Ordered canned responses.

    `default_response` may be a literal or a callable on the rendered
    payload (callables are for in-code tests; script files hold literals).
    """

    def __init__(self, rules: list[MockRule] | None = None,
                 default_response: Any = None):
        self.rules = list(rules or [])
        self.default_response = default_response

    def add(self, match: str, response: Any = None, *, regex: bool = False,
            error: str | None = None) -> "MockScript":
        self.rules.append(MockRule(match, response, regex=regex, error=error))
        return self

    def lookup(self, rendered: str) -> MockRule | None:
        for rule in self.rules:
            if rule.matches(rendered):
                return rule
        return None

    @classmethod
    def from_file(cls, path: str | Path) -> "MockScript":
        """A list of rules, or an object `{rules, default_response}`."""
        root = read_doc(path, "mock script", ConfigError)
        bare = isinstance(root.value, list)
        rules = []
        for item in root.objects(None if bare else "rules", []):
            rule = MockRule(match=item.string("match"),
                            response=item.value.get("response"),
                            regex=item.boolean("regex", False),
                            error=item.enum("error", tuple(_ERROR_KINDS),
                                            None, null=True))
            if rule.regex:
                try:
                    re.compile(rule.match)
                except re.error as exc:
                    item.fail(f"not a valid regex: {exc}", "match")
            rules.append(rule)
        return cls(rules, None if bare else root.value.get("default_response"))


class MockBackend(Backend):
    """Deterministic backend driven by a MockScript."""

    def __init__(self, script: MockScript, max_inflight: int = 8):
        super().__init__(max_inflight)
        self.script = script

    @property
    def identity(self) -> str:
        """A hash of the script's rules and default, so a cache never serves
        one script's replies to another. A callable default cannot be read,
        so it is named by the object itself."""
        default = self.script.default_response
        if callable(default):
            default = f"<callable {id(default)}>"
        doc = {"rules": [[r.match, r.response, r.regex, r.error]
                         for r in self.script.rules],
               "default_response": default}
        body = json.dumps(doc, sort_keys=True, ensure_ascii=False, default=repr)
        return "mock:" + _sha256_hex(body)

    def _call(self, request: BackendRequest) -> Any:
        rendered = render_payload(request)
        rule = self.script.lookup(rendered)
        if rule is not None:
            if rule.error is not None:
                raise _ERROR_KINDS[rule.error](f"scripted {rule.error} failure")
            return rule.response
        default = self.script.default_response
        if default is None:
            raise BackendError(f"no mock rule matches: {rendered[:200]}")
        return default(rendered) if callable(default) else default


# ---------------------------------------------------------------------------
# Remote HTTP adapter
# ---------------------------------------------------------------------------

class RemoteBackend(Backend):
    """JSON-over-HTTP adapter for chat-completion and embedding endpoints.

    Retries transport failures, 429 and 5xx responses up to twice. A 429 or
    5xx that carries a delay-seconds `Retry-After` waits that long (RFC 9110
    §10.2.3), and fails the call when the delay exceeds `timeout_s`; every
    other retry sleeps a full-jitter backoff, `uniform(0, 1 s · 2^attempt)`.
    `transport`, `sleep` and the random draw `uniform` are injectable for
    tests.
    """

    def __init__(self, endpoints: dict[str, str], api_key_env: str = "VIDEOQA_API_KEY",
                 timeout_s: float = 60.0, max_inflight: int = 8,
                 transport: Callable[..., tuple[int, Any, Mapping[str, str]]]
                 | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 uniform: Callable[[float, float], float] = random.uniform):
        super().__init__(max_inflight)
        self.endpoints = dict(endpoints)
        self.capabilities = tuple(c for c in CAPABILITIES if c in self.endpoints)
        self.identity = json.dumps(self.endpoints, sort_keys=True)
        self.api_key = os.environ.get(api_key_env, "")
        self.timeout_s = timeout_s
        self._transport = transport or self._http_post
        if transport is None:  # one TLS context per backend: each loads the CA store
            import ssl
            import urllib.request as ur
            # http(s) only; a redirect is an HTTPError: the API key stays with its host.
            self._opener = ur.OpenerDirector()
            for handler in (ur.ProxyHandler(), ur.HTTPHandler(),
                            ur.HTTPSHandler(context=ssl.create_default_context()),
                            ur.HTTPDefaultErrorHandler(), ur.HTTPErrorProcessor(),
                            ur.UnknownHandler()):
                self._opener.add_handler(handler)
        self._sleep = sleep
        self._uniform = uniform

    def _http_post(self, url: str, headers: dict, body: dict,
                   timeout: float) -> tuple[int, Any, Mapping[str, str]]:
        """POST `body` as JSON; the status, the parsed body and the reply headers.
        A non-2xx status (a redirect too) returns no body, as a proxy's error
        page need not be JSON. A cut reply or a non-http(s) URL fails."""
        import http.client  # loaded with the opener in __init__
        import urllib.request

        try:
            request = urllib.request.Request(url, json.dumps(body).encode(), headers)
            with self._opener.open(request, timeout=timeout) as resp:
                status, raw, reply_headers = resp.status, resp.read(), resp.headers
        except urllib.request.HTTPError as exc:
            exc.close()  # its body is never read
            return exc.code, None, exc.headers
        except (OSError, ValueError, http.client.HTTPException) as exc:
            if isinstance(getattr(exc, "reason", exc), TimeoutError):
                raise TransportError(f"request to {url} timed out") from exc
            raise TransportError(f"request to {url} failed: {exc}") from exc
        try:
            return status, json.loads(raw), reply_headers
        except ValueError as exc:
            raise MalformedResponseError(f"non-JSON response from {url}") from exc

    def _call(self, request: BackendRequest) -> Any:
        url = self.endpoints.get(request.capability)
        if not url:
            raise BackendError(
                f"no endpoint configured for capability {request.capability!r}")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = self._wire_body(request)

        attempt = 0
        while True:
            try:
                status, doc, reply_headers = self._transport(
                    url, headers, body, self.timeout_s)
            except TransportError:
                if attempt >= MAX_RETRIES:
                    raise
                delay = self._backoff_s(attempt)
            else:
                if status in (401, 403):
                    raise BackendError(f"authentication rejected by {url} ({status})")
                if status < 300:
                    return self._parse_body(request.capability, doc)
                if status != 429 and status < 500:
                    raise BackendError(f"{url} returned {status}")
                if attempt >= MAX_RETRIES:
                    raise TransportError(f"{url} returned {status} after retries")
                delay = self._retry_delay_s(url, status, reply_headers, attempt)
            self._sleep(delay)
            attempt += 1

    def _backoff_s(self, attempt: int) -> float:
        return self._uniform(0.0, BACKOFF_BASE_S * (2 ** attempt))

    def _retry_delay_s(self, url: str, status: int,
                       reply_headers: Mapping[str, str], attempt: int) -> float:
        """The reply's delay-seconds `Retry-After`, or the jittered backoff
        when it is absent, an HTTP-date or unparseable. A delay beyond
        `timeout_s` fails the call rather than park a pool thread."""
        value = next((v for k, v in reply_headers.items()
                      if k.lower() == "retry-after"), "").strip()
        if not re.fullmatch(r"[0-9]+", value):
            return self._backoff_s(attempt)
        delay = float(value)
        if delay > self.timeout_s:
            raise TransportError(
                f"{url} returned {status} with Retry-After {value} s, beyond "
                f"the {self.timeout_s:g} s timeout")
        return delay

    @staticmethod
    def _wire_body(request: BackendRequest) -> dict:
        if request.capability == "chat":
            return {"messages": request.payload["messages"]}
        if request.capability == "caption":
            # Caption rides the chat wire shape with the image reference inline.
            content = f"[image: {request.payload['image']}]\n{request.payload['prompt']}"
            return {"messages": [{"role": "user", "content": content}]}
        return {"input": request.payload["image"]}

    @staticmethod
    def _parse_body(capability: str, body: Any) -> Any:
        """The reply in a response body, `data[0].embedding` for embed and
        `choices[0].message.content` otherwise; `call` checks its type."""
        doc = Doc(body, MalformedResponseError, f"{capability} response")
        key = "data" if capability == "embed" else "choices"
        items = doc.objects(key)
        if not items:
            doc.fail("expected a non-empty list, got []", key)
        if capability == "embed":
            return items[0].value.get("embedding")
        return items[0].obj("message").value.get("content")


# ---------------------------------------------------------------------------
# Wrappers: the response cache and the view
# ---------------------------------------------------------------------------

class CachingBackend(Backend):
    """On-disk response cache. A hit never reaches the inner backend, so
    repeated runs log zero inner calls. Entries are keyed on the inner
    backend's identity and the rendered payload. The wrapper reports the
    inner backend's capabilities and in-flight limit but sets no cap of its
    own: the inner backend's is the only one. An unreadable entry (a path
    that cannot be read, not a JSON object, or its `response` fails the
    reply check) is a logged miss and is overwritten; an entry that cannot
    be written (say, the directory was removed) is logged and the response
    still returned."""

    def __init__(self, inner: Backend, cache_dir: str | Path):
        self.gate = inner.gate
        self.inner = inner
        self.capabilities = inner.capabilities
        self.identity = inner.identity
        self.cache_dir = Path(cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"backend.cache_dir {cache_dir} cannot be used: "
                              f"{exc.strerror}") from exc

    def cache_key(self, request: BackendRequest) -> str:
        return _sha256_hex(f"{self.identity}\n{render_payload(request)}")

    def call(self, request: BackendRequest) -> Any:
        path = self.cache_dir / f"{self.cache_key(request)}.json"
        if path.exists():
            try:
                entry = Doc(json.loads(path.read_text(encoding="utf-8")),
                            MalformedResponseError, path.name).obj()
                return _checked(request.capability, entry.value.get("response"))
            except (OSError, ValueError, MalformedResponseError) as exc:
                logger.warning("corrupt cache entry %s (%s), treated as a miss",
                               path.name, exc)
        response = self.inner.call(request)
        try:
            write_text(path, json.dumps({"response": response}), "cache entry")
        except InputError as exc:
            logger.warning("%s; response returned uncached", exc)
        return response


class View(Backend):
    """`inner` as one build or one question calls it; no in-flight cap of
    its own. A caption request already answered or in flight through the
    view gets that reply, as `--cache` assumes an identical request gets
    the same one: an answered request is held as its reply alone, one in
    flight as the Future its waiters wait on, and a call that raised is not
    shared. Chat and embed requests are never shared. A call started by
    `send_ahead` is met by the view's next identical call, which gets its
    reply or its error instead of sending. While `answering`, the gate
    admits the view's calls as an answering question's. Used as a context
    manager, the view is closed when its block raises (its build failed);
    a closed view, or one whose `scope` (its build's view) is closed,
    refuses every call with CancelledError, sending nothing."""

    def __init__(self, inner: Backend, scope: "View | None" = None) -> None:
        self.gate = inner.gate
        self.inner = inner
        self.capabilities = inner.capabilities
        self.scope = scope
        self.admitted: threading.Event | None = None  # set while answering
        self.calls = 0  # answer calls in flight, counted under the gate's lock
        self._replies: dict[str, Any] = {}  # a reply, or a Future in flight
        self._ahead: dict[str, Future] = {}  # calls sent ahead, not yet met
        self._lock = threading.Lock()
        self._closed = False

    def __enter__(self) -> "View":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self._replies = {}  # a question's view may hold this one as scope
        if exc_type is not None:
            self._closed = True

    def send_ahead(self, request: BackendRequest, pool: Executor) -> None:
        """Start `request` on `pool`, for the view's next identical call to
        meet; a later identical call is sent."""
        self._ahead[render_payload(request)] = pool.submit(self._send, request)

    def call(self, request: BackendRequest) -> Any:
        if self._ahead:
            ahead = self._ahead.pop(render_payload(request), None)
            if ahead is not None:
                return ahead.result()
        return self._send(request)

    def _send(self, request: BackendRequest) -> Any:
        if self._closed or self.scope is not None and self.scope._closed:
            raise CancelledError("the build this call was made for failed")
        if request.capability != "caption":
            return self._through(request)
        key = render_payload(request)
        with self._lock:
            reply = self._replies.get(key)
            if sent := reply is None:
                reply = self._replies[key] = Future()
        if not isinstance(reply, Future):
            return reply
        if not sent:  # wait for that call; if it raised, send this one
            return reply.result() if reply.exception() is None else self._send(request)
        try:
            text = self._through(request)
        except BaseException as exc:
            with self._lock:  # removed before waiters see the failure
                del self._replies[key]
            reply.set_exception(exc)
            raise
        with self._lock:
            self._replies[key] = text
        reply.set_result(text)
        return text

    def _through(self, request: BackendRequest) -> Any:
        """`inner.call`, made as an answer call while answering."""
        if self.admitted is None:
            return self.inner.call(request)
        _making.view = self
        try:
            return self.inner.call(request)
        finally:
            _making.view = None

    @contextmanager
    def answering(self, admitted: threading.Event) -> Iterator["View"]:
        """The view as one answering question's, for the block; `admitted`
        is set when its first call is admitted. While open, it holds a slot
        that no other call may take, so open it only once the question
        waits on no other call: its plan is in hand, and every call it sent
        ahead has returned."""
        self.admitted = admitted
        self.gate.open()
        try:
            yield self
        finally:
            self.gate.close()
            self.admitted = None


# perfbench/ builds its backend through this name; nothing else may use it.
BackendSuite = Backend
