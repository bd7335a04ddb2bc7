"""Model backends: chat, caption, and embedding calls behind one interface.

One backend object serves every stage. Three implementations: a remote
JSON-over-HTTP adapter (chat-completion and embedding wire shapes), a
deterministic scripted mock for offline runs and tests, and a caching
wrapper keyed on the backend's identity and the canonical payload rendering.

Importing this module loads neither the HTTP client nor OpenSSL: `requests`
(with urllib3, ssl and http.client) loads on the first remote call, and
`hashlib` (with OpenSSL's libcrypto) on the first cache key or mock identity,
which only `--cache` reads. So a mock-backed `ask` without `--cache` loads
neither; a build still loads `hashlib`, because numpy 2's `numpy.random`,
which seeds K-Means, imports it.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import random
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import (
    AuthError,
    BackendError,
    BackendTimeout,
    CapabilityMismatchError,
    ConfigError,
    Doc,
    MalformedResponseError,
    MockScriptError,
    TransportError,
    read_doc,
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

    def __post_init__(self) -> None:
        if self.capability not in CAPABILITIES:
            raise ValueError(f"unknown capability: {self.capability}")


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


class Backend:
    """The one model service every stage calls: the in-flight cap and the
    reply check, with subclasses implementing _call().

    `max_inflight` is the only limit on concurrent model calls, and it sizes
    every pool that fans calls out to this backend. `capabilities` names the
    request kinds it serves; `identity` names the service that answers, so a
    cache never serves one service's response to another.
    """

    capabilities: tuple[str, ...] = CAPABILITIES
    identity: str = ""

    def __init__(self, max_inflight: int = 8) -> None:
        self.max_inflight = max(1, max_inflight)
        self._inflight = threading.BoundedSemaphore(self.max_inflight)

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
        rendered = render_payload(request)
        with self._inflight:
            return _checked(request.capability, self._call(request, rendered))

    def _call(self, request: BackendRequest, rendered: str) -> Any:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Scripted mock
# ---------------------------------------------------------------------------

_ERROR_KINDS = {
    "transport": TransportError,
    "timeout": BackendTimeout,
    "auth": AuthError,
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
                            error=item.string("error", None, null=True))
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

    def _call(self, request: BackendRequest, rendered: str) -> Any:
        rule = self.script.lookup(rendered)
        if rule is not None:
            if rule.error is not None:
                kind = _ERROR_KINDS.get(rule.error, BackendError)
                raise kind(f"scripted {rule.error} failure")
            return rule.response
        default = self.script.default_response
        if default is None:
            raise MockScriptError(f"no mock rule matches: {rendered[:200]}")
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
        self._sleep = sleep
        self._uniform = uniform

    def _http_post(self, url: str, headers: dict, body: dict,
                   timeout: float) -> tuple[int, Any, Mapping[str, str]]:
        """POST `body` as JSON; the status, the parsed body and the reply
        headers. The body is parsed only below status 400: an error reply
        from a proxy or rate limiter need not be JSON, and its status alone
        decides what happens next."""
        # Local import: only a remote run needs requests, urllib3 and ssl.
        import requests

        try:
            resp = requests.post(url, headers=headers, json=body, timeout=timeout)
        except requests.Timeout as exc:
            raise BackendTimeout(f"request to {url} timed out") from exc
        except requests.RequestException as exc:
            raise TransportError(f"request to {url} failed: {exc}") from exc
        if resp.status_code >= 400:
            return resp.status_code, None, resp.headers
        try:
            return resp.status_code, resp.json(), resp.headers
        except ValueError as exc:
            raise MalformedResponseError(f"non-JSON response from {url}") from exc

    def _call(self, request: BackendRequest, rendered: str) -> Any:
        url = self.endpoints.get(request.capability)
        if not url:
            raise CapabilityMismatchError(
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
            except (TransportError, BackendTimeout):
                if attempt >= MAX_RETRIES:
                    raise
                delay = self._backoff_s(attempt)
            else:
                if status in (401, 403):
                    raise AuthError(f"authentication rejected by {url} ({status})")
                if status < 400:
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
# Response cache
# ---------------------------------------------------------------------------

class CachingBackend(Backend):
    """On-disk response cache. A hit never reaches the inner backend, so
    repeated runs log zero inner calls. Entries are keyed on the inner
    backend's identity and the rendered payload. The wrapper reports the
    inner backend's capabilities and in-flight limit but sets no cap of its
    own: the inner backend's is the only one. An unreadable entry (not a JSON
    object, or its `response` fails the reply check) counts as a miss and is
    overwritten; an entry that cannot be written (say, the directory was
    removed) is logged and the response still returned."""

    def __init__(self, inner: Backend, cache_dir: str | Path):
        super().__init__(inner.max_inflight)
        self._inflight = contextlib.nullcontext()
        self.inner = inner
        self.capabilities = inner.capabilities
        self.identity = inner.identity
        self.cache_dir = Path(cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"backend.cache_dir {cache_dir} cannot be used: "
                              f"{exc.strerror}") from exc
        self.hits = 0
        self.misses = 0
        self._count_lock = threading.Lock()

    def cache_key(self, request: BackendRequest) -> str:
        return _sha256_hex(f"{self.identity}\n{render_payload(request)}")

    def _call(self, request: BackendRequest, rendered: str) -> Any:
        path = self.cache_dir / f"{self.cache_key(request)}.json"
        if path.exists():
            try:
                entry = Doc(json.loads(path.read_text(encoding="utf-8")),
                            MalformedResponseError, path.name).obj()
                response = _checked(request.capability,
                                    entry.value.get("response"))
            except (ValueError, MalformedResponseError) as exc:
                logger.warning("corrupt cache entry %s (%s), treated as a miss",
                               path.name, exc)
            else:
                with self._count_lock:
                    self.hits += 1
                return response
        response = self.inner.call(request)
        # The temp name carries pid and thread id, so concurrent writers of
        # one key, in this process or another, never interleave.
        tmp = path.with_name(
            f"{path.stem}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            tmp.write_text(json.dumps({"response": response}), encoding="utf-8")
            tmp.replace(path)
        except OSError as exc:
            logger.warning("cache entry %s cannot be written (%s), response "
                           "returned uncached", path.name, exc.strerror)
        with self._count_lock:
            self.misses += 1
        return response


# perfbench/ builds its backend through this name; nothing else may use it.
BackendSuite = Backend
