"""Model backends: chat, caption, and embedding calls behind one interface.

One backend object serves every stage. Three implementations: a remote
JSON-over-HTTP adapter (chat-completion and embedding wire shapes), a
deterministic scripted mock for offline runs and tests, and a caching
wrapper keyed on the backend's identity and the canonical payload rendering.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import requests

from .errors import (
    AuthError,
    BackendError,
    BackendTimeout,
    CapabilityMismatchError,
    ConfigError,
    InputError,
    MalformedResponseError,
    MockScriptError,
    TransportError,
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


class Backend:
    """The one model service every stage calls: the in-flight cap, with
    subclasses implementing _call().

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
            return self._call(request, rendered)

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
        p = Path(path)
        if not p.exists():
            raise InputError(f"mock script not found: {p}")
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"mock script is not valid JSON: {exc}") from exc
        if isinstance(doc, dict):
            rules_doc = doc.get("rules", [])
            default = doc.get("default_response")
        elif isinstance(doc, list):
            rules_doc, default = doc, None
        else:
            raise ConfigError("mock script must be a JSON list or object")
        rules = []
        for i, item in enumerate(rules_doc):
            if not isinstance(item, dict) or "match" not in item:
                raise ConfigError(f"mock rule {i} must be an object with a 'match' key")
            rules.append(MockRule(
                match=item["match"],
                response=item.get("response"),
                regex=bool(item.get("regex", False)),
                error=item.get("error"),
            ))
        return cls(rules, default)


class MockBackend(Backend):
    """Deterministic backend driven by a MockScript."""

    def __init__(self, script: MockScript,
                 capabilities: tuple[str, ...] = CAPABILITIES,
                 max_inflight: int = 8):
        super().__init__(max_inflight)
        self.script = script
        self.capabilities = tuple(capabilities)

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
        return "mock:" + hashlib.sha256(body.encode("utf-8")).hexdigest()

    def _call(self, request: BackendRequest, rendered: str) -> Any:
        if request.capability not in self.capabilities:
            raise CapabilityMismatchError(
                f"mock serves {self.capabilities}, got {request.capability!r}")
        rule = self.script.lookup(rendered)
        if rule is not None:
            if rule.error is not None:
                kind = _ERROR_KINDS.get(rule.error, BackendError)
                raise kind(f"scripted {rule.error} failure")
            response = rule.response
        elif self.script.default_response is not None:
            default = self.script.default_response
            response = default(rendered) if callable(default) else default
        else:
            raise MockScriptError(f"no mock rule matches: {rendered[:200]}")
        return _coerce_response(request.capability, response)


def _coerce_response(capability: str, response: Any) -> Any:
    if capability == "embed":
        if isinstance(response, str):
            try:
                response = json.loads(response)
            except json.JSONDecodeError:
                raise MalformedResponseError("embed response is not a vector")
        if not isinstance(response, list) or not all(
                isinstance(x, (int, float)) for x in response):
            raise MalformedResponseError("embed response is not a vector")
        return [float(x) for x in response]
    if not isinstance(response, str):
        raise MalformedResponseError(
            f"{capability} response must be text, got {type(response).__name__}")
    return response


# ---------------------------------------------------------------------------
# Remote HTTP adapter
# ---------------------------------------------------------------------------

class RemoteBackend(Backend):
    """JSON-over-HTTP adapter for chat-completion and embedding endpoints.

    Retries transport failures, 429 and 5xx responses up to twice with
    exponential backoff (1 s base). `transport` and `sleep` are injectable
    for tests.
    """

    def __init__(self, endpoints: dict[str, str], api_key_env: str = "VIDEOQA_API_KEY",
                 timeout_s: float = 60.0, max_inflight: int = 8,
                 transport: Callable[..., tuple[int, dict]] | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        super().__init__(max_inflight)
        self.endpoints = dict(endpoints)
        self.capabilities = tuple(c for c in CAPABILITIES if c in self.endpoints)
        self.identity = json.dumps(self.endpoints, sort_keys=True)
        self.api_key = os.environ.get(api_key_env, "")
        self.timeout_s = timeout_s
        self._transport = transport or self._http_post
        self._sleep = sleep

    def _http_post(self, url: str, headers: dict, body: dict,
                   timeout: float) -> tuple[int, dict]:
        try:
            resp = requests.post(url, headers=headers, json=body, timeout=timeout)
        except requests.Timeout as exc:
            raise BackendTimeout(f"request to {url} timed out") from exc
        except requests.RequestException as exc:
            raise TransportError(f"request to {url} failed: {exc}") from exc
        try:
            return resp.status_code, resp.json()
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
                status, doc = self._transport(url, headers, body, self.timeout_s)
            except (TransportError, BackendTimeout) as exc:
                if attempt >= MAX_RETRIES:
                    raise
                self._sleep(BACKOFF_BASE_S * (2 ** attempt))
                attempt += 1
                continue
            if status in (401, 403):
                raise AuthError(f"authentication rejected by {url} ({status})")
            if status == 429 or status >= 500:
                if attempt >= MAX_RETRIES:
                    raise TransportError(f"{url} returned {status} after retries")
                self._sleep(BACKOFF_BASE_S * (2 ** attempt))
                attempt += 1
                continue
            if status >= 400:
                raise BackendError(f"{url} returned {status}")
            return self._parse_body(request.capability, doc)

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
    def _parse_body(capability: str, doc: dict) -> Any:
        try:
            if capability == "embed":
                vec = doc["data"][0]["embedding"]
                return [float(x) for x in vec]
            return doc["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(
                f"unexpected {capability} response shape") from exc


# ---------------------------------------------------------------------------
# Response cache
# ---------------------------------------------------------------------------

class CachingBackend(Backend):
    """On-disk response cache. A hit never reaches the inner backend, so
    repeated runs log zero inner calls. Entries are keyed on the inner
    backend's identity and the rendered payload. The wrapper reports the
    inner backend's capabilities and in-flight limit but sets no cap of its
    own: the inner backend's is the only one. An unreadable entry counts as
    a miss and is overwritten."""

    def __init__(self, inner: Backend, cache_dir: str | Path):
        super().__init__(inner.max_inflight)
        self._inflight = contextlib.nullcontext()
        self.inner = inner
        self.capabilities = inner.capabilities
        self.identity = inner.identity
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._count_lock = threading.Lock()

    def cache_key(self, request: BackendRequest) -> str:
        keyed = f"{self.identity}\n{render_payload(request)}"
        return hashlib.sha256(keyed.encode("utf-8")).hexdigest()

    def _call(self, request: BackendRequest, rendered: str) -> Any:
        path = self.cache_dir / f"{self.cache_key(request)}.json"
        if path.exists():
            try:
                response = json.loads(path.read_text(encoding="utf-8"))["response"]
            except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
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
        tmp.write_text(json.dumps({"response": response}), encoding="utf-8")
        tmp.replace(path)
        with self._count_lock:
            self.misses += 1
        return response


# perfbench/ builds its backend through this name; nothing else may use it.
BackendSuite = Backend
