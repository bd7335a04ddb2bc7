"""Exception hierarchy and the file boundary.

Exit codes: 2 input, 3 backend, 4 config.

Every file the program reads or writes goes through `read_bytes`,
`read_text`, `read_json` and `write_text`, so one rule maps a bad path to
its exit code, but for three that touch files themselves: the cache
entries of `CachingBackend` (an unreadable one is a miss), the package
templates of `captioning.load_template`, and `ingest.write_embeddings`.
`check_writable` applies the write rule to an output path before the work
that fills it. A path that is missing, is a directory or cannot be opened
or written raises InputError (NotFoundError when it does not exist). Bytes
that are not UTF-8 or not JSON raise the caller's `invalid` error, a
callable on the message: InputError by default, ConfigError for the config,
mock script, profiles and templates.
`Doc` reads the fields of every JSON document the program loads or a
model writes; `read_doc` opens a file as one, and `parse_doc` reads a
model's text as one. `canonical_json` is the one byte-stable rendering of
every document the program writes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, NoReturn


class VideoQAError(Exception):
    """Base class for all engine errors."""

    exit_code = 1
    pointer = ""  # the JSON pointer of the loaded field at fault, if any


class InputError(VideoQAError):
    """Missing or unreadable input files, malformed manifests."""

    exit_code = 2


class ValidationError(InputError):
    """Input data violates a structural invariant (dims, ranges, NaNs)."""


class TreeParseError(InputError):
    """Tree document malformed; `pointer` names the field at fault."""


class UnsupportedVersionError(TreeParseError):
    pass


class NotFoundError(InputError):
    """A selector named a shot or frame, or a path named a file, that does
    not exist."""


class ConfigError(VideoQAError):
    """Bad configuration or profile document; message names the field."""

    exit_code = 4


class BackendError(VideoQAError):
    """Model backend failure after retries."""

    exit_code = 3


class TransportError(BackendError):
    """Connection-level failure, 429 or 5xx after retries."""


class BackendTimeout(BackendError):
    pass


class AuthError(BackendError):
    pass


class MalformedResponseError(BackendError):
    """Backend replied but the body does not carry a usable result."""


class CapabilityMismatchError(BackendError):
    """Request capability is not served by this backend."""


class MockScriptError(BackendError):
    """No mock rule matched and the script has no default response."""


class IntegrationError(VideoQAError):
    """Evidence integration invoked with no evidence items."""


def read_bytes(path: str | Path, what: str) -> bytes:
    """The bytes of the file `what` at `path`."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise NotFoundError(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise InputError(f"{what} {path} cannot be read: {exc.strerror}") from exc


def read_text(path: str | Path, what: str, invalid=InputError) -> str:
    """The UTF-8 text of the file, newlines read as in text mode."""
    try:
        text = read_bytes(path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise invalid(f"{what} {path} is not valid UTF-8: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_json(path: str | Path, what: str, invalid=InputError) -> Any:
    return _loads(read_text(path, what, invalid), f"{what} {path}", invalid)


def _loads(text: str, what: str, invalid) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise invalid(f"{what} is not valid JSON: {exc}") from exc


def read_doc(path: str | Path, what: str, error=InputError) -> "Doc":
    """The JSON file at `path` as a `Doc` whose faults raise `error`."""
    return Doc(read_json(path, what, error), error, str(path))


def parse_doc(text: str, source: str, error=ValidationError) -> "Doc":
    """The JSON a model wrote, as a `Doc` named `source` whose faults, text
    that is not JSON included, raise `error`."""
    return Doc(_loads(text, source, error), error, source)


_MISSING = object()
_NAMES = {str: "a string", int: "an int", float: "a finite number",
          bool: "a bool", dict: "an object", list: "a list"}


def _is(value: Any, kind: type) -> bool:
    """Whether a JSON value is of `kind`: a bool is never an int, and a
    `float` is any int or float that converts to a finite float."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _show(value: Any) -> str:
    return json.dumps(value, default=repr)[:60]


class Doc:
    """A parsed JSON value, its JSON pointer, and the error class its loader
    reports with: the one place that decides what JSON type a loaded field
    may have, and how a wrong one is reported.

    Each accessor reads the field `key` of this object, or this value itself
    when `key` is None. Without a `default` the field is required; with
    `null=True` a null reads as the default. An int is never a bool; a
    number is an int or a float, finite, read as a float; an object reads
    as a `Doc`. A missing field, another type, or a `fail` raises the error
    class with a message that starts with the source and the pointer, as in
    `data.json#/entries/3/video_id: expected a string, got 5`; the error's
    `pointer` holds `/entries/3/video_id`.
    """

    __slots__ = ("value", "error", "source", "parent", "token")

    def __init__(self, value: Any, error=InputError, source: str = "",
                 parent: "Doc | None" = None, token: Any = None):
        self.value, self.error, self.source = value, error, source
        self.parent, self.token = parent, token  # `token` names it in `parent`

    @property
    def pointer(self) -> str:
        """Built when a message needs it, so reading costs no string work."""
        return "" if self.parent is None else f"{self.parent.pointer}/{self.token}"

    def fail(self, message: str, key: Any = None, error=None) -> NoReturn:
        """Raise `error`, the loader's class by default, at `key`."""
        pointer = self.pointer if key is None else f"{self.pointer}/{key}"
        exc = (error or self.error)(f"{self.source}#{pointer}: {message}")
        exc.pointer = pointer
        raise exc

    def _get(self, key: Any, default: Any, null: bool, kind: type) -> Any:
        value = self.value
        if key is not None:
            if not isinstance(value, dict):
                self.fail(f"expected an object, got {_show(value)}")
            value = value.get(key, _MISSING)
            if value is _MISSING or (null and value is None):
                if default is _MISSING:
                    self.fail("missing required field", key)
                return default
        # An exact type settles it without a call, but for a float's finiteness.
        if (type(value) is not kind or kind is float) and not _is(value, kind):
            self.fail(f"expected {_NAMES[kind]}, got {_show(value)}", key)
        return value

    def _list(self, key: Any, default: Any, kind: type) -> list:
        values = self._get(key, default, False, list)
        if values is default:
            return default
        for i, value in enumerate(values):
            if (type(value) is not kind or kind is float) and not _is(value, kind):
                self.fail(f"expected {_NAMES[kind]}, got {_show(value)}",
                          i if key is None else f"{key}/{i}")
        return values

    def string(self, key=None, default=_MISSING, *, nonempty=False,
               null=False) -> str:
        value = self._get(key, default, null, str)
        if nonempty and value == "":
            self.fail('expected a non-empty string, got ""', key)
        return value

    def integer(self, key=None, default=_MISSING, *, null=False) -> int:
        return self._get(key, default, null, int)

    def number(self, key=None, default=_MISSING, *, null=False) -> float:
        value = self._get(key, default, null, float)
        return value if value is None else float(value)

    def boolean(self, key=None, default=_MISSING, *, null=False) -> bool:
        return self._get(key, default, null, bool)

    def enum(self, key, choices: tuple[str, ...], default=_MISSING, *,
             null=False) -> str:
        value = self._get(key, default, null, str)
        if value is not default and value not in choices:
            self.fail(f"expected one of {', '.join(choices)}, got "
                      f"{_show(value)}", key)
        return value

    def obj(self, key=None, default=_MISSING, *, null=False) -> "Doc":
        value = self._get(key, default, null, dict)
        if key is None:
            return self
        if value is default:
            return default
        return Doc(value, self.error, self.source, self, key)

    def objects(self, key=None, default=_MISSING) -> list["Doc"]:
        values = self._list(key, default, dict)
        if values is default:
            return default
        parent = self if key is None else Doc(values, self.error, self.source,
                                              self, key)
        return [Doc(value, self.error, self.source, parent, i)
                for i, value in enumerate(values)]

    def strings(self, key=None, default=_MISSING) -> list[str]:
        return self._list(key, default, str)

    def integers(self, key=None, default=_MISSING) -> list[int]:
        return self._list(key, default, int)

    def numbers(self, key=None, default=_MISSING) -> list[float]:
        values = self._list(key, default, float)
        return default if values is default else [float(v) for v in values]


def write_text(path: str | Path, text: str, what: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{what} {path} cannot be written: {exc.strerror}") from exc


def check_writable(*outputs: tuple[str, str | Path],
                   inputs: tuple[tuple[str, str | Path | None], ...] = ()
                   ) -> None:
    """For each `(what, path)` output, raise the InputError `write_text`
    would for a path that is a directory or whose parent is not one, and
    refuse a path that resolves to one of the `inputs` (a `None` path is an
    input not given) or to an earlier output's file, before any work is
    done."""
    seen = {Path(path).resolve(): (what, path)
            for what, path in inputs if path is not None}
    for what, path in outputs:
        p = Path(path)
        if p.is_dir():
            raise InputError(f"{what} {path} cannot be written: it is a "
                             "directory")
        if not p.parent.is_dir():
            raise InputError(f"{what} {path} cannot be written: {p.parent} "
                             "is not a directory")
        other, other_path = seen.setdefault(p.resolve(), (what, path))
        if other != what:
            raise InputError(f"{what} {path} cannot be written: it is also "
                             f"the {other} {other_path}")


def canonical_json(doc: Any) -> str:
    """Sorted keys, no spaces: equal documents render byte-identically."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
