"""Exception hierarchy and the file boundary.

Exit codes: 2 input, 3 backend, 4 config.

Every file the program reads or writes goes through `read_bytes`,
`read_text`, `read_json` and `write_text`, so one rule maps a bad path to
its exit code; `check_writable` applies the write rule to an output path
before the work that fills it. A path that is missing, is a directory or
cannot be opened or written raises InputError (NotFoundError when it does
not exist). Bytes that are not UTF-8 or not JSON raise the caller's
`invalid` error, a callable on the message: InputError by default,
ConfigError for the config, mock script, profiles and templates.
`canonical_json` is the one byte-stable rendering of every document the
program writes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any


class VideoQAError(Exception):
    """Base class for all engine errors."""

    exit_code = 1


class InputError(VideoQAError):
    """Missing or unreadable input files, malformed manifests."""

    exit_code = 2


class ValidationError(InputError):
    """Input data violates a structural invariant (dims, ranges, NaNs)."""


class TreeParseError(InputError):
    """Tree or sidecar document malformed; message carries a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"at {pointer}: {message}")
        self.pointer = pointer


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
    try:
        return json.loads(read_text(path, what, invalid))
    except json.JSONDecodeError as exc:
        raise invalid(f"{what} {path} is not valid JSON: {exc}") from exc


def write_text(path: str | Path, text: str, what: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{what} {path} cannot be written: {exc.strerror}") from exc


def check_writable(path: str | Path, what: str) -> None:
    """Raise the InputError `write_text` would for a path that is a
    directory or whose parent is not one, before any work is done."""
    p = Path(path)
    if p.is_dir():
        raise InputError(f"{what} {path} cannot be written: it is a directory")
    if not p.parent.is_dir():
        raise InputError(f"{what} {path} cannot be written: {p.parent} is not "
                         "a directory")


def canonical_json(doc: Any) -> str:
    """Sorted keys, no spaces: equal documents render byte-identically."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
