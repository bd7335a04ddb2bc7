"""Exception hierarchy. Exit codes: 2 input, 3 backend, 4 config."""

from __future__ import annotations


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
    """A selector referenced a shot or frame that does not exist."""


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
