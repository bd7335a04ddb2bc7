"""Engine configuration with pipeline defaults.

Defaults: relevance threshold tau=2.5, K=2 clustering to a maximum depth
of 3, global-context threshold gamma=0.4, and a hard cap of 15 reasoning
iterations per question. A video's fps comes from its frame manifest.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, read_json


@dataclass
class BackendConfig:
    """Where remote model endpoints live and how to talk to them."""

    chat_endpoint: str | None = None
    caption_endpoint: str | None = None
    embed_endpoint: str | None = None
    api_key_env: str = "VIDEOQA_API_KEY"
    timeout_s: float = 60.0
    max_inflight: int = 8             # the one limit on concurrent model calls
    cache_dir: str | None = None


@dataclass
class EngineConfig:
    sensitivity: float = 2.0          # shot boundary threshold multiplier
    tau: float = 2.5                  # relevance gate for deep expansion
    k: int = 2                        # clusters per expansion step
    max_depth: int = 3
    gamma: float = 0.4                # high-relevance fraction for breadth retrieval
    max_iterations: int = 15          # hard per-question reasoning budget
    seed: int = 0
    parallel_videos: bool = False     # videos stay sequential by default
    uniform_shots: int = 8            # shot count in uniform-sampling mode
    template_dir: str | None = None
    profile_dir: str | None = None
    reclassify: bool = False          # re-classify even when the manifest declares a type
    cache_enabled: bool = False
    backend: BackendConfig = field(default_factory=BackendConfig)
    # ablation modes
    uniform_sampling: bool = False
    generic_captions: bool = False
    fixed_workflow: bool = False
    fps = 1.0  # not a field, so no config sets it; only perfbench/ reads it

    def __post_init__(self) -> None:
        if self.sensitivity <= 0:
            raise ConfigError("sensitivity must be positive")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if not 0 < self.gamma < 1:
            raise ConfigError("gamma must be in (0, 1)")
        if not 1 <= self.max_iterations <= 15:
            raise ConfigError("max_iterations must be in [1, 15]")
        if not self.backend.timeout_s > 0:
            raise ConfigError("backend.timeout_s must be positive")

    def ablation_flags(self) -> list[str]:
        flags = []
        if self.uniform_sampling:
            flags.append("uniform-sampling")
        if self.generic_captions:
            flags.append("generic-captions")
        if self.fixed_workflow:
            flags.append("fixed-workflow")
        return flags

    @classmethod
    def from_file(cls, path: str | Path) -> "EngineConfig":
        doc = read_json(path, "config file", ConfigError)
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_doc(doc)

    @classmethod
    def from_doc(cls, doc: dict) -> "EngineConfig":
        kwargs = dict(doc)
        backend_doc = kwargs.pop("backend", None)
        kwargs = _typed_kwargs(cls, kwargs, "config")
        if backend_doc is not None:
            if not isinstance(backend_doc, dict):
                raise ConfigError("backend must be an object")
            kwargs["backend"] = BackendConfig(
                **_typed_kwargs(BackendConfig, backend_doc, "backend"))
        return cls(**kwargs)


def _typed_kwargs(cls: type, doc: dict, section: str) -> dict:
    """`doc` as keyword arguments of the dataclass `cls`. ConfigError names
    an unknown key, or a value that is not of its field's declared type: an
    int counts as a float, a bool does not count as an int, None only where
    the type allows it, and NaN and the infinities not at all."""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(doc) - set(hints))
    if unknown:
        raise ConfigError(f"unknown {section} key: {unknown[0]}")
    for key, value in sorted(doc.items()):
        allowed = typing.get_args(hints[key]) or (hints[key],)
        if float in allowed:
            allowed += (int,)
        finite = not isinstance(value, float) or abs(value) < float("inf")
        if not isinstance(value, allowed) or not finite or (
                isinstance(value, bool) and bool not in allowed):
            raise ConfigError(f"{section} value {key} must be "
                              f"{getattr(hints[key], '__name__', hints[key])}, "
                              f"got {value!r}")
    return dict(doc)
