"""Engine configuration with pipeline defaults.

Defaults: relevance threshold tau=2.5, K=2 clustering to a maximum depth
of 3, global-context threshold gamma=0.4, and a hard cap of 15 reasoning
iterations per question. A video's fps comes from its frame manifest.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, Doc, read_doc


@dataclass
class BackendConfig:
    """Where remote model endpoints live and how to talk to them."""

    chat_endpoint: str | None = None
    caption_endpoint: str | None = None
    embed_endpoint: str | None = None
    api_key_env: str = "VIDEOQA_API_KEY"
    timeout_s: float = 60.0
    max_inflight: int = 8             # the one limit on concurrent model calls
    cache_dir: str | None = None     # when set, responses are cached here


@dataclass
class EngineConfig:
    sensitivity: float = 2.0          # shot boundary threshold multiplier
    tau: float = 2.5                  # relevance gate for deep expansion
    k: int = 2                        # clusters per expansion step
    max_depth: int = 3
    gamma: float = 0.4                # high-relevance fraction for breadth retrieval
    max_iterations: int = 15          # hard per-question reasoning budget
    seed: int = 0
    uniform_shots: int = 8            # shot count in uniform-sampling mode
    template_dir: str | None = None
    profile_dir: str | None = None
    reclassify: bool = False          # re-classify even when the manifest declares a type
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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.uniform_shots < 1:
            raise ConfigError("uniform_shots must be >= 1")
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
        doc = read_doc(path, "config file", ConfigError).obj()
        return cls(**_typed_kwargs(cls, doc))


# How a config field's declared type is read; `X | None` also takes null.
_ACCESSORS = {str: Doc.string, int: Doc.integer, float: Doc.number,
              bool: Doc.boolean}


def _typed_kwargs(cls: type, doc: Doc) -> dict:
    """`doc` as keyword arguments of the dataclass `cls`; ConfigError names
    an unknown key or a value of the wrong type."""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key in sorted(doc.value):
        if key not in hints:
            doc.fail("unknown config key", key)
        if hints[key] is BackendConfig:
            kwargs[key] = BackendConfig(**_typed_kwargs(BackendConfig,
                                                        doc.obj(key)))
            continue
        nullable = typing.get_args(hints[key])
        accessor = _ACCESSORS[nullable[0] if nullable else hints[key]]
        kwargs[key] = accessor(doc, key, None, null=bool(nullable))
    return kwargs
