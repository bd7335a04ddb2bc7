"""Engine configuration with pipeline defaults.

Defaults: 1 FPS sampling, relevance threshold tau=2.5, K=2 clustering to a
maximum depth of 3, global-context threshold gamma=0.4, and a hard cap of
15 reasoning iterations per question.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, InputError


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
    fps: float = 1.0
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

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise ConfigError("fps must be positive")
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
        p = Path(path)
        if not p.exists():
            raise InputError(f"config file not found: {p}")
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_doc(doc)

    @classmethod
    def from_doc(cls, doc: dict) -> "EngineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
        kwargs = dict(doc)
        backend_doc = kwargs.pop("backend", None)
        if backend_doc is not None:
            if not isinstance(backend_doc, dict):
                raise ConfigError("backend must be an object")
            bknown = {f.name for f in dataclasses.fields(BackendConfig)}
            bunknown = set(backend_doc) - bknown
            if bunknown:
                raise ConfigError(f"unknown backend key: {sorted(bunknown)[0]}")
            kwargs["backend"] = BackendConfig(**backend_doc)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
