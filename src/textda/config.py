"""Run configuration.

TrainConfig carries every knob a training run needs. Config files are plain
`key = value` lines (# comments allowed); values are coerced to the field's
type, unknown keys are rejected, and the full resolved config is echoed into
run reports so a run can be reproduced from its report alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .losses import VARIANTS, LossWeights

__all__ = ["TrainConfig", "parse_config_file"]


@dataclass
class TrainConfig:
    variant: str = "DAS"
    lambda1: float = 200.0
    lambda2: float = 1.0
    lambda3: float = 3.0
    alpha: float = 0.5
    learning_rate: float = 5e-4
    epochs: int = 30
    batch_size: int = 50
    seed: int = 0
    window: int = 3
    hidden: int = 300
    embedding_dim: int = 300
    dropout_rate: float = 0.5
    max_norm: float = 3.0
    vocab_size: int = 10000
    n_dev: int = 1000
    max_doc_len: int = 400
    balance_source: bool = True
    eval_batch: int = 256
    mmd_sigma: float | None = None  # None -> median heuristic per batch

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {sorted(VARIANTS)}")
        for name in ("lambda1", "lambda2", "lambda3"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not (0.0 <= self.alpha < 1.0):
            raise ConfigError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        for name in ("epochs", "batch_size", "hidden", "embedding_dim", "vocab_size",
                     "n_dev", "max_doc_len", "eval_batch"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.window < 1 or self.window % 2 == 0:
            raise ConfigError(f"window must be odd and >= 1, got {self.window}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.max_norm <= 0:
            raise ConfigError("max_norm must be positive")
        if self.mmd_sigma is not None and self.mmd_sigma <= 0:
            raise ConfigError("mmd_sigma must be positive (or unset for the median heuristic)")

    def effective_weights(self) -> LossWeights:
        """Configured lambdas after the variant's zero-forcing."""
        return LossWeights.for_variant(self.variant, self.lambda1, self.lambda2, self.lambda3)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, mapping: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**mapping)

    @classmethod
    def from_strings(cls, mapping: dict[str, str]) -> "TrainConfig":
        """Build from raw string values (config files, CLI overrides): each is
        parsed by its field's annotation; from_dict rejects unknown keys."""
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        return cls.from_dict({key: _coerce(key, types[key], raw.strip()) if key in types else raw
                              for key, raw in mapping.items()})


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def _parse_optional_float(raw: str) -> float | None:
    return None if raw.lower() in ("", "none", "median") else float(raw)


# field annotation (a string under postponed evaluation) -> parser
_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool,
            "float | None": _parse_optional_float}


def _coerce(key: str, annotation: str, raw: str):
    try:
        return _PARSERS[annotation](raw)
    except ValueError as e:
        raise ConfigError(f"config key {key!r}: cannot parse value {raw!r}") from e


def parse_config_file(path) -> dict[str, str]:
    """Read `key = value` lines; blank lines and # comments are skipped."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    out: dict[str, str] = {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{p}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"{p}: line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out
