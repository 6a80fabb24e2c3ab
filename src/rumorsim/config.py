"""Run configuration: a flat key = value text file shared by all CLI commands.

Lines are `key = value`; blank lines and lines starting with '#' are ignored.
Relative paths in the file resolve against the directory containing the config
file, so a bundled dataset can carry its own runnable config; relative paths
given as overrides (CLI flags) resolve against the working directory.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigurationError, ParseError, _check_probability
from .graph import _open_input
from .similarity import Metric


class ModelKind(Enum):
    GATED_USER_USER = "gated_user_user"
    GATED_USER_CONTENT = "gated_user_content"
    SIR = "sir"
    TIPPING = "tipping"
    IC = "ic"


GATED_MODELS = (ModelKind.GATED_USER_USER, ModelKind.GATED_USER_CONTENT)


class EvaluationPolicy(Enum):
    # once: an agent checks its sources only at its wake-up step
    ONCE = "once"
    # every-step: an agent rechecks each step from wake-up until absorbed
    EVERY_STEP = "every-step"


_DEFAULT_SWEEP = (Metric.COSINE, Metric.JACCARD_SET, Metric.DICE, Metric.AVERAGE)


@dataclass
class SimulationConfig:
    edges_path: Path
    users_path: Path
    rumor_path: Path | None = None
    decisions_path: Path | None = None
    out_dir: Path = Path(".")
    max_time: int = 1296
    trials: int = 2
    seed: int = 0
    model: ModelKind = ModelKind.GATED_USER_USER
    metric: Metric = Metric.COSINE
    threshold: float = 0.5
    evaluation_policy: EvaluationPolicy = EvaluationPolicy.ONCE
    initials: tuple[int, ...] = ()
    beta: float | None = None
    gamma: float | None = None
    theta: float | None = None
    ic_default_p: float | None = None
    metrics: tuple[Metric, ...] = _DEFAULT_SWEEP

    def __post_init__(self):
        if not self.metrics:
            raise ConfigurationError("metrics must list at least one metric")
        # one eval.json row per metric; an alias (jaccard_set) names its metric
        for k, metric in enumerate(self.metrics):
            if metric in self.metrics[:k]:
                raise ConfigurationError(f"metrics lists metric {metric.value!r} twice")
        if self.max_time < 1:
            raise ConfigurationError(f"max_time must be >= 1, got {self.max_time}")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < (1 << 64):
            raise ConfigurationError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        _check_probability("threshold", self.threshold)
        if self.model is ModelKind.GATED_USER_CONTENT and self.rumor_path is None:
            raise ConfigurationError("model gated_user_content requires rumor_path")

    def model_param(self, name: str) -> float:
        value = getattr(self, name)
        if value is None:
            raise ConfigurationError(f"model {self.model.value} requires config key {name}")
        return value


# the dataclass fields are the one list of config keys: the file parser, the
# CLI flags and the summary echo all derive from it
CONFIG_KEYS = tuple(f.name for f in fields(SimulationConfig))
_TYPES = get_type_hints(SimulationConfig)


def load_config(path, overrides: dict | None = None) -> SimulationConfig:
    """Parse a config file, then apply string-valued overrides (CLI flags win).

    Each raw value keeps where it came from: its config file and line, or
    None for an override.  Relative paths resolve against the config file's
    directory for values from the file, the working directory for overrides.
    """
    raw = {}
    path = Path(path)
    with _open_input(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(path, line_no, f"expected key = value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ParseError(path, line_no, f"unknown config key {key!r}")
            if key in raw:
                raise ParseError(path, line_no, f"config key {key!r} is set twice")
            raw[key] = (value.strip(), (path, line_no))
    for key, value in (overrides or {}).items():
        if key not in CONFIG_KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")
        raw[key] = (str(value), None)
    return _build(raw)


def _build(raw: dict) -> SimulationConfig:
    kwargs = {}
    for f in fields(SimulationConfig):
        if f.name in raw:
            value, origin = raw[f.name]
            kwargs[f.name] = _parse(f.name, _TYPES[f.name], value, origin)
        elif f.default is MISSING:
            raise ConfigurationError(f"config is missing required key {f.name}")
    return SimulationConfig(**kwargs)


def _parse(key: str, kind, value: str, origin: tuple | None):
    """Parse one config value by its field's annotated type."""
    if type(None) in get_args(kind):
        # X | None: the value, when given, is an X
        kind = get_args(kind)[0]
    if get_origin(kind) is tuple:
        # comma-separated; empty fragments are skipped
        item = get_args(kind)[0]
        parts = [part.strip() for part in value.split(",") if part.strip()]
        return tuple(_parse(key, item, part, origin) for part in parts)
    if kind is Path:
        return _resolve(key, value, origin)
    if kind is int:
        return _to_number(key, int, "an integer", value)
    if kind is float:
        return _to_number(key, float, "a number", value)
    if kind is EvaluationPolicy:
        value = value.strip().lower().replace("_", "-")
    return _to_enum(key, kind, value)


def _resolve(key: str, value: str, origin: tuple | None) -> Path:
    # the OS takes no NUL in a path; catch it here, where the key is known
    if "\0" in value:
        message = f"config key {key} holds a NUL byte"
        if origin is None:
            raise ConfigurationError(message)
        raise ParseError(*origin, message)
    p = Path(value)
    return p if p.is_absolute() or origin is None else origin[0].parent / p


def _to_number(key: str, kind: type, noun: str, value: str):
    try:
        return kind(value)
    except ValueError:
        raise ConfigurationError(f"config key {key} must be {noun}, got {value!r}") from None


def _to_enum(key: str, enum_cls, value: str):
    try:
        return enum_cls.from_name(value) if enum_cls is Metric else enum_cls(value.strip().lower())
    except ValueError:
        allowed = ", ".join(m.value for m in enum_cls)
        raise ConfigurationError(f"config key {key} must be one of {allowed}; got {value!r}") from None
