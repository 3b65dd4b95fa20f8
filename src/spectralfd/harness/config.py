"""Line-oriented experiment configuration: parse, convert, validate, echo.

The format is deliberately primitive so any tool can write it:

    # comment
    experiment = decay_order
    [study]               # section headers are cosmetic grouping only
    lambda = 1.0
    h0 = 0.125
    levels = 5
    schemes = forward_euler, backward_euler, mickens_exact

Keys are flat (sections do not namespace them); lists are comma separated.
This module knows the format only.  Which keys an experiment takes, and the
checks that couple them, live in that experiment's record in
``experiments``.  ``parse_config`` reads a document and ``build_config``
takes the strings of a key/value mapping (the CLI's flags); both convert
and check with the same code.  ``parse_config`` reports every violation it
finds, not just the first, each with its line number.  ``config_echo``
renders a validated configuration back to canonical text that reparses to
the same configuration.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "Violation",
    "parse_config",
    "build_config",
    "config_echo",
]


@dataclass(frozen=True)
class Violation:
    line: int  # 0 when no source line applies
    key: str
    message: str

    def __str__(self) -> str:
        where = f"line {self.line}: " if self.line else ""
        return f"{where}{self.key}: {self.message}"


class ConfigError(ValueError):
    """Carries every violation found while parsing or validating."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str  # the experiment's name
    params: tuple  # sorted (key, value) pairs; lists stored as tuples

    def as_dict(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class Field:
    """One config key: its kind, and its default or that it is required."""

    name: str
    kind: str  # float | int | str | float_list | str_list
    required: bool = False
    default: object = None
    check: Optional[Callable[[object], Optional[str]]] = None


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _convert(raw: str, kind: str):
    """Convert a raw string to a field's kind; raises ValueError.

    Integer text converts exactly; "6.0" and "1e3" count as integers too.
    """
    if kind == "int":
        with contextlib.suppress(ValueError):
            return int(raw)
        with contextlib.suppress(ValueError):
            if float(raw).is_integer():
                return int(float(raw))
        raise ValueError("expected an integer")
    if kind == "float":
        return _finite(raw)
    if kind == "str":
        return raw
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ValueError("expected a non-empty list")
    if kind == "float_list":
        return tuple(_finite(item) for item in items)
    if kind == "str_list":
        return tuple(items)
    raise AssertionError(f"unknown field kind {kind}")


def _validate(name: str, raw: dict[str, str],
              lines: dict[str, int]) -> ExperimentConfig:
    """Validate raw key/value strings against the experiment's record."""
    # imported here, not at the top: the table holds the runners, and
    # their module imports this one
    from .experiments import _EXPERIMENTS

    violations: list[Violation] = []

    def bad(key: str, message: str) -> None:
        violations.append(Violation(lines.get(key, 0), key, message))

    experiment = _EXPERIMENTS.get(name)
    if experiment is None:
        bad("experiment",
            f"unknown experiment; allowed: {', '.join(_EXPERIMENTS)}")
        raise ConfigError(violations)
    schema = {f.name: f for f in experiment.fields}
    values: dict[str, object] = {}

    for key, value in raw.items():
        if key == "experiment":
            continue
        f = schema.get(key)
        if f is None:
            bad(key, "unknown key")
            continue
        try:
            value = _convert(str(value), f.kind)
        except ValueError as exc:
            message = str(exc)
        else:
            message = f.check(value) if f.check else None
        if message:
            bad(key, message)
        else:
            values[key] = value

    for f in schema.values():
        if f.name in raw:
            continue
        if f.required:
            bad(f.name, "required key is missing")
        elif f.default is not None:  # a None default leaves the key out
            values[f.name] = f.default

    if not violations:
        experiment.check(values, bad)
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(experiment=name,
                            params=tuple(sorted(values.items())))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration document.

    Raises ``ConfigError`` listing every parse and validation violation.
    """
    raw: dict[str, object] = {}
    lines: dict[str, int] = {}
    violations: list[Violation] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                violations.append(Violation(lineno, stripped, "malformed section header"))
            continue
        if "=" not in stripped:
            violations.append(Violation(lineno, stripped, "expected 'key = value'"))
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            violations.append(Violation(lineno, stripped, "empty key"))
            continue
        if key in raw:
            violations.append(Violation(lineno, key, "duplicate key"))
            continue
        raw[key] = value
        lines[key] = lineno

    if "experiment" not in raw:
        violations.append(Violation(0, "experiment", "required key is missing"))
        raise ConfigError(violations)
    try:
        config = _validate(raw["experiment"], raw, lines)
    except ConfigError as exc:
        violations.extend(exc.violations)
    if violations:
        raise ConfigError(violations)
    return config


def build_config(name: str, params: dict[str, str]) -> ExperimentConfig:
    """Validate ``params`` for the experiment called ``name``.  They map each
    key to the string a config file would hold for it (the CLI path);
    conversion and checks are the same.  A non-string value is read as its
    ``str()``: 0.7 as "0.7"."""
    return _validate(name, params, {})


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_echo(config: ExperimentConfig) -> str:
    """Canonical text form; reparses to an equal configuration."""
    out = [f"experiment = {config.experiment}"]
    for key, value in config.params:
        out.append(f"{key} = {_format_value(value)}")
    return "\n".join(out)
