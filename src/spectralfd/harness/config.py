"""Line-oriented experiment configuration.

The format is deliberately primitive so any tool can write it:

    # comment
    experiment = decay_order
    [study]               # section headers are cosmetic grouping only
    lambda = 1.0
    h0 = 0.125
    levels = 5
    schemes = forward_euler, backward_euler, mickens_exact

Keys are flat (sections do not namespace them); lists are comma separated.
``_SCHEMAS`` is the one declaration of every key.  The CLI generates its
flags from it and passes their strings to ``build_config``, which converts
and checks them with the code ``parse_config`` uses.  ``parse_config``
reports every violation it finds, not just the first, each with its line
number.  ``config_echo`` renders a validated configuration back to
canonical text that reparses to the same configuration.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from ..specfun import ALPHA_MIN

__all__ = [
    "ExperimentKind",
    "ExperimentConfig",
    "ConfigError",
    "Violation",
    "parse_config",
    "build_config",
    "config_echo",
]


class ExperimentKind(Enum):
    DECAY_ORDER = "decay_order"
    HO_EXACT = "ho_exact"
    PDE_COMPARE = "pde_compare"
    PDE_STABILITY = "pde_stability"
    ML_IDENTITIES = "ml_identities"
    SIGNATURE_DEMO = "signature_demo"
    LAPLACE_BVP = "laplace_bvp"


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
    experiment: ExperimentKind
    params: tuple  # sorted (key, value) pairs; lists stored as tuples

    def get(self, key: str):
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def as_dict(self) -> dict:
        return dict(self.params)


# --- field schemas ---------------------------------------------------------

# The most points one array of a run may hold (512 MiB of float64): far
# above every shipped config, far below what would exhaust memory or run
# for hours.
MAX_ARRAY_POINTS = 2**26

# The largest ho_exact amplitude hypot(y0, v0/omega): the report's amplitude
# invariant squares values of this size, and must stay finite.
MAX_OSCILLATOR_AMPLITUDE = math.sqrt(sys.float_info.max) / 2

# The most samples a signature_demo run may take.  Each is one
# Mittag-Leffler evaluation, so this bounds work rather than memory: about
# half a second of evaluations.
MAX_SIGNATURE_SAMPLES = 10_000

_SCHEME_NAMES = ("forward_euler", "backward_euler", "mickens_exact",
                 "spectral_exact")
_PDE_METHODS = ("euler", "nsfd", "spectral_modal", "spectral_phys")
_PROPAGATORS = ("local_exp", "nonlocal_ml")


@dataclass(frozen=True)
class Field:
    name: str
    kind: str  # float | int | str | float_list | str_list
    required: bool = False
    default: object = None
    check: Optional[Callable[[object], Optional[str]]] = None


def _positive(v) -> Optional[str]:
    return None if v > 0 else "must be positive"


def _nonnegative(v) -> Optional[str]:
    return None if v >= 0 else "must be >= 0"


def _positive_list(v) -> Optional[str]:
    return None if all(x > 0 for x in v) else "entries must be positive"


def _unit_interval(v) -> Optional[str]:
    return None if 0.0 < v <= 1.0 else "must lie in (0, 1]"


def _in_names(allowed) -> Callable[[object], Optional[str]]:
    def check(v) -> Optional[str]:
        bad = [x for x in v if x not in allowed]
        if bad:
            return f"unknown entries {bad}; allowed: {', '.join(allowed)}"
        return None
    return check


_SCHEMAS: dict[ExperimentKind, tuple[Field, ...]] = {
    ExperimentKind.DECAY_ORDER: (
        Field("lambda", "float", required=True, check=_positive),
        Field("t_final", "float", required=True, check=_positive),
        Field("h0", "float", required=True, check=_positive),
        Field("levels", "int", required=True,
              check=lambda v: None if v >= 4 else "must be >= 4"),
        Field("x0", "float", default=1.0),
        Field("schemes", "str_list", default=_SCHEME_NAMES,
              check=_in_names(_SCHEME_NAMES)),
    ),
    ExperimentKind.HO_EXACT: (
        Field("omega", "float", required=True, check=_positive),
        Field("h", "float", required=True, check=_positive),
        Field("n_steps", "int", required=True,
              check=lambda v: None if v >= 2 else "must be >= 2"),
        Field("y0", "float", default=1.0),
        Field("v0", "float", default=0.0),
    ),
    ExperimentKind.PDE_COMPARE: (
        Field("a", "float", required=True, check=_nonnegative),
        Field("b", "float", required=True),
        Field("ic_mode", "int", required=True, check=_nonnegative),
        Field("m_points", "int", default=64,
              check=lambda v: None if v >= 3 else "must be >= 3"),
        Field("domain_length", "float", default=2.0 * math.pi, check=_positive),
        Field("t_final", "float", required=True, check=_positive),
        Field("dt", "float_list", required=True, check=_positive_list),
        Field("methods", "str_list", default=("euler", "nsfd", "spectral_modal"),
              check=_in_names(_PDE_METHODS)),
        Field("k_mode", "float", default=None),
        Field("s_mode", "float", default=None),
    ),
    ExperimentKind.PDE_STABILITY: (
        Field("a", "float", required=True, check=_nonnegative),
        Field("b", "float", required=True),
        Field("dx", "float", required=True, check=_positive),
        Field("m_points", "int", default=32,
              check=lambda v: None if v >= 3 else "must be >= 3"),
        Field("dt", "float_list", required=True, check=_positive_list),
        Field("methods", "str_list", default=("euler", "nsfd", "spectral_modal"),
              check=_in_names(_PDE_METHODS)),
        Field("k_mode", "float", default=None),
        Field("s_mode", "float", default=None),
    ),
    ExperimentKind.ML_IDENTITIES: (
        Field("tol", "float", default=1e-12,
              check=lambda v: None if 0.0 < v < 1.0 else "must lie in (0, 1)"),
        Field("alphas", "float_list",
              default=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
              check=lambda v: None if all(ALPHA_MIN <= x <= 1.0 for x in v)
              else f"entries must lie in [{ALPHA_MIN:g}, 1]"),
    ),
    ExperimentKind.SIGNATURE_DEMO: (
        Field("alpha", "float", required=True, check=_unit_interval),
        Field("lambda", "float", default=1.0, check=_positive),
        Field("n_samples", "int", default=24,
              check=lambda v: None if 8 <= v <= MAX_SIGNATURE_SAMPLES
              else f"must lie in [8, {MAX_SIGNATURE_SAMPLES}]"),
        Field("t_min", "float", default=1e-4, check=_positive),
        Field("t_max", "float", default=1e-2, check=_positive),
        Field("propagator", "str", default="nonlocal_ml",
              check=lambda v: None if v in _PROPAGATORS
              else f"must be one of: {', '.join(_PROPAGATORS)}"),
    ),
    ExperimentKind.LAPLACE_BVP: (
        Field("a", "float", required=True, check=_positive),
        Field("b", "float", required=True),
        Field("s", "float", required=True),
        Field("levels", "int", default=4,
              check=lambda v: None if v >= 2 else "must be >= 2"),
        Field("m0", "int", default=11,
              check=lambda v: None if v >= 5 else "must be >= 5"),
        Field("ic_mode", "int", default=1, check=_positive),
    ),
}


def _cross_checks(kind: ExperimentKind, values: dict,
                  lines: dict[str, int]) -> list[Violation]:
    """Constraints that couple several keys; run after field validation."""
    out: list[Violation] = []

    def bad(key: str, message: str) -> None:
        out.append(Violation(lines.get(key, 0), key, message))

    def divides(step: float) -> bool:
        ratio = values["t_final"] / step if step > 0.0 else math.inf
        return (math.isfinite(ratio) and round(ratio) >= 1
                and abs(ratio - round(ratio)) <= 1e-9)

    def too_large(key: str) -> None:
        bad(key, f"the run would hold more than {MAX_ARRAY_POINTS} points "
                 "in one array")

    def refined_too_large(base: float, levels: int) -> bool:
        # base * 2**(levels - 1) + 1 > MAX_ARRAY_POINTS, compared in log2 so
        # that a huge `levels` neither overflows a float nor builds a huge
        # integer (an int-float comparison is exact)
        return base > 0.0 and (levels - 1 > math.log2(MAX_ARRAY_POINTS - 1)
                               - math.log2(base))

    if kind is ExperimentKind.DECAY_ORDER:
        # the finest level marches t_final / (h0 / 2**(levels - 1)) steps
        if refined_too_large(values["t_final"] / values["h0"],
                             values["levels"]):
            too_large("levels")
        else:
            # the run's steps h0 / 2**i; unlike 2**i, ldexp cannot overflow
            for i in range(values["levels"]):
                h = math.ldexp(values["h0"], -i)
                if not divides(h):
                    bad("h0", f"step {h!r} does not divide t_final")
                    break
    elif kind is ExperimentKind.HO_EXACT:
        if values["omega"] * values["h"] / 2.0 >= math.pi:
            bad("h", "omega*h/2 must stay below pi")
        if values["n_steps"] + 1 > MAX_ARRAY_POINTS:
            too_large("n_steps")
        if math.hypot(values["y0"], values["v0"] / values["omega"]) \
                > MAX_OSCILLATOR_AMPLITUDE:
            bad("y0", "the amplitude hypot(y0, v0/omega) exceeds "
                      f"{MAX_OSCILLATOR_AMPLITUDE:.6g}")
    elif kind is ExperimentKind.PDE_COMPARE:
        for dt in values["dt"]:
            if not divides(dt):
                bad("dt", f"entry {dt!r} does not divide t_final")
        # frames: (t_final / min(dt) + 1) x m_points
        frames = values["t_final"] / min(values["dt"]) + 1.0
        if values["m_points"] > MAX_ARRAY_POINTS / frames:
            too_large("dt")
        # sin(2 pi ic_mode x_m / domain_length) samples sin(pi * integer)
        # when 2 ic_mode is a multiple of m_points: roundoff, not a mode
        if values["ic_mode"] > 0 \
                and 2 * values["ic_mode"] % values["m_points"] == 0:
            bad("ic_mode", "the initial sine vanishes at every grid point "
                           "when 2 ic_mode is a multiple of m_points")
        # the exact solution's amplitude, as the runner's error scale forms it
        try:
            k = 2.0 * math.pi * values["ic_mode"] / values["domain_length"]
            amplitude = math.exp((values["b"] - values["a"] * k**2)
                                 * values["t_final"])
        except OverflowError:
            amplitude = math.inf
        if not 0.0 < amplitude < math.inf:
            bad("t_final", "exp((b - a k^2) t) leaves the double range by "
                           "t = t_final, with k = 2 pi ic_mode / domain_length")
    elif kind is ExperimentKind.PDE_STABILITY:
        if values["m_points"] > MAX_ARRAY_POINTS:
            too_large("m_points")
    elif kind is ExperimentKind.SIGNATURE_DEMO:
        if values["t_max"] <= values["t_min"]:
            bad("t_max", "must exceed t_min")
        if values["propagator"] == "nonlocal_ml" and values["alpha"] < ALPHA_MIN:
            bad("alpha", f"must be >= {ALPHA_MIN:g} for nonlocal_ml")
    elif kind is ExperimentKind.LAPLACE_BVP:
        if values["s"] <= values["b"]:
            bad("s", "must exceed b (decaying transform regime)")
        # the finest grid has (m0 - 1) * 2**(levels - 1) + 1 points
        if refined_too_large(values["m0"] - 1, values["levels"]):
            too_large("levels")
    return out


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _convert(raw: str, kind: str):
    """Convert a raw string to the schema type; raises ValueError.

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


def _validate(kind: ExperimentKind, raw: dict[str, str],
              lines: dict[str, int]) -> ExperimentConfig:
    """Validate raw key/value strings against the experiment schema."""
    schema = {f.name: f for f in _SCHEMAS[kind]}
    violations: list[Violation] = []
    values: dict[str, object] = {}

    for key, value in raw.items():
        if key == "experiment":
            continue
        f = schema.get(key)
        if f is None:
            violations.append(Violation(lines.get(key, 0), key, "unknown key"))
            continue
        try:
            value = _convert(str(value), f.kind)
        except ValueError as exc:
            message = str(exc)
        else:
            message = f.check(value) if f.check else None
        if message:
            violations.append(Violation(lines.get(key, 0), key, message))
        else:
            values[key] = value

    for f in schema.values():
        if f.name in raw:
            continue
        if f.required:
            violations.append(Violation(0, f.name, "required key is missing"))
        else:
            values[f.name] = f.default

    if not violations:
        violations.extend(_cross_checks(kind, values, lines))
    if violations:
        raise ConfigError(violations)
    dropped_defaults = {k: v for k, v in values.items() if v is not None}
    return ExperimentConfig(experiment=kind,
                            params=tuple(sorted(dropped_defaults.items())))


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

    kind: Optional[ExperimentKind] = None
    exp_raw = raw.get("experiment")
    if exp_raw is None:
        violations.append(Violation(0, "experiment", "required key is missing"))
    else:
        try:
            kind = ExperimentKind(exp_raw)
        except ValueError:
            allowed = ", ".join(k.value for k in ExperimentKind)
            violations.append(Violation(lines.get("experiment", 0), "experiment",
                                        f"unknown experiment; allowed: {allowed}"))
    if violations or kind is None:
        try:
            if kind is not None:
                _validate(kind, raw, lines)
        except ConfigError as exc:
            violations.extend(exc.violations)
        raise ConfigError(violations)
    return _validate(kind, raw, lines)


def build_config(kind: ExperimentKind, params: dict[str, str]) -> ExperimentConfig:
    """Validate ``params``, which map each key to the string a config file
    would hold for it (the CLI path); conversion and checks are the same.
    A non-string value is read as its ``str()``: 0.7 as "0.7"."""
    return _validate(kind, params, {})


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_echo(config: ExperimentConfig) -> str:
    """Canonical text form; reparses to an equal configuration."""
    out = [f"experiment = {config.experiment.value}"]
    for key, value in config.params:
        out.append(f"{key} = {_format_value(value)}")
    return "\n".join(out)
