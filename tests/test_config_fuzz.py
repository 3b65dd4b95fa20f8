"""A seeded config fuzzer over every experiment.

Each case starts from an experiment's CLI defaults and replaces one to
three fields with values from pools that sit on the edges of the double
range (0, the smallest subnormal, 709 and 710 around exp's overflow, 1e300)
or are ordinary.  Every config must end in one of three ways, with
warnings raised as errors:

* a ``ConfigError`` from validation;
* a numerical failure that names its cause: the signature fit's own
  verdicts, ``FitRangeError`` and ``FitDegenerateError``.  Any other
  exception from a run is input that validation let through;
* report rows with no nan cell.  inf is blow-up data only: in a diverged
  pde_compare row, or as the error of a decay scheme not flagged exact.
"""

import math
import random
import warnings

from spectralfd.harness.config import ConfigError, build_config
from spectralfd.harness.experiments import (
    _EXPERIMENTS,
    _PDE_METHODS,
    _PROPAGATORS,
    _SCHEMES,
    run_experiment,
)
from spectralfd.propagators import FitDegenerateError, FitRangeError

SEED = 20261020
CASES = 4000

FLOATS = (0.0, -0.0, 5e-324, 1e-300, 1e-9, 709.0, 710.0, 1e9, 1e300,
          -1e300, 0.1, 0.5, 1.0, 2.0, -1.0, 7.3)
INTS = (0, 1, 2, 3, 4, 5, 6, 8, 10, 17, 32)
NAMES = {"methods": tuple(_PDE_METHODS), "schemes": _SCHEMES,
         "propagator": tuple(_PROPAGATORS)}

# The most grid points times steps one run may take here, so the budget
# stays near two seconds; validation admits runs far larger.
MAX_WORK = 2e5


def _draw(rng: random.Random, field) -> str:
    if field.kind == "float":
        return repr(rng.choice(FLOATS))
    if field.kind == "int":
        return str(rng.choice(INTS))
    if field.kind == "float_list":
        return ",".join(repr(rng.choice(FLOATS))
                        for _ in range(rng.randint(1, 3)))
    names = NAMES[field.name]
    if field.kind == "str":
        return rng.choice(names)
    return ",".join(rng.sample(names, rng.randint(1, len(names))))


def _work(name: str, v: dict) -> float:
    """Grid points times steps of a validated run, roughly."""
    if name == "decay_order":
        return v["t_final"] / v["h0"] * 2.0 ** v["levels"]
    if name == "ho_exact":
        return v["n_steps"]
    if name == "pde_compare":
        steps = sum(v["t_final"] / dt for dt in v["dt"])
        return steps * v["m_points"] * len(v["methods"])
    if name == "pde_stability":
        return v["m_points"] * len(v["dt"]) * len(v["methods"])
    if name == "laplace_bvp":
        return v["m0"] * 2.0 ** v["levels"]
    return 0.0


def _row_fault(name: str, columns: tuple, row: tuple):
    """Why a report row is not clean data, or None."""
    for column, cell in zip(columns, row):
        if not isinstance(cell, float) or math.isfinite(cell):
            continue
        if math.isnan(cell):
            return f"{column} is nan"
        if name == "pde_compare" and row[columns.index("diverged")]:
            continue
        if (name == "decay_order" and column == "error"
                and not row[columns.index("exact_flag")]):
            continue
        return f"{column} is {cell!r}"
    return None


def _outcome(name: str, raw: dict):
    """None when the config ends cleanly, otherwise what went wrong."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = build_config(name, raw)
        except ConfigError:
            return None
        if _work(name, config.as_dict()) > MAX_WORK:
            return None
        try:
            report = run_experiment(config)
        except (FitRangeError, FitDegenerateError):
            return None
        except Exception as exc:  # a warning raised as an error, or a bug
            return f"{type(exc).__name__}: {exc}"
    for row in report.rows:
        fault = _row_fault(name, report.columns, row)
        if fault:
            return f"{fault} in {row}"
    return None


def _cases():
    rng = random.Random(SEED)
    names = sorted(_EXPERIMENTS)
    for i in range(CASES):
        name = names[i % len(names)]
        experiment = _EXPERIMENTS[name]
        raw = dict(experiment.cli_defaults)
        fields = rng.sample(experiment.fields,
                            min(rng.randint(1, 3), len(experiment.fields)))
        # a required key the defaults leave out (signature's alpha) is
        # drawn as well
        fields += [f for f in experiment.fields
                   if f.required and f.name not in raw and f not in fields]
        for field in fields:
            raw[field.name] = _draw(rng, field)
        yield name, raw


def test_every_config_is_rejected_fails_by_name_or_runs_clean():
    faults = []
    for name, raw in _cases():
        fault = _outcome(name, raw)
        if fault:
            faults.append(f"{name} {raw}: {fault}")
    assert faults == []
