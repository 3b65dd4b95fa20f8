"""Relaxation propagators and near-origin signature classification.

Two wave-relaxation families are covered: the local stretched-exponential
``exp(-rate * t**order)`` and its non-local Mittag-Leffler counterpart
``E_order(-rate * t**order)``.  Both reduce to plain exponential decay at
order 1; for order < 1 the Mittag-Leffler propagator carries the heavier
algebraic tail.  ``signature_fit`` recovers the power-law exponent of a
sampled signature near t = 0 and classifies it as exponential-type (Debye)
or stretched-type (KWW).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .specfun import MLParams, mittag_leffler

__all__ = [
    "SignatureKind",
    "WaveSignature",
    "FitDegenerateError",
    "FitRangeError",
    "local_propagator",
    "nonlocal_propagator",
    "signature_fit",
    "origin_window",
]

# A fitted exponent this close to 1 is classified as plain exponential decay.
DEBYE_BAND = (0.97, 1.03)
# Fits outside this exponent range are rejected as non-physical.
FIT_RANGE = (0.0, 1.2)

MIN_FIT_SAMPLES = 8


class SignatureKind(Enum):
    DEBYE = "debye"
    KWW = "kww"


class FitDegenerateError(ValueError):
    """Signature samples unusable: too few, nonpositive, or degenerate."""


class FitRangeError(ValueError):
    """Fitted exponent falls outside the physically admissible range."""


@dataclass(frozen=True)
class WaveSignature:
    """Result of a near-origin power-law fit W(t) ~ c_hat * t**alpha_hat."""

    kind: SignatureKind
    c_hat: float
    alpha_hat: float
    fit_residual: float


def _check_arguments(rate: float, order: float, t: float) -> None:
    if not (rate > 0.0):
        raise ValueError(f"rate must be positive, got {rate!r}")
    if not (0.0 < order <= 1.0):
        raise ValueError(f"order must lie in (0, 1], got {order!r}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")


def local_propagator(rate: float, order: float, t: float) -> float:
    """exp(-rate * t**order): unit value at t = 0, decaying for t > 0."""
    _check_arguments(rate, order, t)
    if t == 0.0:
        return 1.0
    return math.exp(-rate * t**order)


def nonlocal_propagator(rate: float, order: float, t: float) -> float:
    """E_order(-rate * t**order); equals the local propagator at order 1.

    ``MLParams`` limits ``order`` to [0.01, 1], its contract's domain."""
    _check_arguments(rate, order, t)
    if t == 0.0:
        return 1.0
    return mittag_leffler(MLParams(alpha=order), -rate * t**order)


def origin_window(n_samples: int = 24, t_min: float = 1e-4,
                  t_max: float = 1e-2) -> np.ndarray:
    """Logarithmically spaced sample times in the near-origin window."""
    if n_samples < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples")
    if not (0.0 < t_min < t_max):
        raise ValueError("window must satisfy 0 < t_min < t_max")
    return np.geomspace(t_min, t_max, n_samples)


def signature_fit(samples) -> WaveSignature:
    """Least-squares power-law fit of near-origin signature samples.

    ``samples`` is a sequence of (t, W) pairs with strictly increasing t > 0
    and W > 0.  The slope of log W against log t gives the exponent, the
    intercept the amplitude; the residual is the RMS deviation in log space.
    The line is the least-squares fit in closed form, from sums centred on
    the means of x = log t and y = log W: with d = x - mean x, the slope is
    sum d (y - mean y) / sum d**2 and the intercept mean y - slope mean x.

    Raises
    ------
    FitDegenerateError
        Fewer than 8 samples, nonpositive values, non-increasing t, or zero
        variance in log t.
    FitRangeError
        If the fitted exponent falls outside (0, 1.2].
    """
    pairs = list(samples)
    if len(pairs) < MIN_FIT_SAMPLES:
        raise FitDegenerateError(
            f"need at least {MIN_FIT_SAMPLES} samples, got {len(pairs)}"
        )
    t = np.asarray([p[0] for p in pairs], dtype=float)
    w = np.asarray([p[1] for p in pairs], dtype=float)
    if np.any(t <= 0.0) or np.any(w <= 0.0):
        raise FitDegenerateError("samples must have t > 0 and W > 0")
    if np.any(np.diff(t) <= 0.0):
        raise FitDegenerateError("sample times must be strictly increasing")
    log_t = np.log(t)
    log_w = np.log(w)
    if np.ptp(log_t) < 1e-14:
        raise FitDegenerateError("zero variance in log t")

    mean_t, mean_w = float(np.mean(log_t)), float(np.mean(log_w))
    d = log_t - mean_t
    slope = float(np.sum(d * (log_w - mean_w)) / np.sum(d * d))
    intercept = mean_w - slope * mean_t
    resid = log_w - (slope * log_t + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))

    lo, hi = FIT_RANGE
    if not (lo < slope <= hi):
        raise FitRangeError(
            f"fitted exponent {slope:.4f} outside admissible range ({lo}, {hi}]"
        )
    kind = (SignatureKind.DEBYE if DEBYE_BAND[0] <= slope <= DEBYE_BAND[1]
            else SignatureKind.KWW)
    return WaveSignature(kind=kind, c_hat=math.exp(intercept),
                         alpha_hat=slope, fit_residual=rms)
