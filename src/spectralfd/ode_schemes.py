"""Decay-equation schemes, the exact oscillator scheme, and order measurement.

Four one-step schemes for dx/dt = -rate * x are provided: explicit and
implicit Euler (first order), the exact scheme in implicit quotient form
with denominator (exp(rate*h) - 1)/rate, and the same exact update written
directly as multiplication by exp(-rate*h).  The quotient and multiplicative
forms are algebraically identical - 1/(1 + rate*phi(h)) = exp(-rate*h) -
and both reproduce the continuous solution at every grid point for every
step size.

Each family's update is x_{n+1} = x_n * factor or x_n / factor with a
constant factor, so ``decay_solve`` marches all steps as one ufunc
``accumulate`` over the states array.  ``accumulate`` applies the update
strictly left to right, so the trajectory is bit-equal to the plain
one-step-at-a-time loop.

The harmonic-oscillator recurrence y_{n+1} = 2*cos(omega*h)*y_n - y_{n-1}
is the exact discrete form of y'' + omega^2 y = 0 (its denominator is the
squared quarter-period sine measure), and conserves the discrete amplitude
up to roundoff.  ``ho_exact_states`` is its one march.  It carries the two
previous values as Python floats, two steps per loop iteration with their
roles swapped, and keeps only the states at the step indices asked for, so
a run holds no trajectory.  The loop stays sequential: any other form of
the recurrence (a closed form, a matrix power, a vectorised scan) changes
the roundoff drift that the oscillator study exists to report.  Both
marches are bit-equal to the scalar loops in ``tests/oracles.py``.

Neither march warns on overflow: like Python float arithmetic, an unstable
run (forward Euler with |1 - rate*h| > 1) silently reaches inf.

``order_estimate`` measures the classical observed convergence order over
the steps h0, h0/2, h0/4, ... against the closed-form solution, reporting
schemes whose error sits at the roundoff floor as exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .denominators import phi_nsfd

__all__ = [
    "SchemeFamily",
    "Trajectory",
    "OrderSample",
    "decay_solve",
    "ho_exact_states",
    "ho_initial_from_velocity",
    "order_estimate",
]

# Errors at or below this multiple of |x0| count as exact (roundoff floor).
EXACT_ERROR_FLOOR = 1e-13


class SchemeFamily(Enum):
    FORWARD_EULER = "forward_euler"
    BACKWARD_EULER = "backward_euler"
    MICKENS_EXACT = "mickens_exact"
    SPECTRAL_EXACT = "spectral_exact"


@dataclass(frozen=True)
class Trajectory:
    """States x_0, ..., x_n of a run with a uniform step: x_i is the state
    at t_i = i * step."""

    step: float
    states: np.ndarray

    def __post_init__(self) -> None:
        if self.states.ndim != 1:
            raise ValueError("states must be a 1-D array")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.states)) * self.step


def _update(family: SchemeFamily, lam: float,
            h: float) -> tuple[np.ufunc, float]:
    """The one-step update as ``x_{n+1} = ufunc(x_n, factor)``."""
    if family is SchemeFamily.FORWARD_EULER:
        return np.multiply, 1.0 - lam * h
    if family is SchemeFamily.BACKWARD_EULER:
        return np.divide, 1.0 + lam * h
    if family is SchemeFamily.MICKENS_EXACT:
        # implicit quotient form; 1 + lam*phi collapses to exp(lam*h), which
        # past the range of exp is inf: every state after x_0 is then 0,
        # within exp(-709) |x_0| of the exact one
        try:
            return np.divide, 1.0 + lam * phi_nsfd(h, lam)
        except OverflowError:
            return np.divide, math.inf
    return np.multiply, math.exp(-lam * h)


def decay_solve(family: SchemeFamily, rate: float, step: float, x0: float,
                n_steps: int) -> Trajectory:
    """March ``family`` at ``rate`` and ``step`` from x0 for n_steps.

    The states array holds x0 followed by the scheme's constant factor, and
    one ufunc ``accumulate`` turns it in place into x_0, ..., x_n.  The
    update runs strictly left to right, so every state is bit-equal to
    n_steps one-step updates.  An unstable run overflows to inf without a
    warning, as Python float arithmetic does.
    """
    if not (rate > 0.0):
        raise ValueError(f"rate must be positive, got {rate!r}")
    if not (step > 0.0):
        raise ValueError(f"step must be positive, got {step!r}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps!r}")
    ufunc, factor = _update(family, rate, step)
    states = np.full(n_steps + 1, factor)
    states[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        ufunc.accumulate(states, out=states)
    return Trajectory(step=step, states=states)


def ho_initial_from_velocity(omega: float, h: float, y0: float,
                             v0: float) -> float:
    """Second starting value for velocity-specified oscillator data."""
    return y0 * math.cos(omega * h) + v0 * math.sin(omega * h) / omega


def ho_exact_states(omega: float, h: float, y0: float, y1: float,
                    indices) -> np.ndarray:
    """States y_n of the exact harmonic-oscillator recurrence
    y_{n+1} = 2cos(omega h) y_n - y_{n-1}, at the step indices ``indices``.

    The indices must increase strictly from 0 or above; the result holds
    y_n for each, as float64, and ``range(n_steps + 1)`` gives the whole
    trajectory.  With y0 = 1 and y1 = cos(omega*h), y_n is cos(n*omega*h)
    up to roundoff accumulation.  Requires omega*h/2 < pi (first zero of
    the quarter-period sine measure).

    Only the two previous values are carried, as Python floats, and only
    the states asked for are kept.  The loop runs two steps per iteration,
    each new value overwriting the older one, with the same two roundings
    per step as y_{n+1} = c*y_n - y_{n-1}, so every state is bit-equal to
    the one-step loop's.  Overflow gives inf or nan without a warning, as
    Python float arithmetic does.
    """
    if not (omega > 0.0):
        raise ValueError(f"frequency must be positive, got {omega!r}")
    if not (h > 0.0):
        raise ValueError(f"step must be positive, got {h!r}")
    if omega * h / 2.0 >= math.pi:
        raise ValueError(
            f"omega*h/2 = {omega * h / 2.0:g} must stay below pi"
        )
    c = 2.0 * math.cos(omega * h)
    prev, cur = float(y0), float(y1)  # y_{n-1}, y_n
    n, last = 1, -1
    states = []
    for k in indices:
        if k <= last:
            raise ValueError(
                f"indices must be >= 0 and increase strictly, got {k!r}"
            )
        last = k
        if k == 0:
            states.append(prev)
            continue
        for _ in range((k - n) // 2):
            prev = c * cur - prev
            cur = c * prev - cur
        if (k - n) % 2:
            prev, cur = cur, c * cur - prev
        n = k
        states.append(cur)
    return np.array(states, dtype=np.float64)


class OrderSample(NamedTuple):
    h: float
    error: float
    observed_p: Optional[float]
    exact: bool


def _step_ladder(t_final: float, h0: float,
                 levels: int) -> list[tuple[float, int]]:
    """The steps h = h0 / 2**i, i < levels, each with its step count
    n = t_final / h.  Each step must divide t_final into n >= 1 steps,
    within 1e-9; the first that does not raises ValueError."""
    ladder = []
    for i in range(levels):
        h = math.ldexp(h0, -i)  # h0 / 2**i, which cannot overflow
        n = t_final / h if h > 0.0 else math.inf
        if not (math.isfinite(n) and round(n) >= 1
                and abs(n - round(n)) <= 1e-9):
            raise ValueError(
                f"step {h!r} does not divide t_final={t_final!r}")
        ladder.append((h, round(n)))
    return ladder


def order_estimate(family: SchemeFamily, rate: float, x0: float,
                   t_final: float, h0: float, levels: int) -> list[OrderSample]:
    """Observed order of a decay scheme over the steps h0 / 2**i, i < levels.

    Every step must divide t_final.  error(h) is the terminal-state
    deviation from x0*exp(-rate*t_final); observed_p pairs consecutive
    levels as log2(error(h)/error(h/2)).  Rows whose error sits at the
    roundoff floor (1e-13 * |x0|) are flagged exact and excluded from order
    ratios.  A level that blows up is data: its error is inf or nan, and
    neither ratio it takes part in gets an observed_p.
    """
    if levels < 4:
        raise ValueError(f"need at least 4 levels, got {levels!r}")
    ladder = _step_ladder(t_final, h0, levels)
    exact_value = x0 * math.exp(-rate * t_final)
    errors = [abs(float(decay_solve(family, rate, h, x0, n).states[-1])
                  - exact_value) for h, n in ladder]

    floor = EXACT_ERROR_FLOOR * abs(x0)
    samples = []
    for i, ((h, _), err) in enumerate(zip(ladder, errors)):
        exact = err <= floor
        p: Optional[float] = None
        if (not exact and i + 1 < len(errors) and errors[i + 1] > floor
                and math.isfinite(err) and math.isfinite(errors[i + 1])):
            p = math.log2(err / errors[i + 1])
        samples.append(OrderSample(h=h, error=err, observed_p=p, exact=exact))
    return samples
