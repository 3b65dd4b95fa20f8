"""Denominator functions for difference quotients.

A denominator function replaces the raw step size in a difference quotient
so that the resulting scheme reproduces the exact solution of a reference
sub-equation.  This module holds the denominators the schemes in this
package use:

* ``phi_nsfd`` / ``psi2_nsfd`` - time and space denominators built from the
  exact reaction and steady-diffusion sub-equations in physical space,
* ``phi_spectral`` / ``psi2_spectral`` - their transform-space analogues
  carrying the Fourier wave mode k and the Laplace mode s,
* ``mu_exact_step`` - step measures that make one-step relaxation exact for
  the stretched-exponential and Mittag-Leffler propagators.

The explicit PDE stepper in ``pde_solvers`` consumes the phi/psi2 pairs;
the standard pair (dt, dx**2) needs no function here.  All removable
singularities (vanishing rate, matched reaction/diffusion, matched Laplace
mode) are evaluated by short Taylor series so every denominator is
continuous in its parameters.  The psi2 functions return the squared space
denominator, which is the quantity the schemes consume; for negative
ratio arguments the sine turns into the hyperbolic sine, the real analytic
continuation.
"""

from __future__ import annotations

import math
from enum import Enum

from .propagators import _check_arguments
from .specfun import MLParams, mittag_leffler

__all__ = [
    "DegenerateDenominatorError",
    "phi_nsfd",
    "psi2_nsfd",
    "phi_spectral",
    "psi2_spectral",
    "ExactStepKind",
    "mu_exact_step",
]

# Below this argument magnitude the closed forms cancel; switch to Taylor.
_SERIES_THRESHOLD = 1e-6
# exp overflows IEEE double just above this argument.
_EXP_OVERFLOW = 709.0


class DegenerateDenominatorError(ValueError):
    """Denominator hit a zero of its defining function or an invalid regime."""


def phi_nsfd(dt: float, b: float) -> float:
    """Time denominator (exp(b*dt) - 1) / b; equals dt in the limit b -> 0.

    Contract: relative error <= 4 * (1 + |b*dt|) * eps (eps = 2**-52) at
    the doubles passed in, for b*dt <= 709, unless the result is
    subnormal; the bound grows with |b*dt| because forming w = b*dt rounds
    it.  Past 709 exp leaves the double range and ``OverflowError`` is
    raised.  The test suite sweeps it against an mpmath oracle on both
    sides of the Taylor switch at |b*dt| = 1e-6.
    """
    if not (dt > 0.0):
        raise ValueError(f"time step must be positive, got {dt!r}")
    w = b * dt
    if abs(w) < _SERIES_THRESHOLD:
        # (e^w - 1)/b = dt * (1 + w/2 + w^2/6 + ...)
        return dt * (1.0 + w / 2.0 + w * w / 6.0)
    if w > _EXP_OVERFLOW:
        raise OverflowError(f"exp({w:g}) exceeds the double range")
    return math.expm1(w) / b

def psi2_nsfd(dx: float, r: float) -> float:
    """Squared space denominator psi^2 for ratio r = b/a.

    For r > 0 this is (4/r) * sin(sqrt(r)*dx/2)**2, defined up to the first
    zero of the sine; for r < 0 the hyperbolic continuation
    (4/|r|) * sinh(sqrt(|r|)*dx/2)**2; near r = 0 the common Taylor limit
    dx**2 * (1 - r*dx**2/12 + ...).  Always strictly positive.

    Contract: with u = sqrt(|r|)*dx/2, relative error
    <= 8 * (1 + kappa) * eps (eps = 2**-52) at the doubles passed in,
    where kappa = u*|cot u| for r > 0 (it grows near the sine zero) and
    kappa = u for r < 0, while the result is a normal double.  The test
    suite sweeps it against an mpmath oracle on both sides of the Taylor
    switch at |r|*dx**2 = 1e-6.  For r < 0 with u past the range of sinh
    (about 710.5, r = -inf included), ``OverflowError`` is raised, naming
    sinh and u; a nan ratio raises ``ValueError``.
    """
    if not (dx > 0.0):
        raise ValueError(f"space step must be positive, got {dx!r}")
    if math.isnan(r):
        raise ValueError(f"ratio r must be a number, got {r!r}")
    w = r * dx * dx
    if abs(w) < _SERIES_THRESHOLD:
        return dx * dx * (1.0 - w / 12.0 + w * w / 360.0)
    if r > 0.0:
        u = math.sqrt(r) * dx / 2.0
        if u >= math.pi:
            raise DegenerateDenominatorError(
                f"sqrt(r)*dx/2 = {u:g} reaches the first sine zero (pi)"
            )
        s = math.sin(u)
        return 4.0 * s * s / r
    u = math.sqrt(-r) * dx / 2.0
    try:  # sinh(inf) is inf, not an OverflowError; sinh(711) overflows
        s = math.sinh(min(u, 711.0))
    except OverflowError:
        raise OverflowError(f"sinh({u:g}) exceeds the double range") from None
    return 4.0 * s * s / (-r)


def phi_spectral(dt: float, a: float, b: float, k: float) -> float:
    """Fourier-space time denominator (exp((b - a*k^2)*dt) - 1)/(b - a*k^2).

    Reduces to ``phi_nsfd(dt, b)`` at k = 0 or a = 0, and to dt at the
    matched mode b = a*k^2.
    """
    if a < 0.0:
        raise ValueError(f"diffusion coefficient must be >= 0, got {a!r}")
    return phi_nsfd(dt, b - a * k * k)


def psi2_spectral(dx: float, a: float, b: float, s: float) -> float:
    """Laplace-space squared space denominator, ratio (b - s)/a.

    Reduces to ``psi2_nsfd(dx, b/a)`` at s = 0 and to dx**2 at s = b.
    """
    if not (a > 0.0):
        raise ValueError(f"diffusion coefficient must be positive, got {a!r}")
    return psi2_nsfd(dx, (b - s) / a)


class ExactStepKind(Enum):
    CONFORMABLE = "conformable"
    MITTAG_LEFFLER = "mittag_leffler"


def mu_exact_step(kind: ExactStepKind, rate: float, order: float,
                  t_n: float, t_np1: float) -> float:
    """Step measure making y_{n+1} = y_n * (1 - rate*mu) exact at grid times.

    CONFORMABLE reproduces exp(-rate * t**order); MITTAG_LEFFLER reproduces
    E_order(-rate * t**order).  The measure depends on both endpoints, not
    just their difference: t**order is not translation invariant.

    CONFORMABLE forms dz = t_np1**order - t_n**order without cancellation, as
    t_n**order * expm1(order * log1p((t_np1 - t_n) / t_n)) while that
    argument is <= 1, so mu = -expm1(-rate * dz) / rate is within 1e-14
    relative at the doubles passed in, unless subnormal.  MITTAG_LEFFLER
    still forms 1 - E(z1)/E(z0), which cancels for small steps.
    """
    _check_arguments(rate, order, t_n)
    if not (t_n < t_np1):
        raise ValueError(
            f"need 0 <= t_n < t_np1, got t_n={t_n!r}, t_np1={t_np1!r}"
        )
    if kind is ExactStepKind.CONFORMABLE:
        x = order * math.log1p((t_np1 - t_n) / t_n) if t_n > 0.0 else math.inf
        if x <= 1.0:
            dz = t_n**order * math.expm1(x)
        else:  # t_n**order < t_np1**order / e
            dz = t_np1**order - t_n**order
        return -math.expm1(-rate * dz) / rate
    params = MLParams(alpha=order)
    e_next = mittag_leffler(params, -rate * t_np1**order)
    e_here = mittag_leffler(params, -rate * t_n**order) if t_n > 0.0 else 1.0
    if e_here == 0.0:
        raise DegenerateDenominatorError(
            f"propagator underflow at t_n={t_n:g}; step measure undefined"
        )
    return (1.0 - e_next / e_here) / rate

