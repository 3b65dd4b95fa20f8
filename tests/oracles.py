"""Independent oracles shared by the test suite.

Everything here is deliberately built from primitives unrelated to the
implementation paths it checks: libm special functions, mpmath series and
closed forms in extended precision, dense matrix application, a naive O(M^2) discrete
Fourier transform, per-mode Fourier symbols and sine-mode closed forms,
bisection, and the plain one-step-at-a-time loops of the ODE marches.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from spectralfd.denominators import phi_nsfd


def ml_half_oracle(t: float) -> float:
    """E_{1/2}(-t) via the identity exp(t^2) * erfc(t), erfc from libm.

    The plain product overflows past t ~ 26, so deep arguments go through
    mpmath (still an independent algorithm from the code under test).
    """
    if t * t < 700.0:
        return math.exp(t * t) * math.erfc(t)
    with mpmath.workdps(30):
        return float(mpmath.exp(mpmath.mpf(t) ** 2) * mpmath.erfc(mpmath.mpf(t)))


def ml_oracle(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for real z in mpmath, rounded to double.

    Where x = |z|**(1/alpha) <= 60, or z < 0 with alpha >= 1, the power
    series is summed at a working precision that covers its cancellation
    plus 40 spare bits: on the negative axis the largest term is about e**x,
    and E is algebraic for alpha < 1 but can be as small as e**-x for
    alpha >= 1.  Beyond that the algebraic asymptotic expansion
    -sum_{k>=1} z**(-k) / Gamma(beta - alpha k), plus (1/alpha) x**(1-beta)
    e**x for z > 0, is summed to its smallest term; its truncation error,
    ~exp(-x) < 1e-26, is negligible there.  Values past the double range
    come back as +-inf.
    """
    x = abs(z) ** (1.0 / alpha)
    if x > 60.0 and (z > 0.0 or alpha < 1.0):
        with mpmath.workprec(120):
            zm, am, bm = mpmath.mpf(z), mpmath.mpf(alpha), mpmath.mpf(beta)
            total = mpmath.mpf(0)
            if z > 0.0:
                xm = zm ** (1 / am)
                total = xm ** (1 - bm) * mpmath.exp(xm) / am
            floor = mpmath.mpf(2) ** -110
            envelope = mpmath.inf
            k = 1
            while True:
                w = am * k + 1 - bm  # |term| ~ Gamma(w) |z|**-k / pi
                if w > 0:
                    env = mpmath.gamma(w) / abs(zm) ** k
                    if env >= envelope or env < floor * abs(total):
                        break
                    envelope = env
                total -= zm ** -k * mpmath.rgamma(bm - am * k)
                k += 1
            return float(total)
    bits = 93
    if z < 0.0:
        bits += int((1.45 if alpha < 1.0 else 2.9) * x)
    with mpmath.workprec(bits):
        zm, am, bm = mpmath.mpf(z), mpmath.mpf(alpha), mpmath.mpf(beta)
        cutoff = mpmath.mpf(2) ** -bits
        total = mpmath.mpf(0)
        power = mpmath.mpf(1)
        peak = mpmath.mpf(0)
        k = 0
        while True:
            term = power * mpmath.rgamma(am * k + bm)
            total += term
            peak = max(peak, abs(term))
            # terms peak near alpha k = x; stop once past it and negligible
            if alpha * k > x + 5.0 and abs(term) < cutoff * peak:
                return float(total)
            power *= zm
            k += 1


def dense_step_matrix(m: int, dx: float, dt: float, a: float, b: float,
                      periodic: bool) -> np.ndarray:
    """One explicit Euler step as a dense matrix, built element by element."""
    lap = np.zeros((m, m))
    for i in range(m):
        lap[i, i] = -2.0
        if periodic:
            lap[i, (i - 1) % m] = 1.0
            lap[i, (i + 1) % m] = 1.0
        elif 0 < i < m - 1:
            lap[i, i - 1] = 1.0
            lap[i, i + 1] = 1.0
    if not periodic:
        lap[0, :] = 0.0
        lap[-1, :] = 0.0
    return np.eye(m) + dt * (a * lap / dx**2 + b * np.eye(m))


def naive_dft(u: np.ndarray) -> np.ndarray:
    """Naive forward transform, C_j = sum_m u_m exp(-2 pi i j m / M)."""
    m = len(u)
    idx = np.arange(m)
    return np.array([np.sum(u * np.exp(-2j * np.pi * j * idx / m))
                     for j in range(m)])


def naive_idft(c: np.ndarray) -> np.ndarray:
    """Naive inverse transform (1/M normalization)."""
    m = len(c)
    idx = np.arange(m)
    return np.array([np.sum(c * np.exp(2j * np.pi * idx * n / m)) / m
                     for n in range(m)])


def modal_frames(u0: np.ndarray, length: float, a: float, b: float,
                 times: np.ndarray) -> np.ndarray:
    """Exact evolution of u_t = a u_xx + b u on a periodic grid of length L,
    one Fourier mode at a time: index j carries the signed wavenumber
    2 pi j / L for j <= M/2 and 2 pi (j - M) / L above."""
    m = len(u0)
    signed = [j if j <= m // 2 else j - m for j in range(m)]
    k = 2.0 * np.pi * np.array(signed) / length
    spectrum = naive_dft(u0)
    return np.array([naive_idft(spectrum * np.exp((b - a * k * k) * t)).real
                     for t in times])


def fourier_symbol_frames(u0: np.ndarray, a: float, b: float, phi: float,
                          psi2: float | None, n_steps: int) -> np.ndarray:
    """Frames 0..n_steps of the explicit step u + phi (a D2 u / psi2 + b u)
    on a periodic grid, taken in Fourier space.

    D2 multiplies real-FFT index j by -4 sin^2(pi j / M), so every mode is
    multiplied by its symbol G_j = 1 + phi (b - 4 a sin^2(pi j/M) / psi2)
    once per step, and frame n = irfft(rfft(u0) G^n).  The powers are built
    one step at a time, so a coefficient overflows only when it passes the
    double range itself; a frame past that is non-finite.
    """
    m = len(u0)
    sin2 = np.sin(np.pi * np.arange(m // 2 + 1) / m) ** 2
    diffusion = 4.0 * a * sin2 / psi2 if a > 0.0 else 0.0
    symbol = 1.0 + phi * (b - diffusion)
    factors = np.vstack([np.fft.rfft(u0, norm="forward"),
                         np.broadcast_to(symbol, (n_steps, len(symbol)))])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.irfft(np.cumprod(factors, axis=0), n=m, norm="forward")


def sine_mode_laplace(m: int, mode: int, a: float, b: float, s: float,
                      psi2: float) -> tuple[np.ndarray, np.ndarray]:
    """A sine mode on m points with walls at both ends, and the exact
    solution of the discrete Laplace-mode problem
    (Y_{i+1} - 2 Y_i + Y_{i-1})/psi2 + ((b - s)/a) Y_i + u0_i/a = 0 it drives.

    sin(mode pi i/(m-1)) is an eigenvector of the second difference with
    eigenvalue -4 sin^2(mode pi/(2(m-1))), so Y = u0 / (4 a sin^2/psi2 + s - b).
    The sine arguments are reduced exactly in integers first, so u0 is the
    mode to within an ulp whatever m is.  Returns (u0, Y).
    """
    n1 = m - 1
    u0 = np.sin(np.pi * ((mode * np.arange(m)) % (2 * n1)) / n1)
    u0[0] = u0[-1] = 0.0
    sin2 = math.sin(math.pi * mode / (2 * n1)) ** 2
    return u0, u0 / (4.0 * a * sin2 / psi2 + s - b)


def conformable_step_oracle(rate: float, order: float, t_n: float,
                            t_np1: float) -> float:
    """The conformable exact step measure -expm1(-rate * dz) / rate with
    dz = t_np1**order - t_n**order, in 60-digit mpmath at the exact doubles
    passed in, rounded to double."""
    with mpmath.workdps(60):
        dz = mpmath.mpf(t_np1) ** order - mpmath.mpf(t_n) ** order
        return float(-mpmath.expm1(-rate * dz) / rate)


def phi_nsfd_oracle(dt: float, b: float) -> float:
    """The time denominator (exp(b dt) - 1)/b, dt at b = 0, in 40-digit
    mpmath at the exact doubles passed in, rounded to double."""
    if b == 0.0:
        return dt
    with mpmath.workdps(40):
        bm = mpmath.mpf(b)
        return float(mpmath.expm1(bm * mpmath.mpf(dt)) / bm)


def exp_product_oracle(dt: float, b: float) -> float:
    """exp(b dt), nsfd's stencil weight c0 at a = 0, in 40-digit mpmath at
    the exact product of the doubles passed in, rounded to double."""
    with mpmath.workdps(40):
        return float(mpmath.exp(mpmath.mpf(b) * mpmath.mpf(dt)))


def psi2_nsfd_oracle(dx: float, r: float) -> float:
    """The squared space denominator (4/r) sin(sqrt(r) dx/2)**2, its sinh
    continuation for r < 0 and dx**2 at r = 0, in 40-digit mpmath at the
    exact doubles passed in, rounded to double."""
    if r == 0.0:
        return dx * dx
    with mpmath.workdps(40):
        rm, half = mpmath.mpf(r), mpmath.mpf(dx) / 2
        if r > 0.0:
            return float(4 * mpmath.sin(mpmath.sqrt(rm) * half) ** 2 / rm)
        return float(4 * mpmath.sinh(mpmath.sqrt(-rm) * half) ** 2 / -rm)


def decay_scalar_states(family, lam: float, h: float, x0: float,
                        n_steps: int) -> np.ndarray:
    """States 0..n_steps of a decay scheme family with rate lam and step h,
    one Python-float step at a time.

    Each family's one-step update is written out and iterated in a plain
    loop: the reference a vectorised march must match bit for bit.
    """
    family = family.value

    def step(x: float) -> float:
        if family == "forward_euler":
            return x * (1.0 - lam * h)
        if family == "backward_euler":
            return x / (1.0 + lam * h)
        if family == "mickens_exact":
            return x / (1.0 + lam * phi_nsfd(h, lam))
        return x * math.exp(-lam * h)

    states = np.empty(n_steps + 1)
    states[0] = x0
    x = x0
    for i in range(n_steps):
        x = step(x)
        states[i + 1] = x
    return states


def ho_indexed_states(omega: float, h: float, n_steps: int, y0: float,
                      y1: float) -> np.ndarray:
    """The exact oscillator recurrence y_{n+1} = 2 cos(omega h) y_n - y_{n-1},
    every operand read from and written back to the states array (numpy
    scalar arithmetic; its overflow warnings are silenced)."""
    c = 2.0 * math.cos(omega * h)
    states = np.empty(n_steps + 1)
    states[0] = y0
    states[1] = y1
    with np.errstate(all="ignore"):
        for n in range(1, n_steps):
            states[n + 1] = c * states[n] - states[n - 1]
    return states


def bisect(f, lo: float, hi: float, tol: float = 1e-14,
           max_iter: int = 200) -> float:
    """Plain bisection for a sign change of f on [lo, hi]."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError("no sign change on the bracket")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0 or (hi - lo) < tol * max(1.0, abs(mid)):
            return mid
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def least_squares_line(samples) -> tuple[float, float, float]:
    """The least-squares line log W = slope log t + intercept through the
    (t, W) samples, and the RMS of its residuals, from the uncentred normal
    equations in 50-digit mpmath at the exact doubles passed in, rounded to
    double.  Returns (slope, intercept, rms)."""
    with mpmath.workdps(50):
        x = [mpmath.log(mpmath.mpf(t)) for t, _ in samples]
        y = [mpmath.log(mpmath.mpf(w)) for _, w in samples]
        n = len(x)
        sx, sy = mpmath.fsum(x), mpmath.fsum(y)
        sxx = mpmath.fsum(xi * xi for xi in x)
        sxy = mpmath.fsum(xi * yi for xi, yi in zip(x, y))
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        intercept = (sy - slope * sx) / n
        rms = mpmath.sqrt(mpmath.fsum((yi - slope * xi - intercept) ** 2
                                      for xi, yi in zip(x, y)) / n)
        return float(slope), float(intercept), float(rms)
