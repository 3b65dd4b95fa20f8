"""Solvers for u_t = a*u_xx + b*u on a 1-D grid.

The explicit schemes share one update, ``step``: the three-point stencil

    new[m] = c0 * u[m] + c1 * (u[m+1] + u[m-1])

with weights c1 = phi * a / psi2 and c0 = 1 + phi * b - 2 * c1, which is
u + phi * (a * D2 u / psi2 + b * u) regrouped.  nsfd's 1 + phi * b is
formed as exp(b dt), and spectral_phys's as exp((b - a k^2) dt) +
phi a k^2, since the sum cancels as b dt falls below about -1; so at a = 0
nsfd is the exact reaction step in floating point too.  The kinds differ
only in the denominator pair (phi, psi2) the weights come from:

* ``EulerStd``     - phi = dt, psi2 = dx**2,
* ``Nsfd``         - phi and psi2 from the exact physical-space
  sub-equations (reaction growth, steady diffusion balance),
* ``SpectralPhys`` - phi and psi2 from transform space, carrying a chosen
  Fourier mode k and Laplace mode s.

With a = 0 the weight c1 is 0 for every kind, and psi2 is never formed.
``evolve`` and ``step`` share one march, which fills the rows of a
preallocated frames array in place (``step`` on a two-row buffer); per row
it resolves the weights (c0, c1), although they are constant, while the
benchmark pins ``denominators.calls_per_step`` at the denominator calls of
one row.  ``amplification_factor`` reports the stencil's symbol
c0 + 2 c1 cos(k dx), the per-step multiplier a kind applies to each
spatial mode and the basic stability diagnostic.

``evolve_modal`` instead multiplies every Fourier mode of a periodic frame
by its exact growth factor exp((b - a*k^2)*t), which makes the evolution
exact for any step size; the transform is numpy's real FFT, so the frames
are real by construction and the grid size is not capped.  Both marches
fill their frames through ``_in_blocks``, which makes blow-up a result.
``laplace_mode_solve`` is the transform-space boundary-value companion: one
Laplace mode of the solution with homogeneous Dirichlet walls, solved as a
division in sine space (a DST-I done with the same real FFT).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .denominators import phi_nsfd, phi_spectral, psi2_nsfd, psi2_spectral

__all__ = [
    "Periodic",
    "Dirichlet",
    "Grid1D",
    "PDEProblem",
    "EulerStd",
    "Nsfd",
    "SpectralPhys",
    "SpectralModal",
    "FieldTrajectory",
    "step",
    "evolve",
    "evolve_modal",
    "laplace_mode_solve",
    "amplification_factor",
    "grid_wavenumbers",
    "default_spectral_params",
]

@dataclass(frozen=True)
class Periodic:
    pass


@dataclass(frozen=True)
class Dirichlet:
    left_value: float
    right_value: float


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid of finite length; periodic grids identify the point
    after the last with the first, so the length is m_points * dx."""

    x0: float
    dx: float
    m_points: int
    boundary: Periodic | Dirichlet

    def __post_init__(self) -> None:
        if not (self.dx > 0.0):
            raise ValueError(f"dx must be positive, got {self.dx!r}")
        if self.m_points < 3:
            raise ValueError(f"need at least 3 points, got {self.m_points!r}")
        if not np.isfinite(self.length):
            raise ValueError(f"grid length must be finite, got {self.length!r}")

    @property
    def points(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.m_points)

    @property
    def length(self) -> float:
        if isinstance(self.boundary, Periodic):
            return self.m_points * self.dx
        return (self.m_points - 1) * self.dx


@dataclass(frozen=True)
class PDEProblem:
    """Diffusion coefficient, reaction rate, and sampled initial data."""

    a: float
    b: float
    initial_condition: np.ndarray

    def __post_init__(self) -> None:
        if self.a < 0.0:
            raise ValueError(f"diffusion coefficient must be >= 0, got {self.a!r}")
        ic = np.asarray(self.initial_condition, dtype=float)
        object.__setattr__(self, "initial_condition", ic)
        if ic.ndim != 1:
            raise ValueError("initial condition must be a 1-D sample array")
        if not np.all(np.isfinite(ic)):
            raise ValueError("initial condition must be finite")

    def check_grid(self, grid: Grid1D) -> None:
        if len(self.initial_condition) != grid.m_points:
            raise ValueError(
                f"initial condition has {len(self.initial_condition)} samples, "
                f"grid has {grid.m_points} points"
            )


@dataclass(frozen=True)
class EulerStd:
    dt: float


@dataclass(frozen=True)
class Nsfd:
    dt: float


@dataclass(frozen=True)
class SpectralPhys:
    dt: float
    k: float
    s: float


@dataclass(frozen=True)
class SpectralModal:
    dt: float


@dataclass(frozen=True)
class FieldTrajectory:
    """Grid samples of the field with a uniform time step: row n of
    ``frames`` is the field at t_n = n * dt."""

    grid: Grid1D
    dt: float
    frames: np.ndarray

    def __post_init__(self) -> None:
        if self.frames.ndim != 2 or self.frames.shape[1] != self.grid.m_points:
            raise ValueError("frames must be 2-D with one column per grid point")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.frames)) * self.dt


def _phi(kind: EulerStd | Nsfd | SpectralPhys, problem: PDEProblem) -> float:
    """The time denominator phi of an explicit solver kind."""
    if isinstance(kind, EulerStd):
        return kind.dt
    if isinstance(kind, Nsfd):
        return phi_nsfd(kind.dt, problem.b)
    if isinstance(kind, SpectralPhys):
        return phi_spectral(kind.dt, problem.a, problem.b, kind.k)
    raise TypeError(f"unknown explicit solver kind {kind!r}")


def _weights(kind: EulerStd | Nsfd | SpectralPhys, problem: PDEProblem,
             grid: Grid1D) -> tuple[float, float]:
    """The stencil weights (c0, c1) of an explicit solver kind:
    c1 = phi * a / psi2 and c0 = 1 + phi * b - 2 * c1 from its (phi, psi2).

    For nsfd, 1 + phi * b is exp(b dt), and for spectral_phys it is
    exp(g dt) + phi a k^2 with g = b - a k^2; each is formed so, since the
    sum 1 + phi * b cancels as b dt falls below about -1 and is 0 from
    about -37 on.  c1 is 0 when a == 0: the diffusion term drops out, and
    psi2 is not formed, since the physical and spectral space ones are
    undefined there.
    """
    a, b, dt, dx = problem.a, problem.b, kind.dt, grid.dx
    phi = _phi(kind, problem)
    if isinstance(kind, EulerStd):
        c1 = phi * a / dx**2 if a > 0.0 else 0.0
        return 1.0 + phi * b - 2.0 * c1, c1
    if isinstance(kind, Nsfd):
        c1 = phi * a / psi2_nsfd(dx, b / a) if a > 0.0 else 0.0
        return math.exp(b * dt) - 2.0 * c1, c1
    k = kind.k
    c1 = phi * a / psi2_spectral(dx, a, b, kind.s) if a > 0.0 else 0.0
    g = b - a * k * k  # -inf where a k^2 overflows, and phi is then 0
    c0 = math.exp(g * dt) + phi * a * k * k if g > -math.inf else 1.0
    return c0 - 2.0 * c1, c1


# Values per block of rows in ``_in_blocks``: 64 rows at M = 64, one row
# from M = 4096 on, so the boolean and spectral temporaries stay small.
_CHECK_POINTS = 4096


def _in_blocks(frames: np.ndarray,
               write: Callable[[int, int], None]) -> np.ndarray:
    """Fill rows 1.. of ``frames``, whose row 0 is set, by calling
    ``write(start, stop)`` for rows start..stop - 1, in blocks of
    ``max(1, _CHECK_POINTS // M)`` rows, with numpy's overflow and invalid
    warnings off.

    Blow-up is a result, not an exception: each block is checked once, no
    block is written after the first one that holds a non-finite row, and
    the result is ``frames``, or a copy of its rows before that row, which
    frees the rest.  So a diverging run may compute up to one block of rows
    past the blow-up, which it drops.
    """
    n_rows = len(frames)
    block = max(1, _CHECK_POINTS // frames.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, n_rows, block):
            stop = min(start + block, n_rows)
            write(start, stop)
            finite = np.isfinite(frames[start:stop]).all(axis=1)
            if not finite.all():
                return frames[:start + int(np.argmin(finite))].copy()
    return frames


def _march(problem: PDEProblem, grid: Grid1D,
           kind: EulerStd | Nsfd | SpectralPhys,
           frames: np.ndarray) -> np.ndarray:
    """Write row n + 1 of ``frames`` as c0 * u[m] + c1 * (u[m+1] + u[m-1])
    of row n, for every row after row 0, which must be set, and return
    ``_in_blocks``'s result.  Periodic edges wrap; Dirichlet edges get the
    wall values."""
    c0, c1 = np.empty(()), np.empty(())
    work = np.zeros(grid.m_points)  # Dirichlet rows never write its edges
    inner = work[1:-1]
    walls = (None if isinstance(grid.boundary, Periodic)
             else (grid.boundary.left_value, grid.boundary.right_value))
    rows = zip(frames, frames[1:], frames[:, 2:], frames[:, :-2])

    def write(start: int, stop: int) -> None:
        for u, out, right, left in islice(rows, stop - start):
            c0[()], c1[()] = weights = _weights(kind, problem, grid)
            np.multiply(u, c0, out)
            if weights[1] != 0.0:
                np.add(right, left, inner)
                if walls is None:
                    work[0] = u[1] + u[-1]
                    work[-1] = u[0] + u[-2]
                np.multiply(work, c1, work)
                np.add(out, work, out)
            if walls is not None:
                out[0], out[-1] = walls

    return _in_blocks(frames, write)


def step(problem: PDEProblem, grid: Grid1D,
         kind: EulerStd | Nsfd | SpectralPhys, frame) -> np.ndarray:
    """One explicit step c0 * u[m] + c1 * (u[m+1] + u[m-1]) of any explicit
    kind, as a new array, with the kind's stencil weights
    c1 = phi * a / psi2 and c0 = 1 + phi * b - 2 * c1.

    Contract: at a = 0, nsfd's factor c0 is exp(b dt) within
    (1 + |b dt|) * eps (eps = 2**-52) of exp of the exact product b * dt,
    relative while that is a normal double and absolute at the smallest
    normal double below it, for every b dt <= 709, down through the
    subnormal range; the bound grows with |b dt| because forming b * dt
    rounds it.  The test suite sweeps it against an mpmath oracle.  A step
    past the double range returns its inf or nan values without a warning,
    as ``evolve`` does.
    """
    u = np.asarray(frame, dtype=float)
    if u.shape != (grid.m_points,):
        raise ValueError(f"frame shape {u.shape} does not match grid")
    frames = np.empty((2, grid.m_points))
    frames[0] = u
    _march(problem, grid, kind, frames)
    return frames[1]


def evolve(problem: PDEProblem, grid: Grid1D,
           kind: EulerStd | Nsfd | SpectralPhys | SpectralModal,
           n_steps: int) -> FieldTrajectory:
    """Run any solver kind for n_steps from the problem's initial data.

    Explicit kinds march in place through one ``(n_steps + 1, M)`` array,
    with the march ``step`` runs on a two-row buffer, so the frames equal
    repeated ``step`` calls bit for bit.  ``SpectralModal`` runs through
    ``evolve_modal``.  A run that leaves the double range ends at its last
    finite frame (see ``_in_blocks``).
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps!r}")
    problem.check_grid(grid)
    if isinstance(kind, SpectralModal):
        return evolve_modal(problem, grid, kind.dt, n_steps)
    frames = np.empty((n_steps + 1, grid.m_points))
    frames[0] = problem.initial_condition
    if isinstance(grid.boundary, Dirichlet):
        frames[0, 0] = grid.boundary.left_value
        frames[0, -1] = grid.boundary.right_value
    return FieldTrajectory(grid=grid, dt=kind.dt,
                           frames=_march(problem, grid, kind, frames))


def grid_wavenumbers(grid: Grid1D) -> np.ndarray:
    """The grid's distinct wavenumbers |k| = 2*pi*n/L, n = 0..m_points // 2,
    in ascending order: one per bin of the real transform."""
    return 2.0 * np.pi * np.arange(grid.m_points // 2 + 1) / grid.length


def evolve_modal(problem: PDEProblem, grid: Grid1D, dt: float,
                 n_steps: int) -> FieldTrajectory:
    """Exact per-mode evolution on a periodic grid.

    Frame n is irfft(C0 * exp((b - a*k^2) * n*dt)) with C0 = rfft(u0): each
    Fourier mode carries its exact growth factor, so the result is exact in
    dt for band-limited initial data, and real by construction.  Each
    block of ``_in_blocks`` is one inverse transform written into the frames
    array, so the run holds little more than that array, and a run that
    leaves the double range ends at its last finite frame.  The frames kept
    have the bits of one batched transform.
    """
    if not isinstance(grid.boundary, Periodic):
        raise ValueError("modal evolution requires a periodic grid")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps!r}")
    problem.check_grid(grid)
    m = grid.m_points
    growth = problem.b - problem.a * grid_wavenumbers(grid) ** 2
    spectrum = np.fft.rfft(problem.initial_condition)
    frames = np.empty((n_steps + 1, m))
    frames[0] = problem.initial_condition

    def write(start: int, stop: int) -> None:
        times = np.arange(start, stop) * dt
        frames[start:stop] = np.fft.irfft(
            spectrum * np.exp(np.outer(times, growth)), n=m)

    return FieldTrajectory(grid=grid, dt=dt, frames=_in_blocks(frames, write))


def laplace_mode_solve(problem: PDEProblem, grid: Grid1D,
                       s: float) -> np.ndarray:
    """Laplace-mode boundary-value solve with homogeneous Dirichlet walls.

    Solves (Y_{m+1} - 2 Y_m + Y_{m-1})/psi2 + ((b - s)/a) Y_m + u0_m/a = 0
    for the n interior points, with Y = 0 at both walls.  Scaled by psi2 the
    system is Toeplitz tridiagonal with diagonal diag = -2 + psi2 (b - s)/a,
    which the sine transform DST-I diagonalises, with eigenvalues
    lambda_j = diag + 2 cos(j pi/(n+1)); the solve is the division
    Y = DST(DST(rhs) / lambda) / (2 (n+1)).  Validation forces s > b and
    a > 0, so every lambda_j < 0.
    """
    problem.check_grid(grid)
    if not isinstance(grid.boundary, Dirichlet) or \
            grid.boundary.left_value != 0.0 or grid.boundary.right_value != 0.0:
        raise ValueError("Laplace-mode solve requires homogeneous Dirichlet walls")
    if not (s > problem.b):
        raise ValueError(
            f"need s > b for the decaying transform regime, got s={s!r}, b={problem.b!r}"
        )
    a, b = problem.a, problem.b
    psi2 = psi2_spectral(grid.dx, a, b, s)  # raises unless a > 0
    n = grid.m_points - 2
    rhs = -psi2 * problem.initial_condition[1:-1] / a
    # lambda_j without the cancellation of -2 + 2 cos(theta) at small theta
    theta = np.pi * np.arange(1, n + 1) / (n + 1)
    eigenvalues = psi2 * (b - s) / a - 4.0 * np.sin(theta / 2.0) ** 2
    solution = np.zeros(grid.m_points)
    solution[1:-1] = _dst1(_dst1(rhs) / eigenvalues) / (2 * (n + 1))
    return solution


def _dst1(x: np.ndarray) -> np.ndarray:
    """DST-I, X_k = 2 sum_j x_j sin(pi j k/(n+1)) for j, k = 1..n, as the real
    FFT of the odd extension (0, x, 0, -x reversed); its square is 2 (n+1)."""
    n = len(x)
    extension = np.zeros(2 * (n + 1))
    extension[1:n + 1] = x
    extension[n + 2:] = -x[::-1]
    return -np.fft.rfft(extension)[1:n + 1].imag


def amplification_factor(kind: EulerStd | Nsfd | SpectralPhys | SpectralModal,
                         problem: PDEProblem, grid: Grid1D,
                         k: float | np.ndarray) -> float | np.ndarray:
    """Per-step multiplier the solver applies to the spatial mode with
    physical wavenumber k (a float or an ndarray) on a periodic grid: the
    stencil's symbol c0 + 2 c1 cos(k dx), from the same weights as ``step``,
    or exp((b - a k^2) dt) for ``SpectralModal``.  numpy's cos and exp can
    differ from ``math``'s by an ulp."""
    a, b = problem.a, problem.b
    if isinstance(kind, SpectralModal):
        return np.exp((b - a * k * k) * kind.dt)
    c0, c1 = _weights(kind, problem, grid)
    return c0 + 2.0 * c1 * np.cos(k * grid.dx)


def default_spectral_params(problem: PDEProblem, grid: Grid1D) -> tuple[float, float]:
    """Default (k, s) for the physical-space spectral scheme.

    k is the dominant wavenumber of the initial data's transform; s is
    b + a*(pi/L)**2, the first regular Laplace mode above the reaction rate.

    This s is not the exact pair of k: only s = b - a*k**2 makes the
    symbol exp((b - a*k**2)*dt) for every dt, and then on the mode k alone.
    """
    problem.check_grid(grid)
    j = int(np.argmax(np.abs(np.fft.rfft(problem.initial_condition))))
    k = grid_wavenumbers(grid)[j]
    s = problem.b + problem.a * (np.pi / grid.length) ** 2
    return float(k), float(s)
