"""Experiment implementations behind ``run_experiment``.

Each experiment returns an ``ExperimentReport`` with a fixed column schema:

    decay_order    -> scheme,h,error,observed_p,exact_flag
    ho_exact       -> omega,h,n,y_value,exact,abs_err,energy_drift
    pde_compare    -> method,dt,dx,t_final,max_nodal_error,diverged
    pde_stability  -> method,k,dt,amplification,stable_flag
    ml_identities  -> alpha,z,value,oracle,abs_err
    signature_demo -> alpha_true,alpha_hat,c_hat,residual
    laplace_bvp    -> level,m_points,dx,max_nodal_error,observed_p

Reports are deterministic for a fixed configuration: no randomness, fixed
iteration orders, and the generation timestamp confined to report metadata.
Solver blow-up inside pde_compare is data, not an error: the run stops at
the last finite frame and the row carries a diverged flag (raised either by
non-finite values or by a relative error above 1).
"""

from __future__ import annotations

import math

import numpy as np

from .. import __version__
from .. import ode_schemes as ode
from .. import pde_solvers as pde
from .. import propagators
from ..specfun import MLParams, mittag_leffler
from .config import ExperimentConfig, ExperimentKind, config_echo
from .report import ExperimentReport

__all__ = ["run_experiment", "DIVERGENCE_THRESHOLD"]

# A relative nodal error beyond this marks the run as diverged even if the
# values are still finite (coarse blow-up detection for short runs).
DIVERGENCE_THRESHOLD = 1.0

_SCHEME_BY_NAME = {f.value: f for f in ode.SchemeFamily}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the configured experiment and assemble its report."""
    runner = _RUNNERS[config.experiment]
    columns, rows = runner(config.as_dict())
    return ExperimentReport(
        experiment=config.experiment.value,
        columns=columns,
        rows=rows,
        config_lines=tuple(config_echo(config).splitlines()),
        tool_version=__version__,
    )


def _run_decay_order(p: dict):
    columns = ("scheme", "h", "error", "observed_p", "exact_flag")
    rows = []
    for name in p["schemes"]:
        family = _SCHEME_BY_NAME[name]
        for sample in ode.order_estimate(family, p["lambda"], p["x0"],
                                         p["t_final"], p["h0"], p["levels"]):
            rows.append((name, sample.h, sample.error, sample.observed_p,
                         sample.exact))
    return columns, rows


def _run_ho_exact(p: dict):
    columns = ("omega", "h", "n", "y_value", "exact", "abs_err",
               "energy_drift")
    omega, h, n_steps = p["omega"], p["h"], p["n_steps"]
    y0, v0 = p["y0"], p["v0"]
    y1 = ode.ho_initial_from_velocity(omega, h, y0, v0)
    traj = ode.ho_exact_solve(omega, h, n_steps, y0, y1)
    y = traj.states
    checkpoints = sorted({n for n in (1, 10, 100, 1000, 10000, n_steps)
                          if 1 <= n <= n_steps})
    # discrete amplitude invariant, defined on interior indices; needed only
    # at i = 1 and at the interior checkpoints
    s = 2.0 * math.sin(omega * h)
    i = np.array([1] + [n for n in checkpoints if n < n_steps])
    invariant = y[i] ** 2 + ((y[i + 1] - y[i - 1]) / s) ** 2
    drifts = dict(zip(i.tolist(), np.abs(invariant - invariant[0]).tolist()))
    rows = []
    for n in checkpoints:
        t = n * h
        exact = y0 * math.cos(omega * t) + v0 * math.sin(omega * t) / omega
        rows.append((omega, h, n, float(y[n]), exact,
                     abs(float(y[n]) - exact), drifts.get(n)))
    return columns, rows


def _pde_setup(p: dict):
    m = p["m_points"]
    length = p["domain_length"]
    grid = pde.Grid1D(x0=0.0, dx=length / m, m_points=m,
                      boundary=pde.Periodic())
    k_phys = 2.0 * math.pi * p["ic_mode"] / length
    ic = np.sin(k_phys * grid.points) if p["ic_mode"] > 0 \
        else np.ones(m)
    problem = pde.PDEProblem(a=p["a"], b=p["b"], initial_condition=ic)
    return grid, problem, k_phys


def _solver_kind(name: str, dt: float, problem, grid, p: dict):
    if name == "euler":
        return pde.EulerStd(dt=dt)
    if name == "nsfd":
        return pde.Nsfd(dt=dt)
    if name == "spectral_modal":
        return pde.SpectralModal(dt=dt)
    k_default, s_default = pde.default_spectral_params(problem, grid)
    k = p.get("k_mode", k_default)
    s = p.get("s_mode", s_default)
    return pde.SpectralPhys(dt=dt, k=k, s=s)


def _run_pde_compare(p: dict):
    columns = ("method", "dt", "dx", "t_final", "max_nodal_error", "diverged")
    grid, problem, k_phys = _pde_setup(p)
    growth = problem.b - problem.a * k_phys**2
    rows = []
    for method in p["methods"]:
        for dt in p["dt"]:
            n_steps = round(p["t_final"] / dt)
            kind = _solver_kind(method, dt, problem, grid, p)
            traj = pde.evolve(problem, grid, kind, n_steps)
            t_end = float(traj.times[-1])
            exact = math.exp(growth * t_end) * problem.initial_condition
            scale = float(np.max(np.abs(exact)))
            err = float(np.max(np.abs(traj.frames[-1] - exact))) / scale
            truncated = len(traj.frames) < n_steps + 1
            diverged = truncated or err > DIVERGENCE_THRESHOLD
            rows.append((method, dt, grid.dx, t_end, err, diverged))
    return columns, rows


def _run_pde_stability(p: dict):
    columns = ("method", "k", "dt", "amplification", "stable_flag")
    m = p["m_points"]
    grid = pde.Grid1D(x0=0.0, dx=p["dx"], m_points=m, boundary=pde.Periodic())
    problem = pde.PDEProblem(a=p["a"], b=p["b"],
                             initial_condition=np.zeros(m))
    wavenumbers = sorted({float(k) for k in np.abs(pde.grid_wavenumbers(grid))})
    rows = []
    for method in p["methods"]:
        for dt in p["dt"]:
            kind = _solver_kind(method, dt, problem, grid, p)
            g = pde.amplification_factor(kind, problem, grid,
                                         np.array(wavenumbers))
            stable = np.abs(g) <= 1.0 + 1e-12
            # tolist() gives the report Python floats and bools
            rows.extend(zip([method] * len(g), wavenumbers, [dt] * len(g),
                            g.tolist(), stable.tolist()))
    return columns, rows


def _run_ml_identities(p: dict):
    columns = ("alpha", "z", "value", "oracle", "abs_err")
    tol = p["tol"]
    rows = []
    for z in range(-10, 6):
        value = mittag_leffler(MLParams(alpha=1.0, tol=tol), float(z))
        oracle = math.exp(z)
        rows.append((1.0, float(z), value, oracle, abs(value - oracle)))
    for t in (0.5, 1.0, 2.0, 3.0):
        value = mittag_leffler(MLParams(alpha=0.5, tol=tol), -t)
        oracle = math.exp(t * t) * math.erfc(t)
        rows.append((0.5, -t, value, oracle, abs(value - oracle)))
    for alpha in p["alphas"]:
        value = mittag_leffler(MLParams(alpha=alpha, tol=tol), 0.0)
        rows.append((alpha, 0.0, value, 1.0, abs(value - 1.0)))
    return columns, rows


def _run_signature_demo(p: dict):
    columns = ("alpha_true", "alpha_hat", "c_hat", "residual")
    times = propagators.origin_window(p["n_samples"], p["t_min"], p["t_max"])
    alpha, rate = p["alpha"], p["lambda"]
    if p["propagator"] == "local_exp":
        wave = [1.0 - propagators.local_propagator(rate, alpha, float(t))
                for t in times]
    else:
        wave = [1.0 - propagators.nonlocal_propagator(rate, alpha, float(t))
                for t in times]
    signature = propagators.signature_fit(zip(times.tolist(), wave))
    return columns, [(alpha, signature.alpha_hat, signature.c_hat,
                      signature.fit_residual)]


def _run_laplace_bvp(p: dict):
    columns = ("level", "m_points", "dx", "max_nodal_error", "observed_p")
    rows = []
    prev_err = None
    mode = p["ic_mode"]
    for level in range(p["levels"]):
        m = (p["m0"] - 1) * 2**level + 1
        grid = pde.Grid1D(x0=0.0, dx=1.0 / (m - 1), m_points=m,
                          boundary=pde.Dirichlet(0.0, 0.0))
        x = grid.points
        problem = pde.PDEProblem(a=p["a"], b=p["b"],
                                 initial_condition=np.sin(mode * math.pi * x))
        solution = pde.laplace_mode_solve(problem, grid, p["s"])
        analytic = np.sin(mode * math.pi * x) / (
            p["a"] * (mode * math.pi) ** 2 + p["s"] - p["b"])
        err = float(np.max(np.abs(solution - analytic)))
        observed = math.log2(prev_err / err) if prev_err else None
        rows.append((level, m, grid.dx, err, observed))
        prev_err = err
    return columns, rows


_RUNNERS = {
    ExperimentKind.DECAY_ORDER: _run_decay_order,
    ExperimentKind.HO_EXACT: _run_ho_exact,
    ExperimentKind.PDE_COMPARE: _run_pde_compare,
    ExperimentKind.PDE_STABILITY: _run_pde_stability,
    ExperimentKind.ML_IDENTITIES: _run_ml_identities,
    ExperimentKind.SIGNATURE_DEMO: _run_signature_demo,
    ExperimentKind.LAPLACE_BVP: _run_laplace_bvp,
}
