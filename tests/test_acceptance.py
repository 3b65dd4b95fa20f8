"""Acceptance suite: one test per release criterion, each printing a
pass/fail line at the criterion's stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import math

import numpy as np
import pytest

from spectralfd.denominators import phi_nsfd, phi_spectral, psi2_nsfd, psi2_spectral
from spectralfd.harness.config import parse_config
from spectralfd.harness.experiments import run_experiment
from spectralfd.ode_schemes import (
    DecayScheme,
    SchemeFamily,
    decay_solve,
    ho_exact_states,
    order_estimate,
)
from spectralfd.pde_solvers import (
    Dirichlet,
    Grid1D,
    Nsfd,
    PDEProblem,
    Periodic,
    evolve_modal,
    laplace_mode_solve,
    step,
)
from spectralfd.propagators import nonlocal_propagator, origin_window, signature_fit
from spectralfd.specfun import MLParams, mittag_leffler

from oracles import ml_half_oracle


def _report(number: int, label: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} [{label}]: {'PASS' if passed else 'FAIL'} "
          f"({detail})")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_1_exact_scheme_and_first_order_euler():
    # exactness of the denominator-function scheme at every grid point
    worst = 0.0
    for h in (0.1, 0.5, 1.0, 2.0):
        scheme = DecayScheme(SchemeFamily.MICKENS_EXACT, rate=1.0, step=h)
        traj = decay_solve(scheme, 1.0, round(10.0 / h))
        exact = np.exp(-traj.times)
        worst = max(worst, float(np.max(np.abs(traj.states - exact) / exact)))
    ok_exact = worst <= 1e-12

    # classical first order for both Euler variants over h = 2^-3 .. 2^-8
    orders = []
    for family in (SchemeFamily.FORWARD_EULER, SchemeFamily.BACKWARD_EULER):
        for row in order_estimate(family, 1.0, 1.0, 1.0, 2.0**-3, 6):
            if row.observed_p is not None:
                orders.append(row.observed_p)
    ok_orders = len(orders) == 10 and all(abs(p - 1.0) <= 0.1 for p in orders)

    _report(1, "exact decay scheme + Euler order", ok_exact and ok_orders,
            f"max rel err {worst:.2e} <= 1e-12; "
            f"observed orders in [{min(orders):.3f}, {max(orders):.3f}]")


def test_criterion_2_mittag_leffler_identities():
    worst_exp = max(
        abs(mittag_leffler(MLParams(alpha=1.0), float(z)) - math.exp(z))
        / math.exp(z)
        for z in range(-10, 6)
    )
    worst_half = max(
        abs(mittag_leffler(MLParams(alpha=0.5), -t) - ml_half_oracle(t))
        for t in (0.5, 1.0, 2.0, 3.0)
    )
    normalization = all(
        mittag_leffler(MLParams(alpha=round(0.1 * i, 1)), 0.0) == 1.0
        for i in range(1, 11)
    )
    ok = worst_exp <= 1e-10 and worst_half <= 1e-8 and normalization
    _report(2, "Mittag-Leffler identities", ok,
            f"exp reduction {worst_exp:.2e} <= 1e-10; "
            f"erfc identity {worst_half:.2e} <= 1e-8; E_a(0) = 1 exact")


def test_criterion_3_modal_exactness_and_euler_divergence():
    m = 64
    grid = Grid1D(x0=0.0, dx=2.0 * math.pi / m, m_points=m,
                  boundary=Periodic())
    x = grid.points
    problem = PDEProblem(a=1.0, b=1.0, initial_condition=np.sin(2.0 * x))
    worst = 0.0
    for dt in (0.01, 0.1, 1.0):
        traj = evolve_modal(problem, grid, dt, round(2.0 / dt))
        exact = math.exp((1.0 - 4.0) * 2.0) * np.sin(2.0 * x)
        rel = np.max(np.abs(traj.frames[-1] - exact)) / np.max(np.abs(exact))
        worst = max(worst, float(rel))
    ok_modal = worst <= 1e-10

    report = run_experiment(parse_config(
        "experiment = pde_compare\na = 1.0\nb = 1.0\nic_mode = 2\n"
        "m_points = 64\nt_final = 2.0\ndt = 1.0\nmethods = euler\n"
    ))
    (_, _, _, _, err, diverged), = report.rows
    ok_euler = diverged is True

    _report(3, "modal evolution exact at any step", ok_modal and ok_euler,
            f"max rel nodal err {worst:.2e} <= 1e-10 for dt in "
            f"{{0.01, 0.1, 1}}; euler dt=1 diverged={diverged} "
            f"(rel err {err:.1e})")


def test_criterion_4_nsfd_exact_sub_equations():
    m = 32
    grid = Grid1D(x0=0.0, dx=2.0 * math.pi / m, m_points=m,
                  boundary=Periodic())
    problem = PDEProblem(a=1.0, b=0.7, initial_condition=np.full(m, 3.0))
    worst_const = 0.0
    for dt in (0.1, 1.0, 5.0):
        stepped = step(problem, grid, Nsfd(dt=dt), np.full(m, 3.0))
        expected = 3.0 * math.exp(0.7 * dt)
        worst_const = max(worst_const,
                          float(np.max(np.abs(stepped - expected))) / expected)
    ok_const = worst_const <= 1e-12

    worst_steady = 0.0
    for m_pts in (17, 33):
        g = Grid1D(x0=0.0, dx=math.pi / (m_pts - 1), m_points=m_pts,
                   boundary=Dirichlet(0.0, 0.0))
        frame = np.sin(g.points)
        steady = PDEProblem(a=1.0, b=1.0, initial_condition=frame)
        for dt in (0.1, 1.0, 2.0):
            stepped = step(steady, g, Nsfd(dt=dt), frame)
            worst_steady = max(worst_steady,
                               float(np.max(np.abs(stepped - frame))))
    ok_steady = worst_steady <= 1e-12

    _report(4, "exact reaction growth + steady diffusion mode",
            ok_const and ok_steady,
            f"constant-mode rel err {worst_const:.2e} <= 1e-12 for "
            f"dt in {{0.1, 1, 5}}; steady-mode drift {worst_steady:.2e} "
            f"<= 1e-12 per step")


def test_criterion_5_harmonic_oscillator_exactness():
    n = 10**4
    y = ho_exact_states(1.0, 0.7, 1.0, math.cos(0.7), range(n + 1))
    expected = np.cos(0.7 * np.arange(n + 1))
    worst = float(np.max(np.abs(y - expected)))
    _report(5, "exact oscillator recurrence", worst <= 1e-9,
            f"max |y_n - cos(0.7 n)| = {worst:.2e} <= 1e-9 up to n = 10^4")


def test_criterion_6_laplace_mode_convergence():
    errors = []
    for m in (11, 21, 41, 81):
        grid = Grid1D(x0=0.0, dx=1.0 / (m - 1), m_points=m,
                      boundary=Dirichlet(0.0, 0.0))
        x = grid.points
        problem = PDEProblem(a=1.0, b=0.0,
                             initial_condition=np.sin(math.pi * x))
        solution = laplace_mode_solve(problem, grid, 2.0)
        analytic = np.sin(math.pi * x) / (math.pi**2 + 2.0)
        errors.append(float(np.max(np.abs(solution - analytic))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
    ok = all(p >= 2.0 for p in orders) and errors[-1] < errors[0] / 30.0
    _report(6, "Laplace-mode BVP second order", ok,
            f"observed orders {[f'{p:.4f}' for p in orders]} all >= 2; "
            f"errors shrink {errors[0]:.1e} -> {errors[-1]:.1e}")


def test_criterion_7_spectral_distinguishability_and_reductions():
    mus = np.arange(-10.0, 10.0 + 1e-9, 0.1)
    values = [phi_nsfd(0.3, float(mu)) for mu in mus]
    ok_monotone = bool(np.all(np.diff(values) > 0.0))

    worst = 0.0
    for dt, dx in ((0.05, 0.1), (0.5, 0.4)):
        for a in (0.5, 2.0):
            for b in (-1.0, 0.0, 1.5):
                for k in (1.0, 3.0):
                    worst = max(worst, abs(
                        phi_spectral(dt, a, b, 0.0) / phi_nsfd(dt, b) - 1.0))
                    worst = max(worst, abs(
                        phi_spectral(dt, 0.0, b, k) / phi_nsfd(dt, b) - 1.0))
                worst = max(worst, abs(
                    psi2_spectral(dx, a, b, 0.0) / psi2_nsfd(dx, b / a) - 1.0))
                worst = max(worst, abs(
                    psi2_spectral(dx, a, b, b) / dx**2 - 1.0))
    ok_reduction = worst <= 1e-14

    _report(7, "denominator injectivity + reduction lattice",
            ok_monotone and ok_reduction,
            f"phi(0.3, mu) strictly increasing on [-10, 10]; "
            f"reduction identities within {worst:.1e} <= 1e-14")


def test_criterion_8_signature_classifier():
    worst = 0.0
    times = origin_window()
    for alpha in (0.5, 0.8, 1.0):
        samples = [(float(t), 1.0 - nonlocal_propagator(1.0, alpha, float(t)))
                   for t in times]
        fitted = signature_fit(samples).alpha_hat
        worst = max(worst, abs(fitted - alpha))
    _report(8, "power-law signature classifier", worst <= 0.05,
            f"max |alpha_hat - alpha| = {worst:.3f} <= 0.05 for "
            f"alpha in {{0.5, 0.8, 1.0}}")
