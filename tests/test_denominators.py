import math

import numpy as np
import pytest

from spectralfd.denominators import (
    DegenerateDenominatorError,
    ExactStepKind,
    mu_exact_step,
    phi_nsfd,
    phi_spectral,
    psi2_nsfd,
    psi2_spectral,
)
from spectralfd.propagators import local_propagator, nonlocal_propagator

from oracles import conformable_step_oracle, phi_nsfd_oracle, psi2_nsfd_oracle

EPS = 2.0**-52
# the argument |w| below which phi_nsfd and psi2_nsfd switch to Taylor
SERIES_SWITCH = 1e-6


class TestPhiNsfd:
    def test_zero_rate_is_step(self):
        assert phi_nsfd(0.1, 0.0) == 0.1

    def test_positive_rate(self):
        # (e - 1) by high-precision exponential oracle
        assert phi_nsfd(1.0, 1.0) == pytest.approx(1.718281828459045, rel=1e-15)

    def test_negative_rate(self):
        # 1 - e^{-1}
        assert phi_nsfd(1.0, -1.0) == pytest.approx(0.6321205588285577, rel=1e-15)

    def test_always_positive(self):
        for b in (-50.0, -3.0, -1e-9, 0.0, 1e-9, 2.0, 80.0):
            for dt in (1e-4, 0.1, 2.0):
                assert phi_nsfd(dt, b) > 0.0

    def test_overflow_signaled(self):
        with pytest.raises(OverflowError):
            phi_nsfd(10.0, 100.0)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            phi_nsfd(0.0, 1.0)

    def test_removable_singularity_smoothness(self):
        for dt in (0.05, 0.3, 1.0):
            for b in (1e-7, -1e-7):
                assert abs(phi_nsfd(dt, b) - dt) <= 1e-6 * dt

    def test_contract_sweep(self):
        # |w| = |b dt| from 1e-12 to 709, both sides of the Taylor switch,
        # and the two doubles at the switch itself
        rng = np.random.default_rng(41)
        cases = [(1.0, SERIES_SWITCH), (1.0, math.nextafter(SERIES_SWITCH, 0)),
                 (1.0, -SERIES_SWITCH), (1.0, 709.0), (1.0, -709.0)]
        for log_w in np.concatenate([rng.uniform(-12, -6, 600),
                                     rng.uniform(-6, math.log10(709), 600)]):
            dt = 10.0 ** rng.uniform(-8, 2)
            cases.append((dt, rng.choice([-1.0, 1.0]) * 10.0**log_w / dt))
        branches = set()
        for dt, b in cases:
            w = abs(b * dt)
            branches.add(w < SERIES_SWITCH)
            ref = phi_nsfd_oracle(dt, b)
            bound = 4.0 * (1.0 + w) * EPS * abs(ref)
            assert abs(phi_nsfd(dt, b) - ref) <= bound, (dt, b)
        assert branches == {True, False}


class TestPsi2Nsfd:
    def test_zero_ratio_is_step_squared(self):
        assert psi2_nsfd(0.25, 0.0) == 0.25**2

    def test_sine_branch(self):
        # 4 sin^2(1/2)
        assert psi2_nsfd(1.0, 1.0) == pytest.approx(
            4.0 * math.sin(0.5) ** 2, rel=1e-15)
        assert psi2_nsfd(1.0, 1.0) == pytest.approx(0.9193953882637206, rel=1e-14)

    def test_sinh_branch(self):
        # (4/4) sinh^2(0.5) = 0.2715403174076219
        assert psi2_nsfd(0.5, -4.0) == pytest.approx(
            math.sinh(0.5) ** 2, rel=1e-15)
        assert psi2_nsfd(0.5, -4.0) == pytest.approx(0.2715403174076219, rel=1e-14)

    def test_positive_everywhere(self):
        for r in (-100.0, -1.0, -1e-8, 0.0, 1e-8, 1.0, 30.0):
            assert psi2_nsfd(0.3, r) > 0.0

    def test_sinh_overflow_names_its_argument(self):
        # u = sqrt(|r|) dx / 2 = 711, past sinh's range
        with pytest.raises(OverflowError,
                           match=r"^sinh\(711\) exceeds the double range$"):
            psi2_nsfd(2.0, -711.0**2)

    def test_bad_step(self):
        with pytest.raises(ValueError, match="space step must be positive"):
            psi2_nsfd(0.0, 1.0)

    def test_sine_zero_excluded(self):
        with pytest.raises(DegenerateDenominatorError):
            psi2_nsfd(1.0, (2.0 * math.pi) ** 2)

    def test_continuity_across_zero_ratio(self):
        dx = 0.4
        below = psi2_nsfd(dx, -1e-9)
        above = psi2_nsfd(dx, 1e-9)
        assert below == pytest.approx(above, rel=1e-9)
        assert below == pytest.approx(dx * dx, rel=1e-9)

    def test_contract_sweep(self):
        # u = sqrt(|r|) dx/2 from 1e-9 to the sine zero (r > 0) or to 300
        # (r < 0), both sides of the Taylor switch at |r| dx**2 = 4 u**2
        # = 1e-6, and the doubles at the switch itself
        rng = np.random.default_rng(42)
        u_switch = math.sqrt(SERIES_SWITCH) / 2.0
        cases = [(1.0, sign * w) for sign in (1.0, -1.0)
                 for w in (SERIES_SWITCH, math.nextafter(SERIES_SWITCH, 0))]
        for sign, high in ((1.0, math.pi * (1.0 - 1e-9)), (-1.0, 300.0)):
            for u in np.concatenate([
                    10.0 ** rng.uniform(-9, math.log10(u_switch), 300),
                    10.0 ** rng.uniform(math.log10(u_switch),
                                        math.log10(high), 300),
                    high - 10.0 ** rng.uniform(-9, -1, 100)]):
                dx = 10.0 ** rng.uniform(-6, 1)
                cases.append((dx, sign * (2.0 * u / dx) ** 2))
        branches = set()
        for dx, r in cases:
            branches.add(abs(r * dx * dx) < SERIES_SWITCH)
            u = math.sqrt(abs(r)) * dx / 2.0
            kappa = u / abs(math.tan(u)) if r > 0.0 else u
            ref = psi2_nsfd_oracle(dx, r)
            bound = 8.0 * (1.0 + kappa) * EPS * ref
            assert abs(psi2_nsfd(dx, r) - ref) <= bound, (dx, r)
        assert branches == {True, False}

    @pytest.mark.parametrize("r, error, match", [
        # u = inf: past the sine zero, and past the range of sinh
        (math.inf, DegenerateDenominatorError, "first sine zero"),
        (-math.inf, OverflowError, r"^sinh\(inf\) exceeds the double range$"),
        (math.nan, ValueError, "ratio r must be a number"),
    ])
    def test_contract_sweep_non_finite_ratio(self, r, error, match):
        # the oracle has no double value here; psi2 was nan for -inf and nan
        for dx in (1e-6, 0.3, 10.0):
            with pytest.raises(error, match=match):
                psi2_nsfd(dx, r)


class TestSpectralDenominators:
    def test_matched_mode_gives_step(self):
        # b = a k^2 removes the singularity exactly
        assert phi_spectral(0.37, 2.0, 8.0, 2.0) == 0.37

    def test_decaying_mode(self):
        # (e^{-0.1} - 1)/(-1)
        assert phi_spectral(0.1, 1.0, 0.0, 1.0) == pytest.approx(
            -math.expm1(-0.1), rel=1e-14)

    def test_zero_diffusion_reduction(self):
        assert phi_spectral(1.0, 0.0, 1.0, 7.0) == phi_nsfd(1.0, 1.0)

    def test_negative_diffusion_rejected(self):
        with pytest.raises(ValueError):
            phi_spectral(0.1, -1.0, 0.0, 1.0)

    def test_matched_laplace_mode(self):
        assert psi2_spectral(0.2, 1.0, 3.0, 3.0) == 0.2**2

    def test_zero_mode_reduction(self):
        assert psi2_spectral(1.0, 1.0, 1.0, 0.0) == psi2_nsfd(1.0, 1.0)

    def test_sinh_mode(self):
        # r = -1: 4 sinh^2(1/4)
        assert psi2_spectral(0.5, 1.0, 0.0, 1.0) == pytest.approx(
            4.0 * math.sinh(0.25) ** 2, rel=1e-15)
        assert psi2_spectral(0.5, 1.0, 0.0, 1.0) == pytest.approx(
            0.25525193041276156, rel=1e-14)

    def test_requires_positive_diffusion(self):
        with pytest.raises(ValueError):
            psi2_spectral(0.5, 0.0, 0.0, 1.0)

    def test_reduction_lattice(self):
        for dt in (0.05, 0.5):
            for b in (-2.0, 0.0, 1.5):
                for k in (0.0, 1.0, 3.0):
                    assert phi_spectral(dt, 0.0, b, k) == pytest.approx(
                        phi_nsfd(dt, b), rel=1e-14)
                assert phi_spectral(dt, 2.0, b, 0.0) == pytest.approx(
                    phi_nsfd(dt, b), rel=1e-14)
        for dx in (0.1, 0.5):
            for a in (0.5, 2.0):
                for b in (-1.0, 0.0, 2.0):
                    assert psi2_spectral(dx, a, b, 0.0) == pytest.approx(
                        psi2_nsfd(dx, b / a), rel=1e-14)
                    assert psi2_spectral(dx, a, b, b) == pytest.approx(
                        dx * dx, rel=1e-14)

    def test_spectral_distinguishability(self):
        # phi(0.3, mu) strictly increasing separates distinct spectral rates
        mus = np.arange(-10.0, 10.0 + 1e-9, 0.1)
        values = [phi_nsfd(0.3, float(mu)) for mu in mus]
        assert np.all(np.diff(values) > 0.0)


class TestLimitConsistency:
    def test_time_families_approach_step(self):
        for h in (1e-3, 1e-4, 1e-5):
            for b in (-2.0, 1.0, 3.0):
                assert abs(phi_nsfd(h, b) / h - 1.0) <= 10.0 * h
                for a, k in ((1.0, 2.0), (0.5, 0.0)):
                    assert abs(phi_spectral(h, a, b, k) / h - 1.0) <= 10.0 * h
            # the classical step-limit denominators 1 - e^-h, e^h - 1, sin h
            for value in (-math.expm1(-h), math.expm1(h), math.sin(h)):
                assert abs(value / h - 1.0) <= 10.0 * h
            # order-one exact measure reduces to the step as well
            mu = mu_exact_step(ExactStepKind.CONFORMABLE, 1.0, 1.0, 0.0, h)
            assert abs(mu / h - 1.0) <= 10.0 * h

    def test_space_families_approach_step_squared(self):
        for h in (1e-3, 1e-4, 1e-5):
            for r in (-3.0, 0.5, 2.0):
                assert abs(psi2_nsfd(h, r) / h**2 - 1.0) <= 10.0 * h
            for s in (-1.0, 0.0, 2.0):
                assert abs(psi2_spectral(h, 1.0, 0.5, s) / h**2 - 1.0) <= 10.0 * h


class TestMuExactStep:
    def test_order_one_matches_backward_form(self):
        for rate in (0.5, 2.0):
            for h in (0.1, 1.0):
                mu = mu_exact_step(ExactStepKind.CONFORMABLE, rate, 1.0, 0.0, h)
                assert mu == pytest.approx(-math.expm1(-rate * h) / rate,
                                           rel=1e-15)

    def test_conformable_fractional_point(self):
        mu = mu_exact_step(ExactStepKind.CONFORMABLE, 1.0, 0.5, 0.0, 1.0)
        assert mu == pytest.approx(0.6321205588285577, rel=1e-14)

    def test_ml_order_one_agrees_with_conformable(self):
        for t_n, t_np1 in ((0.0, 0.5), (0.5, 1.0), (2.0, 2.5)):
            conf = mu_exact_step(ExactStepKind.CONFORMABLE, 1.0, 1.0, t_n, t_np1)
            ml_mu = mu_exact_step(ExactStepKind.MITTAG_LEFFLER, 1.0, 1.0,
                                  t_n, t_np1)
            assert ml_mu == pytest.approx(conf, rel=1e-11)

    def test_positive(self):
        for kind in ExactStepKind:
            for order in (0.4, 0.8, 1.0):
                assert mu_exact_step(kind, 1.3, order, 0.7, 0.9) > 0.0

    def test_conformable_small_steps_match_oracle(self):
        # t_np1**order - t_n**order cancels as the step shrinks; the measure
        # must not
        worst = 0.0
        for order in (0.3, 0.5, 0.75, 0.95, 1.0):
            for t_n in (0.0, 0.1, 1.0, 3.0, 20.0):
                for dt in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
                    t_np1 = t_n + dt
                    for rate in (0.5, 1.0, 3.0):
                        mu = mu_exact_step(ExactStepKind.CONFORMABLE, rate,
                                           order, t_n, t_np1)
                        oracle = conformable_step_oracle(rate, order, t_n,
                                                         t_np1)
                        worst = max(worst, abs(mu - oracle) / oracle)
        assert worst <= 1e-14

    def test_conformable_large_step_ratios_match_oracle(self):
        # t_np1 / t_n up to far past the double range
        worst = 0.0
        for order in (0.01, 0.1, 0.5, 0.95, 1.0):
            for t_n in (1e-300, 1e-20, 1e-3, 0.5):
                for t_np1 in (1.0, 1e6, 1e100, 1e300):
                    for rate in (1e-3, 1.0):
                        mu = mu_exact_step(ExactStepKind.CONFORMABLE, rate,
                                           order, t_n, t_np1)
                        oracle = conformable_step_oracle(rate, order, t_n,
                                                         t_np1)
                        worst = max(worst, abs(mu - oracle) / oracle)
        assert worst <= 1e-14

    def test_stepping_reproduces_local_propagator(self):
        rate, order = 0.8, 0.6
        times = np.linspace(0.0, 5.0, 21)
        y = 1.0
        for t_n, t_np1 in zip(times, times[1:]):
            mu = mu_exact_step(ExactStepKind.CONFORMABLE, rate, order,
                               float(t_n), float(t_np1))
            y *= 1.0 - rate * mu
        assert y == pytest.approx(local_propagator(rate, order, 5.0), rel=1e-12)

    def test_stepping_reproduces_nonlocal_propagator(self):
        rate, order = 0.8, 0.6
        times = np.linspace(0.0, 5.0, 21)
        y = 1.0
        for t_n, t_np1 in zip(times, times[1:]):
            mu = mu_exact_step(ExactStepKind.MITTAG_LEFFLER, rate, order,
                               float(t_n), float(t_np1))
            y *= 1.0 - rate * mu
        assert y == pytest.approx(nonlocal_propagator(rate, order, 5.0),
                                  rel=1e-9)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            mu_exact_step(ExactStepKind.CONFORMABLE, 1.0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            mu_exact_step(ExactStepKind.CONFORMABLE, 1.0, 0.5, -0.5, 1.0)
        with pytest.raises(ValueError):
            mu_exact_step(ExactStepKind.CONFORMABLE, 0.0, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            mu_exact_step(ExactStepKind.CONFORMABLE, 1.0, 1.4, 0.0, 1.0)

    def test_propagator_underflow(self):
        # E_1(-1000) = exp(-1000) is 0 in doubles: there is no ratio to form
        with pytest.raises(DegenerateDenominatorError,
                           match="propagator underflow"):
            mu_exact_step(ExactStepKind.MITTAG_LEFFLER, 1000.0, 1.0, 1.0, 2.0)
