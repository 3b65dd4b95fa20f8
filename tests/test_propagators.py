import math

import numpy as np
import pytest

from spectralfd.harness.cli import main
from spectralfd.propagators import (
    FitDegenerateError,
    FitRangeError,
    SignatureKind,
    local_propagator,
    nonlocal_propagator,
    origin_window,
    signature_fit,
)

from oracles import least_squares_line, ml_half_oracle


class TestLocalPropagator:
    def test_unit_rate_unit_time(self):
        assert local_propagator(1.0, 1.0, 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-15)

    def test_time_zero(self):
        assert local_propagator(3.0, 0.4, 0.0) == 1.0

    def test_fractional_point(self):
        # exp(-2 * 4**0.5) = exp(-4) = 0.018315638888734182
        assert local_propagator(2.0, 0.5, 4.0) == pytest.approx(
            0.018315638888734182, rel=1e-13)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            local_propagator(1.0, 0.5, -0.1)

    @pytest.mark.parametrize("rate,order", [(0.0, 0.5), (-1.0, 0.5),
                                            (1.0, 0.0), (1.0, 1.5)])
    def test_parameter_domain(self, rate, order):
        with pytest.raises(ValueError):
            local_propagator(rate, order, 1.0)


class TestNonlocalPropagator:
    def test_order_one_reduction(self):
        for t in (0.5, 1.0, 2.0):
            assert nonlocal_propagator(1.0, 1.0, t) == pytest.approx(
                math.exp(-t), rel=1e-12)

    def test_time_zero(self):
        assert nonlocal_propagator(2.0, 0.3, 0.0) == 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time must be nonnegative"):
            nonlocal_propagator(1.0, 0.5, -1.0)

    def test_half_order_against_erfc_oracle(self):
        assert nonlocal_propagator(1.0, 0.5, 1.0) == pytest.approx(
            ml_half_oracle(1.0), abs=1e-12)

    def test_monotone_decay_grid(self):
        ts = np.linspace(0.0, 20.0, 81)
        for rate in (0.5, 1.0, 2.0):
            for order in (0.3, 0.5, 0.8, 1.0):
                local = [local_propagator(rate, order, float(t)) for t in ts]
                nonlocal_ = [nonlocal_propagator(rate, order, float(t))
                             for t in ts]
                assert np.all(np.diff(local) < 0.0)
                assert np.all(np.diff(nonlocal_) < 0.0)

    def test_heavy_tail_ordering(self):
        # Mittag-Leffler relaxations sit above the stretched exponential
        # at late times for order < 1
        for order in (0.3, 0.5, 0.8):
            for t in (5.0, 8.0, 12.0, 20.0):
                assert (nonlocal_propagator(1.0, order, t)
                        > local_propagator(1.0, order, t))


class TestSignatureFit:
    def test_exact_linear_law(self):
        ts = origin_window()
        sig = signature_fit([(float(t), float(t)) for t in ts])
        assert sig.alpha_hat == pytest.approx(1.0, abs=1e-10)
        assert sig.c_hat == pytest.approx(1.0, rel=1e-10)
        assert sig.kind is SignatureKind.DEBYE

    def test_exact_power_law(self):
        ts = origin_window()
        sig = signature_fit([(float(t), 3.0 * float(t)**0.5) for t in ts])
        assert sig.alpha_hat == pytest.approx(0.5, abs=1e-10)
        assert sig.c_hat == pytest.approx(3.0, rel=1e-10)
        assert sig.kind is SignatureKind.KWW
        assert sig.fit_residual < 1e-12

    def test_ml_leading_term(self):
        # 1 - E_0.7(-t^0.7) ~ t^0.7 / Gamma(1.7) near the origin
        ts = origin_window()
        samples = [(float(t), 1.0 - nonlocal_propagator(1.0, 0.7, float(t)))
                   for t in ts]
        sig = signature_fit(samples)
        assert sig.alpha_hat == pytest.approx(0.7, abs=0.02)
        assert sig.c_hat == pytest.approx(1.0 / math.gamma(1.7), rel=0.08)
        assert sig.kind is SignatureKind.KWW

    def test_fit_consistency_local(self):
        ts = origin_window()
        for order in (0.5, 0.8, 1.0):
            samples = [(float(t), 1.0 - local_propagator(1.0, order, float(t)))
                       for t in ts]
            sig = signature_fit(samples)
            assert sig.alpha_hat == pytest.approx(order, abs=0.02)

    def test_too_few_samples(self):
        with pytest.raises(FitDegenerateError):
            signature_fit([(0.001 * (i + 1), 0.001 * (i + 1))
                           for i in range(7)])

    def test_nonpositive_values(self):
        ts = origin_window()
        with pytest.raises(FitDegenerateError):
            signature_fit([(float(t), -1.0) for t in ts])
        with pytest.raises(FitDegenerateError):
            signature_fit([(-float(t), 1.0) for t in ts])

    def test_non_increasing_times(self):
        with pytest.raises(FitDegenerateError):
            signature_fit([(1.0, 1.0)] * 8)

    def test_zero_log_variance(self):
        eps = 2.0**-52
        samples = [(1.0 + i * eps, 1.0 + i * eps) for i in range(8)]
        with pytest.raises(FitDegenerateError):
            signature_fit(samples)

    def test_exponent_out_of_range(self):
        ts = origin_window()
        with pytest.raises(FitRangeError):
            signature_fit([(float(t), float(t)**1.4) for t in ts])

    def test_matches_extended_precision_least_squares(self):
        # power laws in the fit's admissible range with log-normal scatter,
        # at sorted random times over two to six decades
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(8, 200))
            t = np.unique(10.0 ** rng.uniform(-6.0, rng.uniform(-4.0, 0.0),
                                              size=n))  # sorted, distinct
            scatter = rng.normal(0.0, rng.uniform(0.01, 0.3), size=len(t))
            w = (rng.uniform(0.1, 10.0) * t ** rng.uniform(0.2, 1.1)
                 * np.exp(scatter))
            samples = list(zip(t.tolist(), w.tolist()))
            slope, intercept, rms = least_squares_line(samples)
            sig = signature_fit(samples)
            # c_hat = exp(intercept): its relative error is the intercept's
            # absolute one, which stays meaningful for an intercept near 0
            assert sig.alpha_hat == pytest.approx(slope, rel=1e-13, abs=0)
            assert sig.c_hat == pytest.approx(math.exp(intercept), rel=1e-13,
                                              abs=0)
            assert sig.fit_residual == pytest.approx(rms, rel=1e-13, abs=0)

    def test_fit_needs_no_linear_algebra(self, monkeypatch, tmp_path):
        # the fit is closed-form: neither the polynomial fit nor the
        # least-squares solver of numpy runs on the signature path
        def refuse(*args, **kwargs):
            raise AssertionError("linear-algebra least squares called")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        samples = [(float(t), 1.0 - nonlocal_propagator(1.0, 0.7, float(t)))
                   for t in origin_window()]
        assert signature_fit(samples).kind is SignatureKind.KWW
        assert main(["signature", "--alpha", "0.7",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "signature_demo.csv").exists()

    def test_origin_window_validation(self):
        with pytest.raises(ValueError):
            origin_window(n_samples=4)
        with pytest.raises(ValueError):
            origin_window(t_min=1e-2, t_max=1e-4)
