import math

import mpmath
import numpy as np
import pytest

from spectralfd.specfun import MLParams, mittag_leffler

from oracles import ml_half_oracle, ml_oracle

# The contract sweep of mittag_leffler: alpha from 0.1 to 1.9, the betas
# below, and z over [-50, 10], denser near the origin.
SWEEP_ALPHAS = [round(0.1 * i, 1) for i in range(1, 20)]
SWEEP_BETAS = (0.3, 0.5, 1.0, 2.0)
SWEEP_Z = (-50.0, -40.0, -30.0, -20.0, -15.0, -10.0, -6.0, -3.0, -1.0, -0.3,
           0.3, 1.0, 3.0, 6.0, 10.0)


class TestMLParams:
    def test_defaults(self):
        p = MLParams(alpha=0.5)
        assert p.beta == 1.0 and p.tol == 1e-12

    @pytest.mark.parametrize("alpha", [0.0, -0.3, 2.0, 2.5])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            MLParams(alpha=alpha)

    @pytest.mark.parametrize("beta", [-3.0, 0.0, 0.29, 2.01, 180.0,
                                      math.nan, math.inf])
    def test_beta_domain(self, beta):
        # outside the swept [0.3, 2]: E_{1.9,-3}(-0.1) was off by 1e-9, and
        # z = 0 hit the poles of Gamma (beta = 0) or overflowed (beta = 180)
        with pytest.raises(ValueError, match="beta"):
            MLParams(alpha=0.5, beta=beta)

    def test_tol_and_terms(self):
        with pytest.raises(ValueError):
            MLParams(alpha=0.5, tol=0.0)


class TestMittagLeffler:
    def test_exponential_point(self):
        got = mittag_leffler(MLParams(alpha=1.0), 1.0)
        assert got == pytest.approx(math.e, rel=1e-14)

    def test_zero_argument(self):
        assert mittag_leffler(MLParams(alpha=0.7), 0.0) == 1.0

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5, 1.9])
    def test_zero_argument_is_reciprocal_gamma(self, alpha):
        # E_{alpha,beta}(0) = 1/Gamma(beta) over the whole beta domain
        for beta in np.linspace(0.3, 2.0, 171):
            beta = float(beta)
            got = mittag_leffler(MLParams(alpha=alpha, beta=beta), 0.0)
            assert got == 1.0 / math.gamma(beta)
            assert got == pytest.approx(float(mpmath.rgamma(beta)), rel=2e-15)

    def test_half_order_against_erfc_oracle(self):
        # E_{1/2}(-1) = e * erfc(1) = 0.42758357615580705
        got = mittag_leffler(MLParams(alpha=0.5), -1.0)
        assert got == pytest.approx(0.42758357615580705, abs=1e-12)
        assert got == pytest.approx(ml_half_oracle(1.0), abs=1e-12)

    def test_exponential_reduction_grid(self):
        for z in range(-10, 6):
            got = mittag_leffler(MLParams(alpha=1.0), float(z))
            rel = abs(got - math.exp(z)) / math.exp(z)
            assert rel <= 1e-10

    def test_normalization_exact(self):
        for alpha in np.arange(0.1, 1.05, 0.1):
            assert mittag_leffler(MLParams(alpha=float(alpha)), 0.0) == 1.0

    def test_complete_monotonicity_proxy(self):
        for alpha in np.arange(0.1, 1.05, 0.1):
            values = [mittag_leffler(MLParams(alpha=float(alpha)), -float(t))
                      for t in np.arange(0.0, 50.0001, 0.1)]
            arr = np.asarray(values)
            assert np.all(arr > 0.0)
            assert np.all(np.diff(arr) < 0.0)

    def test_two_parameter_consistency(self):
        for alpha in (0.3, 0.5, 0.7, 1.0):
            for z in (-4.0, -1.0, -0.25, 0.5, 2.0):
                one = mittag_leffler(MLParams(alpha=alpha), z)
                two = mittag_leffler(MLParams(alpha=alpha, beta=1.0), z)
                assert two == pytest.approx(one, rel=1e-13, abs=1e-300)

    def test_beta_two_identity(self):
        # E_{1,2}(z) = (e^z - 1)/z
        for z in (-3.0, -0.5, 1.0, 4.0):
            ref = math.expm1(z) / z
            got = mittag_leffler(MLParams(alpha=1.0, beta=2.0), z)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_half_half_identity(self):
        # E_{1/2,1/2}(-x) = 1/sqrt(pi) - x * exp(x^2) * erfc(x)
        for x in (0.5, 2.0):
            ref = 1.0 / math.sqrt(math.pi) - x * ml_half_oracle(x)
            got = mittag_leffler(MLParams(alpha=0.5, beta=0.5), -x)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_deep_negative_axis_accuracy(self):
        # erfc oracle at deep negative arguments for alpha = 1/2
        for t in (8.0, 12.0, 20.0, 50.0):
            got = mittag_leffler(MLParams(alpha=0.5), -t)
            assert got == pytest.approx(ml_half_oracle(t), rel=1e-11)

    def test_positive_overflow_signaled(self):
        with pytest.raises(OverflowError):
            mittag_leffler(MLParams(alpha=0.1), 10.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            mittag_leffler(MLParams(alpha=0.5), float("inf"))

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_oracle_sweep(self, alpha):
        for beta in SWEEP_BETAS:
            for z in SWEEP_Z:
                ref = ml_oracle(alpha, beta, z)
                if math.isinf(ref):
                    with pytest.raises(OverflowError):
                        mittag_leffler(MLParams(alpha=alpha, beta=beta), z)
                    continue
                for tol in (1e-12, 1e-8):
                    got = mittag_leffler(MLParams(alpha, beta, tol), z)
                    bound = tol * max(abs(ref), 1e-2)
                    assert abs(got - ref) <= bound, (beta, z, tol)

    @pytest.mark.parametrize("beta", SWEEP_BETAS)
    def test_large_positive_value_finite(self, beta):
        # E_0.3(5) ~ e**213.7 is representable
        got = mittag_leffler(MLParams(alpha=0.3, beta=beta), 5.0)
        assert math.isfinite(got)
        assert got == pytest.approx(ml_oracle(0.3, beta, 5.0), rel=1e-12)
        if beta == 1.0:
            assert got == pytest.approx(2.24915027755e93, rel=1e-11)

    def test_overflow_names_the_point(self):
        # E_0.3(8) ~ e**1024
        with pytest.raises(OverflowError, match=r"E_\{0\.3,1\}\(8\)"):
            mittag_leffler(MLParams(alpha=0.3), 8.0)
        with pytest.raises(OverflowError, match=r"E_\{1,1\}\(800\)"):
            mittag_leffler(MLParams(alpha=1.0), 800.0)

    def test_slowly_decaying_series_point(self):
        # the power series of E_{0.1,0.5}(1) has a long, slowly decaying tail
        params = MLParams(alpha=0.1, beta=0.5)
        ref = ml_oracle(0.1, 0.5, 1.0)
        assert abs(mittag_leffler(params, 1.0) - ref) <= params.tol * abs(ref)

    @pytest.mark.parametrize("z", [1e-300, -1e-300, 1e-40, -1e-40])
    def test_tiny_argument(self, z):
        # the pole z**(1/alpha) underflows onto the origin
        for alpha, beta in ((0.3, 1.0), (0.7, 2.0), (1.5, 0.5)):
            got = mittag_leffler(MLParams(alpha=alpha, beta=beta), z)
            assert got == pytest.approx(1.0 / math.gamma(beta), rel=1e-12)

    def test_unreachable_accuracy_rejected(self):
        # beta - alpha = 1.98: the origin singularity admits no contour at
        # the 1e-15 target that tol = 1e-12 needs
        with pytest.raises(ValueError, match="no parabolic contour"):
            mittag_leffler(MLParams(alpha=0.02, beta=2.0), -1.0)
