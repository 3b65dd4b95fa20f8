import dataclasses
import math

import numpy as np
import pytest

from spectralfd import specfun
from spectralfd.specfun import MLParams, mittag_leffler

from oracles import ml_half_oracle, ml_oracle

# The contract sweep of mittag_leffler: alpha over [0.01, 1], the tols
# below, and z over [-50, 10], denser near the origin.
SWEEP_ALPHAS = [0.01, 0.02, 0.05] + [round(0.1 * i, 1) for i in range(1, 11)]
SWEEP_TOLS = (1e-12, 1e-8, 0.5)
SWEEP_Z = (-50.0, -40.0, -30.0, -20.0, -15.0, -10.0, -6.0, -3.0, -1.0, -0.3,
           0.3, 1.0, 3.0, 6.0, 10.0)


class TestMLParams:
    def test_defaults(self):
        p = MLParams(alpha=0.5)
        assert p.tol == 1e-12
        assert [f.name for f in dataclasses.fields(MLParams)] == ["alpha", "tol"]
        # both ends of the swept order interval are accepted
        assert MLParams(alpha=0.01).alpha == 0.01
        assert MLParams(alpha=1.0).alpha == 1.0

    @pytest.mark.parametrize("alpha", [0.0, -0.3, 0.005, 1.0001, 1.5, 2.0,
                                       2.5, math.nan])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            MLParams(alpha=alpha)

    def test_tol_and_terms(self):
        # tol = 1e4 once made eps = tol/1000 exceed 1, where Garrappa's
        # rules end in a math domain error or a division by zero
        for tol in (0.0, -1e-12, 1.0, 1e4, math.nan):
            with pytest.raises(ValueError, match="tol"):
                MLParams(alpha=0.5, tol=tol)


class TestMittagLeffler:
    def test_exponential_point(self):
        got = mittag_leffler(MLParams(alpha=1.0), 1.0)
        assert got == pytest.approx(math.e, rel=1e-14)

    def test_zero_argument(self):
        assert mittag_leffler(MLParams(alpha=0.7), 0.0) == 1.0

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5, 1.0])
    def test_zero_argument_is_reciprocal_gamma(self, alpha):
        # E_alpha(0) = 1/Gamma(1) = 1 exactly, at every tol and for -0.0
        for tol in (1e-12, 1e-3, 0.999):
            for z in (0.0, -0.0):
                assert mittag_leffler(MLParams(alpha, tol), z) == 1.0

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
        for z in SWEEP_Z:
            ref = ml_oracle(alpha, 1.0, z)
            if math.isinf(ref):
                with pytest.raises(OverflowError):
                    mittag_leffler(MLParams(alpha=alpha), z)
                continue
            for tol in SWEEP_TOLS:
                got = mittag_leffler(MLParams(alpha, tol), z)
                bound = tol * max(abs(ref), 1e-2)
                assert abs(got - ref) <= bound, (z, tol)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_large_positive_value_finite(self, alpha):
        # E_0.3(5) ~ e**213.7, E_0.5(26) ~ e**676 and E_1(700) = e**700 are
        # representable
        z = {0.3: 5.0, 0.5: 26.0, 1.0: 700.0}[alpha]
        got = mittag_leffler(MLParams(alpha=alpha), z)
        assert math.isfinite(got)
        assert got == pytest.approx(ml_oracle(alpha, 1.0, z), rel=1e-12)
        if alpha == 0.3:
            assert got == pytest.approx(2.24915027755e93, rel=1e-11)

    def test_overflow_names_the_point(self):
        # E_0.3(8) ~ e**1024
        with pytest.raises(OverflowError, match=r"E_\{0\.3\}\(8\)"):
            mittag_leffler(MLParams(alpha=0.3), 8.0)
        with pytest.raises(OverflowError, match=r"E_\{1\}\(800\)"):
            mittag_leffler(MLParams(alpha=1.0), 800.0)
        # the pole 1202.5**100 ~ 1.1e308 is a double, but twice it is not:
        # this once ended in a NaN node count and a ValueError
        with pytest.raises(OverflowError, match=r"E_\{0\.01\}\(1202\.5\)"):
            mittag_leffler(MLParams(alpha=0.01), 1202.5)
        # the pole 1300**100 is past the double range itself
        with pytest.raises(OverflowError, match=r"E_\{0\.01\}\(1300\)"):
            mittag_leffler(MLParams(alpha=0.01), 1300.0)

    def test_slowly_decaying_series_point(self):
        # the power series of E_alpha(1) has a long, slowly decaying tail
        for alpha in (0.01, 0.1):
            params = MLParams(alpha=alpha)
            ref = ml_oracle(alpha, 1.0, 1.0)
            got = mittag_leffler(params, 1.0)
            assert abs(got - ref) <= params.tol * abs(ref)

    @pytest.mark.parametrize("z", [1e-300, -1e-300, 1e-40, -1e-40])
    def test_tiny_argument(self, z):
        # the pole z**(1/alpha) underflows onto the origin
        for alpha in (0.01, 0.3, 0.7):
            got = mittag_leffler(MLParams(alpha=alpha), z)
            assert got == pytest.approx(1.0, rel=1e-12)


def cached_functions():
    return (specfun._nodes, specfun._unbounded_rule)


def clear_caches():
    for cached in cached_functions():
        cached.cache_clear()


class TestNodeReuse:
    """The z-free contour factors are kept per (order, rule): a value read
    from kept factors has the bits of one computed afresh."""

    def test_cold_warm_and_interleaved_bits_agree(self):
        rng = np.random.default_rng(19)
        alphas = [0.01, 0.5, 0.75] + rng.uniform(0.01, 1.0, 20).tolist()
        negative = [-50.0, -1e-300] + rng.uniform(-50.0, 0.0, 10).tolist()
        # E_0.01(z) overflows from z = 1.08 on
        positive = [1e-300, 0.5] + rng.uniform(0.0, 1.0, 4).tolist()
        cold, warm, interleaved = {}, {}, {}
        for alpha in alphas:
            for tol in (1e-12, 1e-6, 0.5):
                params = MLParams(alpha, tol)
                for z in negative + positive:
                    clear_caches()
                    cold[alpha, tol, z] = mittag_leffler(params, z).hex()
                for z in negative + positive:
                    mittag_leffler(params, z)
                    warm[alpha, tol, z] = mittag_leffler(params, z).hex()
                # each positive z, on its own rule, falls between two
                # negative ones, and another order evaluates on the same
                # rules in between
                other = MLParams(1.01 - alpha, tol)
                for z_neg, z_pos in zip(negative, positive * 2):
                    for z in (z_neg, z_pos):
                        interleaved[alpha, tol, z] = \
                            mittag_leffler(params, z).hex()
                        mittag_leffler(other, z)
        assert len(cold) > 1000
        assert warm == cold
        assert interleaved == cold

    def test_cache_stays_bounded(self):
        clear_caches()
        for alpha in np.linspace(0.02, 0.98, 100):
            params = MLParams(float(alpha))
            mittag_leffler(params, -1.0)
            mittag_leffler(params, 0.5)
        for cached in cached_functions():
            info = cached.cache_info()
            assert info.maxsize is not None
            assert info.currsize <= info.maxsize

    def test_kept_factors_are_read_only(self):
        mu, h, n = specfun._unbounded_rule(0.0, math.log(1e-15))
        for factor in specfun._nodes(0.5, mu, h, n):
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0] = 0.0
