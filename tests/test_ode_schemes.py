import math
import warnings

import numpy as np
import pytest

from spectralfd.ode_schemes import (
    DecayScheme,
    SchemeFamily,
    Trajectory,
    decay_solve,
    ho_exact_states,
    ho_initial_from_velocity,
    order_estimate,
)

from oracles import decay_scalar_states, ho_indexed_states


def scheme(family, rate=1.0, step=0.1):
    return DecayScheme(family=family, rate=rate, step=step)


def one_step(scheme, x):
    """x_1 of a one-step march from x."""
    return decay_solve(scheme, x, 1).states[1]


def ho_trajectory(omega, h, n_steps, y0, y1):
    """The oscillator's states 0..n_steps."""
    return ho_exact_states(omega, h, y0, y1, range(n_steps + 1))


class TestDecayStep:
    def test_forward_euler(self):
        assert one_step(scheme(SchemeFamily.FORWARD_EULER), 1.0) == 0.9

    def test_backward_euler(self):
        assert one_step(scheme(SchemeFamily.BACKWARD_EULER), 1.0) == \
            pytest.approx(1.0 / 1.1, rel=1e-15)

    def test_mickens_exact(self):
        # closed form of the decay equation at one step
        assert one_step(scheme(SchemeFamily.MICKENS_EXACT), 1.0) == \
            pytest.approx(math.exp(-0.1), rel=1e-15)

    def test_quotient_and_multiplicative_forms_agree(self):
        for rate in (0.5, 1.0, 2.0):
            for h in (0.1, 0.5, 1.0, 2.0):
                mick = one_step(scheme(SchemeFamily.MICKENS_EXACT, rate, h), 1.0)
                spec = one_step(scheme(SchemeFamily.SPECTRAL_EXACT, rate, h), 1.0)
                assert mick == pytest.approx(spec, rel=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DecayScheme(SchemeFamily.FORWARD_EULER, rate=0.0, step=0.1)
        with pytest.raises(ValueError):
            DecayScheme(SchemeFamily.FORWARD_EULER, rate=1.0, step=-0.1)


class TestDecaySolve:
    def test_spectral_exact_trajectory(self):
        traj = decay_solve(scheme(SchemeFamily.SPECTRAL_EXACT, 1.0, 0.5), 1.0, 20)
        for t, x in zip(traj.times, traj.states):
            assert x == pytest.approx(math.exp(-t), rel=1e-13)
        assert traj.states[-1] == pytest.approx(math.exp(-10.0), rel=1e-13)

    def test_forward_euler_sign_flip(self):
        traj = decay_solve(scheme(SchemeFamily.FORWARD_EULER, 1.0, 2.0), 1.0, 1)
        assert traj.states[-1] == -1.0

    def test_backward_euler_stays_positive(self):
        traj = decay_solve(scheme(SchemeFamily.BACKWARD_EULER, 1.0, 2.0), 1.0, 1)
        assert traj.states[-1] == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_exact_schemes_identical_trajectories(self):
        for rate in (0.5, 1.0, 2.0):
            for h in (0.1, 0.5, 1.0, 2.0):
                mick = decay_solve(scheme(SchemeFamily.MICKENS_EXACT, rate, h),
                                   1.0, 20)
                spec = decay_solve(scheme(SchemeFamily.SPECTRAL_EXACT, rate, h),
                                   1.0, 20)
                np.testing.assert_allclose(mick.states, spec.states, rtol=1e-14)

    def test_positivity(self):
        for rate in (0.5, 1.0, 2.0):
            for h in (0.1, 0.5, 1.0, 2.0, 5.0):
                for family in (SchemeFamily.BACKWARD_EULER,
                               SchemeFamily.MICKENS_EXACT):
                    traj = decay_solve(scheme(family, rate, h), 1.0, 30)
                    assert np.all(traj.states > 0.0)
                fe = decay_solve(scheme(SchemeFamily.FORWARD_EULER, rate, h),
                                 1.0, 30)
                if rate * h < 1.0:
                    assert np.all(fe.states > 0.0)
                else:
                    assert not np.all(fe.states > 0.0)

    def test_monotone_decay_exact_schemes(self):
        for family in (SchemeFamily.MICKENS_EXACT, SchemeFamily.SPECTRAL_EXACT):
            traj = decay_solve(scheme(family, 1.3, 0.7), 2.5, 40)
            assert np.all(np.diff(traj.states) < 0.0)

    def test_step_count_validation(self):
        with pytest.raises(ValueError):
            decay_solve(scheme(SchemeFamily.FORWARD_EULER), 1.0, 0)


class TestTrajectory:
    @pytest.mark.parametrize("family", list(SchemeFamily))
    def test_decay_solve_times(self, family):
        for step, n_steps in ((0.1, 1), (0.37, 20), (1e-5, 10**5)):
            traj = decay_solve(scheme(family, 1.0, step), 1.0, n_steps)
            assert traj.step == step
            assert traj.times.tobytes() == \
                (np.arange(n_steps + 1) * step).tobytes()

    def test_states_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            Trajectory(step=0.1, states=np.zeros((2, 3)))


class TestHarmonicOscillator:
    def test_cosine_reproduction(self):
        y = ho_trajectory(1.0, 0.7, 100, 1.0, math.cos(0.7))
        expected = np.cos(0.7 * np.arange(101))
        assert np.max(np.abs(y - expected)) <= 1e-12

    def test_long_run_roundoff_budget(self):
        y = ho_trajectory(1.0, 0.7, 10**4, 1.0, math.cos(0.7))
        expected = np.cos(0.7 * np.arange(10**4 + 1))
        assert np.max(np.abs(y - expected)) <= 1e-9

    def test_quarter_period_cycle(self):
        y = ho_trajectory(1.0, math.pi / 2.0, 40, 1.0,
                          math.cos(math.pi / 2.0))
        pattern = np.array([1.0, 0.0, -1.0, 0.0])
        expected = pattern[np.arange(41) % 4]
        assert np.max(np.abs(y - expected)) <= 1e-12

    def test_small_frequency_limit_is_linear(self):
        # 2 cos(omega h) -> 2: second difference vanishes, states go linear
        y = ho_trajectory(1e-8, 1.0, 100, 1.0, 2.0)
        expected = 1.0 + np.arange(101)
        assert np.max(np.abs(y - expected) / expected) <= 1e-6

    def test_amplitude_invariant(self):
        omega, h = 1.0, 0.7
        y = ho_trajectory(omega, h, 10**4, 1.0, math.cos(omega * h))
        s = 2.0 * math.sin(omega * h)
        invariant = y[1:-1] ** 2 + ((y[2:] - y[:-2]) / s) ** 2
        assert np.max(np.abs(invariant - invariant[0])) <= 1e-9

    def test_velocity_initialization(self):
        omega, h = 2.0, 0.3
        y1 = ho_initial_from_velocity(omega, h, 1.0, 0.0)
        assert y1 == pytest.approx(math.cos(omega * h), rel=1e-15)
        # pure sine from (y0, v0) = (0, omega)
        y1 = ho_initial_from_velocity(omega, h, 0.0, omega)
        assert y1 == pytest.approx(math.sin(omega * h), rel=1e-15)

    def test_step_domain_error(self):
        with pytest.raises(ValueError):
            ho_exact_states(1.0, 2.0 * math.pi, 1.0, 1.0, range(11))

    @pytest.mark.parametrize("omega, h, message", [
        (0.0, 0.1, "frequency must be positive"),
        (1.0, 0.0, "step must be positive"),
    ])
    def test_nonpositive_frequency_or_step(self, omega, h, message):
        with pytest.raises(ValueError, match=message):
            ho_exact_states(omega, h, 1.0, 1.0, range(11))

    @pytest.mark.parametrize("indices", [[-1], [0, 2, 2], [5, 3]])
    def test_indices_must_increase_from_zero(self, indices):
        with pytest.raises(ValueError, match="increase strictly"):
            ho_exact_states(1.0, 0.1, 1.0, 1.0, indices)

    def test_start_and_no_indices(self):
        assert ho_exact_states(1.0, 0.1, 3, 0.5, [0, 1]).tolist() == [3.0, 0.5]
        empty = ho_exact_states(1.0, 0.1, 1.0, 1.0, [])
        assert empty.dtype == np.float64 and empty.shape == (0,)


def silent(march, *args):
    """Run a march with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return march(*args)


class TestMarchesMatchScalarLoops:
    """The vectorised marches are byte-equal to the plain scalar loops."""

    @pytest.mark.parametrize("family", list(SchemeFamily))
    def test_decay_solve(self, family):
        reached_inf = reached_zero = False
        for rate, step in [(1.0, 0.1), (0.7, 0.37), (2.5, 0.8), (1e-3, 1e-4),
                           (1.0, 1.0),    # forward Euler factor 0
                           (30.0, 0.1),   # forward Euler factor -2: to inf
                           (50.0, 1.0)]:  # underflows to 0
            for x0 in (1.0, -2.5, 0.0, 1e300, 3):
                for n_steps in (1, 3, 1100):
                    s = scheme(family, rate, step)
                    expected = decay_scalar_states(s, x0, n_steps)
                    traj = silent(decay_solve, s, x0, n_steps)
                    assert traj.states.dtype == np.float64
                    assert traj.states.tobytes() == expected.tobytes()
                    one = silent(one_step, s, x0)
                    assert np.float64(one).tobytes() == expected[1].tobytes()
                    reached_inf |= bool(np.isinf(expected).any())
                    reached_zero |= x0 != 0.0 and expected[-1] == 0.0
        if family is SchemeFamily.FORWARD_EULER:
            assert reached_inf
        assert reached_zero
        s = scheme(family, 1.0, 1e-5)
        assert (silent(decay_solve, s, 1.0, 10**5).states.tobytes()
                == decay_scalar_states(s, 1.0, 10**5).tobytes())

    @pytest.mark.parametrize("omega, h", [
        (1.0, 0.7), (1.0, 1e-3), (3.0, 2.0), (1e-8, 1.0),
        (1.0, math.nextafter(2.0 * math.pi, 0.0)),  # omega*h/2 just under pi
    ])
    def test_ho_exact_states(self, omega, h):
        starts = [(1.0, math.cos(omega * h)), (-2.0, 0.5), (0.0, 0.0),
                  (0.0, 1e-300), (1e308, -1e308)]  # the last overflows
        for i, (y0, y1) in enumerate(starts):
            for n_steps in (2, 3, 1000) + ((10**5,) if i == 0 else ()):
                expected = ho_indexed_states(omega, h, n_steps, y0, y1)
                y = silent(ho_trajectory, omega, h, n_steps, y0, y1)
                assert y.dtype == np.float64
                assert y.tobytes() == expected.tobytes()

    def test_ho_exact_states_at_sparse_indices(self):
        # seeded index sets: the start, the last index alone, every index,
        # and random sorted subsets, whose gaps run odd and even
        rng = np.random.default_rng(2025)
        gaps = set()
        for case in range(60):
            omega = 10.0 ** rng.uniform(-2.0, 2.0)
            h = rng.uniform(1e-3, 0.999) * 2.0 * math.pi / omega
            y0, y1 = ((1e308, -1e308) if case % 6 == 0
                      else tuple(rng.uniform(-10.0, 10.0, size=2)))
            n_steps = int(rng.choice([2, 3, 7, 50, 1001, 4000]))
            full = ho_indexed_states(omega, h, n_steps, y0, y1)
            picked = np.flatnonzero(rng.random(n_steps + 1)
                                    < rng.uniform(0.005, 0.5)).tolist()
            for indices in ([0], [0, 1], [1], [n_steps], picked,
                            list(range(n_steps + 1))):
                y = silent(ho_exact_states, omega, h, y0, y1, indices)
                assert y.tobytes() == full[indices].tobytes()
            gaps.update(b - a for a, b in zip(picked, picked[1:]))
        assert any(g % 2 for g in gaps) and any(g % 2 == 0 for g in gaps)

    def test_ho_exact_states_through_overflow(self):
        # the march reaches inf, and the nan that inf - inf gives next, as
        # the indexed loop does, for the whole 10**5 steps
        expected = ho_indexed_states(1.0, 0.7, 10**5, 1e308, -1e308)
        assert np.isinf(expected[2]) and np.isnan(expected[-1])
        y = silent(ho_trajectory, 1.0, 0.7, 10**5, 1e308, -1e308)
        assert y.tobytes() == expected.tobytes()


class TestOrderEstimate:
    def test_first_order_schemes(self):
        levels = 6
        for family in (SchemeFamily.FORWARD_EULER, SchemeFamily.BACKWARD_EULER):
            rows = order_estimate(family, 1.0, 1.0, 1.0, 1.0 / 8.0, levels)
            ps = [row.observed_p for row in rows if row.observed_p is not None]
            assert len(ps) == levels - 1
            for p in ps:
                assert p == pytest.approx(1.0, abs=0.1)

    def test_exact_scheme_reported_exact(self):
        rows = order_estimate(SchemeFamily.MICKENS_EXACT, 1.0, 1.0, 1.0,
                              1.0 / 8.0, 6)
        for row in rows:
            assert row.exact
            assert row.observed_p is None
            assert row.error <= 1e-13

    def test_blowup_is_data(self):
        # rate 1e4: forward Euler's error grows level by level to inf at
        # h = 2**-8, where log2(finite / inf) was a math domain error
        rows = order_estimate(SchemeFamily.FORWARD_EULER, 1e4, 1.0, 1.0,
                              0.125, 6)
        errors = [row.error for row in rows]
        assert math.isfinite(errors[-2]) and errors[-1] == math.inf
        for row, finer in zip(rows, errors[1:] + [math.nan]):
            if math.isfinite(row.error) and math.isfinite(finer):
                assert row.observed_p == math.log2(row.error / finer)
            else:
                assert row.observed_p is None

    def test_mickens_past_the_range_of_exp_damps_to_zero(self):
        # rate * h = 1250 > 709: the quotient's exp(rate*h) is inf, and
        # phi_nsfd's OverflowError aborted the march
        traj = decay_solve(scheme(SchemeFamily.MICKENS_EXACT, 1e4, 0.125),
                           1.0, 8)
        assert traj.states.tolist() == [1.0] + [0.0] * 8
        rows = order_estimate(SchemeFamily.MICKENS_EXACT, 1e4, 1.0, 1.0,
                              0.125, 6)
        assert all(row.exact and row.error == 0.0 for row in rows)

    def test_requires_four_levels(self):
        with pytest.raises(ValueError):
            order_estimate(SchemeFamily.FORWARD_EULER, 1.0, 1.0, 1.0,
                           0.125, 3)

    def test_requires_divisible_step(self):
        with pytest.raises(ValueError):
            order_estimate(SchemeFamily.FORWARD_EULER, 1.0, 1.0, 1.0,
                           0.3, 4)
