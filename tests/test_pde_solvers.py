import math
import sys
import warnings

import numpy as np
import pytest

from spectralfd.denominators import (
    phi_nsfd,
    phi_spectral,
    psi2_nsfd,
    psi2_spectral,
)
from spectralfd.ode_schemes import SchemeFamily, decay_solve
from spectralfd.pde_solvers import (
    _CHECK_POINTS,
    Dirichlet,
    EulerStd,
    FieldTrajectory,
    Grid1D,
    Nsfd,
    PDEProblem,
    Periodic,
    SpectralModal,
    SpectralPhys,
    amplification_factor,
    default_spectral_params,
    evolve,
    evolve_modal,
    grid_wavenumbers,
    laplace_mode_solve,
    step,
)

from oracles import (
    bisect,
    dense_step_matrix,
    exp_product_oracle,
    fourier_symbol_frames,
    modal_frames,
    naive_dft,
    sine_mode_laplace,
)


def periodic_grid(m=64, length=2.0 * math.pi):
    return Grid1D(x0=0.0, dx=length / m, m_points=m, boundary=Periodic())


def dirichlet_grid(m=33, length=math.pi):
    return Grid1D(x0=0.0, dx=length / (m - 1), m_points=m,
                  boundary=Dirichlet(0.0, 0.0))


def explicit_kinds(dt, a, b, dx):
    """Each explicit kind with its (phi, psi2) pair, written out from the
    denominator functions (a > 0)."""
    k, s = 1.0, b + a + 0.5
    return [
        (EulerStd(dt=dt), dt, dx * dx),
        (Nsfd(dt=dt), phi_nsfd(dt, b), psi2_nsfd(dx, b / a)),
        (SpectralPhys(dt=dt, k=k, s=s), phi_spectral(dt, a, b, k),
         psi2_spectral(dx, a, b, s)),
    ]


def assert_frames_close(frames, expected, rtol):
    assert frames.shape == expected.shape
    for frame, exact in zip(frames, expected):
        assert np.max(np.abs(frame - exact)) <= rtol * np.max(np.abs(exact))


class TestGridAndProblem:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid1D(x0=0.0, dx=0.0, m_points=8, boundary=Periodic())
        with pytest.raises(ValueError):
            Grid1D(x0=0.0, dx=0.1, m_points=2, boundary=Periodic())
        # 64 intervals of 1e307 reach 6.4e308, past the double range, where
        # every wavenumber 2 pi n / L would read 0
        for boundary, m in ((Periodic(), 64), (Dirichlet(0.0, 0.0), 65)):
            with pytest.raises(ValueError, match="grid length must be finite"):
                Grid1D(x0=0.0, dx=1e307, m_points=m, boundary=boundary)
            grid = Grid1D(x0=0.0, dx=2.5e306, m_points=m, boundary=boundary)
            assert math.isfinite(grid.length)

    def test_periodic_length_counts_wrap_point(self):
        grid = periodic_grid(m=64)
        assert grid.length == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert len(grid.points) == 64

    def test_dirichlet_length_ends_at_the_last_point(self):
        grid = Grid1D(x0=0.0, dx=0.25, m_points=9,
                      boundary=Dirichlet(0.0, 0.0))
        assert grid.length == 2.0
        assert grid.points[-1] == grid.x0 + grid.length

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            PDEProblem(a=-1.0, b=0.0, initial_condition=np.zeros(8))
        with pytest.raises(ValueError):
            PDEProblem(a=1.0, b=0.0, initial_condition=np.array([1.0, np.inf]))
        with pytest.raises(ValueError, match="1-D sample array"):
            PDEProblem(a=1.0, b=0.0, initial_condition=np.zeros((2, 8)))
        problem = PDEProblem(a=1.0, b=0.0, initial_condition=np.zeros(8))
        with pytest.raises(ValueError):
            problem.check_grid(periodic_grid(m=16))


class TestStepEuler:
    def test_zero_frame(self):
        grid = periodic_grid(m=16)
        problem = PDEProblem(a=1.0, b=2.0, initial_condition=np.zeros(16))
        stepped = step(problem, grid, EulerStd(dt=0.1), np.zeros(16))
        assert np.all(stepped == 0.0)

    def test_identity_when_trivial(self):
        grid = periodic_grid(m=16)
        problem = PDEProblem(a=0.0, b=0.0, initial_condition=np.zeros(16))
        frame = np.sin(grid.points)
        np.testing.assert_array_equal(
            step(problem, grid, EulerStd(dt=0.1), frame), frame)

    def test_single_mode_amplification_matches_matrix(self):
        m = 64
        grid = periodic_grid(m=m)
        problem = PDEProblem(a=1.0, b=0.0,
                             initial_condition=np.sin(grid.points))
        dt = 0.001
        frame = np.sin(grid.points)
        stepped = step(problem, grid, EulerStd(dt=dt), frame)
        g = 1.0 + dt * (0.0 - (4.0 / grid.dx**2)
                        * math.sin(1.0 * grid.dx / 2.0) ** 2)
        np.testing.assert_allclose(stepped, g * frame, rtol=1e-12, atol=1e-15)
        matrix = dense_step_matrix(m, grid.dx, dt, 1.0, 0.0, periodic=True)
        np.testing.assert_allclose(stepped, matrix @ frame, rtol=1e-12,
                                   atol=1e-15)

    def test_dirichlet_rows_pinned(self):
        grid = Grid1D(x0=0.0, dx=0.1, m_points=11,
                      boundary=Dirichlet(2.0, -1.0))
        problem = PDEProblem(a=1.0, b=0.0, initial_condition=np.zeros(11))
        stepped = step(problem, grid, EulerStd(dt=0.001), np.zeros(11))
        assert stepped[0] == 2.0 and stepped[-1] == -1.0


class TestStepNsfd:
    def test_constant_frame_exact_growth(self):
        grid = periodic_grid(m=32)
        problem = PDEProblem(a=1.0, b=0.7,
                             initial_condition=np.full(32, 3.0))
        for dt in (0.1, 1.0, 5.0):
            stepped = step(problem, grid, Nsfd(dt=dt), np.full(32, 3.0))
            expected = 3.0 * math.exp(0.7 * dt)
            np.testing.assert_allclose(stepped, expected, rtol=1e-12)

    def test_steady_mode_preserved(self):
        for m in (17, 33):
            grid = dirichlet_grid(m=m)
            frame = np.sin(grid.points)
            problem = PDEProblem(a=1.0, b=1.0, initial_condition=frame)
            for dt in (0.1, 1.0, 2.0):
                stepped = step(problem, grid, Nsfd(dt=dt), frame)
                assert np.max(np.abs(stepped - frame)) <= 1e-12

    def test_steady_mode_large_step_roundoff(self):
        # phi(5, 1) ~ 147 amplifies second-difference roundoff; the mode is
        # preserved to the correspondingly looser floor
        grid = dirichlet_grid(m=33)
        frame = np.sin(grid.points)
        problem = PDEProblem(a=1.0, b=1.0, initial_condition=frame)
        stepped = step(problem, grid, Nsfd(dt=5.0), frame)
        assert np.max(np.abs(stepped - frame)) <= 2e-11

    def test_zero_frame(self):
        grid = periodic_grid(m=16)
        problem = PDEProblem(a=1.0, b=1.0, initial_condition=np.zeros(16))
        assert np.all(step(problem, grid, Nsfd(dt=0.5), np.zeros(16)) == 0.0)

    def test_diffusionless_reduction(self):
        grid = periodic_grid(m=16)
        problem = PDEProblem(a=0.0, b=2.0, initial_condition=np.zeros(16))
        frame = np.cos(grid.points)
        stepped = step(problem, grid, Nsfd(dt=0.3), frame)
        np.testing.assert_allclose(stepped, frame * math.exp(2.0 * 0.3),
                                   rtol=1e-14)


class TestDiffusionlessNsfdFactor:
    """At a = 0 nsfd is the exact reaction step: ``step``'s contract puts
    its factor c0 within (1 + |b dt|) eps of exp(b dt), relative while it is
    a normal double, and absolute at the smallest normal below that."""

    def test_factor_matches_the_exponential_oracle(self):
        eps, tiny = 2.0**-52, sys.float_info.min
        grid = Grid1D(x0=0.0, dx=1.0, m_points=3, boundary=Periodic())
        rng = np.random.default_rng(43)
        # b dt from 709 down past the subnormal range, both sides of phi's
        # Taylor switch at |b dt| = 1e-6, and the cancelling range below -1
        cases = [(1.0, 709.0), (1.0, -1e-7), (1.0, 1e-7), (1.0, -37.0),
                 (1.0, -708.0), (1.0, -745.0), (0.5, -1490.0)]
        for w in np.concatenate([rng.uniform(-746.0, 709.0, 1500),
                                 -(10.0 ** rng.uniform(-9, 1, 500))]):
            dt = 10.0 ** rng.uniform(-6, 3)
            cases.append((dt, w / dt))
        regimes = set()
        for dt, b in cases:
            w = abs(b * dt)
            if b * dt > 709.0:
                continue
            problem = PDEProblem(a=0.0, b=b, initial_condition=np.ones(3))
            factor = step(problem, grid, Nsfd(dt=dt), np.ones(3))
            ref = exp_product_oracle(dt, b)
            regimes.add(ref >= tiny)
            bound = (1.0 + w) * eps * max(ref, tiny)
            assert np.all(np.abs(factor - ref) <= bound), (dt, b)
        assert regimes == {True, False}


class TestStepSpectral:
    def test_reduces_to_nsfd_at_zero_modes(self):
        rng = np.random.RandomState(7)
        grid = periodic_grid(m=32)
        frame = rng.standard_normal(32)
        problem = PDEProblem(a=1.0, b=0.8, initial_condition=frame)
        nsfd = step(problem, grid, Nsfd(dt=0.4), frame)
        spectral = step(problem, grid, SpectralPhys(dt=0.4, k=0.0, s=0.0),
                        frame)
        np.testing.assert_allclose(spectral, nsfd, rtol=1e-14, atol=1e-16)

    def test_zero_frame(self):
        grid = periodic_grid(m=16)
        problem = PDEProblem(a=1.0, b=1.0, initial_condition=np.zeros(16))
        stepped = step(problem, grid, SpectralPhys(dt=0.5, k=1.0, s=2.0),
                       np.zeros(16))
        assert np.all(stepped == 0.0)

    def test_mode_whose_rate_overflows_keeps_the_frame(self):
        # a k^2 = inf: phi = expm1(-inf)/(-inf) = 0, so the weights are
        # (1 + phi b, 0) = (1, 0), not the exp(g dt) + phi a k^2 = 0 that
        # the cancellation-free form would give
        grid = periodic_grid(m=16)
        frame = np.cos(grid.points)
        problem = PDEProblem(a=1.0, b=0.5, initial_condition=frame)
        stepped = step(problem, grid, SpectralPhys(dt=0.1, k=1e200, s=2.0),
                       frame)
        assert np.array_equal(stepped, frame)

    def test_matched_mode_exact_amplification(self):
        # choose s so the discrete spatial eigenvalue equals k0^2 exactly
        m, k0 = 64, 2.0
        grid = periodic_grid(m=m)
        a, b, dt = 1.0, 0.5, 0.8
        target = 4.0 * math.sin(k0 * grid.dx / 2.0) ** 2 / k0**2

        def mismatch(s):
            return psi2_spectral(grid.dx, a, b, s) - target

        s_star = bisect(mismatch, b - 0.9 * a * (math.pi / grid.dx) ** 2,
                        b + 1e6)
        frame = np.sin(k0 * grid.points)
        problem = PDEProblem(a=a, b=b, initial_condition=frame)
        stepped = step(problem, grid, SpectralPhys(dt=dt, k=k0, s=s_star),
                       frame)
        expected = math.exp((b - a * k0**2) * dt) * frame
        assert np.max(np.abs(stepped - expected)) <= 1e-10

    def test_linearity(self):
        rng = np.random.RandomState(11)
        grid = periodic_grid(m=24)
        u = rng.standard_normal(24)
        v = rng.standard_normal(24)
        alpha, beta = 1.7, -0.6
        for a, b in ((1.0, 0.5), (0.3, -1.0)):
            problem = PDEProblem(a=a, b=b, initial_condition=u)
            for kind in (EulerStd(dt=0.2), Nsfd(dt=0.2),
                         SpectralPhys(dt=0.2, k=1.0, s=b + a)):
                combined = step(problem, grid, kind, alpha * u + beta * v)
                separate = (alpha * step(problem, grid, kind, u)
                            + beta * step(problem, grid, kind, v))
                np.testing.assert_allclose(combined, separate, rtol=1e-12,
                                           atol=1e-12)


class TestEvolveModal:
    def test_single_mode_exact_any_step(self):
        grid = periodic_grid(m=64)
        x = grid.points
        problem = PDEProblem(a=1.0, b=1.0, initial_condition=np.sin(2.0 * x))
        for dt in (0.01, 0.1, 1.0):
            n = round(2.0 / dt)
            traj = evolve_modal(problem, grid, dt, n)
            exact = math.exp((1.0 - 4.0) * 2.0) * np.sin(2.0 * x)
            err = np.max(np.abs(traj.frames[-1] - exact)) / np.max(np.abs(exact))
            assert err <= 1e-10

    def test_superposition(self):
        grid = periodic_grid(m=64)
        x = grid.points
        ic = np.sin(x) + 0.25 * np.sin(3.0 * x)
        problem = PDEProblem(a=1.0, b=0.0, initial_condition=ic)
        traj = evolve_modal(problem, grid, 0.5, 4)
        t = 2.0
        exact = (math.exp(-t) * np.sin(x)
                 + 0.25 * math.exp(-9.0 * t) * np.sin(3.0 * x))
        err = np.max(np.abs(traj.frames[-1] - exact)) / np.max(np.abs(exact))
        assert err <= 1e-10

    def test_constant_mode_growth(self):
        grid = periodic_grid(m=16)
        problem = PDEProblem(a=1.0, b=0.4,
                             initial_condition=np.full(16, 2.0))
        traj = evolve_modal(problem, grid, 0.7, 3)
        expected = 2.0 * math.exp(0.4 * 0.7 * 3)
        np.testing.assert_allclose(traj.frames[-1], expected, rtol=1e-12)

    @pytest.mark.parametrize("m", [3, 4, 5, 32, 33])
    def test_matches_per_mode_oracle(self, m):
        # odd and even M; even M carries a Nyquist bin
        rng = np.random.RandomState(m)
        length = 2.0 * math.pi
        grid = periodic_grid(m=m, length=length)
        ic = rng.standard_normal(m)
        problem = PDEProblem(a=0.3, b=0.2, initial_condition=ic)
        traj = evolve_modal(problem, grid, 0.25, 6)
        expected = modal_frames(ic, length, 0.3, 0.2, traj.times)
        for frame, exact in zip(traj.frames, expected):
            err = np.max(np.abs(frame - exact)) / np.max(np.abs(exact))
            assert err <= 1e-12
        assert np.array_equal(traj.frames[0], ic)

    def test_requires_periodic(self):
        grid = dirichlet_grid(m=17)
        problem = PDEProblem(a=1.0, b=0.0,
                             initial_condition=np.zeros(17))
        with pytest.raises(ValueError):
            evolve_modal(problem, grid, 0.1, 2)

    def test_requires_a_step(self):
        grid = periodic_grid(m=16)
        problem = PDEProblem(a=1.0, b=0.0, initial_condition=np.zeros(16))
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            evolve_modal(problem, grid, 0.1, 0)

    def test_ends_at_the_last_finite_frame(self):
        # the constant mode's e^{b t} leaves the double range after frame
        # 28 (50 t > 709.78 from t = 14.5): the frames kept are the uncut
        # transform's, bit for bit, and nothing warns
        m, dt, n_steps = 64, 0.5, 40
        grid = periodic_grid(m=m)
        ic = np.sin(10.0 * grid.points)
        problem = PDEProblem(a=1.0, b=50.0, initial_condition=ic)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve_modal(problem, grid, dt, n_steps)
        growth = 50.0 - grid_wavenumbers(grid) ** 2
        times = np.arange(n_steps + 1) * dt
        with np.errstate(over="ignore", invalid="ignore"):
            uncut = np.fft.irfft(np.fft.rfft(ic)
                                 * np.exp(np.outer(times, growth)), n=m)
        uncut[0] = ic
        kept = len(traj.frames)
        assert kept == 29
        assert traj.frames.tobytes() == uncut[:kept].tobytes()
        assert not np.isfinite(uncut[kept]).all()
        assert traj.frames.base is None  # a copy: the tail is freed

    @pytest.mark.parametrize("m, n_steps", [(64, 2000), (63, 500),
                                            (1024, 300), (4097, 3)])
    def test_blocks_match_one_batched_transform(self, m, n_steps):
        # the frames are formed in blocks of rows; every row has the bits
        # of one transform of the whole (n_steps + 1, m) batch
        grid = periodic_grid(m=m)
        x = grid.points
        ic = np.sin(x) + 0.3 * np.cos(3.0 * x)
        problem = PDEProblem(a=1.0, b=-0.25, initial_condition=ic)
        dt = 0.01
        traj = evolve_modal(problem, grid, dt, n_steps)
        growth = -0.25 - grid_wavenumbers(grid) ** 2
        times = np.arange(n_steps + 1) * dt
        batch = np.fft.irfft(np.fft.rfft(ic) * np.exp(np.outer(times, growth)),
                             n=m)
        batch[0] = ic
        assert traj.frames.tobytes() == batch.tobytes()

    def test_no_block_after_the_blowup(self, monkeypatch):
        # exp(5 t) leaves the double range from t = 142 (frame 284), which
        # lies in the fifth block of 64 rows: no later block of the 1001
        # frames (16 blocks in all) is transformed
        grid = periodic_grid(m=64)
        problem = PDEProblem(a=1.0, b=5.0,
                             initial_condition=np.sin(10.0 * grid.points))
        calls = []
        irfft = np.fft.irfft

        def counted(*args, **kwargs):
            calls.append(1)
            return irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counted)
        traj = evolve_modal(problem, grid, 0.5, 1000)
        assert len(traj.frames) == 284
        assert len(calls) == 5

    def test_single_mode_exact_at_large_grid(self):
        m = 16384
        grid = periodic_grid(m=m)
        x = grid.points
        problem = PDEProblem(a=0.1, b=0.5, initial_condition=np.sin(3.0 * x))
        traj = evolve_modal(problem, grid, 0.7, 3)
        exact = math.exp((0.5 - 0.9) * 2.1) * np.sin(3.0 * x)
        err = np.max(np.abs(traj.frames[-1] - exact)) / np.max(np.abs(exact))
        assert err <= 1e-10


class TestDecayCrossCheck:
    """At a = 0 each explicit pde kind is a decay scheme at rate -b, at
    every grid point: the two halves of the thesis meet.  On a 3-point
    periodic grid EulerStd marches forward Euler's states and Nsfd the
    exact exp(-rate h) scheme's, bit for bit."""

    @pytest.mark.parametrize("b, h", [(-0.5, 0.1), (-3.0, 0.25),
                                      (-40.0, 0.5), (-1e-3, 2.0),
                                      (-1e3, 1e-3), (-7.3, 0.27)])
    def test_states_bit_equal(self, b, h):
        grid = Grid1D(x0=0.0, dx=1.0, m_points=3, boundary=Periodic())
        u0 = np.array([1.0, -0.3, 2.5])
        problem = PDEProblem(a=0.0, b=b, initial_condition=u0)
        n_steps = 60
        pairs = [(EulerStd(dt=h), SchemeFamily.FORWARD_EULER),
                 (Nsfd(dt=h), SchemeFamily.SPECTRAL_EXACT)]
        for kind, family in pairs:
            frames = evolve(problem, grid, kind, n_steps).frames
            for j, x0 in enumerate(u0):
                states = decay_solve(family, -b, h, x0, n_steps).states
                assert frames[:, j].tobytes() == states.tobytes(), kind


class TestEvolve:
    def test_blowup_truncates_on_nonfinite(self):
        grid = periodic_grid(m=32)
        problem = PDEProblem(a=1.0, b=0.0,
                             initial_condition=np.sin(grid.points))
        traj = evolve(problem, grid, EulerStd(dt=1.0), 2000)
        assert len(traj.times) < 2001
        assert np.all(np.isfinite(traj.frames))

    def test_diffusionless_spectral_matches_nsfd(self):
        # with a = 0 both kinds reduce to the exact reaction step, whatever
        # (k, s) the spectral kind carries
        grid = periodic_grid(m=16)
        frame = np.cos(grid.points)
        problem = PDEProblem(a=0.0, b=1.3, initial_condition=frame)
        nsfd = evolve(problem, grid, Nsfd(dt=0.25), 8)
        spectral = evolve(problem, grid, SpectralPhys(dt=0.25, k=2.0, s=5.0),
                          8)
        assert np.array_equal(spectral.frames, nsfd.frames)
        np.testing.assert_allclose(nsfd.frames[-1],
                                   frame * math.exp(1.3 * 2.0), rtol=1e-13)

    def test_step_rejects_modal_kind(self):
        grid = periodic_grid(m=16)
        problem = PDEProblem(a=1.0, b=0.0, initial_condition=np.zeros(16))
        with pytest.raises(TypeError):
            step(problem, grid, SpectralModal(dt=0.1), np.zeros(16))

    def test_step_rejects_wrong_length_frame(self):
        grid = periodic_grid(m=16)
        problem = PDEProblem(a=1.0, b=0.0, initial_condition=np.zeros(16))
        with pytest.raises(ValueError, match="does not match grid"):
            step(problem, grid, EulerStd(dt=0.1), np.zeros(15))

    def test_requires_a_step(self):
        grid = periodic_grid(m=16)
        problem = PDEProblem(a=1.0, b=0.0, initial_condition=np.zeros(16))
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            evolve(problem, grid, EulerStd(dt=0.1), 0)

    def test_solver_reduction_chain(self):
        rng = np.random.RandomState(13)
        grid = periodic_grid(m=24)
        frame = rng.standard_normal(24)
        tiny = 1e-12  # difference scales linearly with the coefficients
        problem = PDEProblem(a=tiny, b=tiny, initial_condition=frame)
        euler = step(problem, grid, EulerStd(dt=0.3), frame)
        nsfd = step(problem, grid, Nsfd(dt=0.3), frame)
        spectral = step(problem, grid, SpectralPhys(dt=0.3, k=0.0, s=0.0),
                        frame)
        np.testing.assert_allclose(nsfd, euler, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(spectral, nsfd, rtol=1e-14, atol=1e-16)


class TestFourierSymbolOracle:
    """On a periodic grid every explicit kind is diagonal in Fourier space:
    the kinds differ only in their symbol G, that is in (phi, psi2)."""

    PAIRS = [(1.0, 0.5), (0.3, -1.0), (2.0, 0.0)]

    @pytest.mark.parametrize("m", [8, 33, 64, 257])
    @pytest.mark.parametrize("a, b", PAIRS)
    def test_stable_steps(self, m, a, b):
        grid = periodic_grid(m=m)
        u0 = np.random.RandomState(m).standard_normal(m)
        problem = PDEProblem(a=a, b=b, initial_condition=u0)
        dt = 0.2 * grid.dx**2 / a
        for kind, phi, psi2 in explicit_kinds(dt, a, b, grid.dx):
            traj = evolve(problem, grid, kind, 100)
            expected = fourier_symbol_frames(u0, a, b, phi, psi2, 100)
            assert_frames_close(traj.frames, expected, rtol=1e-13)

    @pytest.mark.parametrize("m", [8, 33, 64, 257])
    @pytest.mark.parametrize("a, b", PAIRS)
    def test_unstable_steps_up_to_blowup(self, m, a, b):
        # dt = 2 is far past every kind's stability bound on these grids,
        # except SpectralPhys at m = 8 with b < 0, which stays bounded
        grid = periodic_grid(m=m)
        u0 = np.random.RandomState(m).standard_normal(m)
        problem = PDEProblem(a=a, b=b, initial_condition=u0)
        n_steps = 3000
        for kind, phi, psi2 in explicit_kinds(2.0, a, b, grid.dx):
            traj = evolve(problem, grid, kind, n_steps)
            expected = fourier_symbol_frames(u0, a, b, phi, psi2, n_steps)
            finite = np.all(np.isfinite(expected), axis=1)
            first_nonfinite = int(np.argmin(finite)) if not finite.all() \
                else n_steps + 1
            kept = len(traj.times)
            assert kept <= first_nonfinite
            assert_frames_close(traj.frames, expected[:kept], rtol=1e-12)
            if kept == n_steps + 1:
                assert first_nonfinite == n_steps + 1
                continue
            # The march stops at the oracle's first non-finite frame, or
            # sooner only when a term inside the step (c0 u[m], the
            # neighbour sum u[m+1] + u[m-1], or c1 times it) passes the
            # double range before the new frame does.  No term exceeds
            # `reach` times the last frame.
            reach = max(4.0, 4.0 * a, 4.0 * a / psi2 + abs(b),
                        1.0 + phi * (4.0 * a / psi2 + abs(b)))
            last = np.max(np.abs(expected[kept - 1]))
            assert last >= np.finfo(float).max / reach * (1.0 - 1e-12)

    def test_blowup_keeps_the_frames_before_the_overflow(self):
        # Nsfd at dt = 2, a = 0.3, b = -1, M = 8: the oracle stays finite
        # through frame 2823.  The neighbour sum u[m+1] + u[m-1] of frame
        # 2821 (max |u| about 1.02e308) passes the double range before c1
        # scales it, so the march keeps 2822 frames.
        m, a, b = 8, 0.3, -1.0
        grid = periodic_grid(m=m)
        u0 = np.random.RandomState(m).standard_normal(m)
        problem = PDEProblem(a=a, b=b, initial_condition=u0)
        traj = evolve(problem, grid, Nsfd(dt=2.0), 3000)
        expected = fourier_symbol_frames(u0, a, b, phi_nsfd(2.0, b),
                                         psi2_nsfd(grid.dx, b / a), 3000)
        finite = np.all(np.isfinite(expected), axis=1)
        assert int(np.argmin(finite)) == 2824
        assert len(traj.times) == 2822
        assert_frames_close(traj.frames, expected[:2822], rtol=1e-12)


class TestMatchedSpectralPair:
    """With s = b - a k**2 the spectral pair is exact on mode k: psi2 is
    4 sin(k dx/2)**2 / k**2, the discrete Laplacian's eigenvalue over k**2,
    so the symbol 1 + phi (b - a k**2) is exp((b - a k**2) dt) for every dt.
    Any other s, the default one included, is exact only where it meets
    that eigenvalue."""

    @staticmethod
    def matched(dt, a, b, k):
        return SpectralPhys(dt=dt, k=k, s=b - a * k * k)

    @pytest.mark.parametrize("m", [3, 8, 33, 64])
    @pytest.mark.parametrize("length", [1.0, 2.0 * math.pi])
    def test_symbol_is_the_exact_growth(self, m, length):
        # the symbol sums c0 and 2 c1 cos(k dx), which cancel for large
        # dt / dx**2: its error is measured against |c0| + 2 |c1|
        grid = periodic_grid(m=m, length=length)
        ks = grid_wavenumbers(grid).tolist()
        for a in (0.0, 0.1, 1.0, 3.0):
            for b in (-2.0, 0.0, 0.7, 2.0):
                problem = PDEProblem(a=a, b=b, initial_condition=np.zeros(m))
                for dt in (1e-6, 1e-3, 0.05, 0.5, 2.0):
                    for k in ks:
                        kind = self.matched(dt, a, b, k)
                        g = amplification_factor(kind, problem, grid, k)
                        phi = phi_spectral(dt, a, b, k)
                        c1 = (phi * a / psi2_spectral(grid.dx, a, b, kind.s)
                              if a > 0.0 else 0.0)
                        terms = abs(1.0 + phi * b - 2.0 * c1) + 2.0 * abs(c1)
                        exact = math.exp((b - a * k * k) * dt)
                        assert abs(g - exact) <= 1e-13 * terms, (a, b, dt, k)

    @pytest.mark.parametrize("m", [3, 8, 33, 64])
    def test_single_mode_march_matches_fourier_oracle(self, m):
        # the march's roundoff grows with the largest symbol, so a frame
        # whose mode has decayed below it is measured against that growth
        grid = periodic_grid(m=m)
        sin2 = np.sin(np.pi * np.arange(m) / m) ** 2
        n_steps = 50
        for j in sorted({0, 1, m // 4, m // 2}):
            k = 2.0 * math.pi * j / grid.length
            u0 = np.cos(k * grid.points)
            for a in (0.1, 1.0, 3.0):
                for b in (-2.0, 0.0, 0.7):
                    problem = PDEProblem(a=a, b=b, initial_condition=u0)
                    for c in (0.05, 0.45, 2.0):
                        kind = self.matched(c * grid.dx**2 / a, a, b, k)
                        phi = phi_spectral(kind.dt, a, b, k)
                        psi2 = psi2_spectral(grid.dx, a, b, kind.s)
                        traj = evolve(problem, grid, kind, n_steps)
                        kept = len(traj.frames)
                        expected = fourier_symbol_frames(
                            u0, a, b, phi, psi2, n_steps)[:kept]
                        growth = np.max(np.abs(
                            1.0 + phi * (b - 4.0 * a * sin2 / psi2)))
                        with np.errstate(over="ignore"):
                            scale = np.maximum(
                                np.max(np.abs(expected), axis=1),
                                growth ** np.arange(kept))
                        error = np.max(np.abs(traj.frames - expected), axis=1)
                        assert np.all(error <= 1e-13 * scale), (j, a, b, c)


class TestEvolveIsRepeatedStep:
    """evolve and step share one march: no second stepping path.  At M = 3
    both wrap edges read the same two neighbours; M = 4096 takes one row
    per finiteness check.  The spacing is the same at every M, so dt = 3
    is unstable with diffusion at every M."""

    @pytest.mark.parametrize("boundary", [Periodic(), Dirichlet(0.5, -0.25)])
    @pytest.mark.parametrize("a", [0.0, 0.7])
    @pytest.mark.parametrize("m", [3, 4, 33, 4096])
    def test_frames_bit_equal(self, boundary, a, m):
        b = 0.4
        grid = Grid1D(x0=0.0, dx=2.0 * math.pi / 33, m_points=m,
                      boundary=boundary)
        u0 = np.random.RandomState(3).standard_normal(m)
        problem = PDEProblem(a=a, b=b, initial_condition=u0)
        truncated = 0
        for dt in (0.2 * grid.dx**2, 3.0):
            for kind in (EulerStd(dt=dt), Nsfd(dt=dt),
                         SpectralPhys(dt=dt, k=1.0, s=b + a + 0.5)):
                traj = evolve(problem, grid, kind, 400)
                u = traj.frames[0]
                if isinstance(boundary, Dirichlet):
                    assert (u[0], u[-1]) == (0.5, -0.25)
                    assert u[1:-1].tobytes() == u0[1:-1].tobytes()
                else:
                    assert u.tobytes() == u0.tobytes()
                with np.errstate(over="ignore", invalid="ignore"):
                    for frame in traj.frames[1:]:
                        u = step(problem, grid, kind, u)
                        assert u.tobytes() == frame.tobytes()
                    if len(traj.times) < 401:
                        truncated += 1
                        assert not np.all(np.isfinite(
                            step(problem, grid, kind, u)))
        # with diffusion, dt = 3 blows every kind up within 400 steps
        assert truncated == (3 if a > 0.0 else 0)


def stepwise_evolve(problem, grid, kind, n_steps):
    """The march with every frame checked as it is made: repeated ``step``
    calls from the boundary-adjusted initial data, stopping before the
    first non-finite frame."""
    u = problem.initial_condition.copy()
    if isinstance(grid.boundary, Dirichlet):
        u[0], u[-1] = grid.boundary.left_value, grid.boundary.right_value
    frames = [u]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            u = step(problem, grid, kind, u)
            if not np.all(np.isfinite(u)):
                break
            frames.append(u)
    return np.array(frames)


class TestBlowupAtBlockEdges:
    """evolve checks finiteness once per block of rows; wherever the first
    non-finite frame falls in a block, it keeps what the stepwise march
    keeps, bit for bit."""

    KIND = EulerStd(dt=0.25)

    @staticmethod
    def problem_blowing_up_at(grid, kind, target):
        # b = 1 and c1 = 0.05 make every mode grow by 1.05 to 1.25 a step,
        # so the first non-finite frame moves one frame earlier for each
        # step's worth of extra amplitude; bisect the amplitude until the
        # march first goes non-finite at frame `target`.  The search uses
        # evolve only for speed: the test holds the problem it returns to
        # the stepwise march.
        m = grid.m_points
        v = np.random.RandomState(m).uniform(-1.0, 1.0, m)
        v[m // 2] = 1.0
        a = 0.2 * grid.dx**2
        big, small = 0.0, 1100.0  # amplitude DBL_MAX * 2**-x
        for _ in range(60):
            x = 0.5 * (big + small)
            problem = PDEProblem(
                a=a, b=1.0,
                initial_condition=np.finfo(float).max * 2.0**-x * v)
            kept = len(evolve(problem, grid, kind, target).frames)
            if kept == target:
                return problem
            if kept < target:
                big = x
            else:
                small = x
        raise AssertionError(f"no amplitude blows up at frame {target}")

    @pytest.mark.parametrize("boundary", [Periodic(), Dirichlet(0.5, -0.25)])
    @pytest.mark.parametrize("m", [3, 8, 64, 4096])
    @pytest.mark.parametrize("edge", ["frame 1", "first row of a block",
                                      "last row of a block", "final step"])
    def test_truncation_matches_stepwise(self, boundary, m, edge):
        rows = max(1, _CHECK_POINTS // m)
        n_steps = rows + 2
        target = {"frame 1": 1,
                  "first row of a block": rows + 1,
                  "last row of a block": rows,
                  "final step": n_steps}[edge]
        grid = Grid1D(x0=0.0, dx=2.0 * math.pi / m, m_points=m,
                      boundary=boundary)
        problem = self.problem_blowing_up_at(grid, self.KIND, target)
        expected = stepwise_evolve(problem, grid, self.KIND, n_steps)
        assert len(expected) == target
        frames = evolve(problem, grid, self.KIND, n_steps).frames
        assert frames.shape == expected.shape
        assert frames.tobytes() == expected.tobytes()


class TestLaplaceModeSolve:
    def test_zero_source_gives_zero(self):
        grid = Grid1D(x0=0.0, dx=0.1, m_points=11, boundary=Dirichlet(0.0, 0.0))
        problem = PDEProblem(a=1.0, b=0.0, initial_condition=np.zeros(11))
        assert np.all(laplace_mode_solve(problem, grid, 2.0) == 0.0)

    def test_convergence_to_analytic_mode(self):
        errors = []
        for m in (11, 21, 41, 81):
            grid = Grid1D(x0=0.0, dx=1.0 / (m - 1), m_points=m,
                          boundary=Dirichlet(0.0, 0.0))
            x = grid.points
            problem = PDEProblem(a=1.0, b=0.0,
                                 initial_condition=np.sin(math.pi * x))
            solution = laplace_mode_solve(problem, grid, 2.0)
            analytic = np.sin(math.pi * x) / (math.pi**2 + 2.0)
            errors.append(np.max(np.abs(solution - analytic)))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
        for p in orders:
            assert p >= 2.0

    def test_large_mode_scaling(self):
        # doubling s roughly halves the solution for s >> a pi^2 - b
        norms = []
        for s in (200.0, 400.0):
            grid = Grid1D(x0=0.0, dx=1.0 / 40, m_points=41,
                          boundary=Dirichlet(0.0, 0.0))
            x = grid.points
            problem = PDEProblem(a=1.0, b=0.0,
                                 initial_condition=np.sin(math.pi * x))
            norms.append(np.max(np.abs(laplace_mode_solve(problem, grid, s))))
        ratio = norms[1] / norms[0]
        assert 0.45 <= ratio <= 0.57

    def test_regime_validation(self):
        grid = Grid1D(x0=0.0, dx=0.1, m_points=11, boundary=Dirichlet(0.0, 0.0))
        problem = PDEProblem(a=1.0, b=1.0,
                             initial_condition=np.zeros(11))
        with pytest.raises(ValueError):
            laplace_mode_solve(problem, grid, 0.5)  # s <= b
        no_diffusion = PDEProblem(a=0.0, b=1.0,
                                  initial_condition=np.zeros(11))
        with pytest.raises(ValueError, match="diffusion coefficient"):
            laplace_mode_solve(no_diffusion, grid, 2.0)

    def test_requires_homogeneous_dirichlet(self):
        grid = Grid1D(x0=0.0, dx=0.1, m_points=11, boundary=Dirichlet(1.0, 0.0))
        problem = PDEProblem(a=1.0, b=0.0, initial_condition=np.zeros(11))
        with pytest.raises(ValueError):
            laplace_mode_solve(problem, grid, 2.0)
        with pytest.raises(ValueError):
            laplace_mode_solve(problem, periodic_grid(m=11), 2.0)


class TestLaplaceSineModeOracle:
    """laplace_mode_solve against the exact discrete solution per sine mode.

    Only smooth modes are swept: the sampled mode carries an ulp of
    rounding, which the solve amplifies by up to lambda_mode / lambda_1
    relative to the mode's own response (about 1e9 for the highest modes
    at m = 65537), whatever the algorithm.  The tolerance is one a
    sequential tridiagonal sweep misses by orders of magnitude at
    m = 65537, where its roundoff reaches 1e-10 to 1e-7.
    """

    @pytest.mark.parametrize("m", [4, 5, 11, 257, 1025, 16385, 65537])
    def test_matches_sine_mode_solution(self, m):
        grid = Grid1D(x0=0.0, dx=1.0 / (m - 1), m_points=m,
                      boundary=Dirichlet(0.0, 0.0))
        for a, b, gap in ((1.0, 0.0, 2.0), (0.1, -1.0, 0.5),
                          (3.0, 0.7, 50.0), (0.5, 2.0, 1e-3),
                          (1e-3, 0.0, 1.0)):
            s = b + gap
            psi2 = psi2_spectral(grid.dx, a, b, s)
            for mode in (1, 2, 7):
                if mode > m - 2:
                    continue
                u0, exact = sine_mode_laplace(m, mode, a, b, s, psi2)
                problem = PDEProblem(a=a, b=b, initial_condition=u0)
                solution = laplace_mode_solve(problem, grid, s)
                err = np.max(np.abs(solution - exact))
                assert err <= 1e-14 * np.max(np.abs(exact))


class TestAmplificationFactor:
    def test_array_wavenumbers(self):
        grid = periodic_grid(m=32)
        ks = grid_wavenumbers(grid)
        for a in (0.0, 1.0):
            problem = PDEProblem(a=a, b=0.5, initial_condition=np.zeros(32))
            for kind in (EulerStd(dt=0.01), Nsfd(dt=0.01),
                         SpectralPhys(dt=0.01, k=1.0, s=1.5),
                         SpectralModal(dt=0.01)):
                g = amplification_factor(kind, problem, grid, ks)
                assert g.shape == ks.shape
                scalars = [amplification_factor(kind, problem, grid, float(k))
                           for k in ks]
                assert scalars == g.tolist()


    def test_euler_constant_mode(self):
        grid = periodic_grid(m=16)
        problem = PDEProblem(a=1.0, b=0.0, initial_condition=np.zeros(16))
        assert amplification_factor(EulerStd(dt=0.1), problem, grid, 0.0) == 1.0

    def test_modal_steady_mode(self):
        grid = periodic_grid(m=16)
        problem = PDEProblem(a=1.0, b=1.0, initial_condition=np.zeros(16))
        g = amplification_factor(SpectralModal(dt=123.0), problem, grid, 1.0)
        assert g == pytest.approx(1.0, abs=1e-13)

    def test_euler_nyquist_instability(self):
        grid = Grid1D(x0=0.0, dx=0.1, m_points=20, boundary=Periodic())
        problem = PDEProblem(a=1.0, b=0.0, initial_condition=np.zeros(20))
        k_nyquist = math.pi / grid.dx
        g = amplification_factor(EulerStd(dt=0.01), problem, grid, k_nyquist)
        assert g == pytest.approx(-3.0, rel=1e-12)
        # cross-check with one dense-matrix application of the mode
        matrix = dense_step_matrix(20, 0.1, 0.01, 1.0, 0.0, periodic=True)
        mode = np.cos(k_nyquist * grid.points)
        np.testing.assert_allclose(matrix @ mode, g * mode, atol=1e-10)

    def test_euler_conditional_stability_sweep(self):
        grid = Grid1D(x0=0.0, dx=0.1, m_points=20, boundary=Periodic())
        problem = PDEProblem(a=1.0, b=0.0, initial_condition=np.zeros(20))
        ks = grid_wavenumbers(grid)
        bound = grid.dx**2 / 2.0
        dts = np.arange(0.001, 0.01, 0.0002)
        stable = []
        for dt in dts:
            gmax = max(abs(amplification_factor(EulerStd(dt=float(dt)),
                                                problem, grid, float(k)))
                       for k in ks)
            stable.append(gmax <= 1.0 + 1e-12)
        crossing = dts[int(np.sum(stable))]  # first unstable dt
        assert abs(crossing - bound) <= 0.0002 + 1e-12

    def test_nsfd_matches_one_step(self):
        # every explicit kind, with and without diffusion: the factor is the
        # step's eigenvalue on a single Fourier mode
        grid = periodic_grid(m=32)
        frame = np.sin(3.0 * grid.points)
        for a in (0.0, 1.0):
            problem = PDEProblem(a=a, b=0.5, initial_condition=frame)
            for kind in (EulerStd(dt=0.7), Nsfd(dt=0.7),
                         SpectralPhys(dt=0.7, k=3.0, s=1.5)):
                g = amplification_factor(kind, problem, grid, 3.0)
                stepped = step(problem, grid, kind, frame)
                np.testing.assert_allclose(stepped, g * frame, rtol=1e-11,
                                           atol=1e-13)


class TestGridWavenumbers:
    @pytest.mark.parametrize("m", [3, 4, 5, 8, 33, 64, 127, 4097])
    @pytest.mark.parametrize("dx", [1e-100, 1e-3, 0.1, 1.0, 1e300])
    @pytest.mark.parametrize("periodic", [True, False])
    def test_matches_rfftfreq(self, m, dx, periodic):
        # numpy's real-transform bins n / (m d) for n = 0..m // 2, with the
        # spacing d of m periodic points over the grid's length
        boundary = Periodic() if periodic else Dirichlet(0.0, 0.0)
        grid = Grid1D(x0=0.0, dx=dx, m_points=m, boundary=boundary)
        d = dx if periodic else dx * (m - 1) / m
        oracle = 2.0 * np.pi * np.fft.rfftfreq(m, d)
        ks = grid_wavenumbers(grid)
        assert ks.shape == (m // 2 + 1,)
        np.testing.assert_array_max_ulp(ks, oracle, maxulp=4)
        # each bin is the float 2 pi j / L, bit for bit
        assert ks.tolist() == [2.0 * np.pi * j / grid.length
                               for j in range(m // 2 + 1)]


class TestDefaults:
    def test_dominant_mode_detection(self):
        grid = periodic_grid(m=32)
        problem = PDEProblem(a=0.5, b=1.0,
                             initial_condition=np.sin(3.0 * grid.points))
        k, s = default_spectral_params(problem, grid)
        assert k == pytest.approx(3.0, rel=1e-12)
        assert s == pytest.approx(1.0 + 0.5 * (math.pi / grid.length) ** 2,
                                  rel=1e-12)

    @pytest.mark.parametrize("m", [4, 5, 32, 33])
    def test_dominant_index_matches_oracle(self, m):
        rng = np.random.RandomState(100 + m)
        grid = periodic_grid(m=m)
        ic = rng.standard_normal(m)
        problem = PDEProblem(a=0.5, b=1.0, initial_condition=ic)
        j = int(np.argmax(np.abs(naive_dft(ic))[: m // 2 + 1]))
        k, _ = default_spectral_params(problem, grid)
        assert k == pytest.approx(2.0 * math.pi * j / grid.length, rel=1e-12)


def assert_times_derived(traj, dt, n_frames):
    assert traj.dt == dt
    assert len(traj.frames) == n_frames
    assert traj.times.tobytes() == (np.arange(n_frames) * dt).tobytes()


class TestFieldTrajectory:
    def test_shape_validation(self):
        grid = periodic_grid(m=8)
        with pytest.raises(ValueError):
            FieldTrajectory(grid=grid, dt=0.1, frames=np.zeros((2, 7)))

    def test_evolve_times(self):
        grid = periodic_grid(m=33)
        problem = PDEProblem(a=0.7, b=0.4,
                             initial_condition=np.sin(grid.points))
        dt = 0.2 * grid.dx**2
        for kind in (EulerStd(dt=dt), Nsfd(dt=dt),
                     SpectralPhys(dt=dt, k=1.0, s=1.6), SpectralModal(dt=dt)):
            assert_times_derived(evolve(problem, grid, kind, 400), dt, 401)

    def test_truncated_evolve_times(self):
        # the blow-up of TestEvolve: 2822 of 3001 frames are kept
        grid = periodic_grid(m=8)
        u0 = np.random.RandomState(8).standard_normal(8)
        problem = PDEProblem(a=0.3, b=-1.0, initial_condition=u0)
        assert_times_derived(evolve(problem, grid, Nsfd(dt=2.0), 3000),
                             2.0, 2822)

    def test_evolve_modal_times(self):
        grid = periodic_grid(m=32)
        problem = PDEProblem(a=0.3, b=0.2,
                             initial_condition=np.cos(3.0 * grid.points))
        for dt, n_steps in ((0.25, 6), (1e-3, 10**4)):
            assert_times_derived(evolve_modal(problem, grid, dt, n_steps),
                                 dt, n_steps + 1)
