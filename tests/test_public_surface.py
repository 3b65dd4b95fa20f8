"""Every module's ``__all__`` names real attributes, each once, and the
union of them is exactly ``PUBLIC``.

Wrappers that act on a module's public surface (tracing, docs) read
``__all__``, so a stale or repeated entry would break them silently.  A
name added to or dropped from the surface shows as a one-line change of
``PUBLIC``.
"""

import importlib
import pkgutil

import pytest

import spectralfd


def _module_names() -> list[str]:
    names = [spectralfd.__name__]
    for info in pkgutil.walk_packages(spectralfd.__path__,
                                      spectralfd.__name__ + "."):
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("name", _module_names())
def test_all_entries_resolve_once(name):
    module = importlib.import_module(name)
    public = module.__all__
    assert len(public) == len(set(public)), f"repeated entries in {name}"
    missing = [attr for attr in public if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names missing attributes"


# Every public name, qualified by the module whose ``__all__`` lists it.
PUBLIC = {
    "spectralfd.__version__",
    "spectralfd.denominators",
    "spectralfd.denominators.DegenerateDenominatorError",
    "spectralfd.denominators.ExactStepKind",
    "spectralfd.denominators.mu_exact_step",
    "spectralfd.denominators.phi_nsfd",
    "spectralfd.denominators.phi_spectral",
    "spectralfd.denominators.psi2_nsfd",
    "spectralfd.denominators.psi2_spectral",
    "spectralfd.harness.cli.main",
    "spectralfd.harness.config.ConfigError",
    "spectralfd.harness.config.ExperimentConfig",
    "spectralfd.harness.config.Violation",
    "spectralfd.harness.config.build_config",
    "spectralfd.harness.config.config_echo",
    "spectralfd.harness.config.parse_config",
    "spectralfd.harness.experiments.run_experiment",
    "spectralfd.harness.report.ExperimentReport",
    "spectralfd.harness.report.PlotSpec",
    "spectralfd.harness.report.UnknownColumnError",
    "spectralfd.harness.report.emit_csv",
    "spectralfd.harness.report.emit_json",
    "spectralfd.harness.report.emit_svg",
    "spectralfd.ode_schemes",
    "spectralfd.ode_schemes.OrderSample",
    "spectralfd.ode_schemes.SchemeFamily",
    "spectralfd.ode_schemes.Trajectory",
    "spectralfd.ode_schemes.decay_solve",
    "spectralfd.ode_schemes.ho_exact_states",
    "spectralfd.ode_schemes.ho_initial_from_velocity",
    "spectralfd.ode_schemes.order_estimate",
    "spectralfd.pde_solvers",
    "spectralfd.pde_solvers.Dirichlet",
    "spectralfd.pde_solvers.EulerStd",
    "spectralfd.pde_solvers.FieldTrajectory",
    "spectralfd.pde_solvers.Grid1D",
    "spectralfd.pde_solvers.Nsfd",
    "spectralfd.pde_solvers.PDEProblem",
    "spectralfd.pde_solvers.Periodic",
    "spectralfd.pde_solvers.SpectralModal",
    "spectralfd.pde_solvers.SpectralPhys",
    "spectralfd.pde_solvers.amplification_factor",
    "spectralfd.pde_solvers.default_spectral_params",
    "spectralfd.pde_solvers.evolve",
    "spectralfd.pde_solvers.evolve_modal",
    "spectralfd.pde_solvers.grid_wavenumbers",
    "spectralfd.pde_solvers.laplace_mode_solve",
    "spectralfd.pde_solvers.step",
    "spectralfd.propagators",
    "spectralfd.propagators.FitDegenerateError",
    "spectralfd.propagators.FitRangeError",
    "spectralfd.propagators.SignatureKind",
    "spectralfd.propagators.WaveSignature",
    "spectralfd.propagators.local_propagator",
    "spectralfd.propagators.nonlocal_propagator",
    "spectralfd.propagators.origin_window",
    "spectralfd.propagators.signature_fit",
    "spectralfd.specfun",
    "spectralfd.specfun.MLParams",
    "spectralfd.specfun.mittag_leffler",
}


def test_public_surface_is_pinned():
    public = {f"{name}.{attr}" for name in _module_names()
              for attr in importlib.import_module(name).__all__}
    assert sorted(public - PUBLIC) == [], "names added to the surface"
    assert sorted(PUBLIC - public) == [], "names dropped from the surface"
