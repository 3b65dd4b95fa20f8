"""The experiments: one record each, and ``run_experiment`` to run one.

``_EXPERIMENTS`` maps every experiment name to the one record that declares
it: its config keys and the checks that couple them, the CLI subcommand
(and ``--study``) that runs it with that command's help and defaults, its
report columns, its default SVG plot, and its runner.  ``config`` validates
against the record, ``cli`` generates its subcommands and flags from the
records, and ``run_experiment`` runs one.  Adding an experiment means
writing one record and its runner.

Reports are deterministic for a fixed configuration: no randomness, fixed
iteration orders, and the generation timestamp confined to report metadata.
Solver blow-up inside pde_compare is data, not an error: the run stops at
the last finite frame and the row carries a diverged flag (raised by
non-finite values, or by a relative error above 1 or nan).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .. import __version__
from .. import ode_schemes as ode
from .. import pde_solvers as pde
from .. import propagators
from ..propagators import MIN_FIT_SAMPLES
from ..specfun import ALPHA_MIN, MLParams, mittag_leffler
from .config import ExperimentConfig, Field, config_echo
from .report import ExperimentReport, PlotSpec

__all__ = ["run_experiment"]

# A relative nodal error beyond this marks the run as diverged even if the
# values are still finite (coarse blow-up detection for short runs).
DIVERGENCE_THRESHOLD = 1.0

# The most points one array of a run may hold (512 MiB of float64): far
# above every shipped config, far below what would exhaust memory or run
# for hours.
MAX_ARRAY_POINTS = 2**26
_TOO_LARGE = (f"the run would hold more than {MAX_ARRAY_POINTS} points in "
              "one array")

# The largest ho_exact amplitude hypot(y0, v0/omega): the report's amplitude
# invariant squares values of this size, and must stay finite.
MAX_OSCILLATOR_AMPLITUDE = math.sqrt(sys.float_info.max) / 2

# The most samples a signature_demo run may take.  Each is one
# Mittag-Leffler evaluation, so this bounds work rather than memory: about
# half a second of evaluations.
MAX_SIGNATURE_SAMPLES = 10_000

# A signature_demo window's smallest signature 1 - propagator(t_min), whose
# leading term is lambda t_min^alpha, lies orders of magnitude above the
# propagators' roundoff (about 1e-15) once that term reaches this floor.
# Validation evaluates the propagator only for a window below it.
_SIGNATURE_FLOOR = 1e-8

_SCHEMES = tuple(f.value for f in ode.SchemeFamily)
# each pde method's solver kind; SpectralPhys also takes a (k, s)
_PDE_METHODS = {"euler": pde.EulerStd, "nsfd": pde.Nsfd,
                "spectral_modal": pde.SpectralModal,
                "spectral_phys": pde.SpectralPhys}
# A step at which every explicit kind's phi is about dt and cannot fail, so
# that its stencil weights there fail only through its space denominator
_PSI2_PROBE_DT = 5e-324
# the key a psi2 fault names; euler's psi2 is dx**2, a grid fault
_PSI2_KEYS = {"nsfd": "a", "spectral_phys": "s_mode"}
# signature_demo's propagators, by the name each has in ``propagators``
_PROPAGATORS = {"local_exp": "local_propagator",
                "nonlocal_ml": "nonlocal_propagator"}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the configured experiment and assemble its report."""
    experiment = _EXPERIMENTS[config.experiment]
    return ExperimentReport(
        experiment=config.experiment,
        columns=experiment.columns,
        rows=experiment.run(config.as_dict()),
        config_lines=tuple(config_echo(config).splitlines()),
        tool_version=__version__,
    )


def _positive(v) -> Optional[str]:
    return None if v > 0 else "must be positive"


def _nonnegative(v) -> Optional[str]:
    return None if v >= 0 else "must be >= 0"


def _at_least(low: int) -> Callable[[object], Optional[str]]:
    return lambda v: None if v >= low else f"must be >= {low}"


def _positive_list(v) -> Optional[str]:
    return None if all(x > 0 for x in v) else "entries must be positive"


def _in_names(allowed) -> Callable[[object], Optional[str]]:
    def check(v) -> Optional[str]:
        bad = [x for x in v if x not in allowed]
        return (f"unknown entries {bad}; allowed: {', '.join(allowed)}"
                if bad else None)
    return check


# --- checks that couple keys -------------------------------------------------
# Each runs after every field is valid and reports through bad(key, message).

def _formed(bad, key: str, what: str, form: Callable, *args):
    """``form(*args)``; or None, once ``bad(key, f"{what}: {cause}")`` (the
    cause alone if ``what`` is empty) has said why it cannot be formed: the
    ValueError or ArithmeticError it raises (numpy's too, under
    ``np.errstate(all="raise")``), or a float or array it returns, alone or
    in a tuple, that is not all finite."""
    try:
        value = form(*args)
    except (ValueError, ArithmeticError) as exc:
        # the message; an OverflowError of float ** carries (errno, message)
        cause = exc.args[-1] if exc.args else type(exc).__name__
    else:
        parts = value if isinstance(value, tuple) else (value,)
        if all(np.isfinite(part).all() for part in parts
               if isinstance(part, (float, np.ndarray))):
            return value
        cause = f"it is {value!r}"
    bad(key, f"{what}: {cause}" if what else cause)
    return None


def _refined_too_large(base: float, levels: int) -> bool:
    # base * 2**(levels - 1) + 1 > MAX_ARRAY_POINTS, compared in log2 so
    # that a huge `levels` neither overflows a float nor builds a huge
    # integer (an int-float comparison is exact)
    return base > 0.0 and (levels - 1 > math.log2(MAX_ARRAY_POINTS - 1)
                           - math.log2(base))


def _check_decay_order(v: dict, bad) -> None:
    # the finest level marches t_final / (h0 / 2**(levels - 1)) steps
    if _refined_too_large(v["t_final"] / v["h0"], v["levels"]):
        bad("levels", _TOO_LARGE)
    else:  # the run's steps, as order_estimate forms them
        _formed(bad, "h0", "", ode._step_ladder, v["t_final"], v["h0"],
                v["levels"])


def _check_ho_exact(v: dict, bad) -> None:
    # the march's own checks; the amplitude invariant divides by 2 sin(omega*h)
    if (_formed(bad, "h", "", ode.ho_exact_states, v["omega"], v["h"], 0.0,
                0.0, ()) is not None
            and 2.0 * math.sin(v["omega"] * v["h"]) == 0.0):
        bad("h", "2 sin(omega*h) underflows to 0, and the amplitude "
                 "invariant divides by it")
    if v["n_steps"] + 1 > MAX_ARRAY_POINTS:
        # the run keeps only its reported states, so this bounds work
        bad("n_steps", f"must be at most {MAX_ARRAY_POINTS - 1}, a bound on "
                       "work: each step is one update of the recurrence")
    if math.hypot(v["y0"], v["v0"] / v["omega"]) > MAX_OSCILLATOR_AMPLITUDE:
        bad("y0", "the amplitude hypot(y0, v0/omega) exceeds "
                  f"{MAX_OSCILLATOR_AMPLITUDE:.6g}")


def _check_sine(bad, half_turns: int, intervals: int, rule: str) -> None:
    # the initial sine samples sin(pi half_turns j / intervals) at grid
    # point j: roundoff, not a mode, when intervals divides half_turns
    if half_turns > 0 and half_turns % intervals == 0:
        bad("ic_mode", "the initial sine vanishes at every grid point when "
                       + rule)


def _check_signature_demo(v: dict, bad) -> None:
    window = _formed(bad, "t_max", "", propagators.origin_window,
                     v["n_samples"], v["t_min"], v["t_max"])
    nonlocal_ml = v["propagator"] == "nonlocal_ml"
    # nonlocal_propagator's order, as its MLParams takes it
    if nonlocal_ml and _formed(bad, "alpha", "", MLParams,
                               v["alpha"]) is None:
        return
    # the propagator at the window's far end evaluates the Mittag-Leffler
    # function at -lambda t_max^alpha, which must be a finite argument
    if (nonlocal_ml and window is not None
            and not math.isfinite(v["lambda"] * v["t_max"] ** v["alpha"])):
        bad("t_max", "lambda * t_max**alpha leaves the double range, and "
                     "nonlocal_ml evaluates the Mittag-Leffler function "
                     "there")
    # the fit takes the log of the signature 1 - propagator(t) at every
    # sample, and the smallest one is at t_min
    if v["lambda"] * v["t_min"] ** v["alpha"] >= _SIGNATURE_FLOOR:
        return
    name = _PROPAGATORS[v["propagator"]]
    signature = 1.0 - getattr(propagators, name)(v["lambda"], v["alpha"],
                                                 v["t_min"])
    if not signature > 0.0:
        bad("t_min", f"the signature 1 - {name}(t_min) rounds to "
                     f"{signature!r}, and the fit takes its log")


def _check_laplace_bvp(v: dict, bad) -> None:
    # a sine that vanishes on a finer level vanishes on level 0
    _check_sine(bad, v["ic_mode"], v["m0"] - 1,
                "ic_mode is a multiple of m0 - 1")
    # the coarsest level, where psi2 and psi2/a are largest, as the run forms
    # it (underflow aside), unless no run of two levels may hold it
    if not _refined_too_large(v["m0"] - 1, 2):
        with np.errstate(all="raise", under="ignore"):
            level = _formed(bad, "s", f"the coarsest level's solve, with "
                                      f"dx = {1.0 / (v['m0'] - 1)!r}, fails",
                            _laplace_error, v, v["m0"])
        # an absolute error against a subnormal solution measures no order
        if level is not None and not level[1] >= sys.float_info.min:
            bad("a", f"the analytic solution sine / (a (ic_mode pi)^2 + s "
                     f"- b) peaks at {level[1]!r} on the coarsest level, "
                     "below the smallest normal double")
    # the finest grid has (m0 - 1) * 2**(levels - 1) + 1 points
    if _refined_too_large(v["m0"] - 1, v["levels"]):
        bad("levels", _TOO_LARGE)


# --- runners: validated values -> report rows --------------------------------

def _run_decay_order(p: dict) -> list:
    rows = []
    for name in p["schemes"]:
        for sample in ode.order_estimate(ode.SchemeFamily(name), p["lambda"],
                                         p["x0"], p["t_final"], p["h0"],
                                         p["levels"]):
            rows.append((name, sample.h, sample.error, sample.observed_p,
                         sample.exact))
    return rows


def _run_ho_exact(p: dict) -> list:
    omega, h, n_steps = p["omega"], p["h"], p["n_steps"]
    y0, v0 = p["y0"], p["v0"]
    y1 = ode.ho_initial_from_velocity(omega, h, y0, v0)
    checkpoints = sorted({n for n in (1, 10, 100, 1000, 10000, n_steps)
                          if 1 <= n <= n_steps})
    # discrete amplitude invariant, defined on interior indices; needed only
    # at i = 1 and at the interior checkpoints, so the march keeps those
    # states, their neighbours and the checkpoints
    i = [1] + [n for n in checkpoints if n < n_steps]
    wanted = sorted({*checkpoints, *(n + d for n in i for d in (-1, 1))})
    y = dict(zip(wanted, ode.ho_exact_states(omega, h, y0, y1,
                                             wanted).tolist()))

    def at(shift: int) -> np.ndarray:
        return np.array([y[n + shift] for n in i])

    s = 2.0 * math.sin(omega * h)
    invariant = at(0) ** 2 + ((at(1) - at(-1)) / s) ** 2
    drifts = dict(zip(i, np.abs(invariant - invariant[0]).tolist()))
    rows = []
    for n in checkpoints:
        t = n * h
        exact = y0 * math.cos(omega * t) + v0 * math.sin(omega * t) / omega
        rows.append((omega, h, n, y[n], exact, abs(y[n] - exact),
                     drifts.get(n)))
    return rows


class _PdePlan(NamedTuple):  # a pde run, as ``_plan`` forms it
    problem: pde.PDEProblem
    grid: pde.Grid1D
    kinds: dict  # by method, each a function of dt
    wavenumbers: Optional[np.ndarray]  # the grid's, where the run forms them
    growth: Optional[float]  # pde_compare's: its mode's b - a k^2
    steps: Optional[list]  # pde_compare's: (dt, step count) pairs


def _plan(p: dict, bad: Callable[[str, str], None]) -> Optional[_PdePlan]:
    """The pde run with validated values ``p``, or None once ``bad`` has
    named a fault.  Both pde records check with it, and each runner starts
    from ``_plan(p, _abort)``.  It forms pde_compare's step counts, sine,
    amplitude and frames bound, then, with numpy's errors raised but
    underflow, the grid, its data, and the wavenumbers, growth rates,
    (k, s), psi2, weights (c0, c1) and amplification factors the run forms;
    README *Config format* gives their order and the key each fault names.
    """
    faults = []

    def fault(key: str, message: str) -> None:
        faults.append(key)
        bad(key, message)

    m, methods, stability = p["m_points"], p["methods"], "dx" in p
    growth = steps = None
    if not stability:
        ladders = [_formed(fault, "dt", "", ode._step_ladder, p["t_final"],
                           dt, 1) for dt in p["dt"]]
        _check_sine(fault, 2 * p["ic_mode"], m,
                    "2 ic_mode is a multiple of m_points")
        k = math.inf  # where ic_mode is past the double range
        try:
            k = 2.0 * math.pi * p["ic_mode"] / p["domain_length"]
            growth = p["b"] - p["a"] * k**2
            amplitude = math.exp(growth * p["t_final"])
        except OverflowError:
            amplitude = math.inf
        if not 0.0 < amplitude < math.inf:
            fault("t_final", "exp((b - a k^2) t) leaves the double range by t"
                  " = t_final, with k = 2 pi ic_mode / domain_length")
        # frames: (t_final / min(dt) + 1) x m_points
        if m > MAX_ARRAY_POINTS / (p["t_final"] / min(p["dt"]) + 1.0):
            fault("dt", _TOO_LARGE)
            return None
        steps = [ladder[0] for ladder in ladders if ladder]
    dx = p["dx"] if stability else p["domain_length"] / m

    def build() -> tuple:
        grid = pde.Grid1D(x0=0.0, dx=dx, m_points=m, boundary=pde.Periodic())
        if stability:  # its data is never marched
            ic = np.zeros(m)
        else:  # sin(k x), or ones for mode 0
            ic = np.sin(k * grid.points) if p["ic_mode"] > 0 else np.ones(m)
        problem = pde.PDEProblem(a=p["a"], b=p["b"], initial_condition=ic)
        kinds = {name: _PDE_METHODS[name] for name in methods}
        if "spectral_phys" in kinds:  # k_mode and s_mode where given
            k0, s0 = pde.default_spectral_params(problem, grid)
            kinds["spectral_phys"] = functools.partial(
                pde.SpectralPhys, k=p.get("k_mode", k0), s=p.get("s_mode", s0))
        ks = None
        if stability or "spectral_modal" in methods:
            ks = pde.grid_wavenumbers(grid)
            if "spectral_modal" in methods:  # as evolve_modal forms them
                problem.b - problem.a * ks[[0, -1]]**2
        if set(methods) - {"spectral_modal"}:
            pde._weights(pde.EulerStd(_PSI2_PROBE_DT), problem, grid)
        return problem, grid, kinds, ks

    with np.errstate(all="raise", under="ignore"):
        built = _formed(fault, "dx" if stability else "domain_length",
                        f"the grid with dx = {dx!r}, or a square of dx or of "
                        "a wavenumber up to pi/dx that the run forms, fails",
                        build)
        if built is None:
            return None
        problem, grid, kinds, ks = built
        for method in methods:
            if method in _PSI2_KEYS and _formed(
                    fault, _PSI2_KEYS[method], f"{method}'s diffusion weight "
                    f"a/psi2 with dx = {dx!r} fails", pde._weights,
                    kinds[method](_PSI2_PROBE_DT), problem, grid) is None:
                continue  # its weights would fail with it at every dt
            for dt in p["dt"]:
                kind = kinds[method](dt)
                if method != "spectral_modal":
                    _formed(fault, "dt", f"{method}'s stencil weights (c0, "
                            f"c1) at dt = {dt!r} fail", pde._weights, kind,
                            problem, grid)
                if stability:
                    _formed(fault, "dt", f"{method}'s amplification factor "
                            f"at dt = {dt!r} fails", pde.amplification_factor,
                            kind, problem, grid, ks[[0, -1]])  # 0, pi/dx
    return None if faults else _PdePlan(*built, growth, steps)


def _abort(key: str, message: str) -> None:
    """``bad`` at run time: a fault breaks an invariant, and exits 3."""
    raise RuntimeError(f"{key}: {message}")


def _run_pde_compare(p: dict) -> list:
    problem, grid, kinds, _, growth, steps = _plan(p, _abort)
    m, ic = grid.m_points, problem.initial_condition
    u0_max = float(np.max(np.abs(ic)))
    rows = []
    for method in p["methods"]:
        for dt, n_steps in steps:
            traj = pde.evolve(problem, grid, kinds[method](dt), n_steps)
            t_end = float(traj.times[-1])
            exact = math.exp(growth * t_end) * ic
            # no mode, the initial data's roundoff included, grows faster
            # than e^{bt}: a decayed mode is measured against that roundoff
            try:
                noise = (m * sys.float_info.epsilon * u0_max
                         * math.exp(problem.b * t_end))
            except OverflowError:  # past the double range: no floor
                noise = 0.0
            scale = max(float(np.max(np.abs(exact))), noise)
            err = float(np.max(np.abs(traj.frames[-1] - exact))) / scale
            truncated = len(traj.frames) < n_steps + 1
            # the next march must not run beside this one's frames
            del traj
            # a nan error is no evidence of convergence
            diverged = truncated or not err <= DIVERGENCE_THRESHOLD
            rows.append((method, dt, grid.dx, t_end, err, diverged))
    return rows


def _run_pde_stability(p: dict) -> list:
    problem, grid, kinds, ks, _, _ = _plan(p, _abort)
    rows = []
    for method in p["methods"]:
        for dt in p["dt"]:
            g = pde.amplification_factor(kinds[method](dt), problem, grid, ks)
            stable = np.abs(g) <= 1.0 + 1e-12
            # tolist() gives the report Python floats and bools
            rows.extend(zip([method] * len(g), ks.tolist(), [dt] * len(g),
                            g.tolist(), stable.tolist()))
    return rows


def _run_ml_identities(p: dict) -> list:
    # (alpha, z, oracle): E_1(z) = e^z, E_1/2(-t) = e^{t^2} erfc(t), E(0) = 1
    cases = ([(1.0, float(z), math.exp(z)) for z in range(-10, 6)]
             + [(0.5, -t, math.exp(t * t) * math.erfc(t))
                for t in (0.5, 1.0, 2.0, 3.0)]
             + [(alpha, 0.0, 1.0) for alpha in p["alphas"]])
    rows = []
    for alpha, z, oracle in cases:
        value = mittag_leffler(MLParams(alpha=alpha, tol=p["tol"]), z)
        rows.append((alpha, z, value, oracle, abs(value - oracle)))
    return rows


def _run_signature_demo(p: dict) -> list:
    times = propagators.origin_window(p["n_samples"], p["t_min"], p["t_max"])
    alpha, rate = p["alpha"], p["lambda"]
    propagate = getattr(propagators, _PROPAGATORS[p["propagator"]])
    wave = [1.0 - propagate(rate, alpha, float(t)) for t in times]
    signature = propagators.signature_fit(zip(times.tolist(), wave))
    return [(alpha, signature.alpha_hat, signature.c_hat,
             signature.fit_residual)]


def _laplace_error(p: dict, m: int) -> tuple[float, float]:
    """The max nodal error of the laplace_bvp run with validated values
    ``p`` on its level of ``m`` points, and the max nodal amplitude of the
    analytic solution that it measures against."""
    grid = pde.Grid1D(x0=0.0, dx=1.0 / (m - 1), m_points=m,
                      boundary=pde.Dirichlet(0.0, 0.0))
    mode = p["ic_mode"]
    sine = np.sin(mode * math.pi * grid.points)
    problem = pde.PDEProblem(a=p["a"], b=p["b"], initial_condition=sine)
    solution = pde.laplace_mode_solve(problem, grid, p["s"])
    analytic = sine / (p["a"] * (mode * math.pi) ** 2 + p["s"] - p["b"])
    return (float(np.max(np.abs(solution - analytic))),
            float(np.max(np.abs(analytic))))


def _run_laplace_bvp(p: dict) -> list:
    rows = []
    prev_err = None
    for level in range(p["levels"]):
        m = (p["m0"] - 1) * 2**level + 1
        err, _ = _laplace_error(p, m)
        observed = math.log2(prev_err / err) if prev_err else None
        rows.append((level, m, 1.0 / (m - 1), err, observed))
        prev_err = err
    return rows


# --- the table ---------------------------------------------------------------

@dataclass(frozen=True)
class _Experiment:
    """Everything that declares one experiment."""

    command: str                 # the CLI subcommand that runs it
    study: Optional[str]         # its --study value; the first is the default
    help: str                    # the subcommand's help text
    fields: tuple[Field, ...]    # its config keys
    columns: tuple[str, ...]     # its report's columns
    plot: PlotSpec               # its SVG
    run: Callable[[dict], list]  # validated values -> report rows
    check: Callable[[dict, Callable[[str, str], None]], object] = \
        lambda values, bad: None
    # CLI values for keys a config file must give itself
    cli_defaults: dict[str, str] = field(default_factory=dict)


_PDE_HELP = "diffusion-reaction comparison/stability"

_PDE_SOLVER_FIELDS = (
    Field("methods", "str_list", default=("euler", "nsfd", "spectral_modal"),
          check=_in_names(_PDE_METHODS)),
    Field("k_mode", "float"), Field("s_mode", "float"))

_EXPERIMENTS: dict[str, _Experiment] = {
    "decay_order": _Experiment(
        "decay", None, "decay-equation order study",
        fields=(Field("lambda", "float", required=True, check=_positive),
                Field("t_final", "float", required=True, check=_positive),
                Field("h0", "float", required=True, check=_positive),
                Field("levels", "int", required=True, check=_at_least(4)),
                Field("x0", "float", default=1.0),
                Field("schemes", "str_list", default=_SCHEMES,
                      check=_in_names(_SCHEMES))),
        columns=("scheme", "h", "error", "observed_p", "exact_flag"),
        plot=PlotSpec(x="h", y="error", logx=True, logy=True,
                      group_by=("scheme",)),
        run=_run_decay_order, check=_check_decay_order,
        cli_defaults={"lambda": "1.0", "t_final": "1.0", "h0": "0.125",
                      "levels": "6"},
    ),
    "ho_exact": _Experiment(
        "ho", None, "exact harmonic-oscillator run",
        fields=(Field("omega", "float", required=True, check=_positive),
                Field("h", "float", required=True, check=_positive),
                Field("n_steps", "int", required=True, check=_at_least(2)),
                Field("y0", "float", default=1.0),
                Field("v0", "float", default=0.0)),
        columns=("omega", "h", "n", "y_value", "exact", "abs_err",
                 "energy_drift"),
        plot=PlotSpec(x="n", y="abs_err", logx=True, logy=True),
        run=_run_ho_exact, check=_check_ho_exact,
        cli_defaults={"omega": "1.0", "h": "0.7", "n_steps": "10000"},
    ),
    "pde_compare": _Experiment(
        "pde", "compare", _PDE_HELP,
        fields=(Field("a", "float", required=True, check=_nonnegative),
                Field("b", "float", required=True),
                Field("ic_mode", "int", required=True, check=_nonnegative),
                Field("m_points", "int", default=64, check=_at_least(3)),
                Field("domain_length", "float", default=2.0 * math.pi,
                      check=_positive),
                Field("t_final", "float", required=True, check=_positive),
                Field("dt", "float_list", required=True, check=_positive_list),
                *_PDE_SOLVER_FIELDS),
        columns=("method", "dt", "dx", "t_final", "max_nodal_error",
                 "diverged"),
        plot=PlotSpec(x="dt", y="max_nodal_error", logx=True, logy=True,
                      group_by=("method",)),
        run=_run_pde_compare, check=_plan,
        cli_defaults={"a": "1.0", "b": "0.0", "ic_mode": "1",
                      "t_final": "2.0", "dt": "0.01,0.1,1.0"},
    ),
    "pde_stability": _Experiment(
        "pde", "stability", _PDE_HELP,
        fields=(Field("a", "float", required=True, check=_nonnegative),
                Field("b", "float", required=True),
                Field("dx", "float", required=True, check=_positive),
                Field("m_points", "int", default=32,
                      check=lambda v: _TOO_LARGE if v > MAX_ARRAY_POINTS
                      else _at_least(3)(v)),
                Field("dt", "float_list", required=True, check=_positive_list),
                *_PDE_SOLVER_FIELDS),
        columns=("method", "k", "dt", "amplification", "stable_flag"),
        plot=PlotSpec(x="k", y="amplification", group_by=("method", "dt")),
        run=_run_pde_stability, check=_plan,
        # the CLI's m_points of 64 overrides the field's 32
        cli_defaults={"a": "1.0", "b": "0.0", "dx": "0.1", "m_points": "64",
                      "dt": "0.01,0.1,1.0"},
    ),
    "ml_identities": _Experiment(
        "ml", None, "Mittag-Leffler identity checks",
        fields=(Field("tol", "float", default=1e-12,
                      check=lambda v: None if 0.0 < v < 1.0
                      else "must lie in (0, 1)"),
                Field("alphas", "float_list",
                      default=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                               1.0),
                      check=lambda v: None
                      if all(ALPHA_MIN <= x <= 1.0 for x in v)
                      else f"entries must lie in [{ALPHA_MIN:g}, 1]")),
        columns=("alpha", "z", "value", "oracle", "abs_err"),
        plot=PlotSpec(x="z", y="abs_err", logy=True, group_by=("alpha",)),
        run=_run_ml_identities,
    ),
    "signature_demo": _Experiment(
        "signature", None, "near-origin signature fit demo",
        fields=(Field("alpha", "float", required=True,
                      check=lambda v: None if 0.0 < v <= 1.0
                      else "must lie in (0, 1]"),
                Field("lambda", "float", default=1.0, check=_positive),
                Field("n_samples", "int", default=24,
                      check=lambda v: None
                      if MIN_FIT_SAMPLES <= v <= MAX_SIGNATURE_SAMPLES
                      else f"must lie in [{MIN_FIT_SAMPLES}, "
                           f"{MAX_SIGNATURE_SAMPLES}]"),
                Field("t_min", "float", default=1e-4, check=_positive),
                Field("t_max", "float", default=1e-2, check=_positive),
                Field("propagator", "str", default="nonlocal_ml",
                      check=lambda v: None if v in _PROPAGATORS
                      else f"must be one of: {', '.join(_PROPAGATORS)}")),
        columns=("alpha_true", "alpha_hat", "c_hat", "residual"),
        plot=PlotSpec(x="alpha_true", y="alpha_hat"),
        run=_run_signature_demo, check=_check_signature_demo,
    ),
    "laplace_bvp": _Experiment(
        "laplace", None, "Laplace-mode BVP convergence",
        fields=(Field("a", "float", required=True, check=_positive),
                Field("b", "float", required=True),
                Field("s", "float", required=True),
                Field("levels", "int", default=4, check=_at_least(2)),
                Field("m0", "int", default=11, check=_at_least(5)),
                Field("ic_mode", "int", default=1, check=_positive)),
        columns=("level", "m_points", "dx", "max_nodal_error", "observed_p"),
        plot=PlotSpec(x="dx", y="max_nodal_error", logx=True, logy=True),
        run=_run_laplace_bvp, check=_check_laplace_bvp,
        cli_defaults={"a": "1.0", "b": "0.0", "s": "2.0"},
    ),
}
