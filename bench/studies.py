"""Workload definitions: seeded studies, how an operation runs, and oracles.

A study is a fixed batch of operations.  An operation is one in-process
``spectralfd.harness.cli.main`` call, or one direct library call where the
CLI has no entry point.  The seed (with the study index) draws only
physical parameters - coefficients, modes, orders, rates - from fixed
ranges; grid sizes, step counts and call counts are constants, so the work
in a study does not depend on the seed.

Every check compares a result with a closed form or series computed here,
independently of the package, and runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import mpmath
import numpy as np

WORKLOADS = ("modal", "explicit", "relaxation")

_SUBCOMMAND = {
    "decay_order": ["decay"],
    "ho_exact": ["ho"],
    "pde_compare": ["pde", "--study", "compare"],
    "pde_stability": ["pde", "--study", "stability"],
    "ml_identities": ["ml"],
    "signature_demo": ["signature"],
    "laplace_bvp": ["laplace"],
}


def _text(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(_text(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class Op:
    """One operation of a study.

    A CLI operation names the ``experiment`` whose CSV it writes and either
    its ``params`` (config keys, turned into subcommand flags) or explicit
    ``cli_args``; a direct operation carries a ``call``.  ``check`` receives
    the parsed CSV rows (CLI) or the call's return value (direct) and
    returns the list of problems found.
    """

    label: str
    check: Callable[[object], list[str]]
    experiment: Optional[str] = None
    params: dict = field(default_factory=dict)
    cli_args: Optional[list[str]] = None
    call: Optional[Callable[[], object]] = None

    def __post_init__(self) -> None:
        if self.experiment is not None and self.cli_args is None:
            self.cli_args = list(_SUBCOMMAND[self.experiment])
            for key, value in self.params.items():
                self.cli_args += ["--" + key.replace("_", "-"), _text(value)]

    def argv(self, out_dir: Path) -> list[str]:
        return self.cli_args + ["--out", str(out_dir)]

    def config_text(self) -> str:
        lines = [f"experiment = {self.experiment}"]
        lines += [f"{k} = {_text(v).replace(',', ', ')}"
                  for k, v in self.params.items()]
        return "\n".join(lines) + "\n"


@dataclass
class Outcome:
    """What an operation returned, before any check runs."""

    exit_code: object = 0
    stderr: str = ""
    value: object = None


def run_op(op: Op, out_dir: Path, cli) -> Outcome:
    """Run one operation in-process; never raises."""
    if op.call is not None:
        try:
            return Outcome(value=op.call())
        except Exception as exc:  # a failed operation is data
            return Outcome(exit_code=f"raised {type(exc).__name__}: {exc}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv(out_dir))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # uncaught traceback counts as a failure
            code = f"raised {type(exc).__name__}: {exc}"
    return Outcome(exit_code=code, stderr=err.getvalue())


def read_csv_rows(path: Path) -> list[dict[str, str]]:
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def check_op(op: Op, outcome: Outcome, out_dir: Path) -> list[str]:
    """Problems with one operation's outcome (empty when it passed)."""
    if outcome.exit_code not in (0, None):
        return [f"{op.label}: exit {outcome.exit_code} {outcome.stderr.strip()}"]
    try:
        if op.call is not None:
            value = outcome.value
        else:
            value = read_csv_rows(out_dir / f"{op.experiment}.csv")
        problems = op.check(value)
    except (OSError, LookupError, ValueError, TypeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return [f"{op.label}: {p}" for p in problems]


# --- independent oracles ---------------------------------------------------

def _close(value: float, reference: float, rel: float,
           abs_tol: float = 0.0) -> bool:
    return abs(value - reference) <= max(rel * abs(reference), abs_tol)


def ml_series(alpha: float, z: float) -> float:
    """E_alpha(z) by its power series in extended precision.

    Working precision covers the cancellation for z < 0, whose largest term
    exceeds the result by about exp(|z|**(1/alpha)); the sum stops once the
    terms are past their peak and below 2**-80 of the running total.
    """
    x = abs(z)
    peak = x ** (1.0 / alpha) / alpha
    bits = 53 + 80 + (int(1.4427 * x ** (1.0 / alpha)) if z < 0 else 0)
    with mpmath.workprec(bits):
        zm, am = mpmath.mpf(z), mpmath.mpf(alpha)
        total = mpmath.mpf(0)
        power = mpmath.mpf(1)
        k = 0
        while True:
            # alpha * k + 1 in double precision would put a relative error
            # of ~k * 1e-16 on terms that dwarf the result
            term = power / mpmath.gamma(am * k + 1)
            total += term
            if k > peak + 2 and abs(term) < abs(total) * mpmath.mpf(2) ** -80:
                return float(total)
            power *= zm
            k += 1


def _nsfd_phi(dt: float, b: float) -> float:
    return dt if b == 0.0 else math.expm1(b * dt) / b


def _nsfd_psi2(dx: float, r: float) -> float:
    if r == 0.0:
        return dx * dx
    if r > 0.0:
        return 4.0 * math.sin(math.sqrt(r) * dx / 2.0) ** 2 / r
    return 4.0 * math.sinh(math.sqrt(-r) * dx / 2.0) ** 2 / -r


def _is_true(cell: str) -> bool:
    return cell == "true"


# --- modal -------------------------------------------------------------------

def _check_compare(n_steps: int, dt: float, methods: tuple[str, ...]):
    """Rows of a ``pde`` compare run at stable step sizes: the modal method
    is exact to 1e-10, the explicit ones stay well below divergence."""
    def check(rows):
        problems = []
        if [r["method"] for r in rows] != list(methods):
            problems.append(f"methods {[r['method'] for r in rows]}")
        for r in rows:
            if _is_true(r["diverged"]):
                problems.append(f"{r['method']} diverged")
            if not _close(float(r["t_final"]), n_steps * dt, 1e-12):
                problems.append(f"{r['method']} t_final {r['t_final']}")
            err = float(r["max_nodal_error"])
            limit = 1e-10 if r["method"] == "spectral_modal" else 0.1
            if not err <= limit:
                problems.append(f"{r['method']} error {err:g} > {limit:g}")
        return problems
    return check


def _modal_frames_check(p: dict, n_steps: int, dt: float, pde) -> list[str]:
    """Evolve the same problem through the library and compare every frame
    with exp((b - a k^2) t) sin(k x)."""
    m, length = p["m_points"], 2.0 * math.pi
    k = float(p["ic_mode"])
    x = np.arange(m) * (length / m)
    grid = pde.Grid1D(x0=0.0, dx=length / m, m_points=m,
                      boundary=pde.Periodic())
    problem = pde.PDEProblem(a=p["a"], b=p["b"],
                             initial_condition=np.sin(k * x))
    traj = pde.evolve(problem, grid, pde.SpectralModal(dt=dt), n_steps)
    t = np.arange(n_steps + 1)[:, None] * dt
    exact = np.exp((p["b"] - p["a"] * k * k) * t) * np.sin(k * x)
    scale = np.max(np.abs(exact), axis=1)
    err = float(np.max(np.max(np.abs(traj.frames - exact), axis=1) / scale))
    return [] if err <= 1e-10 else [f"modal frames error {err:g}"]


def modal_study(rng: np.random.Generator, pde) -> list[Op]:
    """Transform-bound: exact modal evolution and the default (k, s) choice
    at M = 1024, plus one smaller run at M = 256."""
    a = rng.uniform(0.5, 1.5)
    b = rng.uniform(-0.5, 0.5)
    mode = int(rng.integers(1, 9))
    base = {"a": a, "b": b, "ic_mode": mode}
    ops = []

    dt = rng.uniform(0.005, 0.02)
    n = 4
    p = dict(base, m_points=1024, t_final=n * dt, dt=[dt],
             methods=["spectral_modal"])
    ops.append(Op("modal1024", _check_compare(n, dt, ("spectral_modal",)),
                  "pde_compare", p))

    dx = 2.0 * math.pi / 1024
    dt = 0.2 * dx * dx / a
    p = dict(base, m_points=1024, t_final=n * dt, dt=[dt],
             methods=["spectral_phys"])
    ops.append(Op("phys1024", _check_compare(n, dt, ("spectral_phys",)),
                  "pde_compare", p))

    dx = 2.0 * math.pi / 256
    dt = 0.2 * dx * dx / a
    n = 10
    p = dict(base, m_points=256, t_final=n * dt, dt=[dt],
             methods=["spectral_modal", "spectral_phys"])
    compare = _check_compare(n, dt, ("spectral_modal", "spectral_phys"))
    frames = functools.partial(_modal_frames_check, p, n, dt, pde)
    ops.append(Op("modal_phys256", lambda rows: compare(rows) + frames(),
                  "pde_compare", p))
    return ops


# --- explicit ------------------------------------------------------------------

def _check_stability(p: dict, n_k: int):
    a, b, dx = p["a"], p["b"], p["dx"]
    k_mode, s_mode = p["k_mode"], p["s_mode"]

    def closed_form(method: str, k: float, dt: float) -> float:
        sin2 = math.sin(k * dx / 2.0) ** 2
        if method == "euler":
            return 1.0 + dt * (b - 4.0 * a * sin2 / (dx * dx))
        if method == "nsfd":
            return 1.0 + _nsfd_phi(dt, b) * (b - 4.0 * a * sin2
                                             / _nsfd_psi2(dx, b / a))
        phi = _nsfd_phi(dt, b - a * k_mode * k_mode)
        return 1.0 + phi * (b - 4.0 * a * sin2
                            / _nsfd_psi2(dx, (b - s_mode) / a))

    def check(rows):
        problems = []
        expected_rows = len(p["methods"]) * len(p["dt"]) * n_k
        if len(rows) != expected_rows:
            problems.append(f"{len(rows)} rows, expected {expected_rows}")
        for r in rows:
            ref = closed_form(r["method"], float(r["k"]), float(r["dt"]))
            g = float(r["amplification"])
            if not _close(g, ref, 1e-9, 1e-12):
                problems.append(f"{r['method']} k={r['k']} g={g!r} vs {ref!r}")
            elif _is_true(r["stable_flag"]) != (abs(ref) <= 1.0 + 1e-12):
                problems.append(f"{r['method']} k={r['k']} stable flag")
            if len(problems) > 3:
                break
        return problems
    return check


def _check_laplace(m0: int, levels: int):
    def check(rows):
        problems = []
        if len(rows) != levels:
            problems.append(f"{len(rows)} levels")
        for level, r in enumerate(rows):
            if int(r["m_points"]) != (m0 - 1) * 2**level + 1:
                problems.append(f"level {level} m_points {r['m_points']}")
            if level and not abs(float(r["observed_p"]) - 2.0) <= 0.1:
                problems.append(f"level {level} order {r['observed_p']}")
        return problems
    return check


def explicit_study(rng: np.random.Generator, pde) -> list[Op]:
    """Step-bound: thousands of stable explicit steps per method at M = 64,
    a stability sweep over 151 wavenumbers, and a Laplace-mode refinement
    from 11 to 5121 points (10^4 points in all)."""
    ops = []
    a = rng.uniform(0.5, 1.5)
    b = rng.uniform(-0.5, 0.5)
    mode = int(rng.integers(1, 3))
    dx = 2.0 * math.pi / 64
    dt = rng.uniform(0.05, 0.1) * dx * dx / a
    n = 2000
    methods = ("euler", "nsfd", "spectral_phys")
    p = {"a": a, "b": b, "ic_mode": mode, "m_points": 64, "t_final": n * dt,
         "dt": [dt], "methods": list(methods)}
    ops.append(Op("march64", _check_compare(n, dt, methods),
                  "pde_compare", p))

    a = rng.uniform(0.5, 1.5)
    dx = 0.01
    limit = dx * dx / (2.0 * a)
    p = {"a": a, "b": rng.uniform(-1.0, -0.1), "dx": dx, "m_points": 300,
         "dt": [0.5 * limit, 1.2 * limit], "methods": list(methods),
         "k_mode": rng.uniform(0.0, 5.0)}
    p["s_mode"] = p["b"] + rng.uniform(0.1, 2.0)
    ops.append(Op("stability300", _check_stability(p, 151),
                  "pde_stability", p))

    b = rng.uniform(-1.0, 1.0)
    p = {"a": rng.uniform(0.5, 2.0), "b": b, "s": b + rng.uniform(0.5, 3.0),
         "levels": 10, "m0": 11, "ic_mode": int(rng.integers(1, 4))}
    ops.append(Op("laplace5121", _check_laplace(11, 10), "laplace_bvp", p))
    return ops


# --- relaxation --------------------------------------------------------------

_SIGNATURE_ORDERS = ((0.40, 0.55), (0.55, 0.70), (0.70, 0.85), (0.85, 0.97))
STEPPING_ORDER = 0.75


def _check_signature(alpha: float):
    def check(rows):
        hat = float(rows[0]["alpha_hat"])
        return [] if abs(hat - alpha) <= 0.05 else [f"alpha_hat {hat} vs {alpha}"]
    return check


def _check_ml_rows(rows):
    problems = []
    for r in rows:
        alpha, z, value = float(r["alpha"]), float(r["z"]), float(r["value"])
        if z == 0.0:
            ref = 1.0
        elif alpha == 1.0:
            ref = math.exp(z)
        else:  # alpha = 1/2 rows: E_1/2(-t) = exp(t^2) erfc(t)
            ref = math.exp(z * z) * math.erfc(-z)
        if not _close(value, ref, 1e-11, 1e-15):
            problems.append(f"E_{alpha}({z}) = {value!r}, expected {ref!r}")
    return problems


def _check_decay(lam: float, t_final: float, h0: float, levels: int):
    def check(rows):
        problems = []
        for r in rows:
            h = float(r["h"])
            n = round(t_final / h)
            exact = math.exp(-lam * t_final)
            if r["scheme"] in ("mickens_exact", "spectral_exact"):
                if not _is_true(r["exact_flag"]):
                    problems.append(f"{r['scheme']} h={h} not flagged exact")
                continue
            factor = (1.0 - lam * h if r["scheme"] == "forward_euler"
                      else 1.0 / (1.0 + lam * h))
            ref = abs(factor**n - exact)
            if not _close(float(r["error"]), ref, 1e-9, 1e-15):
                problems.append(f"{r['scheme']} h={h} error {r['error']}")
        if len(rows) != 4 * levels:
            problems.append(f"{len(rows)} rows")
        return problems
    return check


def _check_ho(omega: float, h: float):
    def check(rows):
        problems = []
        for r in rows:
            ref = math.cos(omega * int(r["n"]) * h)
            if not abs(float(r["y_value"]) - ref) <= 1e-8:
                problems.append(f"n={r['n']} y={r['y_value']} vs {ref!r}")
        return problems
    return check


def _ml_stepping(denominators, rate: float, alpha: float, t_end: float,
                 n_steps: int) -> list[float]:
    """y_{n+1} = y_n (1 - rate * mu_n) with the exact Mittag-Leffler step
    measure; the product telescopes to E_alpha(-rate t_n^alpha)."""
    times = [t_end * n / n_steps for n in range(n_steps + 1)]
    kind = denominators.ExactStepKind.MITTAG_LEFFLER
    y = [1.0]
    for t_n, t_next in zip(times, times[1:]):
        mu = denominators.mu_exact_step(kind, rate, alpha, t_n, t_next)
        y.append(y[-1] * (1.0 - rate * mu))
    return y


def _check_stepping(rate: float, alpha: float, t_end: float, n_steps: int):
    def check(y):
        problems = []
        for n in (n_steps // 4, n_steps // 2, n_steps):
            t = t_end * n / n_steps
            ref = ml_series(alpha, -rate * t**alpha)
            if not _close(y[n], ref, 1e-9):
                problems.append(f"step {n}: {y[n]!r} vs {ref!r}")
        return problems
    return check


_POSITIVE_Z = (0.5, 1.5, 3.0, 6.0)


def _ml_positive(specfun, alpha: float) -> list[float]:
    params = specfun.MLParams(alpha=alpha)
    return [specfun.mittag_leffler(params, z) for z in _POSITIVE_Z]


def _check_positive(alpha: float):
    def check(values):
        return [f"E_{alpha}({z}) = {v!r}, expected {ref!r}"
                for z, v in zip(_POSITIVE_Z, values)
                if not _close(v, ref := ml_series(alpha, z), 1e-10)]
    return check


def relaxation_study(rng: np.random.Generator, denominators, specfun
                     ) -> list[Op]:
    """Mittag-Leffler-bound: signature fits at four orders, the identity
    table, decay and oscillator runs, exact Mittag-Leffler stepping from
    z = 0 down to z = -30, and E_alpha at four points z > 0."""
    ops = []
    for lo, hi in _SIGNATURE_ORDERS:
        alpha = rng.uniform(lo, hi)
        p = {"alpha": alpha, "lambda": rng.uniform(0.5, 1.2)}
        ops.append(Op(f"signature{lo:.2f}", _check_signature(alpha),
                      "signature_demo", p))
    ops.append(Op("ml", _check_ml_rows, "ml_identities", {}))

    lam = rng.uniform(0.5, 2.0)
    p = {"lambda": lam, "t_final": 1.0, "h0": 0.125, "levels": 6}
    ops.append(Op("decay", _check_decay(lam, 1.0, 0.125, 6), "decay_order", p))

    omega = rng.uniform(0.5, 2.0)
    h = rng.uniform(0.3, 1.5) / omega
    p = {"omega": omega, "h": h, "n_steps": 100000}
    ops.append(Op("ho1e5", _check_ho(omega, h), "ho_exact", p))

    # The order is fixed so that the same number of steps falls on each
    # side of the evaluator's internal regime switch in every study; the
    # rate only rescales time, so z runs over the same points.
    alpha = STEPPING_ORDER
    rate = rng.uniform(0.8, 1.2)
    t_end = (30.0 / rate) ** (1.0 / alpha)
    ops.append(Op("ml_stepping", _check_stepping(rate, alpha, t_end, 24),
                  call=functools.partial(_ml_stepping, denominators, rate,
                                         alpha, t_end, 24)))

    alpha = rng.uniform(0.5, 0.9)
    ops.append(Op("ml_positive", _check_positive(alpha),
                  call=functools.partial(_ml_positive, specfun, alpha)))
    return ops


def study(workload: str, seed: int, index: int, modules) -> list[Op]:
    """The operations of study ``index`` of a workload run with ``seed``."""
    rng = np.random.default_rng([seed, index])
    if workload == "modal":
        return modal_study(rng, modules.pde_solvers)
    if workload == "explicit":
        return explicit_study(rng, modules.pde_solvers)
    if workload == "relaxation":
        return relaxation_study(rng, modules.denominators, modules.specfun)
    raise ValueError(f"unknown workload {workload!r}")
