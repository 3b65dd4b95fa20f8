"""Fixed-input measurements: golden runs, layer probes and import times.

None of these depends on the seed.  The golden comparison runs in every
benchmark run and feeds the failure count; the probes and import times run
only in traced runs and are reported as per-layer metrics.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from studies import Op, run_op


def _without_timestamp(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if not ln.startswith("# generated:")]


def golden_runs(root: Path, work: Path, cli) -> tuple[int, list[str], dict]:
    """Run every experiment on the config echoed in its golden CSV and
    byte-compare the result, timestamp line excepted.

    Returns (operations attempted, problems, wall seconds per experiment).
    """
    goldens = sorted((root / "tests" / "golden").glob("*.csv"))
    if not goldens:
        return 1, ["golden: no golden CSV files found"], {}
    problems, seconds = [], {}
    work.mkdir(parents=True, exist_ok=True)
    for golden in goldens:
        expected = golden.read_text()
        config = "\n".join(ln[len("# config: "):] for ln in expected.splitlines()
                           if ln.startswith("# config: ")) + "\n"
        cfg = work / f"{golden.stem}.cfg"
        cfg.write_text(config)
        op = Op(f"golden.{golden.stem}", check=lambda _: [],
                experiment=golden.stem, cli_args=["run", str(cfg)])
        t0 = time.perf_counter()
        outcome = run_op(op, work, cli)
        seconds[golden.stem] = time.perf_counter() - t0
        produced = work / golden.name
        if outcome.exit_code != 0:
            problems.append(f"golden {golden.stem}: exit {outcome.exit_code} "
                            f"{outcome.stderr.strip()}")
        elif not produced.exists() or (_without_timestamp(produced.read_text())
                                       != _without_timestamp(expected)):
            problems.append(f"golden {golden.stem}: output differs")
    return len(goldens), problems, seconds


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


# (alpha, z) for each argument class of the Mittag-Leffler function.
ML_POINTS = {"z_pos": (0.8, 2.0), "z_neg_moderate": (0.9, -20.0),
             "z_neg_deep": (0.9, -45.0)}


def layer_probes(specfun, pde) -> dict[str, float]:
    """Timings of single layer calls on fixed inputs (median of repeats)."""
    out = {}
    for label, (alpha, z) in ML_POINTS.items():
        params = specfun.MLParams(alpha=alpha)
        out[f"probe.ml.{label}_us"] = 1e6 * _median_time(
            lambda: specfun.mittag_leffler(params, z), 7)

    def periodic(m: int):
        grid = pde.Grid1D(x0=0.0, dx=2.0 * math.pi / m, m_points=m,
                          boundary=pde.Periodic())
        return grid, pde.PDEProblem(a=1.0, b=0.5,
                                    initial_condition=np.sin(3.0 * grid.points))

    steps = 200
    for m in (64, 1024, 16384):
        grid, problem = periodic(m)
        kind = pde.Nsfd(dt=0.25 * grid.dx**2)
        out[f"probe.step.m{m}_us"] = 1e6 / steps * _median_time(
            lambda: pde.evolve(problem, grid, kind, steps), 3)

    for m in (64, 1024, 16384):
        grid = pde.Grid1D(x0=0.0, dx=1.0 / (m - 1), m_points=m,
                          boundary=pde.Dirichlet(0.0, 0.0))
        problem = pde.PDEProblem(a=1.0, b=0.0,
                                 initial_condition=np.sin(math.pi * grid.points))
        out[f"probe.laplace.m{m}_us"] = 1e6 * _median_time(
            lambda: pde.laplace_mode_solve(problem, grid, 2.0), 5)

    for m, repeats in ((64, 5), (1024, 3), (4096, 1)):
        grid, problem = periodic(m)
        out[f"probe.modal.m{m}_ms"] = 1e3 * _median_time(
            lambda: pde.evolve_modal(problem, grid, 0.01, 1), repeats)
    return out


def import_times(src: Path, env: dict, repeats: int = 3) -> dict[str, float]:
    """Median cumulative import time of numpy, mpmath and spectralfd's own
    modules, from ``-X importtime`` of a fresh interpreter importing the CLI."""
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import spectralfd.harness.cli")
    samples: dict[str, list[float]] = {"numpy": [], "mpmath": [],
                                       "spectralfd.harness.cli": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(float(parts[1]) * 1e-6)
    med = {k: statistics.median(v) for k, v in samples.items()}
    return {
        "harness.import.numpy_s": med["numpy"],
        "harness.import.mpmath_s": med["mpmath"],
        "harness.import.spectralfd_s": (med["spectralfd.harness.cli"]
                                        - med["numpy"] - med["mpmath"]),
    }
