"""spectralfd benchmark: seeded study workloads, end-to-end and per-layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload modal --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one caller in this single-threaded process
runs studies back to back until ``--seconds`` have passed (one untimed
warm-up study first).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` spends half the time untraced and half with every public
package function wrapped, and reports the per-layer metrics.  The last line
of standard output is one JSON object; the line before it records the run's
context (seed, machine, versions, tail percentile, failures).
See bench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One thread per workload: fixed before numpy is imported, here and in
# every interpreter this benchmark starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import mpmath  # noqa: E402  (numpy after the thread variables)
import numpy  # noqa: E402

import probes  # noqa: E402
import studies  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7

_SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import spectralfd.harness.cli
from spectralfd.harness.config import parse_config
for text in json.loads(sys.argv[2]):
    parse_config(text)
"""


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_package():
    """Import spectralfd from this checkout's ``src`` and nowhere else."""
    if not (SRC / "spectralfd" / "__init__.py").is_file():
        _fail(f"no spectralfd sources under {SRC}")
    if not (ROOT / "tests" / "golden").is_dir():
        _fail(f"no golden CSVs under {ROOT / 'tests' / 'golden'}")
    sys.path.insert(0, str(SRC))
    import spectralfd
    from spectralfd import denominators, pde_solvers, specfun
    from spectralfd.harness import cli
    if Path(spectralfd.__file__).resolve().parent != SRC / "spectralfd":
        _fail(f"spectralfd imported from {spectralfd.__file__}, not {SRC}")
    return argparse.Namespace(pde_solvers=pde_solvers, specfun=specfun,
                              denominators=denominators, cli=cli)


def _environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__}


def measure_setup(texts: str) -> float:
    """Wall time of a fresh interpreter importing the CLI and validating the
    workload's configs (``texts``, a JSON list of config documents)."""
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), texts],
                   check=True)
    return time.perf_counter() - t0


class Runner:
    """Runs studies of one workload and keeps the failure tally."""

    def __init__(self, workload: str, seed: int, modules, work: Path):
        self.workload, self.seed, self.modules = workload, seed, modules
        self.work = work
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ops(self, index: int):
        return studies.study(self.workload, self.seed, index, self.modules)

    def one_study(self, tracer=None) -> float:
        """Run the next study; returns its wall time (checks excluded)."""
        ops = self.ops(self.index)
        dirs = [self.work / f"op{j}" for j in range(len(ops))]
        run_op, cli = studies.run_op, self.modules.cli
        if tracer is None:
            t0 = time.perf_counter()
            outcomes = [run_op(op, d, cli) for op, d in zip(ops, dirs)]
            wall = time.perf_counter() - t0
        else:
            outcomes = []
            with tracer.span("bench.study", study=self.index) as root:
                for op, d in zip(ops, dirs):
                    with tracer.span("bench.op"):
                        outcomes.append(run_op(op, d, cli))
            wall = tracer.end[root.index] - tracer.start[root.index]
        for op, outcome, d in zip(ops, outcomes, dirs):
            problems = studies.check_op(op, outcome, d)
            self.failed += bool(problems)
            self.problems += problems
        self.attempted += len(ops)
        self.index += 1
        return wall

    def loop(self, seconds: float, tracer=None) -> list[float]:
        walls = []
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            walls.append(self.one_study(tracer))
        return walls


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile of ``walls`` that still
    has at least ten samples beyond it, never below the median."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=studies.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    modules = _load_package()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    runner = Runner(args.workload, args.seed, modules, work)
    info = {"workload": args.workload, **_environment(args.seed)}
    metrics: dict[str, float] = {}
    try:
        runner.one_study()  # warm-up, untimed
        if not args.trace:
            # set-up samples are spread over the run, between studies, so
            # that their median sees the same machine as the studies do
            texts = json.dumps([op.config_text() for op in runner.ops(0)
                                if op.experiment])
            setups, walls = [], []
            for _ in range(SETUP_REPEATS):
                setups.append(measure_setup(texts))
                walls += runner.loop(args.seconds / SETUP_REPEATS)
            metrics["setup_s"] = statistics.median(setups)
            metrics["study_tail_s"], pct = tail(walls)
            info.update(studies=len(walls), tail_percentile=pct,
                        study_p50_s=statistics.median(walls),
                        studies_per_s=len(walls) / sum(walls))
        else:
            plain = runner.loop(args.seconds / 2)
            tracer = Tracer()
            with tracer:
                traced = runner.loop(args.seconds / 2, tracer)
            tracer.write(OUT / f"spans-{args.workload}.npz")
            metrics.update(layer_metrics(tracer, traced))
            metrics["trace.study_p50_s"] = statistics.median(traced)
            metrics["trace.untraced_study_p50_s"] = statistics.median(plain)
            metrics["trace.overhead_frac"] = (metrics["trace.study_p50_s"]
                                              / metrics["trace.untraced_study_p50_s"]
                                              - 1.0)
            metrics.update(probes.layer_probes(modules.specfun,
                                               modules.pde_solvers))
            metrics.update(probes.import_times(SRC, dict(os.environ)))
            info.update(studies=len(plain), traced_studies=len(traced))

        attempted, problems, golden_s = probes.golden_runs(
            ROOT, work / "golden", modules.cli)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    runner.attempted += attempted
    runner.failed += len(problems)
    runner.problems += problems
    for name, seconds in golden_s.items():
        metrics[f"probe.golden.{name}_ms"] = 1e3 * seconds
    metrics["ops.fail_frac"] = runner.failed / runner.attempted
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                              / 1024.0)

    for problem in runner.problems[:20]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        _fail(f"metrics not measured: {missing}")
    info.update(attempted=runner.attempted, failed=runner.failed)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
