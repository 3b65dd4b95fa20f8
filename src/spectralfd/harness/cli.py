"""Command-line interface.

Subcommands mirror the experiment types (``decay``, ``ho``, ``pde``, ``ml``,
``signature``, ``laplace``) with typed flags, and ``run`` executes a config
file.  Exit codes: 0 success, 2 configuration error, 3 runtime abort.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from .config import ConfigError, ExperimentKind, build_config, parse_config
from .experiments import run_experiment
from .report import PlotSpec, emit_csv, emit_json, emit_svg

__all__ = ["main"]

_DEFAULT_PLOTS = {
    "decay_order": PlotSpec(x="h", y=("error",), logx=True, logy=True,
                            group_by=("scheme",)),
    "ho_exact": PlotSpec(x="n", y=("abs_err",), logx=True, logy=True),
    "pde_compare": PlotSpec(x="dt", y=("max_nodal_error",), logx=True,
                            logy=True, group_by=("method",)),
    "pde_stability": PlotSpec(x="k", y=("amplification",),
                              group_by=("method", "dt")),
    "ml_identities": PlotSpec(x="z", y=("abs_err",), logy=True,
                              group_by=("alpha",)),
    "signature_demo": PlotSpec(x="alpha_true", y=("alpha_hat",)),
    "laplace_bvp": PlotSpec(x="dx", y=("max_nodal_error",), logx=True,
                            logy=True),
}


class _Parser(argparse.ArgumentParser):
    """Reads "-5e-05" and "-.5" as negative numbers, not as option flags.

    The stock pattern only knows plain decimals, so "--b -5e-05" would fail
    with "expected one argument".  Subparsers inherit this class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", default="csv",
                        choices=("csv", "json", "svg"),
                        help="report format (default: csv)")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(","))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it as is."""
    parser = _Parser(
        prog="spectralfd",
        description="Denominator-function discretization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decay = sub.add_parser("decay", help="decay-equation order study")
    decay.add_argument("--lambda", dest="lam", type=float, default=1.0)
    decay.add_argument("--t-final", type=float, default=1.0)
    decay.add_argument("--h0", type=float, default=0.125)
    decay.add_argument("--levels", type=int, default=6)
    decay.add_argument("--x0", type=float, default=1.0)
    decay.add_argument("--schemes", type=_str_list, default=None)
    _add_common(decay)

    ho = sub.add_parser("ho", help="exact harmonic-oscillator run")
    ho.add_argument("--omega", type=float, default=1.0)
    ho.add_argument("--h", type=float, default=0.7)
    ho.add_argument("--n-steps", type=int, default=10000)
    ho.add_argument("--y0", type=float, default=1.0)
    ho.add_argument("--v0", type=float, default=0.0)
    _add_common(ho)

    pde = sub.add_parser("pde", help="diffusion-reaction comparison/stability")
    pde.add_argument("--study", choices=("compare", "stability"),
                     default="compare")
    pde.add_argument("--a", type=float, default=1.0)
    pde.add_argument("--b", type=float, default=0.0)
    pde.add_argument("--ic-mode", type=int, default=1)
    pde.add_argument("--m-points", type=int, default=64)
    pde.add_argument("--domain-length", type=float, default=None)
    pde.add_argument("--dx", type=float, default=0.1)
    pde.add_argument("--t-final", type=float, default=2.0)
    pde.add_argument("--dt", type=_float_list, default=(0.01, 0.1, 1.0))
    pde.add_argument("--methods", type=_str_list, default=None)
    pde.add_argument("--k-mode", type=float, default=None)
    pde.add_argument("--s-mode", type=float, default=None)
    _add_common(pde)

    ml = sub.add_parser("ml", help="Mittag-Leffler identity checks")
    ml.add_argument("--tol", type=float, default=1e-12)
    ml.add_argument("--alphas", type=_float_list, default=None)
    _add_common(ml)

    sig = sub.add_parser("signature", help="near-origin signature fit demo")
    sig.add_argument("--alpha", type=float, required=True)
    sig.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sig.add_argument("--n-samples", type=int, default=24)
    sig.add_argument("--t-min", type=float, default=1e-4)
    sig.add_argument("--t-max", type=float, default=1e-2)
    sig.add_argument("--propagator", choices=("local_exp", "nonlocal_ml"),
                     default="nonlocal_ml")
    _add_common(sig)

    lap = sub.add_parser("laplace", help="Laplace-mode BVP convergence")
    lap.add_argument("--a", type=float, default=1.0)
    lap.add_argument("--b", type=float, default=0.0)
    lap.add_argument("--s", type=float, default=2.0)
    lap.add_argument("--levels", type=int, default=4)
    lap.add_argument("--m0", type=int, default=11)
    lap.add_argument("--ic-mode", type=int, default=1)
    _add_common(lap)

    run = sub.add_parser("run", help="run a configuration file")
    run.add_argument("config_file")
    _add_common(run)
    return parser


def _config_from_args(args: argparse.Namespace):
    command = args.command
    if command == "run":
        return parse_config(Path(args.config_file).read_text(encoding="utf-8"))

    def keep(d: dict) -> dict:
        return {k: v for k, v in d.items() if v is not None}

    if command == "decay":
        return build_config(ExperimentKind.DECAY_ORDER, keep({
            "lambda": args.lam, "t_final": args.t_final, "h0": args.h0,
            "levels": args.levels, "x0": args.x0, "schemes": args.schemes,
        }))
    if command == "ho":
        return build_config(ExperimentKind.HO_EXACT, keep({
            "omega": args.omega, "h": args.h, "n_steps": args.n_steps,
            "y0": args.y0, "v0": args.v0,
        }))
    if command == "pde":
        if args.study == "compare":
            return build_config(ExperimentKind.PDE_COMPARE, keep({
                "a": args.a, "b": args.b, "ic_mode": args.ic_mode,
                "m_points": args.m_points,
                "domain_length": args.domain_length,
                "t_final": args.t_final, "dt": args.dt,
                "methods": args.methods, "k_mode": args.k_mode,
                "s_mode": args.s_mode,
            }))
        return build_config(ExperimentKind.PDE_STABILITY, keep({
            "a": args.a, "b": args.b, "dx": args.dx,
            "m_points": args.m_points, "dt": args.dt,
            "methods": args.methods, "k_mode": args.k_mode,
            "s_mode": args.s_mode,
        }))
    if command == "ml":
        return build_config(ExperimentKind.ML_IDENTITIES, keep({
            "tol": args.tol, "alphas": args.alphas,
        }))
    if command == "signature":
        return build_config(ExperimentKind.SIGNATURE_DEMO, keep({
            "alpha": args.alpha, "lambda": args.lam,
            "n_samples": args.n_samples, "t_min": args.t_min,
            "t_max": args.t_max, "propagator": args.propagator,
        }))
    if command == "laplace":
        return build_config(ExperimentKind.LAPLACE_BVP, keep({
            "a": args.a, "b": args.b, "s": args.s, "levels": args.levels,
            "m0": args.m0, "ic_mode": args.ic_mode,
        }))
    raise AssertionError(f"unhandled command {command}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_experiment(config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = out_dir / report.experiment
        if args.format == "csv":
            emit_csv(report, stem.with_suffix(".csv"))
        elif args.format == "json":
            emit_json(report, stem.with_suffix(".json"))
        else:
            emit_svg(report, _DEFAULT_PLOTS[report.experiment],
                     stem.with_suffix(".svg"))
    except Exception as exc:  # runtime abort: distinct exit code
        print(f"runtime abort in {config.experiment.value}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {stem.with_suffix('.' + args.format)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
