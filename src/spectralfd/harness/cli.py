"""Command-line interface.

Subcommands mirror the experiment types (``decay``, ``ho``, ``pde``, ``ml``,
``signature``, ``laplace``), and ``run`` executes a config file.  Each flag
is a config key ("_" written as "-") generated from the schemas in
``config``; ``build_config`` checks its string value exactly as it would a
config file's, and ``pde`` rejects the other study's keys.  Exit codes:
0 success, 2 configuration error, 3 runtime abort.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from .config import (_SCHEMAS, ConfigError, ExperimentKind, build_config,
                     parse_config)
from .experiments import run_experiment
from .report import PlotSpec, emit_csv, emit_json, emit_svg

__all__ = ["main"]

_DEFAULT_PLOTS = {
    "decay_order": PlotSpec(x="h", y="error", logx=True, logy=True,
                            group_by=("scheme",)),
    "ho_exact": PlotSpec(x="n", y="abs_err", logx=True, logy=True),
    "pde_compare": PlotSpec(x="dt", y="max_nodal_error", logx=True,
                            logy=True, group_by=("method",)),
    "pde_stability": PlotSpec(x="k", y="amplification",
                              group_by=("method", "dt")),
    "ml_identities": PlotSpec(x="z", y="abs_err", logy=True,
                              group_by=("alpha",)),
    "signature_demo": PlotSpec(x="alpha_true", y="alpha_hat"),
    "laplace_bvp": PlotSpec(x="dx", y="max_nodal_error", logx=True,
                            logy=True),
}


class _Parser(argparse.ArgumentParser):
    """Reads "-5e-05", "-.5", "-inf" and "-nan" as values, not as flags.

    The stock pattern only knows plain decimals, so "--b -5e-05" would fail
    with "expected one argument"; the config checks then judge the value.
    Subparsers inherit this class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)


# Subcommand -> (help, {study: experiment kind}).  Only pde runs two
# kinds; --study picks one, and the first is the default.
_SUBCOMMANDS = {
    "decay": ("decay-equation order study", {None: ExperimentKind.DECAY_ORDER}),
    "ho": ("exact harmonic-oscillator run", {None: ExperimentKind.HO_EXACT}),
    "pde": ("diffusion-reaction comparison/stability",
            {"compare": ExperimentKind.PDE_COMPARE,
             "stability": ExperimentKind.PDE_STABILITY}),
    "ml": ("Mittag-Leffler identity checks",
           {None: ExperimentKind.ML_IDENTITIES}),
    "signature": ("near-origin signature fit demo",
                  {None: ExperimentKind.SIGNATURE_DEMO}),
    "laplace": ("Laplace-mode BVP convergence",
                {None: ExperimentKind.LAPLACE_BVP}),
}

# CLI values for keys a config file must give itself; pde_stability's
# m_points of 64 also overrides the schema's 32.
_CLI_DEFAULTS = {
    ExperimentKind.DECAY_ORDER: {"lambda": "1.0", "t_final": "1.0",
                                 "h0": "0.125", "levels": "6"},
    ExperimentKind.HO_EXACT: {"omega": "1.0", "h": "0.7", "n_steps": "10000"},
    ExperimentKind.PDE_COMPARE: {"a": "1.0", "b": "0.0", "ic_mode": "1",
                                 "t_final": "2.0", "dt": "0.01,0.1,1.0"},
    ExperimentKind.PDE_STABILITY: {"a": "1.0", "b": "0.0", "dx": "0.1",
                                   "m_points": "64", "dt": "0.01,0.1,1.0"},
    ExperimentKind.LAPLACE_BVP: {"a": "1.0", "b": "0.0", "s": "2.0"},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it as is.

    A key flag that is not given stays out of the namespace.
    """
    parser = _Parser(
        prog="spectralfd",
        description="Denominator-function discretization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, studies) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if len(studies) > 1:
            p.add_argument("--study", choices=tuple(studies),
                           default=next(iter(studies)))
        fields = {f.name: f for kind in studies.values()
                  for f in _SCHEMAS[kind]}
        for key, f in fields.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           metavar=f.kind.upper(), default=argparse.SUPPRESS)
    run = sub.add_parser("run", help="run a configuration file")
    run.add_argument("config_file")
    for p in sub.choices.values():
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", default="csv",
                       choices=("csv", "json", "svg"),
                       help="report format (default: csv)")
    return parser


def _config_from_args(args: argparse.Namespace):
    if args.command == "run":
        return parse_config(Path(args.config_file).read_text(encoding="utf-8"))
    kind = _SUBCOMMANDS[args.command][1][getattr(args, "study", None)]
    given = {k: v for k, v in vars(args).items()
             if k not in ("command", "study", "out", "format")}
    return build_config(kind, {**_CLI_DEFAULTS.get(kind, {}), **given})


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
