"""Command-line interface.

Each experiment's record in ``experiments`` names the subcommand that runs
it (``decay``, ``ho``, ``pde``, ``ml``, ``signature``, ``laplace``); ``pde``
runs two, and ``--study`` picks one.  ``run`` executes a config file.  The
subcommands, their help, flags, defaults and SVG plots all come from those
records.  Each flag is a config key ("_" written as "-");
``build_config`` checks its string value exactly as it would a config
file's, and ``pde`` rejects the other study's keys.  Exit codes: 0 success,
2 configuration error, 3 runtime abort.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from .config import ConfigError, build_config, parse_config
from .experiments import _EXPERIMENTS, run_experiment
from .report import emit_csv, emit_json, emit_svg

__all__ = ["main"]


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
    commands: dict[str, dict] = {}  # command -> {study: record}
    for e in _EXPERIMENTS.values():
        commands.setdefault(e.command, {})[e.study] = e
    for command, studies in commands.items():
        first = next(iter(studies.values()))
        p = sub.add_parser(command, help=first.help)
        if len(studies) > 1:
            p.add_argument("--study", choices=tuple(studies),
                           default=first.study)
        fields = {f.name: f for e in studies.values() for f in e.fields}
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
    key = (args.command, getattr(args, "study", None))
    name = next(name for name, e in _EXPERIMENTS.items()
                if (e.command, e.study) == key)
    given = {k: v for k, v in vars(args).items()
             if k not in ("command", "study", "out", "format")}
    return build_config(name, {**_EXPERIMENTS[name].cli_defaults, **given})


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
            emit_svg(report, _EXPERIMENTS[report.experiment].plot,
                     stem.with_suffix(".svg"))
    except Exception as exc:  # runtime abort: distinct exit code
        print(f"runtime abort in {config.experiment}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {stem.with_suffix('.' + args.format)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
