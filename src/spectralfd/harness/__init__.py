"""Experiment harness: configuration, orchestration, and report emission."""

from .config import (
    ConfigError,
    ExperimentConfig,
    build_config,
    config_echo,
    parse_config,
)
from .experiments import run_experiment
from .report import ExperimentReport, PlotSpec, emit_csv, emit_json, emit_svg

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "PlotSpec",
    "build_config",
    "config_echo",
    "emit_csv",
    "emit_json",
    "emit_svg",
    "parse_config",
    "run_experiment",
]
