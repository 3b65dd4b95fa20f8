"""Checks of the benchmark's tracer on small fixed inputs.

Run with ``PYTHONPATH=src python -m pytest bench/test_trace.py``.
"""

from __future__ import annotations

import math
import time

import pytest

from spectralfd import denominators, pde_solvers, propagators
from spectralfd.harness import cli, experiments

from studies import Op, check_op, run_op
from tracer import LAYERS, Tracer, layer_metrics

N_STEPS = 50


def _ops() -> list[Op]:
    dx = 2.0 * math.pi / 16
    dt = 0.2 * dx * dx
    return [
        Op("signature", lambda rows: [], "signature_demo",
           {"alpha": 0.7, "n_samples": 24}),
        Op("march", lambda rows: [], "pde_compare",
           {"a": 1.0, "b": 0.3, "ic_mode": 1, "m_points": 16,
            "t_final": N_STEPS * dt, "dt": [dt], "methods": ["nsfd"]}),
    ]


def _traced_study(tmp_path, ops):
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        with tracer.span("bench.study", study=0):
            outcomes = [run_op(op, tmp_path / op.label, cli) for op in ops]
        wall = time.perf_counter() - t0
    for op, outcome in zip(ops, outcomes):
        assert check_op(op, outcome, tmp_path / op.label) == []
    return tracer, wall


def test_counts_match_the_inputs(tmp_path):
    tracer, wall = _traced_study(tmp_path, _ops())
    m = layer_metrics(tracer, [wall])
    assert m["propagators.nonlocal.calls"] == 24
    assert m["specfun.ml_neg.calls"] == 24
    assert m["pde_solvers.steps"] == N_STEPS
    # nsfd asks for phi and psi2 once per step
    assert m["denominators.calls_per_step"] == 2
    assert m["pde_solvers.modal.frames"] == 0


def test_self_times_cover_the_study(tmp_path):
    tracer, wall = _traced_study(tmp_path, _ops())
    m = layer_metrics(tracer, [wall])
    layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert layers == pytest.approx(wall, rel=0.05)
    assert m["bench.share"] < 0.05


def test_every_binding_is_wrapped_and_restored():
    originals = (denominators.phi_nsfd, propagators.mittag_leffler,
                 cli.run_experiment, experiments.mittag_leffler)
    tracer = Tracer()
    with tracer:
        assert pde_solvers.phi_nsfd is denominators.phi_nsfd
        assert pde_solvers.phi_nsfd is not originals[0]
        assert propagators.mittag_leffler is not originals[1]
        assert cli.run_experiment is not originals[2]
        assert experiments.mittag_leffler is denominators.mittag_leffler
    assert (denominators.phi_nsfd, propagators.mittag_leffler,
            cli.run_experiment, experiments.mittag_leffler) == originals
    assert pde_solvers.phi_nsfd is originals[0]
