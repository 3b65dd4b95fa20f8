"""Span tracer for the spectralfd benchmark.

The tracer wraps every public function (a plain function named in a
module's ``__all__`` and defined in that module) of every loaded
``spectralfd`` module, and rebinds the wrapper at *every* module attribute
that holds the original, so calls through re-exports and ``from ... import``
bindings (``pde_solvers.phi_nsfd``, ``propagators.mittag_leffler``,
``cli.run_experiment`` ...) are traced too.  ``uninstall`` puts every
original back.

Spans live in flat in-memory arrays (name id, start, end, parent span,
study id, one work amount) and are only aggregated or written out after
the run.  Span indices are handed out when a span starts, so a parent
always has a smaller index than its children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

PACKAGE = "spectralfd"
BENCH_LAYER = "bench"
LAYERS = ("specfun", "propagators", "denominators", "ode_schemes",
          "pde_solvers", "harness.config", "harness.experiments",
          "harness.report", "harness.cli")


def _amount_evolve(args, kwargs, result):
    kind = args[2] if len(args) > 2 else kwargs["kind"]
    if type(kind).__name__ == "SpectralModal":
        return 0.0  # the modal child span accounts for it
    return float(len(result.times) - 1)


def _amount_modal(args, kwargs, result):
    return float(len(result.times) - 1)


def _amount_laplace(args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return float(grid.m_points)


def _amount_states(args, kwargs, result):
    return float(len(result.states))


def _amount_bytes(args, kwargs, result):
    path = args[-1] if args else kwargs["path"]
    return float(os.path.getsize(path))


def _amount_ml_z(args, kwargs, result):
    return float(args[1] if len(args) > 1 else kwargs["z"])


# Work amount recorded per span, by "<layer>.<function>".  A span whose
# function is not listed records 0.
AMOUNTS = {
    "pde_solvers.evolve": _amount_evolve,
    "pde_solvers.evolve_modal": _amount_modal,
    "pde_solvers.laplace_mode_solve": _amount_laplace,
    "ode_schemes.decay_solve": _amount_states,
    "ode_schemes.ho_exact_solve": _amount_states,
    "harness.report.emit_csv": _amount_bytes,
    "harness.report.emit_json": _amount_bytes,
    "harness.report.emit_svg": _amount_bytes,
    "specfun.mittag_leffler": _amount_ml_z,
}


class Tracer:
    """Collects nested spans around the package's public functions."""

    def __init__(self) -> None:
        self.names: list[str] = []       # span name id -> "<layer>.<func>"
        self.layers: list[str] = []      # span name id -> layer
        self.name_ids: dict[str, int] = {}
        self.fn = array("l")
        self.parent = array("l")
        self.study = array("l")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self.raised = array("l")         # indices of spans that raised
        self.state = [-1, -1]            # [open span index, study id]
        self._patches: list[tuple[object, str, object]] = []

    # -- name table -------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self.name_ids[name]

    # -- spans ------------------------------------------------------------
    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.fn.append(name_id)
        self.parent.append(self.state[0])
        self.study.append(self.state[1])
        self.amount.append(0.0)
        self.end.append(0.0)
        self.state[0] = i
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.state[0] = self.parent[i]

    def span(self, name: str, study: int | None = None) -> "_Span":
        """Context manager for a benchmark-side span (layer ``bench``)."""
        return _Span(self, self.name_id(name, BENCH_LAYER), study)

    def _wrap(self, fn, name: str, layer: str):
        name_id = self.name_id(name, layer)
        measure = AMOUNTS.get(name)
        start, end, amount, raised = self.start, self.end, self.amount, self.raised
        fns, parents, studies, state = self.fn, self.parent, self.study, self.state
        clock = time.perf_counter

        # open() and close() inlined: this runs on every traced call
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            fns.append(name_id)
            parents.append(state[0])
            studies.append(state[1])
            amount.append(0.0)
            end.append(0.0)
            state[0] = i
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                state[0] = parents[i]
                raised.append(i)
                raise
            end[i] = clock()
            state[0] = parents[i]
            if measure is not None:
                try:
                    amount[i] = measure(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError,
                        TypeError, ValueError):
                    amount[i] = float("nan")
            return result

        return traced

    # -- install / uninstall ---------------------------------------------
    def install(self) -> int:
        """Wrap the package's public functions; returns the bindings patched."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        wrappers: dict[int, tuple[object, object]] = {}
        for mod in modules:
            layer = mod.__name__[len(PACKAGE) + 1:]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}",
                                                         layer))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return len(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fn": np.array(self.fn, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "study": np.array(self.study, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "amount": np.array(self.amount, dtype=float),
            "raised": np.array(self.raised, dtype=np.int64),
        }

    def write(self, path) -> None:
        """Write every span and the name table as one compressed ``.npz``."""
        a = self.arrays()
        for key in ("fn", "parent", "study", "raised"):
            a[key] = a[key].astype(np.int32)
        np.savez_compressed(path, names=np.asarray(self.names),
                            layers=np.asarray(self.layers), **a)


class _Span:
    def __init__(self, tracer: Tracer, name_id: int, study: int | None):
        self.tracer = tracer
        self.name_id = name_id
        self.study = study
        self.index = -1
        self.saved_study = -1

    def __enter__(self) -> "_Span":
        state = self.tracer.state
        self.saved_study = state[1]
        if self.study is not None:
            state[1] = self.study
        self.index = self.tracer.open(self.name_id)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.index)
        self.tracer.state[1] = self.saved_study


def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct children cover."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child


def layer_metrics(tracer: Tracer, walls: list[float]) -> dict[str, float]:
    """Per-layer metrics from the spans recorded inside studies.

    ``walls`` are the traced studies' wall times.  Times and counts are
    means per study; a share is a self time over the total study wall
    time.  Spans outside any study (output checks) are left out.
    """
    a = tracer.arrays()
    fn, parent, amount = a["fn"], a["parent"], a["amount"]
    dur = a["end"] - a["start"]
    own = self_times(parent, a["start"], a["end"])
    layer_of = np.array(tracer.layers + [""])[fn]
    inside = a["study"] >= 0
    raised = np.zeros(len(fn), dtype=bool)
    raised[a["raised"]] = True

    def spans(name: str) -> np.ndarray:
        return inside & (fn == tracer.name_ids.get(name, -1))

    # the explicit march: evolve and everything below it except modal evolution
    evolve = tracer.name_ids.get("pde_solvers.evolve", -1)
    modal = tracer.name_ids.get("pde_solvers.evolve_modal", -1)
    march = np.zeros(len(fn), dtype=bool)
    for i, (f, p) in enumerate(zip(fn.tolist(), parent.tolist())):
        march[i] = f == evolve or (p >= 0 and march[p] and f != modal)
    parent_layer = np.where(parent >= 0, layer_of[parent], "")
    den = inside & (layer_of == "denominators")
    den_calls = den & (parent_layer != "denominators")  # entries into the layer

    n, wall = len(walls), sum(walls)
    per_study = lambda x: float(x) / n
    ratio = lambda num, den: float(num) / float(den) if den else 0.0
    out: dict[str, float] = {}
    for layer in LAYERS + (BENCH_LAYER,):
        self_s = own[inside & (layer_of == layer)].sum()
        if layer != BENCH_LAYER:
            out[f"{layer}.self_s"] = per_study(self_s)
        out[f"{layer}.share"] = ratio(self_s, wall)

    modal_s = own[spans("pde_solvers.evolve_modal")].sum()
    default_s = own[spans("pde_solvers.default_spectral_params")].sum()
    frames = amount[spans("pde_solvers.evolve_modal")].sum()
    out["pde_solvers.modal.self_s"] = per_study(modal_s)
    out["pde_solvers.modal.frames"] = per_study(frames)
    out["pde_solvers.modal.us_per_frame"] = 1e6 * ratio(modal_s, frames)
    out["pde_solvers.default_params.self_s"] = per_study(default_s)
    out["pde_solvers.transform.share"] = ratio(modal_s + default_s, wall)

    march_s = own[inside & march & (layer_of == "pde_solvers")].sum()
    steps = amount[spans("pde_solvers.evolve")].sum()
    out["pde_solvers.march.self_s"] = per_study(march_s)
    out["pde_solvers.steps"] = per_study(steps)
    out["pde_solvers.march.us_per_step"] = 1e6 * ratio(march_s, steps)
    out["denominators.calls_per_step"] = ratio((march & den_calls).sum(), steps)
    out["pde_solvers.march_denominators.share"] = ratio(
        march_s + own[march & den].sum(), wall)
    out["denominators.calls"] = per_study(den_calls.sum())

    amp = spans("pde_solvers.amplification_factor")
    out["pde_solvers.amplification.calls"] = per_study(amp.sum())
    out["pde_solvers.amplification.self_s"] = per_study(own[amp].sum())
    lap = spans("pde_solvers.laplace_mode_solve")
    points = amount[lap].sum()
    out["pde_solvers.laplace.points"] = per_study(points)
    out["pde_solvers.laplace.ns_per_point"] = 1e9 * ratio(own[lap].sum(), points)

    ml = spans("specfun.mittag_leffler")
    for label, mask in (("ml_pos", ml & (amount > 0)),
                        ("ml_neg", ml & (amount < 0))):
        out[f"specfun.{label}.calls"] = per_study(mask.sum())
        out[f"specfun.{label}.us_per_call"] = 1e6 * ratio(dur[mask].sum(),
                                                          mask.sum())
    out["specfun.ml.errors"] = per_study((ml & raised).sum())
    out["propagators.nonlocal.calls"] = per_study(
        spans("propagators.nonlocal_propagator").sum())
    out["ode_schemes.states"] = per_study(
        amount[inside & (layer_of == "ode_schemes")].sum())
    out["harness.report.bytes"] = per_study(
        amount[inside & (layer_of == "harness.report")].sum())
    out["trace.spans_per_study"] = per_study(inside.sum())
    return out
