import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import spectralfd
from spectralfd import ode_schemes
from spectralfd.denominators import _EXP_OVERFLOW
from spectralfd.harness import cli
from spectralfd.harness.cli import _build_parser, main
from spectralfd.harness.config import (
    ConfigError,
    ExperimentConfig,
    build_config,
    config_echo,
    parse_config,
)
from spectralfd.harness.experiments import (
    _EXPERIMENTS,
    MAX_OSCILLATOR_AMPLITUDE,
    MAX_SIGNATURE_SAMPLES,
    run_experiment,
)
from spectralfd.harness.report import (
    ExperimentReport,
    PlotSpec,
    UnknownColumnError,
    emit_csv,
    emit_json,
    emit_svg,
)

from oracles import ho_indexed_states

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CONFIGS = {
    "decay_order": (
        "experiment = decay_order\nlambda = 1.0\nt_final = 1.0\n"
        "h0 = 0.125\nlevels = 5\n"
    ),
    "ho_exact": (
        "experiment = ho_exact\nomega = 1.0\nh = 0.7\nn_steps = 1000\n"
    ),
    "pde_compare": (
        "experiment = pde_compare\na = 1.0\nb = 0.0\nic_mode = 1\n"
        "m_points = 32\nt_final = 10.0\ndt = 1.0, 0.1\n"
    ),
    "pde_stability": (
        "experiment = pde_stability\na = 1.0\nb = 0.0\ndx = 0.1\n"
        "m_points = 8\ndt = 0.004, 0.0051\n"
    ),
    "ml_identities": "experiment = ml_identities\n",
    "signature_demo": "experiment = signature_demo\nalpha = 0.7\n",
    "laplace_bvp": (
        "experiment = laplace_bvp\na = 1.0\nb = 0.0\ns = 2.0\nlevels = 3\n"
    ),
}


# The subcommand that runs each experiment kind.
SUBCOMMAND = {
    "decay_order": ["decay"],
    "ho_exact": ["ho"],
    "pde_compare": ["pde", "--study", "compare"],
    "pde_stability": ["pde", "--study", "stability"],
    "ml_identities": ["ml"],
    "signature_demo": ["signature"],
    "laplace_bvp": ["laplace"],
}


def config_argv(text: str) -> list[str]:
    """The subcommand and flags equal to a config document: key k becomes
    the flag "--" + k with "_" written as "-", and keeps its value text."""
    values = dict(tuple(part.strip() for part in line.split("=", 1))
                  for line in text.splitlines() if line)
    argv = list(SUBCOMMAND[values.pop("experiment")])
    for key, value in values.items():
        argv += ["--" + key.replace("_", "-"), value]
    return argv


def csv_without_timestamp(path) -> str:
    lines = Path(path).read_text().splitlines()
    return "\n".join(line for line in lines
                     if not line.startswith("# generated:"))


def column(report, name: str) -> list:
    """The cells of one report column, in row order."""
    return [row[report.columns.index(name)] for row in report.rows]


def csv_rows(path) -> list[dict]:
    lines = [line for line in Path(path).read_text().splitlines()
             if not line.startswith("#")]
    return list(csv.DictReader(lines))


class TestParseConfig:
    def test_happy_path(self):
        config = parse_config(GOLDEN_CONFIGS["decay_order"])
        assert config.experiment == "decay_order"
        values = config.as_dict()
        assert values["lambda"] == 1.0
        assert values["levels"] == 5
        assert values["x0"] == 1.0  # default filled

    def test_sections_and_comments_are_cosmetic(self):
        text = (
            "# a study\nexperiment = decay_order\n[problem]\nlambda = 1.0\n"
            "t_final = 1.0  # inline comment\n[steps]\nh0 = 0.125\nlevels = 5\n"
        )
        config = parse_config(text)
        assert config.as_dict()["t_final"] == 1.0

    def test_round_trip(self):
        for text in GOLDEN_CONFIGS.values():
            config = parse_config(text)
            assert parse_config(config_echo(config)) == config

    def test_missing_key_named(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("experiment = decay_order\nt_final = 1.0\n"
                         "h0 = 0.125\nlevels = 5\n")
        assert any(v.key == "lambda" and "missing" in v.message
                   for v in excinfo.value.violations)

    def test_all_violations_reported(self):
        text = ("experiment = decay_order\nh0 = -1\nlevels = 2\nbogus = 1\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        keys = {v.key for v in excinfo.value.violations}
        assert {"h0", "levels", "bogus", "lambda", "t_final"} <= keys

    def test_line_numbers_attached(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("experiment = decay_order\nh0 = abc\n")
        violation = next(v for v in excinfo.value.violations if v.key == "h0")
        assert violation.line == 2

    def test_alpha_range_error_cites_interval(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("experiment = signature_demo\nalpha = 1.5\n")
        messages = [v.message for v in excinfo.value.violations
                    if v.key == "alpha"]
        assert any("(0, 1]" in m for m in messages)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = quantum_flux\n")

    def test_malformed_line_and_duplicate(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("experiment = ml_identities\ntol 1e-9\ntol = 1e-9\n"
                         "tol = 2e-9\n")
        messages = " | ".join(str(v) for v in excinfo.value.violations)
        assert "key = value" in messages and "duplicate" in messages

    @pytest.mark.parametrize("text, message", [
        ("experiment = ml_identities\n[study\n",
         "line 2: [study: malformed section header"),
        ("experiment = ml_identities\n= 1\n", "line 2: = 1: empty key"),
        ("tol = 1e-9\n", "experiment: required key is missing"),
    ])
    def test_file_only_errors(self, text, message):
        # no flag can write these: they exist only in a config file
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert [str(v) for v in excinfo.value.violations] == [message]

    def test_cross_check_s_regime(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("experiment = laplace_bvp\na = 1.0\nb = 2.0\ns = 1.0\n")
        assert any(v.key == "s" for v in excinfo.value.violations)

    def test_integer_text_is_exact(self):
        # a key with no size limit: n_steps this large is now rejected, and
        # so is a pde_compare ic_mode whose exact solution underflows
        text = GOLDEN_CONFIGS["laplace_bvp"] + "ic_mode = 9007199254740993\n"
        assert parse_config(text).as_dict()["ic_mode"] == 9007199254740993
        for value in ("1e3", "1000.0"):
            text = GOLDEN_CONFIGS["ho_exact"].replace("1000", value)
            assert parse_config(text).as_dict()["n_steps"] == 1000

    @pytest.mark.parametrize("value", ["abc", "6.5", "inf", "nan", "1e400"])
    def test_non_integer_text_message(self, value):
        text = GOLDEN_CONFIGS["ho_exact"].replace("1000", value)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert ([str(v) for v in excinfo.value.violations]
                == ["line 4: n_steps: expected an integer"])

    def test_build_config_takes_config_strings(self):
        built = build_config("pde_compare", {
            "a": "1.0", "b": "0.0", "ic_mode": "1", "m_points": "32",
            "t_final": "10.0", "dt": "1.0, 0.1"})
        assert built == parse_config(GOLDEN_CONFIGS["pde_compare"])

    def test_build_config_reads_values_as_text(self):
        # a number is read as the text it prints as: never truncated
        with pytest.raises(ConfigError, match="n_steps: expected an integer"):
            build_config("ho_exact",
                         {"omega": 1.0, "h": 0.7, "n_steps": 6.5})
        with pytest.raises(ConfigError, match="dt: could not convert"):
            build_config("pde_compare", {
                "a": "1", "b": "0", "ic_mode": "1", "t_final": "1",
                "dt": (0.5,)})

    def test_build_config_equivalent_to_text(self):
        built = build_config("signature_demo", {"alpha": 0.7})
        parsed = parse_config("experiment = signature_demo\nalpha = 0.7\n")
        assert built == parsed

    def test_signature_sample_bound(self):
        for n in (8, MAX_SIGNATURE_SAMPLES):
            built = build_config("signature_demo",
                                 {"alpha": 0.7, "n_samples": n})
            assert built.as_dict()["n_samples"] == n
        for n in (7, MAX_SIGNATURE_SAMPLES + 1):
            with pytest.raises(ConfigError, match="n_samples: must lie in"):
                build_config("signature_demo",
                             {"alpha": 0.7, "n_samples": n})


    def test_unknown_experiment_lists_the_allowed(self):
        allowed = ("allowed: decay_order, ho_exact, pde_compare, "
                   "pde_stability, ml_identities, signature_demo, laplace_bvp")
        with pytest.raises(ConfigError) as excinfo:
            parse_config("# study\nexperiment = bogus\nlambda = 1\n")
        assert ([str(v) for v in excinfo.value.violations]
                == [f"line 2: experiment: unknown experiment; {allowed}"])
        with pytest.raises(ConfigError) as excinfo:
            build_config("bogus", {})
        assert ([str(v) for v in excinfo.value.violations]
                == [f"experiment: unknown experiment; {allowed}"])


class TestExperimentTable:
    """Each record of the experiment table is consistent with itself."""

    @pytest.mark.parametrize("name", sorted(_EXPERIMENTS))
    def test_plot_names_only_its_own_columns(self, name):
        e = _EXPERIMENTS[name]
        assert {e.plot.x, e.plot.y, *e.plot.group_by} <= set(e.columns)

    @pytest.mark.parametrize("name", sorted(_EXPERIMENTS))
    def test_cli_defaults_are_valid_fields(self, name):
        e = _EXPERIMENTS[name]
        assert set(e.cli_defaults) <= {f.name for f in e.fields}
        extra = {"alpha": "0.7"} if name == "signature_demo" else {}
        config = build_config(name, {**e.cli_defaults, **extra})
        assert config.experiment == name

    def test_every_command_and_study_runs_one_experiment(self):
        keys = [(e.command, e.study) for e in _EXPERIMENTS.values()]
        assert len(set(keys)) == len(keys)
        assert {tuple(SUBCOMMAND[name]) for name in _EXPERIMENTS} == {
            (c,) if s is None else (c, "--study", s) for c, s in keys}


class TestReportEmission:
    def test_empty_report_header_only(self, tmp_path):
        report = ExperimentReport(
            experiment="decay_order",
            columns=("scheme", "h", "error", "observed_p", "exact_flag"),
            rows=[], config_lines=(), tool_version="0.1.0",
        )
        out = tmp_path / "empty.csv"
        emit_csv(report, out)
        lines = out.read_text().splitlines()
        data = [line for line in lines if not line.startswith("#")]
        assert data == ["scheme,h,error,observed_p,exact_flag"]

    def test_float_rendering_17_digits(self, tmp_path):
        report = ExperimentReport(
            experiment="x", columns=("v",), rows=[(1.0 / 3.0,)],
            config_lines=(), tool_version="0.1.0",
        )
        out = tmp_path / "f.csv"
        emit_csv(report, out)
        assert "0.33333333333333331" in out.read_text()

    def test_cell_formats(self, tmp_path):
        # np.float64 is a float and gets 17 digits; bool is tested before
        # int; an np.bool_ is neither and prints as str() does
        report = ExperimentReport(
            experiment="x", columns=("f", "b", "i", "none", "s", "nb"),
            rows=[(np.float64(1.0 / 3.0), True, 3, None, "s", np.bool_(True))],
            config_lines=(), tool_version="0.1.0",
        )
        out = tmp_path / "c.csv"
        emit_csv(report, out)
        assert out.read_text().splitlines()[-1] == \
            "0.33333333333333331,true,3,,s,True"

    def test_determinism_modulo_timestamp(self, tmp_path):
        config = parse_config(GOLDEN_CONFIGS["decay_order"])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(config), a)
        emit_csv(run_experiment(config), b)
        assert csv_without_timestamp(a) == csv_without_timestamp(b)

    def test_rewrite_keeps_mode_and_links(self, tmp_path):
        config = parse_config(GOLDEN_CONFIGS["laplace_bvp"])
        report = run_experiment(config)
        fresh, out = tmp_path / "fresh.csv", tmp_path / "r.csv"
        with open(fresh, "w"):
            pass
        emit_csv(report, out)
        # a new report gets the mode open(path, "w") gives: 0o666 & ~umask
        assert out.stat().st_mode == fresh.stat().st_mode
        out.chmod(0o640)
        link = tmp_path / "link.csv"
        os.link(out, link)
        out.write_text("x" * 10_000)
        emit_csv(report, out)
        assert out.stat().st_mode & 0o777 == 0o640
        assert link.read_text() == out.read_text()
        assert csv_without_timestamp(out) == \
            csv_without_timestamp(GOLDEN_DIR / "laplace_bvp.csv")

    def test_rewrite_through_a_symlink_updates_its_target(self, tmp_path):
        config = parse_config(GOLDEN_CONFIGS["decay_order"])
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("x" * 10_000)
        link.symlink_to(target)
        report = run_experiment(config)
        emit_csv(report, link)
        assert link.is_symlink()
        assert csv_without_timestamp(target) == \
            csv_without_timestamp(GOLDEN_DIR / "decay_order.csv")
        # a device has no length to cut
        device = tmp_path / "device.csv"
        device.symlink_to(os.devnull)
        emit_csv(report, device)

    def test_json_mirrors_rows(self, tmp_path):
        config = parse_config(GOLDEN_CONFIGS["laplace_bvp"])
        report = run_experiment(config)
        out = tmp_path / "r.json"
        emit_json(report, out)
        payload = json.loads(out.read_text())
        assert payload["columns"] == list(report.columns)
        assert len(payload["rows"]) == len(report.rows)
        assert payload["experiment"] == "laplace_bvp"

    def test_svg_polyline_per_series(self, tmp_path):
        config = parse_config(GOLDEN_CONFIGS["decay_order"])
        report = run_experiment(config)
        out = tmp_path / "plot.svg"
        emit_svg(report, PlotSpec(x="h", y="error", logx=True, logy=True,
                                  group_by=("scheme",)), out)
        text = out.read_text()
        # exact schemes sit at the roundoff floor but still get a polyline
        assert text.count("<polyline") == 4
        assert "forward_euler" in text and "mickens_exact" in text

    def test_svg_forward_euler_polyline_monotone(self, tmp_path):
        import re
        config = parse_config(
            "experiment = decay_order\nlambda = 1.0\nt_final = 1.0\n"
            "h0 = 0.125\nlevels = 5\nschemes = forward_euler\n"
        )
        report = run_experiment(config)
        out = tmp_path / "fe.svg"
        emit_svg(report, PlotSpec(x="h", y="error", logx=True, logy=True,
                                  group_by=("scheme",)), out)
        match = re.search(r'<polyline points="([^"]+)"', out.read_text())
        assert match is not None
        points = [tuple(map(float, pair.split(",")))
                  for pair in match.group(1).split()]
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        # error shrinks with h on log-log axes: pixel y grows as pixel x falls
        assert all(x1 > x2 for x1, x2 in zip(xs, xs[1:]))
        assert all(y1 < y2 for y1, y2 in zip(ys, ys[1:]))

    @pytest.mark.parametrize("ys, logy", [
        ((1.7e308, -1.7e308), False),
        ((1.7976931348623157e308,), False),
        ((5e-324, 4e-323), False),
        ((1.7e308,), True),
        ((1e-320, 5e-324), True),
    ], ids=["padded-span-past-max", "tick-steps-past-max",
            "tick-spacing-underflows", "log-padded-top-past-max",
            "log-decade-tick-is-zero"])
    def test_svg_near_the_ends_of_the_double_range(self, tmp_path, ys, logy):
        report = ExperimentReport(
            experiment="x", columns=("n", "y"), rows=list(enumerate(ys)),
            config_lines=(), tool_version="0.1.0",
        )
        out = tmp_path / "edge.svg"
        emit_svg(report, PlotSpec(x="n", y="y", logy=logy), out)
        root = ET.parse(out).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        for element in root.iter():
            for name in ("x", "y", "x1", "y1", "x2", "y2"):
                if name in element.attrib:
                    assert math.isfinite(float(element.attrib[name]))
        (polyline,) = root.iter("{http://www.w3.org/2000/svg}polyline")
        points = polyline.attrib["points"].split()
        assert len(points) == len(ys)
        assert all(math.isfinite(float(c)) for p in points
                   for c in p.split(","))

    def test_svg_nearly_flat_axis(self, tmp_path):
        # a linear axis a few ulps wide once made the tick loop spin
        # forever; a child process with a timeout turns a hang into a failure
        cases = [(1.0, math.nextafter(1.0, 2.0)),
                 (-1.0, math.nextafter(-1.0, 0.0)),
                 (1e300, math.nextafter(1e300, math.inf)),
                 (5e-324, 1e-323), (-5e-324, 5e-324)]
        code = (
            "import ast, sys\n"
            "from spectralfd.harness.report import (ExperimentReport,\n"
            "                                       PlotSpec, emit_svg)\n"
            "for i, ys in enumerate(ast.literal_eval(sys.argv[1])):\n"
            "    report = ExperimentReport('flat', ('n', 'y'),\n"
            "                              list(enumerate(ys)), (), '0')\n"
            "    emit_svg(report, PlotSpec(x='n', y='y'),\n"
            "             f'{sys.argv[2]}/{i}.svg')\n"
        )
        src = str(Path(spectralfd.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        subprocess.run([sys.executable, "-c", code, repr(cases),
                        str(tmp_path)], env=env, check=True, timeout=60)
        for i in range(len(cases)):
            root = ET.parse(tmp_path / f"{i}.svg").getroot()
            labels = [e.text for e in root.iter("{http://www.w3.org/2000/svg}text")
                      if e.attrib.get("text-anchor") == "end"]
            assert 1 <= len(labels) <= 12  # the y-axis tick labels
            (polyline,) = root.iter("{http://www.w3.org/2000/svg}polyline")
            coords = [float(c) for p in polyline.attrib["points"].split()
                      for c in p.split(",")]
            assert len(coords) == 4 and all(map(math.isfinite, coords))

    def test_svg_unknown_column(self, tmp_path):
        config = parse_config(GOLDEN_CONFIGS["decay_order"])
        report = run_experiment(config)
        with pytest.raises(UnknownColumnError):
            emit_svg(report, PlotSpec(x="h", y="no_such"), tmp_path / "x.svg")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            ExperimentReport(experiment="x", columns=("a", "a"), rows=[],
                             config_lines=(), tool_version="0")


class TestExperimentSemantics:
    def test_decay_order_exact_rows(self):
        report = run_experiment(parse_config(GOLDEN_CONFIGS["decay_order"]))
        scheme = column(report, "scheme")
        exact = column(report, "exact_flag")
        for name, flag in zip(scheme, exact):
            if name in ("mickens_exact", "spectral_exact"):
                assert flag is True
            else:
                assert flag is False

    def test_pde_compare_flags_euler_blowup(self):
        report = run_experiment(parse_config(GOLDEN_CONFIGS["pde_compare"]))
        rows = {(r[0], r[1]): r for r in report.rows}
        modal = rows[("spectral_modal", 1.0)]
        assert modal[4] <= 1e-10 and modal[5] is False
        euler = rows[("euler", 1.0)]
        assert euler[4] > 1.0 and euler[5] is True

    def test_pde_stability_boundary(self):
        report = run_experiment(parse_config(GOLDEN_CONFIGS["pde_stability"]))
        for method, k, dt, g, stable in report.rows:
            if method == "euler" and dt == 0.004:
                assert stable is True
            if method == "spectral_modal":
                assert stable is True  # b = 0: all modes decay

    def test_ml_identities_bounds(self):
        report = run_experiment(parse_config(GOLDEN_CONFIGS["ml_identities"]))
        for alpha, z, value, oracle, abs_err in report.rows:
            if alpha == 1.0 and z <= 5:
                assert abs_err <= 1e-10 * max(oracle, 1e-300)
            if z == 0.0:
                assert abs_err == 0.0

    def test_signature_demo_recovers_alpha(self):
        report = run_experiment(parse_config(GOLDEN_CONFIGS["signature_demo"]))
        (alpha_true, alpha_hat, c_hat, residual), = report.rows
        assert 0.68 <= alpha_hat <= 0.72
        assert residual < 0.01

    def test_ho_exact_error_budget(self):
        report = run_experiment(parse_config(GOLDEN_CONFIGS["ho_exact"]))
        for row in report.rows:
            assert row[5] <= 1e-10  # abs_err at every checkpoint

    @pytest.mark.parametrize("n_steps", [2, 10, 10**4])
    @pytest.mark.parametrize("omega, h, y0, v0", [(1.0, 0.7, 1.0, 0.0),
                                                  (2.3, 0.05, -0.4, 1.7)])
    def test_ho_energy_drift_matches_full_invariant(self, n_steps, omega, h,
                                                    y0, v0):
        report = run_experiment(build_config("ho_exact", {
            "omega": omega, "h": h, "n_steps": n_steps, "y0": y0, "v0": v0}))
        y = ho_indexed_states(
            omega, h, n_steps, y0,
            ode_schemes.ho_initial_from_velocity(omega, h, y0, v0))
        # the invariant over the whole trajectory, on interior indices
        s = 2.0 * math.sin(omega * h)
        invariant = y[1:-1] ** 2 + ((y[2:] - y[:-2]) / s) ** 2
        checkpoints = column(report, "n")
        assert checkpoints[-1] == n_steps
        for n, drift in zip(checkpoints, column(report, "energy_drift")):
            if n == n_steps:
                assert drift is None
            else:
                assert type(drift) is float
                assert drift == abs(float(invariant[n - 1] - invariant[0]))

    def test_ho_rows_match_the_full_trajectory(self):
        # the run keeps only the states its rows read; every row must be
        # the one built from the oracle's whole trajectory, bit for bit
        rng = np.random.default_rng(25)
        sizes = [2, 3, 9, 10, 11] * 58 + [10001] * 12 + [10**5] * 3
        for n_steps in sizes:
            omega = 10.0 ** rng.uniform(-3.0, 3.0)
            h = rng.uniform(1e-3, 0.999) * 2.0 * math.pi / omega
            y0, v0 = (float(rng.choice([0.0, 1.0, x])) for x in
                      rng.uniform(-1e3, 1e3, size=2))
            report = run_experiment(build_config("ho_exact", {
                "omega": omega, "h": h, "n_steps": n_steps, "y0": y0,
                "v0": v0}))
            y = ho_indexed_states(
                omega, h, n_steps, y0,
                ode_schemes.ho_initial_from_velocity(omega, h, y0, v0))
            s = 2.0 * math.sin(omega * h)
            invariant = y[1:-1] ** 2 + ((y[2:] - y[:-2]) / s) ** 2
            expected = []
            for n in sorted({n for n in (1, 10, 100, 1000, 10000, n_steps)
                             if n <= n_steps}):
                t = n * h
                exact = (y0 * math.cos(omega * t)
                         + v0 * math.sin(omega * t) / omega)
                drift = (abs(float(invariant[n - 1] - invariant[0]))
                         if n < n_steps else None)
                expected.append((omega, h, n, float(y[n]), exact,
                                 abs(float(y[n]) - exact), drift))
            assert repr(report.rows) == repr(expected)

    def test_pde_stability_cells_are_python_scalars(self):
        # the CSV writes a bool as true/false but an np.bool_ as True/False
        report = run_experiment(parse_config(GOLDEN_CONFIGS["pde_stability"]))
        for method, k, dt, g, stable in report.rows:
            assert (type(k), type(dt), type(g)) == (float, float, float)
            assert type(stable) is bool

    @pytest.mark.parametrize("m", [3, 4, 5, 8, 33, 64, 127, 128, 4097])
    @pytest.mark.parametrize("dx", [1e-100, 1e-3, 0.1, 1.0, 1e300])
    def test_pde_stability_k_column_is_the_distinct_wavenumbers(self, m, dx):
        report = run_experiment(build_config("pde_stability", {
            "a": "0", "b": "0", "dx": repr(dx), "m_points": str(m),
            "dt": "0.1,1", "methods": "euler,spectral_modal"}))
        # every signed transform wavenumber 2 pi n / L, n in (-m/2, m/2],
        # folded to its distinct magnitudes
        n = np.arange(m)
        signed = 2.0 * np.pi * np.where(n <= m // 2, n, n - m) / (m * dx)
        expected = sorted({float(k) for k in np.abs(signed)})
        assert column(report, "k") == expected * 4

    def test_pde_compare_holds_one_frames_array(self):
        # three marches of 2001 frames at M = 64: the run reads only each
        # one's last frame, so it drops each trajectory before it marches
        # the next, and spectral_modal forms its frames in blocks of rows
        # rather than through one batch of complex spectra
        dx, n_steps = 2.0 * math.pi / 64, 2000
        dt = 0.05 * dx * dx
        for methods in ("euler,nsfd,spectral_phys",
                        "euler,nsfd,spectral_modal"):
            config = build_config("pde_compare", {
                "a": "1.0", "b": "-0.25", "ic_mode": "1", "m_points": "64",
                "t_final": repr(n_steps * dt), "dt": repr(dt),
                "methods": methods})
            tracemalloc.start()
            try:
                report = run_experiment(config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert [row[5] for row in report.rows] == [False] * 3
            assert peak < 1.5 * (n_steps + 1) * 64 * 8, methods

    @pytest.mark.parametrize("name, change, message", [
        ("pde_compare", {"dt": (0.3,)},
         "dt: step 0.3 does not divide t_final=10.0"),
        ("pde_stability", {"b": 1000.0, "dt": (1.0,),
                           "methods": ("spectral_modal",)},
         "dt: spectral_modal's amplification factor at dt = 1.0 fails: "
         "overflow encountered in exp"),
    ])
    def test_pde_run_aborts_on_a_fault_in_its_plan(self, name, change,
                                                   message):
        # each pde runner forms its plan as validation does, with faults
        # raised: values that skipped validation end the run naming the
        # fault's key and message
        values = {**parse_config(GOLDEN_CONFIGS[name]).as_dict(), **change}
        config = ExperimentConfig(name, tuple(sorted(values.items())))
        with pytest.raises(RuntimeError) as raised:
            run_experiment(config)
        assert str(raised.value) == message

    def test_laplace_bvp_orders(self):
        report = run_experiment(parse_config(GOLDEN_CONFIGS["laplace_bvp"]))
        orders = [p for p in column(report, "observed_p") if p is not None]
        assert orders and all(p >= 2.0 for p in orders)


class TestGoldenFiles:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_matches_golden(self, name, tmp_path):
        config = parse_config(GOLDEN_CONFIGS[name])
        report = run_experiment(config)
        out = tmp_path / f"{name}.csv"
        emit_csv(report, out)
        golden = GOLDEN_DIR / f"{name}.csv"
        assert golden.exists(), f"golden file missing: {golden}"
        assert csv_without_timestamp(out) == csv_without_timestamp(golden)

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_svg_matches_golden(self, name, tmp_path):
        # the config the golden CSV echoes, drawn with the CLI's default plot
        lines = (GOLDEN_DIR / f"{name}.csv").read_text().splitlines()
        config_file = tmp_path / "study.cfg"
        config_file.write_text("".join(line[len("# config: "):] + "\n"
                                       for line in lines
                                       if line.startswith("# config: ")))
        assert main(["run", str(config_file), "--out", str(tmp_path),
                     "--format", "svg"]) == 0
        assert ((tmp_path / f"{name}.svg").read_bytes()
                == (GOLDEN_DIR / f"{name}.svg").read_bytes())


class TestCli:
    def test_decay_subcommand_writes_csv(self, tmp_path, capsys):
        code = main(["decay", "--lambda", "1.0", "--t-final", "1.0",
                     "--h0", "0.125", "--levels", "5",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "decay_order.csv").exists()

    def test_decay_blowup_is_data(self, tmp_path, capsys):
        # forward Euler's finest level reaches inf: exit 0, blank orders
        code = main(["decay", "--lambda", "1e4", "--out", str(tmp_path)])
        assert code == 0
        euler = [r for r in csv_rows(tmp_path / "decay_order.csv")
                 if r["scheme"] == "forward_euler"]
        assert euler[-1]["error"] == "inf"
        blank = [r["observed_p"] == "" for r in euler]
        assert blank == [False] * 4 + [True] * 2
        assert capsys.readouterr().err == ""

    def test_run_subcommand(self, tmp_path):
        config_file = tmp_path / "study.cfg"
        config_file.write_text(GOLDEN_CONFIGS["laplace_bvp"])
        code = main(["run", str(config_file), "--out", str(tmp_path),
                     "--format", "json"])
        assert code == 0
        assert (tmp_path / "laplace_bvp.json").exists()

    def test_svg_format(self, tmp_path):
        code = main(["signature", "--alpha", "0.7", "--out", str(tmp_path),
                     "--format", "svg"])
        assert code == 0
        assert (tmp_path / "signature_demo.svg").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_rerun_overwrites_a_longer_report(self, fmt, tmp_path):
        # the rerun's report is shorter than the one it overwrites, and its
        # bytes equal a fresh write's apart from the generation timestamp
        report = f"pde_compare.{fmt}"
        argv = ["pde", "--format", fmt, "--dt"]
        assert main(argv + ["0.01,0.1,1.0", "--out", str(tmp_path)]) == 0
        longer = (tmp_path / report).stat().st_size
        assert main(argv + ["0.1", "--out", str(tmp_path)]) == 0
        assert main(argv + ["0.1", "--out", str(tmp_path / "fresh")]) == 0
        texts = [re.sub(r'(# generated: |"generated": ")[^"\n]*', "",
                        path.read_text())
                 for path in (tmp_path / report, tmp_path / "fresh" / report)]
        assert texts[0] == texts[1]
        assert (tmp_path / report).stat().st_size < longer

    def test_config_error_exit_code(self, tmp_path, capsys):
        config_file = tmp_path / "bad.cfg"
        config_file.write_text("experiment = signature_demo\nalpha = 1.5\n")
        assert main(["run", str(config_file), "--out", str(tmp_path)]) == 2
        assert "(0, 1]" in capsys.readouterr().err

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "none.cfg"
        assert main(["run", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        config_file = tmp_path / "bin.cfg"
        config_file.write_bytes(b"\xff\xfe" + "experiment = ml_identities\n"
                                .encode("utf-16-le"))
        assert main(["run", str(config_file), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot read config: ")
        assert "codec can't decode" in err
        assert not (tmp_path / "ml_identities.csv").exists()

    def test_runtime_abort_exit_code(self, tmp_path, capsys):
        # exp(-lambda t^alpha) is 0 past a tiny t, so every later signature
        # is exactly 1 and the power-law fit is flat: a numerical failure
        # of valid input, which names its cause
        argv = ["signature", "--alpha", "0.5", "--lambda", "1e300",
                "--t-min", "1e-4", "--t-max", "1e300", "--propagator",
                "local_exp"]
        assert main(argv + ["--out", str(tmp_path)]) == 3
        assert ("runtime abort in signature_demo: FitRangeError: "
                in capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    def test_diffusionless_spectral_phys(self, tmp_path):
        assert main(["pde", "--a", "0", "--b", "0.5",
                     "--methods", "spectral_phys,nsfd",
                     "--out", str(tmp_path)]) == 0
        rows = csv_rows(tmp_path / "pde_compare.csv")
        spectral = [r for r in rows if r["method"] == "spectral_phys"]
        nsfd = [r for r in rows if r["method"] == "nsfd"]
        assert len(spectral) == 3
        assert ([{**r, "method": ""} for r in spectral]
                == [{**r, "method": ""} for r in nsfd])

    def test_diffusionless_nsfd_stays_exact(self, tmp_path):
        # at a = 0 nsfd is the exact reaction step; its weight, formed as
        # 1 + phi b = 1 + expm1(b dt), cancelled to errors of 8.0e-8 and
        # 1.0 here, the second not flagged diverged
        assert main(["pde", "--a", "0", "--b", "-40", "--ic-mode", "1",
                     "--t-final", "2", "--dt", "0.5,1.0", "--methods",
                     "nsfd,spectral_modal", "--out", str(tmp_path)]) == 0
        rows = csv_rows(tmp_path / "pde_compare.csv")
        assert [row["method"] for row in rows] == ["nsfd"] * 2 + [
            "spectral_modal"] * 2
        for row in rows:
            assert row["diverged"] == "false"
            assert float(row["max_nodal_error"]) <= 1e-15

    def test_spatially_constant_mode(self, tmp_path):
        # ic_mode = 0 starts from u = 1, so the exact solution is exp(b t):
        # phi is exact for the reaction sub-equation, and only Euler errs
        assert main(["pde", "--ic-mode", "0", "--b", "0.5", "--methods",
                     "euler,nsfd,spectral_modal,spectral_phys",
                     "--out", str(tmp_path)]) == 0
        rows = csv_rows(tmp_path / "pde_compare.csv")
        assert len(rows) == 12
        assert all(row["diverged"] == "false" for row in rows)
        bound = {"nsfd": 1e-13, "spectral_phys": 1e-13, "spectral_modal": 1e-14}
        for row in rows:
            error = float(row["max_nodal_error"])
            if row["method"] == "euler":
                assert error > 1e-3
            else:
                assert error <= bound[row["method"]]

    def test_negative_exponent_floats_are_values(self, tmp_path, capsys):
        assert main(["pde", "--b", "-5e-05", "--out", str(tmp_path)]) == 0
        assert main(["laplace", "--b", "-1e-3", "--out", str(tmp_path)]) == 0
        # read as a value, then rejected by config validation
        assert main(["pde", "--dt", "-1e-3", "--out", str(tmp_path)]) == 2
        assert "dt: entries must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["pde", "--b", "-inf"],
                                      ["laplace", "--b", "-Infinity"],
                                      ["pde", "--b", "-nan"]])
    def test_negative_non_finite_flags_are_values(self, argv, tmp_path,
                                                  capsys):
        # read as a value, so the config check names it, not argparse
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "config error: b: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("h0, step", [
        ("0.3", "0.3"), ("0.4", "0.4"),
        # 1/h0 is 3 within 3e-12, but that gap doubles with every halving
        ("0.333333333333", "0.0006510416666660157"),
    ])
    def test_decay_step_not_dividing_t_final(self, h0, step, tmp_path,
                                             capsys):
        argv = ["decay", "--h0", h0, "--levels", "10", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert (f"config error: h0: step {step} does not divide t_final"
                in capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    def test_decay_step_check_in_config_file(self, tmp_path, capsys):
        config_file = tmp_path / "decay.cfg"
        config_file.write_text(GOLDEN_CONFIGS["decay_order"]
                               .replace("h0 = 0.125", "h0 = 0.3"))
        assert main(["run", str(config_file), "--out", str(tmp_path)]) == 2
        assert ("config error: line 4: h0: step 0.3 does not divide t_final"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, key", [
        (["decay", "--levels", "40"], "levels"),
        # a `levels` far past any float, as integer text
        (["decay", "--levels", "1" + "0" * 400], "levels"),
        (["laplace", "--levels", "40"], "levels"),
        (["ho", "--n-steps", "1e12"], "n_steps"),
        (["pde", "--m-points", "1e9"], "dt"),
        (["pde", "--study", "stability", "--m-points", "1e9"], "m_points"),
    ])
    def test_oversized_run_is_a_config_error(self, argv, key, tmp_path,
                                             capsys):
        # ho keeps only its reported states: its bound is on work
        message = (f"must be at most {2**26 - 1}, a bound on work: each step "
                   "is one update of the recurrence" if argv[0] == "ho" else
                   f"the run would hold more than {2**26} points in one array")
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert f"config error: {key}: {message}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_oversized_signature_is_a_config_error(self, tmp_path, capsys,
                                                   monkeypatch):
        # each sample is one Mittag-Leffler evaluation: a million would run
        # for minutes, so validation must reject it before any run starts
        def no_run(config):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        argv = ["signature", "--alpha", "0.7", "--n-samples", "1000000"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert (f"config error: n_samples: must lie in "
                f"[8, {MAX_SIGNATURE_SAMPLES}]") in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["pde", "--ic-mode", "20"],      # exp(-800) underflows to 0
        ["pde", "--a", "0", "--b", "400"],  # exp(800) overflows
        ["pde", "--ic-mode", "1" + "0" * 400],  # k is past any float
    ])
    def test_exact_solution_out_of_range_is_a_config_error(
            self, argv, tmp_path, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert ("config error: t_final: exp((b - a k^2) t) leaves the double "
                "range") in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_small_order_local_signature_still_runs(self, tmp_path):
        # the Mittag-Leffler order floor does not apply to local_exp
        argv = ["signature", "--alpha", "0.005", "--propagator", "local_exp"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert len(csv_rows(tmp_path / "signature_demo.csv")) == 1

    def test_subnormal_exact_solution_still_runs(self, tmp_path):
        # exp(-720) is subnormal, not 0: the error scale stays defined
        assert main(["pde", "--ic-mode", "19", "--out", str(tmp_path)]) == 0
        assert len(csv_rows(tmp_path / "pde_compare.csv")) == 9

    @pytest.mark.parametrize("argv", [
        ["pde", "--ic-mode", "10"], ["pde", "--ic-mode", "18"],
        ["pde", "--ic-mode", "19"], ["pde", "--ic-mode", "18", "--b", "5"],
    ])
    def test_decayed_mode_is_measured_against_roundoff(self, argv,
                                                       tmp_path):
        # the exact amplitude falls below the roundoff the other modes
        # carry: against it alone the exact scheme read as diverged (6.65e265
        # at ic_mode 18)
        argv = argv + ["--methods", "spectral_modal", "--out", str(tmp_path)]
        assert main(argv) == 0
        rows = csv_rows(tmp_path / "pde_compare.csv")
        assert len(rows) == 3
        for row in rows:
            assert float(row["max_nodal_error"]) <= 0.1
            assert row["diverged"] == "false"

    def test_decaying_run_keeps_its_error(self, tmp_path):
        # at b < 0 the roundoff decays with e^{bt} too: the floor stays under
        # the exact amplitude e^-42, and Euler, decaying too slowly, still
        # reads as about 100 % wrong
        argv = ["pde", "--b", "-20", "--m-points", "16", "--dt", "0.01",
                "--methods", "euler", "--out", str(tmp_path)]
        assert main(argv) == 0
        (row,) = csv_rows(tmp_path / "pde_compare.csv")
        assert float(row["max_nodal_error"]) > 0.9

    def test_error_scale_past_the_double_range(self, tmp_path):
        # e^{b t} = e^780 overflows: the amplitude alone is the scale, and
        # the modal march, which ends at its initial data, counts as
        # diverged; nothing warns
        argv = ["pde", "--a", "1", "--b", "1000", "--ic-mode", "10",
                "--t-final", "0.78", "--dt", "0.78", "--methods",
                "euler,spectral_modal", "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        euler, modal = csv_rows(tmp_path / "pde_compare.csv")
        assert (euler["max_nodal_error"], euler["diverged"]) == ("1", "false")
        assert (modal["t_final"], modal["max_nodal_error"],
                modal["diverged"]) == ("0", "0", "true")

    # b dt on both sides of phi_nsfd's threshold, with a = 1 and
    # ic_mode = 10 (compare) or dx = 0.1 (stability), so psi2 and the exact
    # amplitude stay in range
    _NSFD_EDGE = [("pde_compare", {"ic_mode": "10", "t_final": "1"}),
                  ("pde_stability", {"dx": "0.1"})]

    @pytest.mark.parametrize("name, extra", _NSFD_EDGE)
    def test_nsfd_step_at_the_range_of_exp_runs(self, name, extra):
        config = build_config(name, {"a": "1", "b": repr(_EXP_OVERFLOW),
                                     "dt": "1", "methods": "nsfd", **extra})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run_experiment(config).rows

    @pytest.mark.parametrize("name, extra", _NSFD_EDGE)
    def test_nsfd_step_past_the_range_of_exp_is_a_config_error(self, name,
                                                              extra):
        # phi_nsfd's OverflowError used to abort every method's rows with
        # exit 3; only nsfd forms exp(b dt)
        b = repr(math.nextafter(_EXP_OVERFLOW, math.inf))
        raw = {"a": "1", "b": b, "dt": "1", **extra}
        build_config(name, {**raw, "methods": "euler,spectral_modal"})
        for methods in ("nsfd", "euler,spectral_modal,nsfd"):
            with pytest.raises(ConfigError) as err:
                build_config(name, {**raw, "methods": methods})
            assert str(err.value) == ("dt: nsfd's stencil weights (c0, c1) "
                                      "at dt = 1.0 fail: exp(709) exceeds "
                                      "the double range")

    def test_nsfd_overflowing_run_is_rejected_whole(self, tmp_path, capsys):
        argv = ["pde", "--a", "1", "--b", "1000", "--ic-mode", "10",
                "--t-final", "0.78", "--dt", "0.78,0.39", "--methods",
                "spectral_modal,euler,nsfd", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "at dt = 0.78 fail: exp(780) exceeds the double range" in err
        assert "dt = 0.39" not in err  # b dt = 390 is in range
        assert not any(tmp_path.iterdir())

    def test_modal_run_past_the_double_range_ends_at_its_data(self, tmp_path,
                                                              capsys):
        # exp(b t) = e^780 on the constant mode: the row is data, without
        # numpy's overflow warnings and without a nan error
        argv = ["pde", "--a", "1", "--b", "1000", "--ic-mode", "10",
                "--t-final", "0.78", "--dt", "0.78", "--methods",
                "spectral_modal", "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        [row] = csv_rows(tmp_path / "pde_compare.csv")
        assert (row["t_final"], row["max_nodal_error"],
                row["diverged"]) == ("0", "0", "true")

    # (b - a k^2) dt on both sides of phi_nsfd's threshold for spectral_phys:
    # k = 0 from stability's zero data, or given as k_mode
    _SPECTRAL_EDGE = [("pde_compare", {"ic_mode": "10", "t_final": "1",
                                       "k_mode": "0"}),
                      ("pde_stability", {"dx": "0.1"})]

    @pytest.mark.parametrize("name, extra", _SPECTRAL_EDGE)
    def test_spectral_step_at_the_range_of_exp_runs(self, name, extra):
        config = build_config(name, {"a": "1", "b": repr(_EXP_OVERFLOW),
                                     "dt": "1", "methods": "spectral_phys",
                                     **extra})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run_experiment(config).rows

    @pytest.mark.parametrize("name, extra", _SPECTRAL_EDGE)
    def test_spectral_step_past_the_range_of_exp_is_a_config_error(
            self, name, extra):
        b = repr(math.nextafter(_EXP_OVERFLOW, math.inf))
        raw = {"a": "1", "b": b, "dt": "1", **extra}
        build_config(name, {**raw, "methods": "euler,spectral_modal"})
        with pytest.raises(ConfigError) as err:
            build_config(name, {**raw, "methods": "euler,spectral_phys"})
        assert str(err.value) == ("dt: spectral_phys's stencil weights "
                                  "(c0, c1) at dt = 1.0 fail: exp(709) "
                                  "exceeds the double range")

    @pytest.mark.parametrize("argv, fault", [
        (["pde", "--study", "stability", "--b", "1000", "--dt", "1",
          "--methods", "spectral_phys"], "dt = 1.0 fail: exp(1000)"),
        (["pde", "--a", "1", "--b", "1000", "--ic-mode", "10", "--t-final",
          "0.78", "--dt", "0.78", "--methods", "spectral_phys", "--k-mode",
          "0"], "dt = 0.78 fail: exp(780)"),
    ])
    def test_spectral_overflowing_run_is_rejected_whole(self, argv, fault,
                                                        tmp_path, capsys):
        # k = 0, from stability's zero data or given: (b - a k^2) dt = b dt
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: dt: spectral_phys's stencil weights (c0, c1) at "
            f"{fault} exceeds the double range\n")
        assert not any(tmp_path.iterdir())

    def test_spectral_check_resolves_the_default_mode(self, tmp_path):
        # without k_mode the run takes k = 10 from its data, and
        # (1000 - 100) * 0.78 = 702 is in range
        argv = ["pde", "--a", "1", "--b", "1000", "--ic-mode", "10",
                "--t-final", "0.78", "--dt", "0.78", "--methods",
                "spectral_phys", "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv) == 0
        assert (tmp_path / "pde_compare.csv").exists()

    def test_grid_the_run_cannot_build_is_a_config_error(self, tmp_path,
                                                         capsys):
        # dx = 5e-324 / 64 underflows to 0, so Grid1D rejects the grid and
        # the plan ends there, beside the exact amplitude's rejection
        argv = ["pde", "--b", "1000", "--dt", "1", "--t-final", "1",
                "--domain-length", "5e-324", "--methods", "spectral_phys",
                "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: t_final: exp((b - a k^2) t) leaves the double "
            "range by t = t_final, with k = 2 pi ic_mode / domain_length\n"
            "config error: domain_length: the grid with dx = 0.0, or a square "
            "of dx or of a wavenumber up to pi/dx that the run forms, fails: "
            "dx must be positive, got 0.0\n")

    @pytest.mark.parametrize("argv, message", [
        (["pde", "--a", "1e-9", "--b", "-1", "--methods", "nsfd"],
         "a: nsfd's diffusion weight a/psi2 with dx = 0.09817477042468103 "
         "fails"),
        (["pde", "--methods", "spectral_phys", "--s-mode", "1e9"],
         "s_mode: spectral_phys's diffusion weight a/psi2 with "
         "dx = 0.09817477042468103 fails"),
    ])
    def test_psi2_overflow_names_sinh(self, argv, message, tmp_path, capsys):
        # b/a = -1e9: sinh(sqrt(1e9) dx / 2) leaves the double range, which
        # aborted every method's rows (exit 3) before validation asked psi2
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {message}: sinh(1552.28) exceeds the double "
            "range\n")
        assert not any(tmp_path.iterdir())

    def test_space_step_check_skips_a_diffusionless_run(self, tmp_path):
        # with a = 0 no method divides by dx**2 or forms a psi2
        argv = ["pde", "--a", "0", "--b", "-1", "--ic-mode", "0",
                "--domain-length", "1e-160", "--methods", "euler,nsfd"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert len(csv_rows(tmp_path / "pde_compare.csv")) == 6

    def test_signature_window_below_the_floor_still_runs(self, tmp_path):
        # lambda t_min^alpha = 1.3e-9 is below the floor, so validation
        # evaluates the propagator there, and its signature is positive
        argv = ["signature", "--alpha", "0.7", "--t-min", "1e-13"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert len(csv_rows(tmp_path / "signature_demo.csv")) == 1

    @pytest.mark.parametrize("argv", [
        ["ho", "--y0", "1e155", "--n-steps", "1000"],
        ["ho", "--y0", "1e308", "--v0", "1e308"],
    ])
    def test_oscillator_amplitude_is_bounded(self, argv, tmp_path, capsys,
                                             monkeypatch):
        def no_run(config):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert ("config error: y0: the amplitude hypot(y0, v0/omega) exceeds"
                in capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("y0, v0, omega", [
        (MAX_OSCILLATOR_AMPLITUDE, 0.0, 1.0),
        (-MAX_OSCILLATOR_AMPLITUDE, 0.0, 1.0),
        (0.0, 3.0 * MAX_OSCILLATOR_AMPLITUDE, 3.0),
    ])
    def test_oscillator_at_the_amplitude_bound_is_finite(self, y0, v0, omega,
                                                         tmp_path):
        argv = ["ho", "--omega", repr(omega), "--y0", repr(y0), "--v0",
                repr(v0), "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        rows = csv_rows(tmp_path / "ho_exact.csv")
        assert len(rows) == 5
        for row in rows:
            for column in ("y_value", "exact", "abs_err", "energy_drift"):
                if row[column]:
                    assert math.isfinite(float(row[column]))

    def test_modal_grid_above_former_cap(self, tmp_path):
        assert main(["pde", "--m-points", "8192", "--methods",
                     "spectral_modal", "--out", str(tmp_path)]) == 0
        rows = csv_rows(tmp_path / "pde_compare.csv")
        assert len(rows) == 3
        assert all(float(row["max_nodal_error"]) <= 1e-10 for row in rows)

    def test_too_few_points_exit_code(self, tmp_path, capsys):
        assert main(["pde", "--m-points", "2", "--out", str(tmp_path)]) == 2
        assert "m_points: must be >= 3" in capsys.readouterr().err

    def test_infinite_t_final_exit_code(self, tmp_path, capsys):
        assert main(["pde", "--t-final", "inf", "--out", str(tmp_path)]) == 2
        assert "t_final: must be finite" in capsys.readouterr().err
        # finite entries whose ratio overflows
        assert main(["pde", "--t-final", "1e300", "--dt", "1e-10",
                     "--out", str(tmp_path)]) == 2
        assert "does not divide t_final" in capsys.readouterr().err

    def test_infinite_laplace_mode_exit_code(self, tmp_path, capsys):
        assert main(["laplace", "--s", "inf", "--out", str(tmp_path)]) == 2
        assert "s: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "laplace_bvp.csv").exists()

    def test_infinite_integer_in_config_file(self, tmp_path, capsys):
        config_file = tmp_path / "inf.cfg"
        config_file.write_text(GOLDEN_CONFIGS["laplace_bvp"]
                               .replace("levels = 3", "levels = inf"))
        assert main(["run", str(config_file), "--out", str(tmp_path)]) == 2
        assert "levels: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_golden_config_as_flags(self, name, tmp_path):
        argv = config_argv(GOLDEN_CONFIGS[name]) + ["--out", str(tmp_path)]
        assert main(argv) == 0
        assert (csv_without_timestamp(tmp_path / f"{name}.csv")
                == csv_without_timestamp(GOLDEN_DIR / f"{name}.csv"))

    @pytest.mark.parametrize("command", ["decay", "ho", "pde", "ml",
                                         "signature", "laplace", "run"])
    def test_every_schema_key_has_a_flag(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        flags = set(re.findall(r"(?<![\w-])--[a-z0-9-]+",
                               capsys.readouterr().out))
        keys = {f.name for kind, argv in SUBCOMMAND.items()
                if argv[0] == command for f in _EXPERIMENTS[kind].fields}
        assert (flags - {"--help", "--study", "--out", "--format"}
                == {"--" + key.replace("_", "-") for key in keys})

    def test_integer_flag_accepts_float_text(self, tmp_path):
        argv = ["decay", "--h0", "0.25", "--levels"]
        assert main(argv + ["6", "--out", str(tmp_path / "int")]) == 0
        assert main(argv + ["6.0", "--out", str(tmp_path / "float")]) == 0
        assert (csv_without_timestamp(tmp_path / "int" / "decay_order.csv")
                == csv_without_timestamp(tmp_path / "float" / "decay_order.csv"))

    @pytest.mark.parametrize("study, flag", [
        ("compare", "--dx"), ("stability", "--t-final"),
        ("stability", "--ic-mode"), ("stability", "--domain-length"),
    ])
    def test_other_study_flag_rejected(self, study, flag, tmp_path, capsys):
        argv = ["pde", "--study", study, flag, "1", "--out", str(tmp_path)]
        assert main(argv) == 2
        key = flag[2:].replace("-", "_")
        assert f"config error: {key}: unknown key" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["signature"], "alpha: required key is missing"),
        (["signature", "--alpha", "0.7", "--propagator", "bogus"],
         "propagator: must be one of: local_exp, nonlocal_ml"),
        (["ho", "--n-steps", "abc"], "n_steps: expected an integer"),
        (["pde", "--dt", "0.1,x"], "dt: could not convert string to float"),
        # eps = tol/1000 past 1 ended in a math domain error (exit 3)
        (["ml", "--tol", "1e4"], "tol: must lie in (0, 1)"),
        (["ml", "--alphas", "1.5"], "alphas: entries must lie in [0.01, 1]"),
        (["signature", "--alpha", "0.005"],
         "alpha: Mittag-Leffler order alpha must lie in [0.01, 1], got "
         "0.005"),
        # sin(2 pi 2 x_m / L) on 4 points is roundoff; times exp(-178) it
        # underflowed the error scale to 0 (ZeroDivisionError, exit 3)
        (["pde", "--a", "1", "--b", "0", "--m-points", "4", "--ic-mode", "2",
          "--t-final", "178", "--dt", "1", "--methods", "spectral_modal"],
         "ic_mode: the initial sine vanishes at every grid point"),
        (["ho", "--omega", "10", "--h", "0.7"],
         "h: omega*h/2 = 3.5 must stay below pi"),
        # 2 sin(omega*h) was 0: a silent nan energy_drift and a warning
        (["ho", "--omega", "1e-9", "--h", "5e-324", "--v0", "-1"],
         "h: 2 sin(omega*h) underflows to 0"),
        # dx = 0 made Grid1D raise ValueError (exit 3)
        (["pde", "--ic-mode", "0", "--domain-length", "5e-324"],
         "domain_length: the grid with dx = 0.0, or a square of dx or of a "
         "wavenumber up to pi/dx that the run forms, fails: dx must be "
         "positive, got 0.0"),
        (["signature", "--alpha", "0.7", "--t-min", "0.1", "--t-max", "0.01"],
         "t_max: window must satisfy 0 < t_min < t_max"),
        (["decay", "--schemes", "bogus"], "schemes: unknown entries ['bogus']"),
        (["pde", "--dt", ","], "dt: expected a non-empty list"),
        # psi2 was 4 inf^2 / inf: every error a silent nan (exit 0)
        (["laplace", "--a", "5e-324", "--b", "1e-9", "--s", "2"],
         "s: the coarsest level's solve, with dx = 0.1, fails: sinh(inf) "
         "exceeds the double range"),
        (["laplace", "--a", "1e9", "--b", "709", "--s", "1e300"],
         "s: the coarsest level's solve, with dx = 0.1, fails: "
         "sinh(1.58114e+144) exceeds the double range"),
        # dx**2 = 0 was a ZeroDivisionError, and dx**2 = inf an
        # OverflowError that named no cause (exit 3)
        (["pde", "--ic-mode", "0", "--domain-length", "1e-160"],
         "domain_length: the grid with dx = 1.5625e-162, or a square of dx "
         "or of a wavenumber up to pi/dx that the run forms, fails: "
         "overflow encountered in square"),
        (["pde", "--study", "stability", "--dx", "1e-300"],
         "dx: the grid with dx = 1e-300, or a square"),
        (["pde", "--study", "stability", "--dx", "1e300", "--a", "0.78"],
         "dx: the grid with dx = 1e+300, or a square of dx or of a "
         "wavenumber up to pi/dx that the run forms, fails: Numerical "
         "result out of range"),
        # nsfd's psi2 needs sqrt(b/a)*dx/2 < pi; here it is sqrt(1000)/4,
        # which aborted inside the solver (exit 3)
        (["pde", "--a", "1.0", "--b", "1000.0", "--ic-mode", "1",
          "--m-points", "8", "--domain-length", "4.0", "--t-final", "0.5",
          "--dt", "0.5", "--methods", "nsfd"],
         "a: nsfd's diffusion weight a/psi2 with dx = 0.5 fails: "
         "sqrt(r)*dx/2 = 7.90569 reaches the first sine zero (pi)"),
        # 1 - propagator(t_min) rounded to 0: FitDegenerateError (exit 3)
        (["signature", "--alpha", "1", "--t-min", "1e-300", "--t-max",
          "0.001"],
         "t_min: the signature 1 - nonlocal_propagator(t_min) rounds to 0.0, "
         "and the fit takes its log"),
        (["signature", "--alpha", "0.5", "--propagator", "local_exp",
          "--t-min", "1e-300"],
         "t_min: the signature 1 - local_propagator(t_min) rounds to 0.0"),
        # the march takes no step count; the run's rows need two steps
        (["ho", "--n-steps", "1"], "n_steps: must be >= 2"),
    ])
    def test_bad_flag_is_a_config_error(self, argv, message, tmp_path,
                                        capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        # pi/dx squared past the double range: an OverflowError in
        # default_spectral_params (exit 3), or numpy overflow warnings and
        # diverged or nan rows (exit 0)
        (["pde", "--ic-mode", "0", "--domain-length", "1e-155", "--methods",
          "spectral_phys"], "domain_length: the grid with dx = 1.5625e-157, "
                            "or a square of dx or of a wavenumber up to "
                            "pi/dx that the run forms, fails: Numerical "
                            "result out of range"),
        (["pde", "--ic-mode", "0", "--domain-length", "1e-155"],
         "domain_length: the grid with dx = 1.5625e-157, or a square of dx "
         "or of a wavenumber up to pi/dx that the run forms, fails: "
         "overflow encountered in square"),
        (["pde", "--a", "0", "--ic-mode", "0", "--domain-length", "1e-155",
          "--methods", "spectral_modal"],
         "domain_length: the grid with dx = 1.5625e-157, or a square"),
        (["pde", "--study", "stability", "--dx", "1e-160"],
         "dx: the grid with dx = 1e-160, or a square of dx or of a "
         "wavenumber up to pi/dx that the run forms, fails: overflow "
         "encountered in square"),
        (["pde", "--study", "stability", "--dx", "2e-154"],
         "dx: the grid with dx = 2e-154, or a square"),
        # -lambda t^alpha was -inf at the later samples: ValueError (exit 3)
        (["signature", "--alpha", "0.5", "--lambda", "1e300", "--t-min",
          "1e-4", "--t-max", "1e300"],
         "t_max: lambda * t_max**alpha leaves the double range"),
        (["signature", "--alpha", "0.5", "--lambda", "1e300", "--t-min",
          "1e300", "--t-max", "1e301"],
         "t_max: lambda * t_max**alpha leaves the double range"),
    ])
    def test_out_of_range_grid_or_window_is_a_config_error(
            self, argv, message, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, keys", [
        # the exact amplitude leaves the double range, and so does pi/dx
        # squared
        (["pde", "--domain-length", "1e-155"], ["t_final", "domain_length"]),
        # the grid fault ends the plan before the weights, which would fail
        (["pde", "--ic-mode", "0", "--domain-length", "1e-160"],
         ["domain_length"]),
        # exp(b t) leaves the range; euler's weight c0 = 1 + b dt is inf at
        # dt = 2, and nsfd's psi2 reaches the sine zero
        (["pde", "--b", "1e308", "--dt", "1,2", "--t-final", "2",
          "--methods", "euler,nsfd"], ["t_final", "dt", "a"]),
    ])
    def test_each_rejected_key_is_reported_once(self, argv, keys, tmp_path,
                                                capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[1] for line in lines] == keys

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        # nsfd's weights were (-inf, inf) at dt = 1: a RuntimeWarning and
        # nan amplification rows (exit 0)
        (["pde", "--study", "stability", "--a", "1000", "--b", "709",
          "--dx", "0.1", "--m-points", "8"],
         "dt: nsfd's stencil weights (c0, c1) at dt = 1.0 fail: it is "
         "(-inf, inf)"),
        # nsfd's psi2 reached its sine zero, and the abort (exit 3) lost
        # euler's rows with it
        (["pde", "--a", "1e-3", "--b", "100", "--methods", "euler,nsfd",
          "--dt", "0.001", "--t-final", "0.01"],
         "a: nsfd's diffusion weight a/psi2 with dx = 0.09817477042468103 "
         "fails: sqrt(r)*dx/2 = 15.5228 reaches the first sine zero (pi)"),
        # the modal symbol exp((b - a k^2) dt) overflowed with a warning,
        # into inf rows (exit 0)
        (["pde", "--study", "stability", "--b", "1000", "--dt", "1",
          "--methods", "spectral_modal"],
         "dt: spectral_modal's amplification factor at dt = 1.0 fails: "
         "overflow encountered in exp"),
        (["pde", "--study", "stability", "--a", "1e10", "--dx", "1e-150",
          "--methods", "spectral_modal"],
         "dx: the grid with dx = 1e-150, or a square of dx or of a "
         "wavenumber up to pi/dx that the run forms, fails: overflow "
         "encountered in multiply"),
        # b/a = -inf: psi2 was 4 sinh(inf)^2 / inf, and the weights
        # (nan, nan)
        (["pde", "--a", "5e-324", "--b", "-1", "--methods", "nsfd"],
         "a: nsfd's diffusion weight a/psi2 with dx = 0.09817477042468103 "
         "fails: sinh(inf) exceeds the double range"),
        # psi2/a overflowed: four nan rows (exit 0)
        (["laplace", "--a", "5e-324", "--b", "0", "--s", "5e-324"],
         "s: the coarsest level's solve, with dx = 0.1, fails: overflow "
         "encountered in divide"),
        # the analytic denominator a (ic_mode pi)^2 + s - b is subnormal:
        # overflow warnings and nan errors (exit 0)
        (["laplace", "--a", "1e-320", "--b", "0", "--s", "5e-324",
          "--ic-mode", "32", "--levels", "4"],
         "s: the coarsest level's solve, with dx = 0.1, fails: overflow "
         "encountered in divide"),
        (["laplace", "--a", "1e-320", "--b", "0", "--s", "5e-324",
          "--ic-mode", "32", "--levels", "10"],
         "s: the coarsest level's solve, with dx = 0.1, fails: overflow "
         "encountered in divide"),
        # the grid's length 64 dx overflowed to inf, so every wavenumber
        # was 0, and the 33 bins folded into one row per dt (exit 0)
        (["pde", "--study", "stability", "--dx", "1e307", "--m-points", "64",
          "--methods", "spectral_modal"],
         "dx: the grid with dx = 1e+307, or a square of dx or of a "
         "wavenumber up to pi/dx that the run forms, fails: grid length "
         "must be finite, got inf"),
        # sin(10 pi x) on the level-0 grid x = j / 10 is roundoff: a level-0
        # error of 2e-17 and an observed order of -43 (exit 0)
        (["laplace", "--ic-mode", "10"],
         "ic_mode: the initial sine vanishes at every grid point when "
         "ic_mode is a multiple of m0 - 1"),
        # and divided by the subnormal analytic denominator, it overflowed
        # on the finer levels: nan rows (exit 0) or an abort under -W error
        (["laplace", "--a", "1e-320", "--b", "0", "--s", "5e-324",
          "--ic-mode", "10"],
         "ic_mode: the initial sine vanishes at every grid point when "
         "ic_mode is a multiple of m0 - 1"),
        (["laplace", "--a", "1e-320", "--b", "0", "--s", "5e-324",
          "--ic-mode", "20"],
         "ic_mode: the initial sine vanishes at every grid point when "
         "ic_mode is a multiple of m0 - 1"),
    ])
    def test_plan_fault_is_a_config_error(self, argv, message, tmp_path,
                                          capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, peak", [
        # a (ic_mode pi)^2 overflowed, so the analytic solution was 0 and
        # the observed order 0.08 down to 0.005 (exit 0)
        (["laplace", "--a", "1e307", "--ic-mode", "3"], "0.0"),
        (["laplace", "--a", "1e308", "--ic-mode", "1"], "0.0"),
        # a solution of about 1.1e-308 is subnormal
        (["laplace", "--a", "1e306", "--ic-mode", "3"],
         "1.1257909293593085e-308"),
    ])
    def test_subnormal_laplace_solution_is_a_config_error(
            self, argv, peak, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: a: the analytic solution sine / (a (ic_mode "
            f"pi)^2 + s - b) peaks at {peak} on the coarsest level, below "
            "the smallest normal double\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    def test_tiny_normal_laplace_solution_still_runs(self, tmp_path):
        # the analytic solution peaks near 2e-303 on level 0, a normal
        # double, and its finest error of 3e-309 still reads second order
        argv = ["laplace", "--a", "1e300", "--ic-mode", "7", "--levels", "10"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        orders = [float(row["observed_p"]) for row in
                  csv_rows(tmp_path / "laplace_bvp.csv")[1:]]
        assert len(orders) == 9
        assert all(abs(p - 2.0) < 0.3 for p in orders)

    @pytest.mark.filterwarnings("error")
    def test_explicit_run_squares_no_wavenumber(self, tmp_path):
        # pi/dx squares past the double range, but euler and nsfd form only
        # dx**2 = 4e-308 and finite weights from it
        argv = ["pde", "--study", "stability", "--dx", "2e-154", "--methods",
                "euler,nsfd"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        rows = csv_rows(tmp_path / "pde_stability.csv")
        assert all(math.isfinite(float(row["amplification"])) for row in rows)

    @pytest.mark.filterwarnings("error")
    def test_finest_grid_inside_the_range_still_runs(self, tmp_path):
        # pi/dx = 1.3e154 squares to 1.7e308, just inside the double range
        argv = ["pde", "--study", "stability", "--dx", "2.4e-154"]
        assert main(argv + ["--out", str(tmp_path)]) == 0

    def test_reused_parser_matches_fresh_parser(self, tmp_path, capsys):
        calls = [
            ["decay", "--lambda", "2.0", "--t-final", "1.0", "--h0", "0.125",
             "--levels", "4"],
            ["pde", "--b", "-0.25", "--m-points", "16", "--dt", "0.5"],
            ["pde", "--b"],  # argparse error: exit 2
            ["laplace", "--s", "3.0", "--levels", "2"],
            ["pde", "--m-points", "16", "--dt", "0.5"],
            ["decay", "--lambda", "1.0", "--t-final", "1.0", "--h0", "0.25",
             "--levels", "4", "--schemes", "forward_euler"],
        ]

        def run_all(fresh: bool) -> list:
            results = []
            for i, argv in enumerate(calls):
                if fresh:
                    _build_parser.cache_clear()
                out = tmp_path / f"{fresh}-{i}"
                try:
                    code = main(argv + ["--out", str(out)])
                except SystemExit as exc:
                    code = exc.code
                csvs = sorted(out.glob("*.csv")) if out.exists() else []
                results.append((code, [csv_without_timestamp(path)
                                       for path in csvs]))
            return results

        reused = run_all(fresh=False)
        assert _build_parser() is _build_parser()
        assert reused == run_all(fresh=True)
        assert [code for code, _ in reused] == [0, 0, 2, 0, 0, 0]
