"""Tests for scenario parsing, serialization, and the run command."""

import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from aircover.cli import (
    ParseError,
    ValidationError,
    bundled_scenario,
    emit_plotdata,
    main,
    parse_config,
    run_command,
    serialize,
)
from aircover.controller import ClassK
from aircover.coverage import DensityField, SensingParams
from aircover.geometry import AgentState
from aircover.sim import MODES, Scenario, run

DATA = Path(__file__).resolve().parent / "data"
# The pinned runs that ship their own scenario file.
PINNED_CONFIGS = ("lattice25_expand", "square25")

MINIMAL = """
[agents]
0.0 -2.0 1.5 1.0
-1.4 0.0 1.5 1.0
1.4 0.0 1.5 1.0

[density]
mission = -3.5 -3.5 3.5 3.5
1.0 0.0 0.0 1.5
"""

# Filter knobs that must be positive, with nonpositive values for them.
NONPOSITIVE_FILTER_KNOBS = [
    ("epsilon", "0.0"),
    ("epsilon", "-0.1"),
    ("guard_threshold", "0.0"),
    ("w_lambda", "-1.0"),
]

# A non-finite token in each place a float is read: (line of trio.cfg, same line edited, token).
NON_FINITE = {
    "agent_row": (" 0.0 -2.0 1.5 1.0   0.0 0.4 0.0 0.0", " 0.0 -2.0 nan 1.0   0.0 0.4 0.0 0.0", "nan"),
    "sensing_key": ("kappa = 4.0", "kappa = nan", "nan"),
    "density_row": ("1.0 0.0 0.0 1.5", "1.0 0.0 0.0 inf", "inf"),
    "mission": ("mission = -3.5 -3.5 3.5 3.5", "mission = -3.5 -infinity 3.5 3.5", "-infinity"),
    "sim_float": ("dt = 0.01", "dt = inf", "inf"),
    "controller_float": ("w_lambda = 1.0e6", "w_lambda = -Infinity", "-Infinity"),
}


def trio_with_non_finite(case):
    """Bundled trio.cfg with one line edited to hold a non-finite token, and that token's (line, column)."""
    old, new, token = NON_FINITE[case]
    lines = bundled_scenario("trio").splitlines()
    lineno = lines.index(old) + 1
    lines[lineno - 1] = new
    return "\n".join(lines) + "\n", lineno, new.index(token) + 1


# MINIMAL's first agent row, and rows that replace it with z or lambda not positive
# (a zero or negative footprint radius, or a division by zero).
FIRST_AGENT = "0.0 -2.0 1.5 1.0"
BAD_AGENT_ROWS = ["0 0 0 1", "0 0 -1 1", "0 0 1 0", "0 0 1 -1"]


def trio_with(key, value):
    """Bundled trio.cfg with one [controller] key set to value."""
    text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", bundled_scenario("trio"), flags=re.M)
    assert n == 1
    return text


class TestParseConfig:
    def test_minimal_config_gets_documented_defaults(self):
        scenario = parse_config(MINIMAL)
        assert len(scenario.agents) == 3
        assert scenario.epsilon == 0.2
        assert scenario.guard_threshold == 1e4
        assert scenario.dt == 0.01
        assert scenario.steps == 1000
        assert scenario.mode == "ncbf"
        assert scenario.alpha.gain == 1.0 and scenario.alpha.power == 3
        assert scenario.w_lambda == 3.0e6
        assert (scenario.sensing.r, scenario.sensing.kappa) == (1.0, 4.0)
        assert scenario.fixed_nominal is None
        assert scenario.density.components == ((1.0, (0.0, 0.0), 1.5),)

    def test_zero_dt_is_a_validation_error(self):
        text = MINIMAL + "\n[sim]\ndt = 0.0\n"
        with pytest.raises(ValidationError, match="dt must be positive"):
            parse_config(text)

    @pytest.mark.parametrize("key,value", NONPOSITIVE_FILTER_KNOBS)
    def test_nonpositive_filter_knob_is_a_validation_error(self, key, value):
        with pytest.raises(ValidationError, match="must be positive"):
            parse_config(trio_with(key, value))

    @pytest.mark.parametrize("row", BAD_AGENT_ROWS)
    def test_nonpositive_altitude_or_focal_length_is_a_validation_error(self, row):
        with pytest.raises(ValidationError, match="positive altitude z and focal length lambda"):
            parse_config(MINIMAL.replace(FIRST_AGENT, row))

    def test_missing_mission_is_a_validation_error(self):
        text = "[agents]\n0 0 1 1\n"
        with pytest.raises(ValidationError, match="mission"):
            parse_config(text)

    def test_unknown_key_reports_line_and_column(self):
        text = "[agents]\n0 0 1 1\n\n[sim]\n  bogus = 3\n"
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert err.value.line == 5
        assert err.value.col == 3
        assert "bogus" in str(err.value)

    @pytest.mark.parametrize("key", ["min_z", "min_lambda"])
    def test_fixed_integrator_floor_is_an_unknown_key(self, key):
        # The floors are constants of the Euler step, not settings.
        with pytest.raises(ParseError, match=f"unknown key '{key}' in \\[sim\\]") as err:
            parse_config(MINIMAL + f"\n[sim]\n {key} = 0.05\n")
        assert (err.value.line, err.value.col) == (len(MINIMAL.splitlines()) + 3, 2)

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="unknown section"):
            parse_config("[wings]\nspan = 3\n")

    def test_content_before_section(self):
        with pytest.raises(ParseError, match="before any section"):
            parse_config("dt = 3\n[agents]\n0 0 1 1\n")

    def test_bad_number_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_config("[agents]\n0.0 oops 1.0 1.0\n")
        assert err.value.line == 2
        assert err.value.col == 5

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_number_reports_position(self, case):
        text, line, col = trio_with_non_finite(case)
        with pytest.raises(ParseError, match="finite") as err:
            parse_config(text)
        assert (err.value.line, err.value.col) == (line, col)

    def test_wrong_agent_row_arity(self):
        with pytest.raises(ParseError, match="4 or 8"):
            parse_config("[agents]\n0 0 1\n")

    def test_mixed_agent_row_widths(self):
        text = "[agents]\n0 0 1 1 0 0 0 0\n1 0 1 1\n"
        with pytest.raises(ParseError, match="all have 4 or all have 8"):
            parse_config(text)

    def test_duplicate_key(self):
        text = MINIMAL + "\n[sim]\ndt = 0.01\ndt = 0.02\n"
        with pytest.raises(ParseError, match="duplicate key"):
            parse_config(text)

    def test_duplicate_mission_reports_second_line(self):
        text = MINIMAL + "  mission = 0 0 1 1\n"
        with pytest.raises(ParseError, match="duplicate key 'mission' in \\[density\\]") as exc:
            parse_config(text)
        assert (exc.value.line, exc.value.col) == (len(text.splitlines()), 3)

    @pytest.mark.parametrize("line", ["mission=0 0 1 1", "mission =0 0 1 1", "mission= 0 0 1 1"])
    def test_mission_needs_no_space_around_the_equals_sign(self, line):
        scenario = parse_config("[agents]\n0 0 1 1\n[density]\n" + line + "\n")
        assert scenario.density.mission == (0.0, 0.0, 1.0, 1.0)

    def test_mission_token_column_counts_from_the_line_start(self):
        with pytest.raises(ParseError, match="'x'") as err:
            parse_config("[agents]\n0 0 1 1\n[density]\nmission=0 0 1 x\n")
        assert (err.value.line, err.value.col) == (4, 15)

    def test_key_in_agents_section(self):
        with pytest.raises(ParseError, match="agent rows"):
            parse_config("[agents]\ncount = 3\n")

    def test_bare_row_in_sim_section(self):
        with pytest.raises(ParseError, match="key = value"):
            parse_config(MINIMAL + "\n[sim]\n0.01 100\n")

    def test_integer_keys_reject_floats(self):
        with pytest.raises(ParseError, match="expected an integer"):
            parse_config(MINIMAL + "\n[sim]\nsteps = 10.5\n")

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n[agents]  # trailing\n0 0 1 1  # an agent\n\n[density]\nmission = 0 0 1 1\n"
        scenario = parse_config(text)
        assert len(scenario.agents) == 1
        assert scenario.density.components == ()

    def test_eight_column_rows_fix_the_nominal_input(self):
        text = "[agents]\n0 0 1 1  0 0.4 0 0\n1 0 1 1  0 0 0 0\n[density]\nmission = -2 -2 2 2\n"
        scenario = parse_config(text)
        assert scenario.fixed_nominal == ((0.0, 0.4, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# Scenario fields that are not `key = value` settings.
NOT_SETTINGS = ("agents", "sensing", "density", "alpha", "fixed_nominal")


def off_default(cls, default, skip=()):
    """Keyword arguments for every field of cls but skip, each drawn unequal to its value in default."""
    special = {"mode": st.sampled_from(MODES), "power": st.integers(0, 50).map(lambda k: 2 * k + 1)}
    by_type = {float: POSITIVE, int: st.integers(1, 10**9)}
    return st.fixed_dictionaries({
        f.name: special.get(f.name, by_type.get(f.type)).filter(
            lambda v, d=getattr(default, f.name): v != d)
        for f in fields(cls) if f.name not in skip
    })


@st.composite
def scenarios_off_default(draw):
    defaults = parse_config(MINIMAL)
    n = draw(st.integers(1, 4))
    agents = tuple(AgentState(draw(FINITE), draw(FINITE), draw(POSITIVE), draw(POSITIVE))
                   for _ in range(n))
    fixed = draw(st.none() | st.tuples(*[st.tuples(FINITE, FINITE, FINITE, FINITE)] * n))
    xmin, ymin = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    mission = (xmin, ymin, xmin + draw(st.floats(1e-3, 1e6)), ymin + draw(st.floats(1e-3, 1e6)))
    components = tuple(draw(st.lists(
        st.tuples(st.floats(0.0, 1e6), st.tuples(FINITE, FINITE), POSITIVE), max_size=3)))
    return Scenario(
        agents=agents,
        sensing=SensingParams(**draw(off_default(SensingParams, defaults.sensing))),
        density=DensityField(components=components, mission=mission),
        alpha=ClassK(**draw(off_default(ClassK, defaults.alpha))),
        fixed_nominal=fixed,
        **draw(off_default(Scenario, defaults, skip=NOT_SETTINGS)),
    )


class TestSerialize:
    @pytest.mark.parametrize("name", ["trio", "nine_agents", "five_agents", *PINNED_CONFIGS])
    def test_bundled_round_trip(self, name):
        text = (DATA / name / "scenario.cfg").read_text() if name in PINNED_CONFIGS else bundled_scenario(name)
        scenario = parse_config(text)
        text = serialize(scenario)
        assert parse_config(text) == scenario
        assert "min_z" not in text and "min_lambda" not in text

    def test_serialize_is_idempotent(self):
        scenario = parse_config(MINIMAL)
        text = serialize(scenario)
        assert serialize(parse_config(text)) == text

    # A fixed example, kept whatever seed the test's source hashes to: floats
    # that need all 17 significant digits (0.1 + 0.2 = 0.30000000000000004).
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scenarios_off_default())
    @example(replace(parse_config(MINIMAL), dt=0.1 + 0.2, agents=(AgentState(0.1 + 0.2, -1.2345678901234567, 1.5, 1.0),)))
    def test_round_trip_with_every_setting_off_its_default(self, scenario):
        # Every field of Scenario, SensingParams and ClassK is drawn away from
        # the value an omitted key gets, so a key the parser or the serializer
        # forgets comes back at its default and fails the equality.
        text = serialize(scenario)
        assert parse_config(text) == scenario
        assert serialize(parse_config(text)) == text


class TestBundledScenarios:
    def test_trio_has_a_single_mover(self):
        scenario = parse_config(bundled_scenario("trio"))
        assert len(scenario.agents) == 3
        assert scenario.fixed_nominal[0] == (0.0, 0.4, 0.0, 0.0)
        assert scenario.fixed_nominal[1] == (0.0, 0.0, 0.0, 0.0)
        assert scenario.mode == "ncbf"

    def test_nine_agent_parameters(self):
        scenario = parse_config(bundled_scenario("nine_agents"))
        assert len(scenario.agents) == 9
        s = scenario.sensing
        assert (s.kappa, s.sigma, s.M, s.w) == (4.0, 3.0, 11.0, 0.4)
        assert scenario.w_lambda == 3.0e6
        assert scenario.epsilon == 0.2
        assert scenario.alpha.gain == 1.0 and scenario.alpha.power == 3
        assert scenario.steps == 10000
        assert scenario.grid_resolution == 0.3

    def test_five_agent_parameters(self):
        scenario = parse_config(bundled_scenario("five_agents"))
        assert len(scenario.agents) == 5
        s = scenario.sensing
        assert (s.kappa, s.sigma, s.M, s.w) == (4.0, 1.0, 0.7, 0.2)
        assert scenario.w_lambda == 1.0e6
        assert scenario.alpha.gain == 20.0
        assert scenario.density.mission == (0.0, 0.0, 3.0, 4.0)


class TestRunCommand:
    def write_trio(self, tmp_path, steps=None):
        path = tmp_path / "scenario.cfg"
        path.write_text(bundled_scenario("trio"))
        return str(path)

    def test_writes_trace_and_summary(self, tmp_path):
        assert run_command(self.write_trio(tmp_path), str(tmp_path / "out"), steps=40) == 0
        trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert trace[0].startswith("#")
        header = trace[1].split(",")
        assert header[:6] == ["step", "switch", "hole_witnesses", "H", "H_M", "H_O"]
        assert "x0" in header and "min_ncbf2" in header
        rows = trace[2:]
        assert len(rows) == 40
        assert [r.split(",")[0] for r in rows] == [str(k) for k in range(40)]
        # Every cell must be a plain number: no numpy scalar reprs may leak
        # through the integrator into the trace.
        for row in rows:
            for cell in row.split(","):
                float(cell)
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "final_H = " in summary
        assert "mode = 'ncbf'" in summary

    def test_plotdata_files(self, tmp_path):
        assert run_command(self.write_trio(tmp_path), str(tmp_path / "out"), steps=1, emit=("plotdata",)) == 0
        for name in ("plot_positions", "plot_radius", "plot_ncbf", "plot_global"):
            lines = (tmp_path / "out" / f"{name}.csv").read_text().splitlines()
            assert len(lines) == 2  # header + exactly one data row
        assert not (tmp_path / "out" / "trace.csv").exists()

    def test_missing_scenario_path(self, tmp_path, capsys):
        assert run_command(str(tmp_path / "nope.cfg"), str(tmp_path)) != 0
        assert "cannot read scenario" in capsys.readouterr().err

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL + "\n[sim]\ndt = 0.0\n")
        assert run_command(str(path), str(tmp_path / "out")) == 2
        assert "dt must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", NONPOSITIVE_FILTER_KNOBS)
    def test_nonpositive_filter_knob_exits_before_running(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(trio_with(key, value))
        assert run_command(str(path), str(tmp_path / "out"), steps=5) == 2
        assert "must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row", BAD_AGENT_ROWS)
    def test_nonpositive_altitude_or_focal_length_exits_before_running(self, tmp_path, capsys, row):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL.replace(FIRST_AGENT, row))
        assert run_command(str(path), str(tmp_path / "out"), steps=5) == 2
        assert "positive altitude z and focal length lambda" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["sensing_key", "controller_float"])
    def test_non_finite_number_exits_before_running(self, tmp_path, capsys, case):
        path = tmp_path / "bad.cfg"
        path.write_text(trio_with_non_finite(case)[0])
        assert run_command(str(path), str(tmp_path / "out"), steps=5) == 2
        assert "expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mode_override_uses_hyphenated_name(self, tmp_path):
        out = str(tmp_path / "out")
        assert run_command(self.write_trio(tmp_path), out, mode="hf-only", steps=5, emit=("summary",)) == 0
        assert "mode = 'hf_only'" in (tmp_path / "out" / "summary.txt").read_text()

    def test_out_naming_an_existing_file_exits_before_running(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("keep\n")
        assert run_command(self.write_trio(tmp_path), str(out), steps=5) == 2
        assert f"error: cannot create output directory '{out}'" in capsys.readouterr().err
        assert out.read_text() == "keep\n"

    def test_unknown_emit_flag(self, tmp_path, capsys):
        assert run_command(self.write_trio(tmp_path), str(tmp_path / "out"), emit=("video",)) == 2
        assert "emit" in capsys.readouterr().err


class TestMain:
    def test_run_subcommand(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(bundled_scenario("trio"))
        code = main(
            ["run", "--config", str(path), "--out", str(tmp_path / "out"), "--steps", "5"]
        )
        assert code == 0
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_emit_accepts_repeated_flags_and_comma_lists(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(bundled_scenario("trio"))
        code = main(
            ["run", "--config", str(path), "--out", str(tmp_path / "out"),
             "--steps", "5", "--emit", "trace,summary", "--emit", "plotdata"]
        )
        assert code == 0
        for name in ("trace.csv", "summary.txt", "plot_positions.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_dt_flag_is_rejected(self, tmp_path, capsys):
        # dt is the scenario file's key, not a flag.
        path = tmp_path / "scenario.cfg"
        path.write_text(bundled_scenario("trio"))
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--dt", "0.02"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --dt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_log_level_exits_before_running(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("AIRCOVER_LOG", "verbose")
        path = tmp_path / "scenario.cfg"
        path.write_text(bundled_scenario("trio"))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--steps", "2"])
        assert code == 2
        assert "error: AIRCOVER_LOG='verbose' is not a logging level" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", [m.replace("_", "-") for m in MODES])
    def test_mode_flag_accepts_every_hyphenated_mode(self, tmp_path, mode):
        path = tmp_path / "scenario.cfg"
        path.write_text(bundled_scenario("trio"))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--steps", "2", "--mode", mode, "--emit", "summary"])
        assert code == 0
        assert f"mode = {mode.replace('-', '_')!r}" in (tmp_path / "out" / "summary.txt").read_text()

    def test_mode_flag_rejects_an_unknown_mode(self, tmp_path, capsys):
        path = tmp_path / "scenario.cfg"
        path.write_text(bundled_scenario("trio"))
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--mode", "warp"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestEmitPlotdata:
    def test_series_shapes(self, tmp_path):
        from dataclasses import replace as dc_replace

        scenario = dc_replace(parse_config(bundled_scenario("trio")), steps=7)
        records, _ = run(scenario)
        paths = emit_plotdata(records, tmp_path)
        assert len(paths) == 4
        for path in paths:
            lines = open(path).read().splitlines()
            assert len(lines) == 8
            width = len(lines[0].split(","))
            assert all(len(line.split(",")) == width for line in lines)


@pytest.mark.parametrize("module", ["aircover", "aircover.cli"])
def test_module_entry_points_run_without_warnings(module, tmp_path):
    # Importing the package must not import aircover.cli: runpy warns when
    # the module it is about to run is already in sys.modules.
    src = Path(__file__).resolve().parents[1] / "src"
    config = tmp_path / "trio.cfg"
    config.write_text(bundled_scenario("trio"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "run",
         "--config", str(config), "--out", str(tmp_path / "out"), "--steps", "5"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert len((tmp_path / "out" / "trace.csv").read_text().splitlines()) == 2 + 5


def test_runtime_never_imports_scipy(tmp_path):
    # The package runs on numpy alone; scipy is only the tests' oracle.  The
    # five steps include one hole-oracle call (step 0).
    src = Path(__file__).resolve().parents[1] / "src"
    config = tmp_path / "trio.cfg"
    config.write_text(bundled_scenario("trio"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import aircover, aircover.cli, aircover.sim\n"
        "aircover.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2], '--steps', '5',\n"
        "                   '--emit', 'trace,summary,plotdata'])\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(config), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert len((tmp_path / "out" / "trace.csv").read_text().splitlines()) == 2 + 5
