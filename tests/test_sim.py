"""Tests for the discrete-time simulator."""

import itertools
import logging
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import aircover.barrier
import aircover.controller
import aircover.coverage
import aircover.sim
from aircover.cli import bundled_scenario, parse_config, serialize
from aircover.controller import ClassK, FilterParams
from aircover.coverage import DensityField, SensingParams
from aircover.geometry import AgentState, CommGraph, TrioContext, footprint_rows
from aircover.sim import MIN_LAMBDA, MIN_Z, MODES, Scenario, TraceRecord, initial_world, run, step
from conftest import fuzz_scenarios

MISSION = (-3.5, -3.5, 3.5, 3.5)
SENSING = SensingParams(r=1.0, kappa=4.0, sigma=1.0, M=1.6, w=0.2)
DENSITY = DensityField(components=((1.0, (0.0, 0.0), 1.5),), mission=MISSION)

TRIO_AGENTS = (
    AgentState(0.0, -2.0, 1.5, 1.0),
    AgentState(-1.4, 0.0, 1.5, 1.0),
    AgentState(1.4, 0.0, 1.5, 1.0),
)

ZERO = (0.0, 0.0, 0.0, 0.0)


def with_first_agent(scenario, **change):
    return replace(scenario, agents=(scenario.agents[0]._replace(**change), *scenario.agents[1:]))


def with_first_component(scenario, weight=1.0, mean=(0.0, 0.0), scale=1.5):
    return replace(scenario, density=replace(scenario.density, components=((weight, mean, scale),)))


# A non-finite value in each float of a scenario's agents, sensing, density and
# class-K function, applied to the bundled trio.cfg; the scalar knobs are in
# test_rejects_nan_and_infinite_values.
NON_FINITE_SCENARIOS = {
    "agent_x_nan": lambda s: with_first_agent(s, x=math.nan),
    "agent_y_inf": lambda s: with_first_agent(s, y=math.inf),
    "agent_z_inf": lambda s: with_first_agent(s, z=math.inf),
    "agent_lam_inf": lambda s: with_first_agent(s, lam=math.inf),
    **{f"sensing_{name}_inf": (lambda s, name=name: replace(s.sensing, **{name: math.inf}))
       for name in ("r", "kappa", "sigma", "M", "w")},
    "mission_inf": lambda s: replace(s.density, mission=(*s.density.mission[:3], math.inf)),
    "density_weight_inf": lambda s: with_first_component(s, weight=math.inf),
    "density_mean_nan": lambda s: with_first_component(s, mean=(math.nan, 0.0)),
    "density_scale_inf": lambda s: with_first_component(s, scale=math.inf),
    "alpha_gain_inf": lambda s: replace(s.alpha, gain=math.inf),
}


def trio_scenario(**overrides):
    base = dict(
        agents=TRIO_AGENTS,
        sensing=SENSING,
        density=DENSITY,
        dt=0.01,
        steps=10,
        epsilon=0.2,
        alpha=ClassK(gain=20.0, power=3),
        w_lambda=1.0e6,
        mode="ncbf",
        guard_threshold=1e4,
        grid_resolution=0.1,
        fixed_nominal=((0.0, 0.4, 0.0, 0.0), ZERO, ZERO),
    )
    base.update(overrides)
    return Scenario(**base)


class TestScenarioValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            trio_scenario(dt=0.0)
        with pytest.raises(ValueError):
            trio_scenario(steps=0)
        with pytest.raises(ValueError):
            trio_scenario(mode="other")
        with pytest.raises(ValueError):
            trio_scenario(agents=())
        with pytest.raises(ValueError):
            trio_scenario(fixed_nominal=(ZERO,))
        with pytest.raises(ValueError):
            trio_scenario(grid_resolution=0.0)
        for knob in ({"epsilon": 0.0}, {"guard_threshold": 0.0}, {"w_lambda": -1.0}):
            with pytest.raises(ValueError, match="must be positive"):
                trio_scenario(**knob)

    @pytest.mark.parametrize(
        "field,value",
        [(name, value) for value in (math.nan, math.inf) for name in
         ("dt", "epsilon", "guard_threshold", "w_lambda", "grid_resolution")],
    )
    def test_rejects_nan_and_infinite_values(self, field, value):
        with pytest.raises(ValueError, match="must be positive"):
            trio_scenario(**{field: value})

    @pytest.mark.parametrize(
        "bad",
        [(0.0, 0.4, 0.0), (0.0, 0.4, 0.0, 0.0, 0.0), (0.0, math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0, 0.0)],
    )
    def test_rejects_fixed_nominal_that_is_not_four_finite_numbers(self, bad):
        with pytest.raises(ValueError, match="four finite numbers"):
            trio_scenario(fixed_nominal=(ZERO, bad, ZERO))

    @pytest.mark.parametrize("field", ["z", "lam"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_rejects_agent_without_a_positive_altitude_or_focal_length(self, field, value):
        agents = (TRIO_AGENTS[0]._replace(**{field: value}), *TRIO_AGENTS[1:])
        with pytest.raises(ValueError, match="positive altitude z and focal length lambda"):
            trio_scenario(agents=agents)

    @pytest.mark.parametrize("field", ["r", "kappa", "sigma", "M", "w"])
    def test_sensing_rejects_nan(self, field):
        with pytest.raises(ValueError):
            replace(SENSING, **{field: math.nan})

    def test_rejects_agents_that_are_not_agent_states(self):
        # Plain tuples used to fail with an AttributeError on s.x; they are
        # refused, not coerced, so that serialize keeps writing AgentState floats.
        with pytest.raises(ValueError, match="agents must be AgentState rows"):
            Scenario(
                agents=((0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0)),
                sensing=SensingParams(1, 4, 3, 11, 0.4),
                density=DensityField(((1.0, (0, 0), 1.0),), (-3, -3, 3, 3)),
            )
        with pytest.raises(ValueError, match="agents must be AgentState rows"):
            trio_scenario(agents=(TRIO_AGENTS[0], tuple(TRIO_AGENTS[1]), TRIO_AGENTS[2]))

    def test_class_k_rejects_nan_gain(self):
        with pytest.raises(ValueError, match="gain must be positive"):
            ClassK(gain=math.nan)

    @pytest.mark.parametrize("case", NON_FINITE_SCENARIOS)
    def test_rejects_non_finite_values_at_construction(self, case):
        # Accepted, such a value fails only inside a step (a float-to-int
        # conversion in the grid window, or a non-finite trace value).
        scenario = parse_config(bundled_scenario("trio"))
        with pytest.raises(ValueError, match="finite"):
            NON_FINITE_SCENARIOS[case](scenario)

    def test_mode_selects_barrier_components(self):
        assert trio_scenario(mode="ncbf").filter_params.components == (1, 2, 3, 4)
        assert trio_scenario(mode="hf_only").filter_params.components == (4,)


class TestStep:
    def test_zero_nominal_is_a_fixed_point(self):
        # The initial trio is safe, so zero nominal inputs pass the filter
        # untouched and the states stay bit-identical.
        scenario = trio_scenario(fixed_nominal=(ZERO, ZERO, ZERO), steps=5)
        world = initial_world(scenario)
        for _ in range(5):
            world, record = step(world, scenario)
            assert not any(record.fallback)
            assert not any(record.clamped)
        for state, start in zip(world.states.tolist(), TRIO_AGENTS):
            assert state == [start.x, start.y, start.z, start.lam]

    def test_record_snapshots_pre_integration_state(self):
        scenario = trio_scenario()
        world = initial_world(scenario)
        before = world.states.copy()
        after, record = step(world, scenario)
        assert record.step == 0
        for row, state in zip(record.agents, TRIO_AGENTS):
            assert row[:4] == (state.x, state.y, state.z, state.lam)
            assert row[4] == pytest.approx(state.z / state.lam)
        # The trace writers get Python floats, whose repr carries no np.float64(...).
        assert all(type(v) is float for row in record.agents for v in row)
        # The state is one read-only (n, 4) float64 array, and step leaves its input alone.
        for states in (world.states, after.states):
            assert states.shape == (3, 4) and states.dtype == np.float64
            assert not states.flags.writeable
        np.testing.assert_array_equal(world.states, before)
        assert not np.array_equal(after.states, before)

    def test_first_step_is_never_a_switch(self):
        scenario = trio_scenario()
        _, record = step(initial_world(scenario), scenario)
        assert record.switch is False

    def test_switch_flagged_when_trio_dissolves(self):
        # The mover retreats south until the footprint overlap with the
        # hoverers breaks, which removes the trio from the graph.
        scenario = trio_scenario(
            mode="nominal_only",
            fixed_nominal=((0.0, -3.0, 0.0, 0.0), ZERO, ZERO),
            steps=40,
        )
        records, summary = run(scenario)
        switch_steps = [r.step for r in records if r.switch]
        assert len(switch_steps) == 1
        assert summary["switch_count"] == 1
        before = records[switch_steps[0] - 1]
        after = records[switch_steps[0]]
        assert before.trio_counts == (1, 1, 1)
        assert after.trio_counts == (0, 0, 0)
        # Sentinel barrier value once no trios remain.
        assert after.min_ncbf == (0.0, 0.0, 0.0)

    def test_clamps_engage_and_are_recorded(self):
        # Agent 0 dives through both floors; agent 1 hovers and is never clamped.
        scenario = Scenario(
            agents=(AgentState(0.0, 0.0, 1.0, 1.0), AgentState(2.5, 2.5, 1.0, 1.0)),
            sensing=SENSING,
            density=DENSITY,
            dt=0.01,
            steps=3,
            mode="nominal_only",
            grid_resolution=0.2,
            fixed_nominal=((0.0, 0.0, -100.0, -200.0), ZERO),
        )
        records, summary = run(scenario)
        assert any(any(r.clamped) for r in records)
        assert all(r.clamped in ((False, False), (True, False)) for r in records)
        assert summary["clamp_count"] >= 1
        # Floors hold: re-run step by step and check the world state.
        world = initial_world(scenario)
        for _ in range(3):
            world, _ = step(world, scenario)
            assert world.states[0, 2] >= MIN_Z
            assert world.states[0, 3] >= MIN_LAMBDA
            assert world.states[1].tolist() == list(scenario.agents[1])
        assert world.states[0, 2:].tolist() == [MIN_Z, MIN_LAMBDA]

    def test_hole_oracle_cadence_and_sentinel(self):
        scenario = trio_scenario(steps=25, hole_check_every=10)
        records, _ = run(scenario)
        for record in records:
            if record.step % 10 == 0:
                assert record.hole_witnesses >= 0
            else:
                assert record.hole_witnesses == -1

    def test_all_record_fields_finite(self):
        records, _ = run(trio_scenario(steps=30))
        for r in records:
            values = [r.H, r.H_M, r.H_O, *r.min_ncbf]
            for row in r.agents:
                values.extend(row)
            assert np.all(np.isfinite(values))

    def test_non_finite_next_state_names_step_and_agent(self):
        # Agent 1's fixed nominal is finite, but its Euler step overflows.
        scenario = trio_scenario(dt=10.0, fixed_nominal=(ZERO, (1e308, 0.0, 0.0, 0.0), ZERO))
        with np.errstate(over="ignore"), pytest.raises(
                FloatingPointError, match=r"non-finite next state at step 0, agent 1"):
            step(initial_world(scenario), scenario)

    def test_fuzz_run_177_in_hf_only_stops_at_its_first_non_finite_nominal(self):
        # The run's agents drift to |x| ~ 1e27; at step 53 nominal_input
        # divides by A − λ = 0.  Integrated, that NaN crashed step 54 in
        # CoverageGrid.window with "cannot convert float NaN to integer".
        ((_, scenario),) = itertools.islice(fuzz_scenarios(178), 177, None)
        scenario = replace(scenario, mode="hf_only")
        world = initial_world(scenario)
        # pytest turns numpy's RuntimeWarnings into errors; the run's overflows are expected.
        with np.errstate(all="ignore"), pytest.raises(
                FloatingPointError, match=r"non-finite nominal input at step 53, agent 4"):
            for _ in range(scenario.steps):
                world, _ = step(world, scenario)
        assert world.step == 53


class TestRun:
    def test_single_step_run_equals_one_step_call(self):
        scenario = trio_scenario(steps=1)
        records, summary = run(scenario)
        _, record = step(initial_world(scenario), scenario)
        assert len(records) == 1
        assert records[0] == record
        assert summary["steps"] == 1

    def test_deterministic_replay(self):
        scenario = trio_scenario(steps=60)
        records_a, summary_a = run(scenario)
        records_b, summary_b = run(scenario)
        assert records_a == records_b
        assert summary_a == summary_b

    def test_modes_diverge(self):
        base = dict(steps=400)
        final = {}
        for mode in ("ncbf", "hf_only", "nominal_only"):
            records, _ = run(trio_scenario(mode=mode, **base))
            final[mode] = records[-1].agents[0]
        assert final["ncbf"] != final["nominal_only"]
        assert final["hf_only"] != final["ncbf"]

    def test_summary_reports_worst_barrier_and_objective(self):
        scenario = trio_scenario(steps=50)
        records, summary = run(scenario)
        assert summary["min_ncbf"] == min(min(r.min_ncbf) for r in records)
        assert summary["mode"] == "ncbf"
        assert summary["final_H"] == pytest.approx(records[-1].H, rel=0.05)
        assert summary["hole_sampled_steps"] == sum(
            1 for r in records if r.hole_witnesses >= 0
        )

    def test_coverage_driven_run_smoke(self):
        # No fixed nominal: inputs come from the coverage gradient.
        scenario = Scenario(
            agents=(AgentState(-0.8, 0.0, 1.0, 1.0), AgentState(0.8, 0.0, 1.0, 1.0)),
            sensing=SENSING,
            density=DENSITY,
            dt=0.005,
            steps=40,
            mode="ncbf",
            alpha=ClassK(gain=20.0, power=3),
            w_lambda=1.0e6,
            grid_resolution=0.1,
        )
        records, summary = run(scenario)
        assert len(records) == 40
        assert summary["fallback_count"] == 0
        assert records[-1].H >= records[0].H - 1e-6 * abs(records[0].H)


class TestCaching:
    def test_density_evaluated_once_per_run(self, monkeypatch):
        calls = []
        original = DensityField.phi

        def counting(self, px, py):
            calls.append(np.broadcast(px, py).size)
            return original(self, px, py)

        monkeypatch.setattr(DensityField, "phi", counting)
        counts = []
        for steps in (2, 7):
            calls.clear()
            run(trio_scenario(steps=steps, fixed_nominal=None))
            counts.append(len(calls))
        assert counts == [1, 1]

    def test_footprint_rows_taken_once_per_step(self, monkeypatch):
        # The partition's rows feed the trace record; sim makes no second conversion.
        calls = []

        def counting(states, r):
            calls.append(len(states))
            return footprint_rows(states, r)

        monkeypatch.setattr(aircover.coverage, "footprint_rows", counting)
        monkeypatch.setattr(aircover.sim, "footprint_rows", counting, raising=False)
        scenario = trio_scenario(steps=1)
        _, record = step(initial_world(scenario), scenario)
        assert calls == [3]
        assert record.agents == tuple(footprint_rows(np.array(TRIO_AGENTS), SENSING.r))

    def test_grid_built_once_per_scenario(self):
        scenario = trio_scenario()
        grid = scenario.grid
        assert scenario.grid is grid
        finer = replace(scenario, grid_resolution=0.05)
        assert finer.grid is not grid
        assert finer.grid.resolution == 0.05

    def test_filter_params_built_once_per_scenario(self):
        scenario = trio_scenario(mode="hf_only")
        fp = scenario.filter_params
        assert scenario.filter_params is fp
        assert fp == FilterParams(epsilon=0.2, alpha=ClassK(gain=20.0, power=3), w_lambda=1.0e6,
                                  guard_threshold=1e4, components=(4,))
        assert replace(scenario, mode="ncbf").filter_params.components == (1, 2, 3, 4)

    def test_cached_grid_leaves_equality_and_round_trip_alone(self):
        scenario = trio_scenario()
        scenario.grid
        assert scenario == trio_scenario()
        assert parse_config(serialize(scenario)) == scenario

    def test_fixed_inputs_built_once_read_only_and_outside_the_fields(self):
        scenario = trio_scenario()
        inputs = scenario.fixed_inputs
        assert scenario.fixed_inputs is inputs and not inputs.flags.writeable
        np.testing.assert_array_equal(inputs, np.array(scenario.fixed_nominal, dtype=float))
        assert scenario == trio_scenario() and parse_config(serialize(scenario)) == scenario
        moved = replace(scenario, fixed_nominal=(ZERO, ZERO, (0.0, 0.0, 0.1, 0.0)))
        assert moved.fixed_inputs[2].tolist() == [0.0, 0.0, 0.1, 0.0]
        assert trio_scenario(fixed_nominal=None).fixed_inputs is None
        # A step runs on the kept read-only array (it writes none of it) and
        # records what a scenario without the kept array records.
        world = initial_world(scenario)
        fresh = replace(scenario)
        assert step(world, scenario)[1] == step(world, fresh)[1]

    @pytest.mark.parametrize("mode", MODES)
    def test_one_barrier_evaluation_per_trio_viewpoint(self, monkeypatch, mode):
        # The filter and the trace share one evaluation per trio a step: every
        # trio is evaluated once a step for its three agents.  A view builds its
        # working frame only when a side ratio's gradient is asked of it, and
        # once: the frames are the views asked for one, in order, and there are
        # none where the filter composes no side ratio.
        calls, frames, asked = [], [], []
        original = aircover.barrier.cbf_components
        original_frame = aircover.barrier.sigma_d_frame
        original_gradient = aircover.controller.cbf_gradient

        def counting(trio):
            calls.append(trio.ids)
            return original(trio)

        def counting_frame(trio, viewpoint):
            frames.append((trio.ids, viewpoint))
            return original_frame(trio, viewpoint)

        def recording_gradient(view, component):
            if component != 4 and all(view is not seen for seen in asked):
                asked.append(view)
            return original_gradient(view, component)

        for module in (aircover.barrier, aircover.controller):
            monkeypatch.setattr(module, "cbf_components", counting)
        monkeypatch.setattr(aircover.barrier, "sigma_d_frame", counting_frame)
        monkeypatch.setattr(aircover.controller, "cbf_gradient", recording_gradient)
        side_frames = 0
        for scenario in (
            trio_scenario(steps=4, mode=mode),
            replace(parse_config(bundled_scenario("five_agents")), steps=3, mode=mode),
        ):
            calls.clear()
            frames.clear()
            asked.clear()
            records, _ = run(scenario)
            incident = sum(sum(r.trio_counts) for r in records)
            assert incident > 0
            assert 3 * len(calls) == incident
            assert frames == [(view.trio.ids, view.viewpoint) for view in asked]
            side_frames += len(frames)
        # Only ncbf composes the side ratios, and these runs ask for some.
        assert (side_frames > 0) == (mode == "ncbf")

    def test_qp_only_for_an_agent_whose_rows_fail_at_its_nominal(self, monkeypatch):
        # The mover retreats from the gap, so its row fails at its nominal
        # input; the hoverers' rows hold at zero input.  agent_control still
        # runs for every agent and step, but builds a QP only for the mover.
        controls, rows, qps = [], [], []
        original_control = aircover.sim.agent_control
        original_rows = aircover.controller.build_constraints
        original_qp = aircover.controller.solve_qp

        def counting_control(agent_rows, u_nom, params):
            # The agent whose rows these are, in the step's one pass.
            controls.append([r is agent_rows for r in rows[-3:]].index(True))
            return original_control(agent_rows, u_nom, params)

        def recording_rows(*args, **kwargs):
            built = original_rows(*args, **kwargs)
            rows.extend(built.rows)
            return built

        def recording_qp(problem):
            qps.append(problem)
            return original_qp(problem)

        monkeypatch.setattr(aircover.sim, "agent_control", counting_control)
        monkeypatch.setattr(aircover.controller, "build_constraints", recording_rows)
        monkeypatch.setattr(aircover.controller, "solve_qp", recording_qp)
        mover = AgentState(0.0, -1.6, 1.5, 1.0)
        scenario = trio_scenario(
            steps=5, agents=(mover, *TRIO_AGENTS[1:]), fixed_nominal=((0.0, -0.4, 0.0, 0.0), ZERO, ZERO)
        )
        run(scenario)
        assert controls == [0, 1, 2] * 5
        assert all(rows)
        assert len(qps) == 5
        for problem in qps:
            assert tuple(problem.u_nom) == (0.0, -0.4, 0.0, 0.0)
            assert any(float(np.dot(a, problem.u_nom)) < b for a, b in problem.constraints)

    @pytest.mark.parametrize("fixed", [True, False], ids=["fixed-nominal", "coverage-nominal"])
    def test_nominal_only_runs_the_filter_with_no_rows(self, monkeypatch, fixed):
        # nominal_only is the filter with no barrier components: agent_control
        # runs for every agent and step, gets no rows and hands back the
        # nominal input exactly, and no QP is solved.  With fixed nominals the
        # retreating mover of the test above would need a QP every step in ncbf.
        calls, qps = [], []
        original_control = aircover.sim.agent_control

        def recording_control(agent_rows, u_nom, params):
            u = original_control(agent_rows, u_nom, params)
            calls.append((agent_rows, np.array(u_nom, dtype=float), u))
            return u

        monkeypatch.setattr(aircover.sim, "agent_control", recording_control)
        monkeypatch.setattr(aircover.controller, "solve_qp", lambda *args, **kw: qps.append(args))
        mover = AgentState(0.0, -1.6, 1.5, 1.0)
        nominal = ((0.0, -0.4, 0.0, 0.0), ZERO, ZERO) if fixed else None
        scenario = trio_scenario(
            steps=5, mode="nominal_only", agents=(mover, *TRIO_AGENTS[1:]), fixed_nominal=nominal
        )
        run(scenario)
        assert len(calls) == 3 * 5
        for agent_rows, u_nom, u in calls:
            assert agent_rows == []
            assert u.tobytes() == u_nom.tobytes()
        if fixed:
            assert [tuple(u) for _, _, u in calls] == list(nominal) * 5
        assert qps == []

    def test_degenerate_trio_warned_once_per_agent_step(self, monkeypatch, caplog):
        # A below-tolerance trio (built by hand, as in the controller tests)
        # is dropped by the one evaluation both the filter and the trace use.
        states = (
            AgentState(0.0, 0.0, 1.0, 1.0),
            AgentState(1.0, 0.0, 1.0, 1.0),
            AgentState(2.0, 1e-10, 1.0, 1.0),
        )
        trio = TrioContext(
            ids=(0, 1, 2),
            rows=tuple(footprint_rows(states, SENSING.r)),
            radical_center=(1.0, 0.5),
            r=SENSING.r,
        )
        graph = CommGraph(n=3, trios=(trio,))
        monkeypatch.setattr(aircover.sim, "build_graph", lambda states, r: graph)
        scenario = trio_scenario(agents=states)
        world = initial_world(scenario)
        with caplog.at_level(logging.WARNING):
            for _ in range(2):
                world, record = step(world, scenario)
        degenerate = [r for r in caplog.records if "degenerate" in r.getMessage()]
        assert len(degenerate) == 2 * 3
        assert record.trio_counts == (1, 1, 1)
        assert record.min_ncbf == (0.0, 0.0, 0.0)
        assert record.fallback == (False, False, False)


def _bytes(value):
    """dtype, shape and bytes of an array or scalar: equal exactly when bit-identical."""
    array = np.asarray(value)
    return array.dtype.str, array.shape, array.tobytes()


def _window_bytes(window):
    return window.cells, [_bytes(v) for v in (*window.terms, window.f, window.covered)]


def _recording_partitions(monkeypatch):
    """Wrap the step's partition; each call appends (states, params, grid, known, result)."""
    calls = []
    original = aircover.sim.partition

    def recording(states, params, grid, known=None):
        part = original(states, params, grid, known)
        calls.append((states, params, grid, known, part))
        return part

    monkeypatch.setattr(aircover.sim, "partition", recording)
    return calls


def _stepped(scenario, steps):
    """The worlds after each of the scenario's first `steps` steps."""
    world = initial_world(scenario)
    worlds = []
    for _ in range(steps):
        world, _ = step(world, scenario)
        worlds.append(world)
    return worlds


class TestCarriedWindows:
    """A step hands the window of each agent whose row it left bit for bit unchanged to the next step."""

    def test_trio_hoverers_windows_are_carried_and_the_mover_never(self, monkeypatch):
        calls = _recording_partitions(monkeypatch)
        worlds = _stepped(parse_config(bundled_scenario("trio")), 300)
        windows = [part.windows for *_, part in calls]
        assert calls[0][3] is None
        for before, after in zip(windows, windows[1:]):
            assert after[1] is before[1] and after[2] is before[2]
            assert after[0] is not before[0]
        assert all(world.known[1][0] is None for world in worlds)

    def test_carried_partition_equals_a_fresh_one_bit_for_bit(self, monkeypatch):
        calls = _recording_partitions(monkeypatch)
        _stepped(parse_config(bundled_scenario("trio")), 300)
        assert sum(known is not None for *_, known, _ in calls) == 299
        for states, params, grid, _, part in calls:
            fresh = aircover.coverage.partition(states, params, grid)
            for name in ("owner", "best", "total"):
                assert _bytes(getattr(part, name)) == _bytes(getattr(fresh, name))
            assert [_window_bytes(w) for w in part.windows] == [_window_bytes(w) for w in fresh.windows]

    def test_a_row_moved_by_one_ulp_is_recomputed(self, monkeypatch):
        # nominal_only hands agent 1 its fixed input, which moves x by one ulp.
        x = TRIO_AGENTS[1].x
        nudge = (np.nextafter(x, np.inf) - x) / 0.01
        scenario = trio_scenario(mode="nominal_only", fixed_nominal=(ZERO, (nudge, 0.0, 0.0, 0.0), ZERO))
        calls = _recording_partitions(monkeypatch)
        first, _ = _stepped(scenario, 2)
        assert first.states[1, 0] == np.nextafter(x, np.inf)
        assert [w is not None for w in first.known[1]] == [True, False, True]
        assert calls[1][3][1] is None and calls[1][4].windows[1] is not calls[0][4].windows[1]

    def test_a_coordinate_flipped_from_negative_to_positive_zero_is_recomputed(self, monkeypatch):
        # −0.0 + dt·0.0 is +0.0: equal as floats, but not bit for bit.
        agents = (TRIO_AGENTS[0]._replace(x=-0.0), *TRIO_AGENTS[1:])
        scenario = trio_scenario(agents=agents, fixed_nominal=(ZERO, ZERO, ZERO))
        calls = _recording_partitions(monkeypatch)
        first, second = _stepped(scenario, 2)
        assert math.copysign(1.0, first.states[0, 0]) == 1.0
        assert [w is not None for w in first.known[1]] == [False, True, True]
        assert all(w is not None for w in second.known[1])
        for states, params, grid, _, part in calls:
            fresh = aircover.coverage.partition(states, params, grid)
            assert [_window_bytes(w) for w in part.windows] == [_window_bytes(w) for w in fresh.windows]

    @pytest.mark.parametrize("change", [
        lambda s: replace(s, grid_resolution=0.05),
        lambda s: replace(s, sensing=replace(s.sensing, r=1.1)),
    ], ids=["grid_resolution", "sensing_r"])
    def test_another_scenario_recomputes_every_window(self, monkeypatch, change):
        scenario = trio_scenario()
        (world,) = _stepped(scenario, 1)
        assert world.known is not None
        other = change(scenario)
        calls = _recording_partitions(monkeypatch)
        _, record = step(world, other)
        assert calls[0][3] is None
        _, fresh = step(replace(world, known=None), other)
        assert record == fresh

    @pytest.mark.parametrize("scenario", [
        replace(parse_config(bundled_scenario("nine_agents")), steps=20),
        replace(parse_config((Path(__file__).parent / "data" / "lattice25_expand" / "scenario.cfg").read_text()),
                steps=41),
    ], ids=["nine_agents", "lattice25_expand"])
    def test_teams_that_always_move_carry_nothing(self, scenario):
        assert all(world.known is None for world in _stepped(scenario, scenario.steps))

    def test_a_carried_window_is_read_only(self):
        scenario = trio_scenario()
        (world,) = _stepped(scenario, 1)
        window = world.known[1][1]
        arrays = [v for v in (*window.terms, window.f, window.covered) if isinstance(v, np.ndarray)]
        assert len(arrays) == 8  # dx, dy, d2, s, f_pers, f_res, f, covered
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        with pytest.raises(AttributeError):
            window.f = np.zeros_like(window.f)
