"""Tests for the per-agent QP safety filter and constraint assembly."""

import logging

import numpy as np
import pytest

from aircover.barrier import cbf_gradient, component_apex, degenerate_guard, cbf_components, ncbf_value
from aircover.controller import (
    ClassK,
    FilterParams,
    Infeasible,
    NumericalFailure,
    QpProblem,
    agent_control,
    build_constraints,
    qp_weights,
    solve_qp,
)
from aircover.geometry import AgentState, TrioContext, build_graph, fov_of, make_trio
from conftest import random_trio


def w_distance(u, u_nom, w):
    d = np.asarray(u) - np.asarray(u_nom)
    return float(d @ (np.asarray(w) * d))


def random_feasible_problem(rng, n_cons=6):
    """A solvable QP: offsets chosen so a known point satisfies every row."""
    A = rng.normal(size=(n_cons, 4))
    u_feas = rng.normal(size=4)
    b = A @ u_feas - np.abs(rng.normal(size=n_cons))
    u_nom = rng.normal(size=4) * 2.0
    w = np.array([1.0, 1.0, 1.0, float(rng.uniform(1.0, 1e6))])
    return QpProblem(u_nom=u_nom, weights=w, constraints=list(zip(A, b))), u_feas


class TestClassK:
    def test_zero_at_zero(self):
        assert ClassK(gain=2.0, power=3)(0.0) == 0.0

    def test_strictly_increasing_and_odd(self):
        alpha = ClassK(gain=20.0, power=3)
        xs = np.linspace(-1.0, 1.0, 21)
        ys = [alpha(x) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))
        assert alpha(-0.5) == -alpha(0.5)

    def test_rejects_even_power_and_bad_gain(self):
        with pytest.raises(ValueError):
            ClassK(gain=1.0, power=2)
        with pytest.raises(ValueError):
            ClassK(gain=0.0, power=3)


class TestBuildConstraints:
    def test_empty_trios(self):
        assert build_constraints(0, [], 0.2, ClassK(), 1e4) == []

    def test_single_active_footprint_constraint(self):
        # Mover approaching the gap between two hoverers: the footprint
        # condition is barely positive and alone in the epsilon window.
        states = [
            AgentState(0.0, -2.0, 1.5, 1.0),
            AgentState(-1.4, 0.0, 1.5, 1.0),
            AgentState(1.4, 0.0, 1.5, 1.0),
        ]
        trio = make_trio([0, 1, 2], states, r=1.0)
        alpha = ClassK(gain=1.0, power=3)
        rows = build_constraints(0, [trio], 0.2, alpha, 1e4)
        assert len(rows) == 1
        a, b = rows[0]
        h = ncbf_value(trio, 0, 0.2)
        assert h.active_set == (4,)
        assert np.allclose(a, cbf_gradient(trio, 0, 4).as_array())
        assert b == pytest.approx(-alpha(h.value) / 3.0)

    def test_row_count_matches_active_set(self, rng):
        alpha = ClassK()
        for _ in range(60):
            trio = random_trio(rng)
            for agent in trio.ids:
                comps = cbf_components(trio, agent)
                suppressed = set(degenerate_guard(comps, 1e4))
                out = ncbf_value(trio, agent, 0.2)
                expected = [l for l in out.active_set if l not in suppressed]
                rows = build_constraints(agent, [trio], 0.2, alpha, 1e4)
                assert len(rows) == len(expected)
                for _, b in rows:
                    assert b == pytest.approx(-alpha(out.value) / 3.0)

    def test_guard_suppresses_blown_up_rows(self):
        # Near-collinear trio: the dominating ratio component exceeds the
        # guard and nothing else is in its window, so no constraints remain.
        states = [
            AgentState(0.0, 1e-6, 1.1, 1.0),
            AgentState(-1.0, 0.0, 1.0, 1.0),
            AgentState(1.0, 0.0, 1.0, 1.0),
        ]
        trio = make_trio([0, 1, 2], states, r=1.0)
        comps = cbf_components(trio, 0)
        assert degenerate_guard(comps, 1e4)
        rows = build_constraints(0, [trio], 0.2, ClassK(), 1e4)
        assert rows == []

    def test_below_tolerance_triangle_dropped_with_warning(self, caplog):
        # A trio whose triangle area is below AREA_TOL reaches the filter
        # (built by hand, as rounding can let one through make_trio): the
        # triangle ratios cannot be formed, so the trio is dropped, not raised.
        states = (
            AgentState(0.0, 0.0, 1.0, 1.0),
            AgentState(1.0, 0.0, 1.0, 1.0),
            AgentState(2.0, 1e-10, 1.0, 1.0),
        )
        fovs = tuple(fov_of(s, 1.0) for s in states)
        trio = TrioContext(
            ids=(0, 1, 2),
            states=states,
            fovs=fovs,
            radical_center=np.array([1.0, 0.5]),
            triangle=tuple(f.center for f in fovs),
            r=1.0,
        )
        with caplog.at_level(logging.WARNING, logger="aircover.controller"):
            rows = build_constraints(0, [trio], 0.2, ClassK(), 1e4)
        assert rows == []
        assert "degenerate, dropped" in caplog.text

    def test_footprint_only_mode(self, rng):
        alpha = ClassK()
        for _ in range(20):
            trio = random_trio(rng)
            rows = build_constraints(0, [trio], 0.2, alpha, 1e4, components=(4,))
            comps = cbf_components(trio, trio.ids[0])
            # exactly one row: the footprint gradient with its own decay budget
            rows = build_constraints(trio.ids[0], [trio], 0.2, alpha, 1e4, components=(4,))
            assert len(rows) == 1
            assert np.allclose(rows[0][0], cbf_gradient(trio, trio.ids[0], 4).as_array())
            assert rows[0][1] == pytest.approx(-alpha(comps[4]) / 3.0)


class TestSolveQp:
    def test_no_constraints_returns_nominal(self):
        u_nom = np.array([0.1, -0.2, 0.3, 1e-5])
        out = solve_qp(QpProblem(u_nom=u_nom, weights=qp_weights(3e6), constraints=[]))
        assert np.array_equal(out, u_nom)
        assert out is not u_nom

    def test_feasible_nominal_returned_exactly(self, rng):
        for _ in range(50):
            problem, _ = random_feasible_problem(rng)
            A = np.array([a for a, _ in problem.constraints])
            b = np.array([x for _, x in problem.constraints])
            slack = np.abs(rng.normal(size=len(b))) + 1e-3
            feas_nom = QpProblem(
                u_nom=problem.u_nom,
                weights=problem.weights,
                constraints=list(zip(A, A @ problem.u_nom - slack)),
            )
            out = solve_qp(feas_nom)
            assert np.array_equal(out, np.asarray(problem.u_nom, dtype=float))

    def test_single_constraint_closed_form(self, rng):
        for _ in range(100):
            a = rng.normal(size=4)
            u_nom = rng.normal(size=4)
            w = np.array([1.0, 1.0, 1.0, float(rng.uniform(1, 1e6))])
            b = float(a @ u_nom + rng.uniform(0.1, 2.0))  # violated at u_nom
            out = solve_qp(QpProblem(u_nom=u_nom, weights=w, constraints=[(a, b)]))
            winv = 1.0 / w
            expect = u_nom + winv * a * (b - a @ u_nom) / float(a @ (winv * a))
            assert np.max(np.abs(out - expect)) < 1e-10

    def test_contradictory_halfspaces_infeasible(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        cons = [(a, 1.0), (-a, 1.0)]
        with pytest.raises(Infeasible):
            solve_qp(QpProblem(u_nom=np.zeros(4), weights=np.ones(4), constraints=cons))

    def test_shifted_parallel_rows_stay_feasible(self):
        # Same normal, different offsets: tightest one wins, no false infeasibility.
        a = np.array([1.0, 0.0, 0.0, 0.0])
        cons = [(a, 1.0), (a, 3.0), (a, 2.0)]
        out = solve_qp(QpProblem(u_nom=np.zeros(4), weights=np.ones(4), constraints=cons))
        assert out[0] == pytest.approx(3.0, abs=1e-9)

    def test_residuals_and_kkt_on_random_problems(self, rng):
        for _ in range(100):
            problem, _ = random_feasible_problem(rng, n_cons=8)
            u = solve_qp(problem)
            A = np.array([a for a, _ in problem.constraints])
            b = np.array([x for _, x in problem.constraints])
            resid = A @ u - b
            assert float(resid.min()) >= -1e-8
            # Stationarity: W(u − u_nom) must be a nonnegative combination of
            # the active constraint normals.
            active = np.where(resid < 1e-6)[0]
            g = problem.weights * (u - problem.u_nom)
            if len(active) == 0:
                assert np.linalg.norm(g) < 1e-8
            else:
                mu, *_ = np.linalg.lstsq(A[active].T, g, rcond=None)
                assert np.linalg.norm(A[active].T @ mu - g) < 1e-8
                assert float(mu.min()) > -1e-8

    def test_beats_random_feasible_samples(self, rng):
        problem, u_feas = random_feasible_problem(rng, n_cons=6)
        u_star = solve_qp(problem)
        A = np.array([a for a, _ in problem.constraints])
        b = np.array([x for _, x in problem.constraints])
        best = w_distance(u_star, problem.u_nom, problem.weights)
        tried = 0
        while tried < 10_000:
            cand = u_star + rng.normal(size=4) * rng.uniform(0.01, 2.0)
            if float((A @ cand - b).min()) < 0.0:
                cand = u_feas + (cand - u_feas) * 0.5  # pull toward the interior
                if float((A @ cand - b).min()) < 0.0:
                    continue
            tried += 1
            assert w_distance(cand, problem.u_nom, problem.weights) >= best - 1e-12

    def test_lambda_weight_shifts_burden(self):
        # One constraint touching both z and λ: the heavy λ weight makes the
        # solver satisfy it almost entirely with the z channel.
        a = np.array([0.0, 0.0, 1.0, 1.0])
        w = np.array([1.0, 1.0, 1.0, 1e6])
        out = solve_qp(QpProblem(u_nom=np.zeros(4), weights=w, constraints=[(a, 1.0)]))
        assert out[2] == pytest.approx(1.0, rel=1e-5)
        assert abs(out[3]) < 2e-6

    def test_warm_start_same_answer(self, rng):
        for _ in range(20):
            problem, _ = random_feasible_problem(rng)
            cold = solve_qp(problem)
            warm = solve_qp(problem, warm_start=[0, 1])
            assert np.max(np.abs(cold - warm)) < 1e-9

    def test_iteration_cap_raises_numerical_failure(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(NumericalFailure):
            solve_qp(
                QpProblem(u_nom=np.zeros(4), weights=np.ones(4), constraints=[(a, 1.0)]),
                max_iter=0,
            )


class TestAgentControl:
    def make_params(self, **kw):
        kw.setdefault("alpha", ClassK(gain=1.0, power=3))
        return FilterParams(**kw)

    def test_no_trios_returns_nominal(self):
        states = [AgentState(0.0, 0.0, 1.0, 1.0), AgentState(10.0, 0.0, 1.0, 1.0)]
        graph = build_graph(states, r=1.0)
        u_nom = np.array([0.1, 0.2, 0.0, 0.0])
        out = agent_control(0, states, graph, u_nom, self.make_params())
        assert np.array_equal(out, u_nom)

    def test_safe_trio_zero_input_is_fixed(self):
        # Covered equal-power point: zero input already satisfies the decay
        # budget, so the filter leaves it untouched.
        states = [
            AgentState(0.0, 1.0, 1.5, 1.0),
            AgentState(-1.0, -0.6, 1.5, 1.0),
            AgentState(1.0, -0.6, 1.5, 1.0),
        ]
        graph = build_graph(states, r=1.0)
        assert graph.trios_of(0)
        h = ncbf_value(graph.trios_of(0)[0], 0, 0.2)
        assert h.value >= 0.0
        out = agent_control(0, states, graph, np.zeros(4), self.make_params())
        assert np.array_equal(out, np.zeros(4))

    def test_filtered_input_meets_every_constraint(self):
        # A mover pushing toward the gap between two hoverers, with the
        # equal-power point close to its footprint boundary.
        states = [
            AgentState(0.0, -1.95, 1.5, 1.0),
            AgentState(-1.4, 0.0, 1.5, 1.0),
            AgentState(1.4, 0.0, 1.5, 1.0),
        ]
        graph = build_graph(states, r=1.0)
        assert graph.trios_of(0)
        params = self.make_params(w_lambda=3.0e6)
        u_nom = np.array([0.0, 0.4, 0.0, 0.0])
        u = agent_control(0, states, graph, u_nom, params)
        rows = build_constraints(0, graph.trios_of(0), params.epsilon, params.alpha, params.guard_threshold)
        assert rows
        for a, b in rows:
            assert float(a @ u - b) >= -1e-8

    def test_distributed_inputs_imply_summed_decay(self, rng):
        # If each agent meets its third of the budget, the summed directional
        # derivative of every active condition meets the full budget.
        alpha = ClassK(gain=1.0, power=3)
        params = self.make_params()
        checked = 0
        for _ in range(150):
            trio = random_trio(rng, require_overlap=True)
            states = list(trio.states)
            graph = build_graph(states, r=trio.r)
            if trio.ids not in graph.trio_keys():
                continue
            inputs = {}
            ok = True
            for agent in trio.ids:
                u_nom = rng.normal(size=4) * np.array([0.5, 0.5, 0.3, 1e-4])
                try:
                    inputs[agent] = agent_control(agent, states, graph, u_nom, params)
                except (Infeasible, NumericalFailure):
                    ok = False
                    break
            if not ok:
                continue
            checked += 1
            out = ncbf_value(trio, trio.ids[0], params.epsilon)
            h = out.value
            comps = cbf_components(trio, trio.ids[0])
            suppressed = set(degenerate_guard(comps, params.guard_threshold))
            for l in out.active_set:
                if l in suppressed:
                    continue
                apex = component_apex(trio, trio.ids[0], l)
                total = 0.0
                skip = False
                for agent in trio.ids:
                    if l == 4:
                        la = 4
                    else:
                        la = next(
                            m for m in (1, 2, 3) if component_apex(trio, agent, m) == apex
                        )
                    grad = cbf_gradient(trio, agent, la).as_array()
                    if np.linalg.norm(grad) < 1e-9:
                        skip = True  # dropped rows carry no per-agent guarantee
                        break
                    total += float(grad @ inputs[agent])
                if not skip:
                    assert total >= -alpha(h) - 1e-8
        assert checked >= 100

    def test_infeasible_propagates(self, monkeypatch):
        import aircover.controller as ctl

        states = [
            AgentState(0.0, 1.0, 1.5, 1.0),
            AgentState(-1.0, -0.6, 1.5, 1.0),
            AgentState(1.0, -0.6, 1.5, 1.0),
        ]
        graph = build_graph(states, r=1.0)
        a = np.array([1.0, 0.0, 0.0, 0.0])
        monkeypatch.setattr(
            ctl, "build_constraints", lambda *args, **kw: [(a, 1.0), (-a, 1.0)]
        )
        with pytest.raises(Infeasible):
            ctl.agent_control(0, states, graph, np.zeros(4), self.make_params())
