"""Tests for the per-triangle barrier components, max composition, and analytic gradients."""

import numpy as np
import pytest

import aircover.barrier
from aircover.barrier import (
    CbfComponents,
    cbf_components,
    cbf_gradient,
    degenerate_guard,
    ncbf_value,
)
from aircover.geometry import (
    AgentState,
    make_trio,
    point_in_triangle,
    power_distance,
    sigma_d_frame,
)
from conftest import (
    component_apex,
    disks,
    hole_exists_exact,
    random_trio,
    to_frame,
    triangle,
    trio_states,
    view,
)

FD_STEP = 1e-6
FD_RTOL = 1e-5


def fd_gradient(trio, viewpoint, component, step=FD_STEP):
    """Central finite difference of one component w.r.t. the viewpoint agent's state."""
    idx = trio.ids.index(viewpoint)
    s = trio_states(trio)[idx]
    base = np.array([s.x, s.y, s.z, s.lam])
    grad = np.zeros(4)
    for p in range(4):
        plus, minus = base.copy(), base.copy()
        plus[p] += step
        minus[p] -= step
        vals = []
        for pert in (plus, minus):
            states = trio_states(trio)
            states[idx] = AgentState(*pert)
            t = make_trio(list(trio.ids), states, trio.r)
            vals.append(view(t, viewpoint)[component])
        grad[p] = (vals[0] - vals[1]) / (2.0 * step)
    return grad


class TestComponents:
    def test_fourth_is_negated_power_distance(self, rng):
        for _ in range(50):
            trio = random_trio(rng)
            for a in trio.ids:
                comps = view(trio, a)
                f = disks(trio)[trio.ids.index(a)]
                expect = -power_distance(f, trio.radical_center)
                assert comps[4] == pytest.approx(expect, abs=1e-12)

    def test_boundary_footprint_component_zero(self):
        # Equal-power point exactly on all three circles: every power distance is 0.
        states = [
            AgentState(-1.0, 1.2, np.sqrt(2.44), 1.0),
            AgentState(-1.0, 0.0, 1.0, 1.0),
            AgentState(1.0, 0.0, 1.0, 1.0),
        ]
        trio = make_trio([0, 1, 2], states, r=1.0)
        comps = view(trio, 0)
        assert comps[4] == pytest.approx(0.0, abs=1e-12)

    def test_interior_point_negates_all_triangle_components(self, rng):
        found = 0
        for _ in range(400):
            trio = random_trio(rng)
            inside, _ = point_in_triangle(*triangle(trio), trio.radical_center)
            if not inside:
                continue
            found += 1
            for a in trio.ids:
                comps = view(trio, a)
                assert comps[1] < 0 and comps[2] < 0 and comps[3] < 0
        assert found >= 10

    def test_triangle_components_are_shared_ratios(self, rng):
        # The three ratios belong to the triangle, not the viewpoint: each
        # viewpoint sees the same multiset, keyed by the apex agent.
        for _ in range(30):
            trio = random_trio(rng)
            by_apex = {}
            for a in trio.ids:
                comps = view(trio, a)
                for l in (1, 2, 3):
                    apex = component_apex(trio, a, l)
                    by_apex.setdefault(apex, []).append(comps[l])
            for apex, vals in by_apex.items():
                assert len(vals) == 3
                assert max(vals) - min(vals) < 1e-12


class TestNcbfValue:
    def test_max_and_window_example(self):
        out = ncbf_value((-0.3, -0.2, -0.5, 0.4), epsilon=0.2)
        assert out.value == pytest.approx(0.4)
        assert out.argmax == 4
        assert out.active_set == (4,)

    def test_two_active_example(self):
        out = ncbf_value((0.5, 0.45, -0.2, 0.1), epsilon=0.2)
        assert out.value == pytest.approx(0.5)
        assert out.argmax == 1
        assert out.active_set == (1, 2)

    def test_closed_window_keeps_boundary_component(self):
        out = ncbf_value((0.5, 0.3, -1.0, -1.0), epsilon=0.2)
        assert out.active_set == (1, 2)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            ncbf_value((0.0, 0.0, 0.0, 0.0), epsilon=0.0)

    def test_viewpoints_agree(self, rng):
        for _ in range(100):
            trio = random_trio(rng)
            vals = [ncbf_value(view(trio, a).vals, 0.2).value for a in trio.ids]
            assert vals[0] == vals[1] == vals[2]

    def test_theorem_equivalence_with_exact_oracle(self, rng):
        checked = 0
        for _ in range(300):
            trio = random_trio(rng, require_overlap=True)
            h = ncbf_value(view(trio, trio.ids[0]).vals, 0.2).value
            if abs(h) < 1e-12:
                continue  # boundary of the safe set: either call is defensible
            checked += 1
            assert (h < 0.0) == hole_exists_exact(trio)
        assert checked >= 250

    def test_frame_invariance(self, rng):
        for _ in range(40):
            trio = random_trio(rng)
            theta = rng.uniform(0, 2 * np.pi)
            R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            shift = rng.uniform(-5, 5, size=2)
            moved = []
            for s in trio_states(trio):
                q = R @ np.array([s.x, s.y]) + shift
                moved.append(AgentState(q[0], q[1], s.z, s.lam))
            trio2 = make_trio(list(trio.ids), moved, trio.r)
            h1 = ncbf_value(view(trio, trio.ids[0]).vals, 0.2).value
            h2 = ncbf_value(view(trio2, trio.ids[0]).vals, 0.2).value
            assert h1 == pytest.approx(h2, abs=1e-10)


class TestGradients:
    def test_one_frame_per_evaluation(self, rng, monkeypatch):
        # Each view's working frame is built with the trio's values; gradients reuse it.
        calls = []
        original = aircover.barrier.sigma_d_frame

        def counting(trio, viewpoint):
            calls.append(viewpoint)
            return original(trio, viewpoint)

        monkeypatch.setattr(aircover.barrier, "sigma_d_frame", counting)
        trio = random_trio(rng)
        views = cbf_components(trio)
        grads = [cbf_gradient(comps, l) for comps in views for l in (1, 2, 3, 4)]
        assert calls == list(trio.ids)
        for comps in views:
            assert comps.frame == original(trio, comps.viewpoint)
        # A gradient is a 4-tuple of plain floats.
        assert all(len(g) == 4 and all(type(x) is float for x in g) for g in grads)

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            trio = random_trio(rng)
            viewpoint = int(rng.choice(trio.ids))
            for component in (1, 2, 3, 4):
                analytic = cbf_gradient(view(trio, viewpoint), component)
                numeric = fd_gradient(trio, viewpoint, component)
                scale = max(1.0, float(np.max(np.abs(analytic))))
                assert np.max(np.abs(analytic - numeric)) < FD_RTOL * scale, (
                    f"component {component}: analytic {analytic} vs fd {numeric}"
                )

    def test_world_rotation_consistency(self, rng):
        # Rotating the whole scene rotates the planar gradient and preserves z/λ.
        for _ in range(25):
            trio = random_trio(rng)
            theta = rng.uniform(0, 2 * np.pi)
            R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            shift = rng.uniform(-3, 3, size=2)
            moved = [
                AgentState(*(R @ np.array([s.x, s.y]) + shift), s.z, s.lam)
                for s in trio_states(trio)
            ]
            trio2 = make_trio(list(trio.ids), moved, trio.r)
            for component in (1, 2, 3, 4):
                g1 = cbf_gradient(view(trio, trio.ids[0]), component)
                g2 = cbf_gradient(view(trio2, trio.ids[0]), component)
                rotated = R @ g1[:2]
                assert np.allclose(rotated, g2[:2], atol=1e-9)
                assert g1[2] == pytest.approx(g2[2], abs=1e-9)
                assert g1[3] == pytest.approx(g2[3], abs=1e-9)

    def test_footprint_gradient_vanishes_on_line_jk(self):
        # Radical center pushed onto line JK: the footprint component's
        # gradient has a zero at exactly this configuration.
        y_i, R = 1.5, 1.2
        Ri = np.sqrt(y_i**2 + R**2 - 1.0)
        states = [
            AgentState(0.0, y_i, Ri, 1.0),
            AgentState(-1.0, 0.0, R, 1.0),
            AgentState(1.0, 0.0, R, 1.0),
        ]
        trio = make_trio([0, 1, 2], states, r=1.0)
        frame = sigma_d_frame(trio, 0)
        assert abs(to_frame(frame, trio.radical_center)[1]) < 1e-12
        grad = cbf_gradient(view(trio, 0), 4)
        assert np.linalg.norm(grad) < 1e-9

    def test_side_gradient_vanishes_with_aligned_radical_axis(self):
        # x_i = x_j in the working frame and v on line JK: the −ratio_IJK
        # gradient collapses to zero (its radical axis lies on JK).
        y_i, R = 1.2, 1.0
        Ri = np.sqrt(R**2 + y_i**2)
        states = [
            AgentState(-1.0, y_i, Ri, 1.0),
            AgentState(-1.0, 0.0, R, 1.0),
            AgentState(1.0, 0.0, R, 1.0),
        ]
        trio = make_trio([0, 1, 2], states, r=1.0)
        grad = cbf_gradient(view(trio, 0), 1)
        assert np.linalg.norm(grad) < 1e-9

    def test_height_ratio_gradient_never_zero(self, rng):
        # The vertical partial of the −ratio_JKI component is strictly
        # positive whenever the viewpoint agent flies above ground.
        for _ in range(100):
            trio = random_trio(rng)
            for a in trio.ids:
                grad = cbf_gradient(view(trio, a), 2)
                assert grad[2] > 0.0
                assert np.linalg.norm(grad) > 0.0


class TestDegenerateGuard:
    def test_suppresses_blown_up_component(self):
        comps = CbfComponents(vals=(1e7, -0.2, -0.3, 0.4))
        assert degenerate_guard(comps, 1e4) == [1]

    def test_moderate_components_pass(self):
        comps = CbfComponents(vals=(-0.3, -0.2, -0.5, 0.4))
        assert degenerate_guard(comps, 1e4) == []

    def test_footprint_component_never_suppressed(self):
        comps = CbfComponents(vals=(0.0, 0.0, 0.0, 1e9))
        assert degenerate_guard(comps, 1e4) == []

    def test_near_collinear_trio_triggers_guard(self):
        # Almost-collinear centers: signed-area ratios blow up.
        states = [
            AgentState(0.0, 1e-6, 1.1, 1.0),
            AgentState(-1.0, 0.0, 1.0, 1.0),
            AgentState(1.0, 0.0, 1.0, 1.0),
        ]
        trio = make_trio([0, 1, 2], states, r=1.0)
        comps = view(trio, 0)
        assert degenerate_guard(comps, 1e4)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            degenerate_guard(CbfComponents(vals=(0, 0, 0, 0)), 0.0)
