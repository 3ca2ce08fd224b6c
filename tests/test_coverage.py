"""Tests for the sensing model, partition, objective, and nominal input."""

import math

import numpy as np
import pytest

from aircover.coverage import (
    CoverageGrid,
    DensityField,
    SensingParams,
    coverage_objective,
    nominal_input,
    partition,
    sensing_field,
    sensing_gradient,
)
from aircover.geometry import AgentState
from conftest import DensePartition, grid_points, sensing_quality

PARAMS = SensingParams(r=1.0, kappa=4.0, sigma=3.0, M=11.0, w=0.4)


def perturbed(state, k, h):
    values = [state.x, state.y, state.z, state.lam]
    values[k] += h
    return AgentState(*values)


def fd_quality_gradient(state, q, params, h=1e-6):
    fd = np.zeros(4)
    for k in range(4):
        fp = sensing_quality(perturbed(state, k, h), q, params)
        fm = sensing_quality(perturbed(state, k, -h), q, params)
        fd[k] = (fp - fm) / (2.0 * h)
    return fd


class TestSensingQuality:
    def test_nadir_equals_resolution_factor(self):
        state = AgentState(3.0, -2.0, 8.0, 1.2)
        aperture = np.hypot(state.lam, PARAMS.r)
        expected = (state.lam / aperture) ** PARAMS.kappa * np.exp(
            -((state.z - PARAMS.M) ** 2) / (2.0 * PARAMS.sigma**2)
        )
        f = sensing_quality(state, (state.x, state.y), PARAMS)
        assert f == pytest.approx(expected, abs=1e-14)

    def test_zero_on_boundary_and_continuous(self):
        state = AgentState(3.0, -2.0, 8.0, 1.2)
        radius = PARAMS.r * state.z / state.lam
        on_edge = sensing_quality(state, (state.x + radius, state.y), PARAMS)
        just_in = sensing_quality(state, (state.x + radius * (1 - 1e-9), state.y), PARAMS)
        assert on_edge == 0.0
        assert 0.0 <= just_in < 1e-8

    def test_capture_distance_leaves_perspective_factor(self):
        # Place the probe so its 3-D distance equals the desired capture
        # distance; the Gaussian factor is then exactly one.
        state = AgentState(0.0, 0.0, 10.5, 0.3)
        ground = np.sqrt(PARAMS.M**2 - state.z**2)
        assert ground < PARAMS.r * state.z / state.lam
        aperture = np.hypot(state.lam, PARAMS.r)
        f_pers = (aperture * state.z / PARAMS.M - state.lam) / (aperture - state.lam)
        expected = f_pers * (state.lam / aperture) ** PARAMS.kappa
        f = sensing_quality(state, (ground, 0.0), PARAMS)
        assert f == pytest.approx(expected, rel=1e-12)

    def test_positive_strictly_inside_zero_outside(self, rng):
        for _ in range(100):
            state = AgentState(
                rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(2, 12), rng.uniform(0.3, 3.0)
            )
            radius = PARAMS.r * state.z / state.lam
            ang = rng.uniform(0, 2 * np.pi)
            inside = (
                state.x + 0.9 * radius * np.cos(ang),
                state.y + 0.9 * radius * np.sin(ang),
            )
            outside = (
                state.x + 1.1 * radius * np.cos(ang),
                state.y + 1.1 * radius * np.sin(ang),
            )
            assert sensing_quality(state, inside, PARAMS) > 0.0
            assert sensing_quality(state, outside, PARAMS) == 0.0

    def test_field_masks_match_footprint(self, rng):
        state = AgentState(1.0, -1.0, 6.0, 0.8)
        radius = PARAMS.r * state.z / state.lam
        points = rng.uniform(-10, 10, size=(500, 2))
        f, covered, strict = sensing_field(state, PARAMS, points)
        d2 = np.sum((points - [state.x, state.y]) ** 2, axis=1)
        np.testing.assert_array_equal(covered, d2 <= radius**2)
        np.testing.assert_array_equal(strict, d2 < radius**2)
        assert np.all(f[~covered] == 0.0)
        assert np.all(f[strict] > 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SensingParams(r=0.0, kappa=4.0, sigma=3.0, M=11.0, w=0.4)
        with pytest.raises(ValueError):
            SensingParams(r=1.0, kappa=-1.0, sigma=3.0, M=11.0, w=0.4)
        with pytest.raises(ValueError):
            SensingParams(r=1.0, kappa=4.0, sigma=0.0, M=11.0, w=0.4)
        with pytest.raises(ValueError):
            SensingParams(r=1.0, kappa=4.0, sigma=3.0, M=-2.0, w=0.4)
        with pytest.raises(ValueError):
            SensingParams(r=1.0, kappa=4.0, sigma=3.0, M=11.0, w=-0.1)


class TestSensingGradient:
    def test_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(200):
            state = AgentState(
                rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(2, 12), rng.uniform(0.3, 3.0)
            )
            radius = PARAMS.r * state.z / state.lam
            ang = rng.uniform(0, 2 * np.pi)
            rad = rng.uniform(0, 0.95) * radius
            q = np.array([state.x + rad * np.cos(ang), state.y + rad * np.sin(ang)])
            grad = sensing_gradient(state, PARAMS, q[None, :])[:, 0]
            fd = fd_quality_gradient(state, q, PARAMS)
            scale = max(1e-8, np.max(np.abs(grad)), np.max(np.abs(fd)))
            worst = max(worst, np.max(np.abs(grad - fd)) / scale)
        assert worst < 1e-6

    def test_nadir_gradient_is_vertical(self):
        # Directly under the camera the quality is rotationally symmetric, so
        # the planar partials vanish.
        state = AgentState(2.0, 5.0, 9.0, 1.1)
        grad = sensing_gradient(state, PARAMS, np.array([[2.0, 5.0]]))[:, 0]
        assert abs(grad[0]) < 1e-14
        assert abs(grad[1]) < 1e-14

    def test_gradient_shape_over_many_points(self, rng):
        state = AgentState(0.0, 0.0, 8.0, 1.0)
        points = rng.uniform(-2, 2, size=(37, 2))
        grad = sensing_gradient(state, PARAMS, points)
        assert grad.shape == (4, 37)
        assert np.all(np.isfinite(grad))


class TestDensityField:
    def test_zero_outside_mission(self):
        dens = DensityField(components=((1.0, (5.0, 5.0), 2.0),), mission=(0, 0, 10, 10))
        inside, outside = dens.phi([5.0, 11.0], [5.0, 5.0])
        assert inside > 0.0
        assert outside == 0.0

    def test_mixture_is_additive(self):
        mission = (0, 0, 10, 10)
        a = DensityField(components=((1.0, (3.0, 3.0), 2.0),), mission=mission)
        b = DensityField(components=((0.5, (7.0, 6.0), 1.5),), mission=mission)
        both = DensityField(
            components=((1.0, (3.0, 3.0), 2.0), (0.5, (7.0, 6.0), 1.5)), mission=mission
        )
        pts = np.array([[2.0, 2.0], [5.0, 5.0], [8.0, 7.0]])
        px, py = pts.T
        np.testing.assert_allclose(both.phi(px, py), a.phi(px, py) + b.phi(px, py), rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            DensityField(components=(), mission=(0, 0, 0, 10))
        with pytest.raises(ValueError):
            DensityField(components=((-1.0, (0.0, 0.0), 1.0),), mission=(0, 0, 10, 10))
        with pytest.raises(ValueError):
            DensityField(components=((1.0, (0.0, 0.0), 0.0),), mission=(0, 0, 10, 10))


class TestCoverageGrid:
    def test_midpoints_tile_the_mission(self):
        grid = CoverageGrid((0, 0, 12, 8), 0.5)
        assert grid.shape == (24, 16)
        points = grid_points(grid)
        assert grid.cell_area * len(points) == pytest.approx(12 * 8)
        assert np.all(points[:, 0] > 0) and np.all(points[:, 0] < 12)
        assert np.all(points[:, 1] > 0) and np.all(points[:, 1] < 8)

    def test_mass_cached_per_density(self):
        grid = CoverageGrid((0, 0, 12, 8), 0.5)
        near = DensityField(components=((1.0, (3.0, 3.0), 2.0),), mission=(0, 0, 12, 8))
        far = DensityField(components=((1.0, (9.0, 6.0), 2.0),), mission=(0, 0, 12, 8))
        mass = grid.mass(near)
        assert grid.mass(near) is mass
        assert not mass.flags.writeable
        px, py = grid_points(grid).T
        np.testing.assert_array_equal(mass, near.phi(px, py) * grid.cell_area)
        np.testing.assert_array_equal(grid.mass(far), far.phi(px, py) * grid.cell_area)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoverageGrid((0, 0, 10, 10), 0.0)
        with pytest.raises(ValueError):
            CoverageGrid((0, 0, -1, 10), 0.5)

    @pytest.mark.parametrize("position", range(5), ids=["xmin", "ymin", "xmax", "ymax", "resolution"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_mission_or_resolution(self, position, value):
        # An infinite resolution used to give a 1×1 grid, an infinite mission
        # bound an OverflowError.
        args = [0.0, 0.0, 1.0, 1.0, 0.5]
        args[position] = value
        with pytest.raises(ValueError, match="finite"):
            CoverageGrid(tuple(args[:4]), args[4])


class TestPartition:
    def test_single_agent_owns_its_footprint(self):
        grid = CoverageGrid((0, 0, 20, 20), 0.25)
        states = [AgentState(10.0, 10.0, 8.0, 1.0)]
        part = DensePartition(partition(states, PARAMS, grid), grid)
        np.testing.assert_array_equal(part.owner == 0, part.covered[0])
        assert np.all(part.owner[~part.covered[0]] == -1)

    def test_tie_goes_to_lower_index(self):
        grid = CoverageGrid((0, 0, 20, 20), 0.5)
        state = AgentState(10.0, 10.0, 8.0, 1.0)
        part = DensePartition(partition([state, state], PARAMS, grid), grid)
        covered = part.covered[0]
        assert covered.any()
        assert np.all(part.owner[covered] == 0)
        assert np.array_equal(part.losers(1), covered)

    def test_owner_has_maximal_quality(self, rng):
        grid = CoverageGrid((0, 0, 20, 20), 0.5)
        states = [
            AgentState(rng.uniform(4, 16), rng.uniform(4, 16), rng.uniform(5, 10), rng.uniform(0.7, 1.4))
            for _ in range(4)
        ]
        part = DensePartition(partition(states, PARAMS, grid), grid)
        any_cov = part.covered.any(axis=0)
        np.testing.assert_array_equal(part.owner >= 0, any_cov)
        best = np.where(part.covered, part.f, -np.inf).max(axis=0)
        owned_f = part.f[part.owner[any_cov], np.flatnonzero(any_cov)]
        np.testing.assert_allclose(owned_f, best[any_cov], rtol=0, atol=0)

    def test_owned_sets_are_disjoint_and_cover(self, rng):
        grid = CoverageGrid((0, 0, 20, 20), 0.5)
        states = [
            AgentState(rng.uniform(4, 16), rng.uniform(4, 16), rng.uniform(5, 10), rng.uniform(0.7, 1.4))
            for _ in range(5)
        ]
        part = DensePartition(partition(states, PARAMS, grid), grid)
        owned = [part.owner == i for i in range(5)]
        total = np.zeros(len(grid_points(grid)), dtype=int)
        for mask in owned:
            total += mask.astype(int)
        assert np.all(total <= 1)
        np.testing.assert_array_equal(total == 1, part.covered.any(axis=0))
        for i in range(5):
            assert not np.any(part.losers(i) & owned[i])
            assert np.all(part.covered[i][owned[i]])


class TestCoverageObjective:
    def setup_method(self):
        self.mission = (0, 0, 20, 20)
        self.density = DensityField(
            components=((1.0, (8.0, 12.0), 4.0), (0.7, (14.0, 6.0), 3.0)),
            mission=self.mission,
        )
        self.grid = CoverageGrid(self.mission, 0.25)
        self.states = [
            AgentState(7.0, 11.0, 8.0, 1.0),
            AgentState(13.0, 7.0, 7.5, 0.9),
            AgentState(10.0, 10.0, 9.0, 1.1),
        ]

    def test_vanishing_density_gives_zero(self):
        empty = DensityField(components=(), mission=self.mission)
        report = coverage_objective(self.states, PARAMS, empty, self.grid)
        assert report.H_M == 0.0 and report.H_O == 0.0 and report.H == 0.0

    def test_single_agent_has_no_overlap_penalty(self):
        report = coverage_objective(self.states[:1], PARAMS, self.density, self.grid)
        assert report.H_O == 0.0
        assert report.H == report.H_M
        assert report.H_M > 0.0

    def test_zero_weight_drops_penalty(self):
        params = SensingParams(r=1.0, kappa=4.0, sigma=3.0, M=11.0, w=0.0)
        report = coverage_objective(self.states, params, self.density, self.grid)
        assert report.H == report.H_M
        assert report.H_O > 0.0

    def test_matches_max_form(self):
        # Because the owner maximizes quality at every point, summing owned
        # masses equals integrating the pointwise best quality.
        part = partition(self.states, PARAMS, self.grid)
        report = coverage_objective(self.states, PARAMS, self.density, self.grid, part)
        part = DensePartition(part, self.grid)
        best = np.where(part.covered, part.f, -np.inf).max(axis=0)
        best = np.where(part.covered.any(axis=0), best, 0.0)
        px, py = grid_points(self.grid).T
        point_mass = self.density.phi(px, py) * self.grid.cell_area
        assert report.H_M == pytest.approx(float(np.sum(best * point_mass)), abs=1e-12)

    def test_decomposition(self):
        report = coverage_objective(self.states, PARAMS, self.density, self.grid)
        assert report.H == pytest.approx(report.H_M - PARAMS.w * report.H_O, abs=1e-12)
        assert report.H_O > 0.0  # the three footprints overlap


class TestNominalInput:
    def test_symmetric_density_at_nadir_gives_vertical_input(self):
        # Agent hovering on the density peak of a symmetric problem: the
        # planar pulls cancel by symmetry.
        mission = (0, 0, 20, 20)
        density = DensityField(components=((1.0, (10.0, 10.0), 3.0),), mission=mission)
        grid = CoverageGrid(mission, 0.25)
        state = AgentState(10.0, 10.0, 8.0, 1.0)
        u = nominal_input(0, [state], PARAMS, density, grid)
        assert abs(u[0]) < 1e-10
        assert abs(u[1]) < 1e-10
        assert np.all(np.isfinite(u))

    def test_matches_finite_differences_of_objective(self):
        mission = (0, 0, 20, 20)
        density = DensityField(
            components=((1.0, (8.0, 12.0), 4.0), (0.7, (14.0, 6.0), 3.0)), mission=mission
        )
        diagonal = np.hypot(20, 20)
        grid = CoverageGrid(mission, diagonal / 400)
        states = [
            AgentState(7.0, 11.0, 8.0, 1.0),
            AgentState(13.0, 7.0, 7.5, 0.9),
            AgentState(10.0, 10.0, 9.0, 1.1),
        ]
        step = 1e-5
        for i in range(len(states)):
            u = nominal_input(i, states, PARAMS, density, grid)
            fd = np.zeros(4)
            for k in range(4):
                plus = list(states)
                minus = list(states)
                plus[i] = perturbed(states[i], k, step)
                minus[i] = perturbed(states[i], k, -step)
                h_plus = coverage_objective(plus, PARAMS, density, grid).H
                h_minus = coverage_objective(minus, PARAMS, density, grid).H
                fd[k] = (h_plus - h_minus) / (2.0 * step)
            rel = np.abs(u - fd) / np.maximum(1e-6, np.abs(fd))
            assert rel.max() < 1e-3

    def test_precomputed_partition_matches(self):
        mission = (0, 0, 20, 20)
        density = DensityField(components=((1.0, (10.0, 10.0), 4.0),), mission=mission)
        grid = CoverageGrid(mission, 0.4)
        states = [AgentState(9.0, 9.0, 8.0, 1.0), AgentState(12.0, 11.0, 7.0, 0.9)]
        part = partition(states, PARAMS, grid)
        for i in range(2):
            np.testing.assert_array_equal(
                nominal_input(i, states, PARAMS, density, grid, part),
                nominal_input(i, states, PARAMS, density, grid),
            )

    def test_gradient_ascent_increases_objective(self):
        # Euler ascent with a small step: the objective must not decrease
        # beyond quadrature-level wiggle.
        mission = (0, 0, 20, 20)
        density = DensityField(
            components=((1.0, (8.0, 12.0), 4.0), (0.7, (14.0, 6.0), 3.0)), mission=mission
        )
        grid = CoverageGrid(mission, 0.25)
        states = [AgentState(6.0, 10.0, 9.5, 1.2), AgentState(13.0, 8.0, 10.5, 1.1)]
        dt = 1e-3
        previous = coverage_objective(states, PARAMS, density, grid).H
        for _ in range(100):
            part = partition(states, PARAMS, grid)
            inputs = [
                nominal_input(i, states, PARAMS, density, grid, part) for i in range(len(states))
            ]
            states = [
                AgentState(s.x + dt * u[0], s.y + dt * u[1], s.z + dt * u[2], s.lam + dt * u[3])
                for s, u in zip(states, inputs)
            ]
            current = coverage_objective(states, PARAMS, density, grid).H
            assert current >= previous - 1e-6 * abs(previous)
            previous = current
