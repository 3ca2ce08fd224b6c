"""The windowed coverage layer against the dense computation it replaced.

The oracle evaluates every agent's sensing field on the whole grid, takes
ownership from a dense argmax (the first maximum wins, so the lowest index
wins ties), and recomputes the density mass and the gradients on each call.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

PARAMS = SensingParams(r=1.0, kappa=4.0, sigma=3.0, M=11.0, w=0.4)
MISSION = (0.0, 0.0, 20.0, 12.0)
DENSITY = DensityField(
    components=((1.0, (6.0, 5.0), 4.0), (0.6, (15.0, 9.0), 2.5)), mission=MISSION
)


def oracle_partition(states, params, grid):
    """(owner, f, covered, strict) over the full grid."""
    fields = [sensing_field(s, params, grid.points) for s in states]
    f = np.array([field[0] for field in fields])
    covered = np.array([field[1] for field in fields])
    strict = np.array([field[2] for field in fields])
    masked = np.where(covered, f, -np.inf)
    owner = np.where(covered.any(axis=0), np.argmax(masked, axis=0), -1)
    return owner, f, covered, strict


def oracle_objective(states, params, density, grid):
    owner, f, covered, _ = oracle_partition(states, params, grid)
    point_mass = density.phi(grid.points) * grid.cell_area
    H_M = sum(float(np.sum(f[i] * point_mass, where=owner == i)) for i in range(len(states)))
    H_O = sum(
        float(np.sum(f[i] * point_mass, where=covered[i] & (owner != i)))
        for i in range(len(states))
    )
    return H_M - params.w * H_O


def oracle_nominal(i, states, params, density, grid):
    owner, _, covered, strict = oracle_partition(states, params, grid)
    point_mass = density.phi(grid.points) * grid.cell_area
    own = (owner == i) & strict[i]
    lose = covered[i] & (owner != i) & strict[i]
    u = sensing_gradient(states[i], params, grid.points[own]) @ point_mass[own]
    return u - params.w * (sensing_gradient(states[i], params, grid.points[lose]) @ point_mass[lose])


def assert_matches_oracle(states, grid, density=DENSITY):
    part = partition(states, PARAMS, grid)
    owner, f, covered, strict = oracle_partition(states, PARAMS, grid)
    np.testing.assert_array_equal(part.owner, owner)
    np.testing.assert_array_equal(part.f, f)
    np.testing.assert_array_equal(part.covered, covered)
    np.testing.assert_array_equal(part.strict, strict)
    for i in range(len(states)):
        np.testing.assert_array_equal(part.losers(i), covered[i] & (owner != i))

    H = coverage_objective(states, PARAMS, density, grid, part).H
    assert H == pytest.approx(oracle_objective(states, PARAMS, density, grid), rel=1e-12, abs=0)
    for i in range(len(states)):
        u = nominal_input(i, states, PARAMS, density, grid, part)
        expected = oracle_nominal(i, states, PARAMS, density, grid)
        scale = float(np.abs(expected).max())
        np.testing.assert_allclose(u, expected, rtol=1e-12, atol=1e-12 * scale)


# Footprint radius is r·z/λ; z/λ picks its size.
CASES = {
    "interior_overlap": [AgentState(6.0, 5.0, 4.0, 1.0), AgentState(9.0, 6.0, 5.0, 1.2)],
    "clipped_at_corner": [AgentState(0.5, 11.5, 6.0, 1.0), AgentState(19.0, -1.0, 4.0, 1.0)],
    "entirely_outside": [AgentState(-10.0, 5.0, 3.0, 1.0), AgentState(10.0, 30.0, 3.0, 1.0)],
    "smaller_than_a_cell": [AgentState(7.3, 4.1, 0.1, 1.0), AgentState(7.3, 4.1, 4.0, 1.0)],
    "identical_agents": [AgentState(10.0, 6.0, 5.0, 1.0)] * 3,
    "covers_the_mission": [AgentState(10.0, 6.0, 30.0, 1.0), AgentState(10.0, 6.0, 4.0, 1.0)],
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("resolution", [0.25, 0.7])
def test_cases_match_oracle(name, resolution):
    assert_matches_oracle(CASES[name], CoverageGrid(MISSION, resolution))


@st.composite
def teams(draw):
    """1–6 agents, anywhere from well inside to far outside the mission, some repeated."""
    coord_x = st.floats(-12.0, 32.0)
    coord_y = st.floats(-12.0, 24.0)
    states = []
    for _ in range(draw(st.integers(1, 6))):
        if states and draw(st.booleans()):
            states.append(draw(st.sampled_from(states)))
            continue
        states.append(
            AgentState(
                draw(coord_x), draw(coord_y), draw(st.floats(0.05, 10.0)), draw(st.floats(0.5, 2.0))
            )
        )
    return states


@settings(max_examples=150, deadline=None, derandomize=True)
@given(teams(), st.sampled_from([0.2, 0.45, 1.3]))
def test_random_teams_match_oracle(states, resolution):
    assert_matches_oracle(states, CoverageGrid(MISSION, resolution))


def test_window_is_a_subsequence_of_the_ravel_order():
    grid = CoverageGrid(MISSION, 0.5)
    cells = grid.window(3.2, 11.0, 2.0)
    index = grid.cells(np.arange(len(grid.points)))[cells].ravel()
    assert np.all(np.diff(index) > 0)
    np.testing.assert_array_equal(grid.points[index], grid.cells(grid.points)[cells].reshape(-1, 2))
