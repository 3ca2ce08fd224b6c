"""The windowed coverage layer against the dense computation it replaced.

The oracle evaluates every agent's sensing field on the whole grid, takes
ownership from a dense argmax (the first maximum wins, so the lowest index
wins ties), and recomputes the density mass and the gradients on each call.
Its nominal input is the two-pull form: the full (4, k) gradient over the
owned points minus w times the one over the overlap points.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aircover.cli import bundled_scenario, parse_config
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
from aircover.sim import initial_world, step
from conftest import DensePartition

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
    """(H_M, H_O): per-agent sums over owned and over covered-but-not-owned points."""
    owner, f, covered, _ = oracle_partition(states, params, grid)
    point_mass = density.phi(grid.points) * grid.cell_area
    H_M = sum(float(np.sum(f[i] * point_mass, where=owner == i)) for i in range(len(states)))
    H_O = sum(
        float(np.sum(f[i] * point_mass, where=covered[i] & (owner != i)))
        for i in range(len(states))
    )
    return H_M, H_O


def oracle_nominals(states, params, density, grid):
    """Every agent's nominal input from one dense partition."""
    owner, _, covered, strict = oracle_partition(states, params, grid)
    point_mass = density.phi(grid.points) * grid.cell_area
    out = []
    for i, state in enumerate(states):
        own = (owner == i) & strict[i]
        lose = covered[i] & (owner != i) & strict[i]
        u = sensing_gradient(state, params, grid.points[own]) @ point_mass[own]
        out.append(u - params.w * (sensing_gradient(state, params, grid.points[lose]) @ point_mass[lose]))
    return out


def assert_nominals_match_oracle(states, grid, density=DENSITY, params=PARAMS, part=None):
    """nominal_input of every agent within 1e-12 of the oracle's largest partial."""
    if part is None:
        part = partition(states, params, grid)
    for i, expected in enumerate(oracle_nominals(states, params, density, grid)):
        u = nominal_input(i, states, params, density, grid, part)
        scale = float(np.abs(expected).max())
        np.testing.assert_allclose(u, expected, rtol=1e-12, atol=1e-12 * scale)


def assert_matches_oracle(states, grid, density=DENSITY, params=PARAMS):
    part = partition(states, params, grid)
    dense = DensePartition(part, grid)
    owner, f, covered, strict = oracle_partition(states, params, grid)
    np.testing.assert_array_equal(part.owner, owner)
    np.testing.assert_array_equal(dense.f, f)
    np.testing.assert_array_equal(dense.covered, covered)
    np.testing.assert_array_equal(dense.strict, strict)
    for i in range(len(states)):
        np.testing.assert_array_equal(dense.losers(i), covered[i] & (owner != i))

    report = coverage_objective(states, params, density, grid, part)
    H_M, H_O = oracle_objective(states, params, density, grid)
    assert report.H_M == pytest.approx(H_M, rel=1e-12, abs=0)
    # H_O sums each point's quality sum minus its best, which rounds on the
    # winner's scale: where every other quality is far below the winner's
    # (covers_the_mission: about 1e-10 against 0.1) H_O keeps its accuracy
    # against H_M, not against itself.
    assert report.H_O == pytest.approx(H_O, rel=1e-12, abs=1e-15 * H_M)
    assert report.H == pytest.approx(H_M - params.w * H_O, rel=1e-12, abs=0)
    assert_nominals_match_oracle(states, grid, density, params, part)


# Footprint radius is r·z/λ; z/λ picks its size.
CASES = {
    "interior_overlap": [AgentState(6.0, 5.0, 4.0, 1.0), AgentState(9.0, 6.0, 5.0, 1.2)],
    "clipped_at_corner": [AgentState(0.5, 11.5, 6.0, 1.0), AgentState(19.0, -1.0, 4.0, 1.0)],
    "entirely_outside": [AgentState(-10.0, 5.0, 3.0, 1.0), AgentState(10.0, 30.0, 3.0, 1.0)],
    "smaller_than_a_cell": [AgentState(7.3, 4.1, 0.1, 1.0), AgentState(7.3, 4.1, 4.0, 1.0)],
    "identical_agents": [AgentState(10.0, 6.0, 5.0, 1.0)] * 3,
    "covers_the_mission": [AgentState(10.0, 6.0, 30.0, 1.0), AgentState(10.0, 6.0, 4.0, 1.0)],
    # Centred on a 0.25 m cell midpoint with radius 2: four midpoints lie exactly
    # on the circle, in the closed footprint but not the open one.
    "points_on_the_rim": [AgentState(6.125, 5.125, 2.0, 1.0), AgentState(7.9, 5.6, 3.0, 1.0)],
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("resolution", [0.25, 0.7])
def test_cases_match_oracle(name, resolution):
    assert_matches_oracle(CASES[name], CoverageGrid(MISSION, resolution))


@pytest.mark.parametrize("name", sorted(CASES))
def test_zero_overlap_weight_matches_oracle(name):
    assert_matches_oracle(CASES[name], CoverageGrid(MISSION, 0.25), params=replace(PARAMS, w=0.0))


def test_disjoint_footprints_have_exactly_zero_overlap():
    # Radii 3 and 3.5 at centre distance 6.7: the footprints are disjoint but
    # the windows overlap, so each point of one footprint also gets the other
    # agent's zero quality added to its sum.
    grid = CoverageGrid(MISSION, 0.25)
    states = [AgentState(5.0, 5.0, 3.0, 1.0), AgentState(11.0, 8.0, 3.5, 1.0)]
    part = partition(states, PARAMS, grid)
    assert all(a.start < b.stop and b.start < a.stop
               for a, b in zip(part.windows[0].cells, part.windows[1].cells))
    report = coverage_objective(states, PARAMS, DENSITY, grid, part)
    assert report.H_O == 0.0
    assert report.H == report.H_M > 0.0


def test_rim_points_are_closed_but_not_open():
    grid = CoverageGrid(MISSION, 0.25)
    dense = DensePartition(partition(CASES["points_on_the_rim"], PARAMS, grid), grid)
    assert np.count_nonzero(dense.covered[0] & ~dense.strict[0]) == 4


@pytest.fixture(scope="module", params=["nine_agents", "five_agents"])
def bundled(request):
    """A bundled scenario and its team at steps 0, 20, 40 and 60 of a run."""
    scenario = parse_config(bundled_scenario(request.param))
    world = initial_world(scenario)
    snapshots = [world.states]
    for k in range(1, 61):
        world, _ = step(world, scenario)
        if k % 20 == 0:
            snapshots.append(world.states)
    return scenario, snapshots


@pytest.mark.parametrize("w", [None, 0.0], ids=["scenario_w", "zero_w"])
def test_bundled_snapshots_match_oracle(bundled, w):
    scenario, snapshots = bundled
    params = scenario.sensing if w is None else replace(scenario.sensing, w=w)
    for states in snapshots:
        assert_nominals_match_oracle(states, scenario.grid, scenario.density, params)


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


# Fixed examples, kept whatever seed the test's source hashes to: identical
# agents, a footprint smaller than a cell, and rim points on a 0.25 m grid.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(teams(), st.sampled_from([0.2, 0.45, 1.3]))
@example(CASES["identical_agents"], 0.45)
@example(CASES["smaller_than_a_cell"], 1.3)
@example(CASES["points_on_the_rim"], 0.25)
def test_random_teams_match_oracle(states, resolution):
    assert_matches_oracle(states, CoverageGrid(MISSION, resolution))


def test_window_is_a_subsequence_of_the_ravel_order():
    grid = CoverageGrid(MISSION, 0.5)
    (cells,) = grid.window(3.2, 11.0, 2.0)
    index = grid.cells(np.arange(len(grid.points)))[cells].ravel()
    assert np.all(np.diff(index) > 0)
    np.testing.assert_array_equal(grid.points[index], grid.cells(grid.points)[cells].reshape(-1, 2))


def scalar_window(grid, cx, cy, radius):
    """One disk's (x, y) cell slices by the scalar span rule: floor/ceil of the box edges in cell units, clipped."""
    spans = []
    for c, lo, d, n in zip((cx, cy), grid.mission[:2], grid.spacing, grid.shape):
        start = math.floor((c - radius - lo) / d - 0.5) - 1
        stop = math.ceil((c + radius - lo) / d - 0.5) + 2
        spans.append(slice(min(max(start, 0), n), min(max(stop, 0), n)))
    return tuple(spans)


# (cx, cy, radius) on MISSION = (0, 0, 20, 12), each kind of span the rule must get right.
WINDOW_CASES = {
    "inside": [(6.0, 5.0, 2.0), (13.37, 7.61, 3.3), (10.0, 6.0, 0.5)],
    "clipped_at_each_edge": [(0.4, 6.0, 2.0), (19.7, 6.0, 2.0), (10.0, 0.2, 2.0), (10.0, 11.9, 2.0),
                             (-1.0, -1.5, 2.2), (21.0, 13.0, 2.5)],
    "wholly_outside": [(-9.0, 6.0, 1.0), (35.0, 6.0, 2.0), (10.0, -7.5, 1.0), (10.0, 40.0, 3.0),
                       (-50.0, -50.0, 0.1)],
    "wider_than_the_mission": [(10.0, 6.0, 40.0), (-30.0, 60.0, 1e3), (5.0, 5.0, 1e12)],
    "smaller_than_a_cell": [(6.0, 5.0, 0.01), (6.25, 5.25, 1e-9), (0.0, 12.0, 0.0), (19.99, 0.01, 1e-3)],
    # Box edges on cell centres (at resolutions 0.5 and 1.3), where floor and ceil meet.
    "edges_on_cell_centres": [(6.0, 5.0, 0.25), (6.25, 5.25, 0.5), (5.0, 5.0, 0.625), (7.5, 6.0, 1.875)],
}


@pytest.mark.parametrize("resolution", [0.25, 0.5, 1.3])
@pytest.mark.parametrize("kind", sorted(WINDOW_CASES))
def test_array_span_rule_matches_the_scalar_rule(kind, resolution):
    grid = CoverageGrid(MISSION, resolution)
    cx, cy, radius = zip(*WINDOW_CASES[kind])
    assert grid.window(cx, cy, radius) == [scalar_window(grid, *disk) for disk in WINDOW_CASES[kind]]
    for disk in WINDOW_CASES[kind]:
        assert grid.window(*disk) == [scalar_window(grid, *disk)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(0.0, 1e6)), min_size=1, max_size=12),
       st.sampled_from([0.2, 0.45, 1.3]))
def test_array_span_rule_matches_the_scalar_rule_on_random_disks(disks, resolution):
    grid = CoverageGrid(MISSION, resolution)
    assert grid.window(*zip(*disks)) == [scalar_window(grid, *disk) for disk in disks]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_non_finite_window_input_raises(slot, bad):
    disks = [[6.0, 5.0, 2.0], [13.0, 7.0, 3.0]]
    disks[1][slot] = bad
    with pytest.raises(ValueError, match="finite"):
        CoverageGrid(MISSION, 0.5).window(*zip(*disks))
