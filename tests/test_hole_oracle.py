"""detect_holes_grid and its run-length labeller against the oracles they replaced.

The full-grid oracle builds its own midpoint grid over the mission and tests
every footprint against every cell; detect_holes_grid paints each footprint
only on its window of the scenario's CoverageGrid.  The two grids round their
cell centres differently ((i + ½)·(span/n) against (i + ½)·span/n), so the
witness points agree to rounding and their count exactly.  Both oracles find
the enclosed uncovered cells with scipy's `ndimage.label`, which the package
itself does not import; `enclosed_cells` must give the same mask.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from aircover.cli import bundled_scenario, parse_config
from aircover.coverage import CoverageGrid
from aircover.geometry import (
    AREA_TOL,
    AgentState,
    build_graph,
    detect_holes_grid,
    enclosed_cells,
    fov_of,
)
from aircover.sim import run


def ndimage_enclosed(mask):
    """The True cells of mask whose 4-connected component touches no grid edge, by ndimage.label."""
    labels, nlab = ndimage.label(mask)
    edge_labels = np.unique(
        np.concatenate([labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]])
    )
    touches_boundary = np.zeros(nlab + 1, dtype=bool)
    touches_boundary[edge_labels] = True
    return mask & ~touches_boundary[labels]


def full_grid_witnesses(states, r, mission, resolution, graph):
    """Witness points of the grid oracle, with every footprint tested on the whole grid."""
    xmin, ymin, xmax, ymax = mission
    nx = max(2, int(np.ceil((xmax - xmin) / resolution)))
    ny = max(2, int(np.ceil((ymax - ymin) / resolution)))
    xs = xmin + (np.arange(nx) + 0.5) * (xmax - xmin) / nx
    ys = ymin + (np.arange(ny) + 0.5) * (ymax - ymin) / ny
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    covered = np.zeros((nx, ny), dtype=bool)
    for s in states:
        f = fov_of(s, r)
        covered |= (XX - f.cx) ** 2 + (YY - f.cy) ** 2 <= f.radius**2
    candidate = ndimage_enclosed(~covered)
    cx, cy = XX[candidate], YY[candidate]
    inside_any = np.zeros(cx.shape, dtype=bool)
    for trio in graph.all_trios():
        I, J, K = trio.triangle
        denom = (J[0] - I[0]) * (K[1] - I[1]) - (J[1] - I[1]) * (K[0] - I[0])
        if abs(denom) < 2.0 * AREA_TOL:
            continue
        r1 = ((J[0] - I[0]) * (cy - I[1]) - (J[1] - I[1]) * (cx - I[0])) / denom
        r2 = ((K[0] - J[0]) * (cy - J[1]) - (K[1] - J[1]) * (cx - J[0])) / denom
        r3 = ((I[0] - K[0]) * (cy - K[1]) - (I[1] - K[1]) * (cx - K[0])) / denom
        inside_any |= (r1 > 0) & (r2 > 0) & (r3 > 0)
    return np.column_stack([cx[inside_any], cy[inside_any]])


def footprint_union(rng):
    """A jittered triangular lattice of footprints, from 2×2 to 4×4 agents.

    Radii lie between half the spacing (neighbours overlap) and a little
    above the covering radius spacing/√3, so many lattice triangles hold a
    hole and some are covered.  The mission's margin may be negative, so
    some footprints are clipped by the grid's edge.
    """
    side = int(rng.integers(2, 5))
    spacing = 1.0
    states = []
    for gx in range(side):
        for gy in range(side):
            x = (gx + 0.5 * (gy % 2)) * spacing + rng.normal(0.0, 0.08)
            y = gy * spacing * np.sqrt(3) / 2 + rng.normal(0.0, 0.08)
            lam = rng.uniform(0.8, 1.2)
            radius = spacing * rng.uniform(0.52, 0.62)
            states.append(AgentState(x, y, radius * lam, lam))
    xs = [s.x for s in states]
    ys = [s.y for s in states]
    margin = rng.uniform(-0.3, 1.0)
    mission = (min(xs) - margin, min(ys) - margin, max(xs) + margin, max(ys) + margin)
    return states, mission, spacing * rng.uniform(0.01, 0.05)


def test_windowed_oracle_matches_the_full_grid_oracle():
    rng = np.random.default_rng(11)
    with_witnesses = 0
    for _ in range(60):
        states, mission, resolution = footprint_union(rng)
        graph = build_graph(states, 1.0)
        got = detect_holes_grid(states, 1.0, CoverageGrid(mission, resolution), graph)
        want = full_grid_witnesses(states, 1.0, mission, resolution, graph)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        with_witnesses += len(want) > 0
    assert with_witnesses >= 20


def assert_labeller_matches(mask):
    got = enclosed_cells(mask)
    assert got.shape == mask.shape and got.dtype == bool
    np.testing.assert_array_equal(got, ndimage_enclosed(mask))


def spiral(n):
    """An n×n square spiral path of True cells, one cell wide, entering from the left edge."""
    mask = np.zeros((n, n), dtype=bool)
    r, c, dr, dc = 1, 0, 0, 1
    top, bottom, left, right = 1, n - 2, 1, n - 2
    while top <= bottom and left <= right:
        mask[r, c] = True
        if dc == 1 and c == right:
            dr, dc, top = 1, 0, top + 2
        elif dr == 1 and r == bottom:
            dr, dc, right = 0, -1, right - 2
        elif dc == -1 and c == left:
            dr, dc, bottom = -1, 0, bottom - 2
        elif dr == -1 and r == top:
            dr, dc, left = 0, 1, left + 2
        r, c = r + dr, c + dc
    return mask


class TestEnclosedCells:
    def test_random_masks_match_ndimage(self):
        rng = np.random.default_rng(3)
        enclosed = 0
        for case in range(600):
            h, w = (int(v) for v in rng.integers(1, 61, size=2))
            h = 1 if case % 10 == 0 else h
            w = 1 if case % 10 == 1 else w
            mask = rng.random((h, w)) < rng.uniform(0.0, 1.0)
            assert_labeller_matches(mask)
            enclosed += bool(ndimage_enclosed(mask).any())
        assert enclosed >= 200

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (3, 3), (40, 25)])
    @pytest.mark.parametrize("fill", [False, True])
    def test_all_covered_and_all_uncovered(self, shape, fill):
        mask = np.full(shape, fill)
        assert_labeller_matches(mask)
        assert not enclosed_cells(mask).any()

    @pytest.mark.parametrize("n", [7, 20, 61, 200])
    def test_spiral_is_one_long_chain_of_runs(self, n):
        # Entering from the edge, the whole spiral is open; cut off from the
        # edge, all of it is enclosed.  Its runs link one after another.
        mask = spiral(n)
        assert mask[1, 0] and ndimage.label(mask)[1] == 1
        assert_labeller_matches(mask)
        assert not enclosed_cells(mask).any()
        mask[1, 0] = False
        assert_labeller_matches(mask)
        np.testing.assert_array_equal(enclosed_cells(mask), mask)
        assert_labeller_matches(~mask)

    @pytest.mark.parametrize("n", [6, 41, 200])
    def test_snake_of_row_runs(self, n):
        # Full-width strips joined at alternating ends by single cells.
        mask = np.zeros((n, n), dtype=bool)
        mask[1:-1:2, 1:-1] = True
        for i, row in enumerate(range(2, n - 2, 2)):
            mask[row, 1 if i % 2 else n - 2] = True
        assert ndimage.label(mask)[1] == 1
        assert_labeller_matches(mask)
        np.testing.assert_array_equal(enclosed_cells(mask), mask)
        assert_labeller_matches(~mask)
        mask[range(1, n - 1, 2)[-1], 0] = True  # the last strip reaches the edge: the whole snake opens
        assert_labeller_matches(mask)
        assert not enclosed_cells(mask).any()

    def test_diagonal_contact_does_not_connect(self):
        # A checkerboard and a staircase from a corner touch only diagonally:
        # under 4-connectivity every interior cell is its own enclosed
        # component, where 8-connectivity would open them all.
        board = np.indices((9, 12)).sum(axis=0) % 2 == 0
        assert_labeller_matches(board)
        np.testing.assert_array_equal(enclosed_cells(board)[1:-1, 1:-1], board[1:-1, 1:-1])
        stair = np.eye(10, dtype=bool)
        assert_labeller_matches(stair)
        assert enclosed_cells(stair).sum() == 8
        ring = np.zeros((5, 5), dtype=bool)
        ring[1, 2] = ring[2, 1] = ring[2, 3] = ring[3, 2] = ring[2, 2] = True
        ring[0, 1] = True  # touches the plus only diagonally
        assert_labeller_matches(ring)
        assert enclosed_cells(ring).sum() == 5

    def test_hole_oracle_masks_of_a_nominal_only_run(self, monkeypatch):
        # The uncovered masks detect_holes_grid labels along the bundled trio
        # run with its filter off, in which a hole opens near step 1,070.
        import aircover.geometry as geometry

        masks = []

        def recording(mask):
            masks.append(mask.copy())
            return enclosed_cells(mask)

        monkeypatch.setattr(geometry, "enclosed_cells", recording)
        scenario = replace(parse_config(bundled_scenario("trio")), steps=1210, mode="nominal_only")
        run(scenario)
        assert len(masks) == 121
        with_holes = 0
        for mask in masks:
            assert_labeller_matches(mask)
            with_holes += bool(ndimage_enclosed(mask).any())
        assert with_holes > 0
