"""detect_holes_grid against the full-grid oracle it replaced.

The oracle builds its own midpoint grid over the mission and tests every
footprint against every cell; detect_holes_grid paints each footprint only
on its window of the scenario's CoverageGrid.  The two grids round their
cell centres differently ((i + ½)·(span/n) against (i + ½)·span/n), so the
witness points agree to rounding and their count exactly.
"""

import numpy as np
from scipy import ndimage

from aircover.coverage import CoverageGrid
from aircover.geometry import AREA_TOL, AgentState, build_graph, detect_holes_grid, fov_of


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
    uncovered = ~covered
    labels, nlab = ndimage.label(uncovered)
    edge_labels = np.unique(
        np.concatenate([labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]])
    )
    touches_boundary = np.zeros(nlab + 1, dtype=bool)
    touches_boundary[edge_labels] = True
    candidate = uncovered & ~touches_boundary[labels]
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
