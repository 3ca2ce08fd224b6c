import numpy as np
import pytest

from aircover.coverage import CoverageGrid
from aircover.geometry import (
    AgentState,
    build_graph,
    detect_holes_grid,
    fov_of,
    make_trio,
    point_in_triangle,
)


def grid_witnesses(states, mission, resolution, r=1.0):
    """Grid-oracle witnesses of states on a fresh grid, with the states' own graph."""
    return detect_holes_grid(states, r, CoverageGrid(mission, resolution), build_graph(states, r))


def cross2(a, b) -> float:
    """z-component of the cross product of two planar vectors."""
    return float(a[0] * b[1] - a[1] * b[0])


def random_state(rng, box=4.0):
    return AgentState(
        x=float(rng.uniform(-box, box)),
        y=float(rng.uniform(-box, box)),
        z=float(rng.uniform(1.0, 3.0)),
        lam=float(rng.uniform(0.7, 1.5)),
    )


def random_trio(rng, r=1.0, require_overlap=False, area_margin=0.1):
    """Sample a well-conditioned random trio (retrying until margins hold)."""
    while True:
        states = [random_state(rng) for _ in range(3)]
        fovs = [fov_of(s, r) for s in states]
        centers = [f.center for f in fovs]
        area = 0.5 * abs(cross2(centers[1] - centers[0], centers[2] - centers[0]))
        if area < area_margin:
            continue
        if require_overlap:
            ok = True
            for a in range(3):
                for b in range(a + 1, 3):
                    gap = np.linalg.norm(centers[a] - centers[b]) - (
                        fovs[a].radius + fovs[b].radius
                    )
                    if gap > -0.05:  # overlap with margin
                        ok = False
            if not ok:
                continue
        try:
            trio = make_trio((0, 1, 2), states, r)
        except Exception:
            continue
        # Keep the radical center at a sane distance and the geometry away from
        # frame degeneracy (distinguished agent on the others' center line).
        if np.linalg.norm(trio.radical_center) > 50.0:
            continue
        try:
            _, ratios = point_in_triangle(*trio.triangle, trio.radical_center)
        except Exception:
            continue
        if max(abs(x) for x in ratios) > 25.0:
            continue
        degenerate_frame = False
        for i in range(3):
            others = [c for j, c in enumerate(centers) if j != i]
            d = others[1] - others[0]
            dist_to_line = abs(cross2(d, centers[i] - others[0])) / np.linalg.norm(d)
            if dist_to_line < 0.1:
                degenerate_frame = True
        if degenerate_frame:
            continue
        return trio


def roles(trio, viewpoint: int):
    """(i, j, k) id roles for a viewpoint: itself first, the others in id order."""
    others = [a for a in trio.ids if a != viewpoint]
    return (viewpoint, others[0], others[1])


def component_apex(trio, viewpoint: int, component: int):
    """Agent id of the triangle vertex opposite the component's line, or None for component 4.

    Components 1/2/3 certify v beyond lines IJ/JK/KI; their defining vertices
    (apexes) are agents k/i/j respectively.  The mapping lets the same
    geometric condition be identified across the three viewpoints.
    """
    i, j, k = roles(trio, viewpoint)
    return {1: k, 2: i, 3: j, 4: None}[component]


class DensePartition:
    """Dense (n, N) views of a Partition, rebuilt from its windows.

    f[i, q] is agent i's quality field (zero off its window); covered its
    closed-disk membership; strict its open-disk membership (where gradients
    are evaluated).
    """

    def __init__(self, part, grid):
        self.owner = part.owner
        self.f, self.covered, self.strict = (
            self._dense(part, grid, name, fill)
            for name, fill in (("f", 0.0), ("covered", False), ("strict", False))
        )

    @staticmethod
    def _dense(part, grid, name, fill):
        out = np.full((len(part.windows), len(part.owner)), fill)
        for row, window in zip(out, part.windows):
            grid.cells(row)[window.cells] = getattr(window, name)
        return out

    def losers(self, i: int) -> np.ndarray:
        """Points agent i covers but does not own (its overlap set)."""
        return self.covered[i] & (self.owner != i)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
