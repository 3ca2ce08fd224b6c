import numpy as np
import pytest

from aircover.barrier import cbf_components
from aircover.controller import ClassK
from aircover.coverage import CoverageGrid, DensityField, SensingParams, partition, sensing_field
from aircover.geometry import (
    AREA_TOL,
    CONCENTRIC_TOL,
    AgentState,
    DegenerateTrio,
    TrioContext,
    _radical_solve,
    build_graph,
    detect_holes_grid,
    footprint_rows,
    point_in_triangle,
    power_distance,
)
from aircover.sim import Scenario


# Fixed examples for the derandomized team tests, kept whatever seed a test's
# source hashes to: a 2×2 square, whose centre is a four-way degenerate
# vertex, and a team with a pair of footprints 4e-9 m apart.
SQUARE_TEAM = [AgentState(x, y, 1.0, 1.0) for x, y in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))]
NEAR_PAIR_TEAM = [
    AgentState(0.0, 0.0, 1.5, 1.0),
    AgentState(4e-9, 0.0, 1.5, 1.0),
    AgentState(1.2, 0.9, 1.5, 1.0),
    AgentState(-0.4, 1.1, 1.2, 0.9),
]


def radical_center(da, db, dc) -> tuple:
    """Common equal-power point (x, y) of three disks (cx, cy, R) (their pairwise radical axes meet there)."""
    (ax, ay, ra), (bx, by, rb), (cx, cy, rc) = da, db, dc
    gaps = [dx * dx + dy * dy for dx, dy in ((bx - ax, by - ay), (cx - ax, cy - ay), (cx - bx, cy - by))]
    if min(gaps) < CONCENTRIC_TOL * CONCENTRIC_TOL:
        raise DegenerateTrio("concentric footprint pair")
    if abs(0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))) < AREA_TOL:
        raise DegenerateTrio("collinear footprint centers")
    # Solve from a member of the closest pair: a when that pair is (a, c), else b.
    if gaps[1] < min(gaps[0], gaps[2]):
        return _radical_solve(ax, ay, ra, bx - ax, by - ay, rb, cx - ax, cy - ay, rc)
    return _radical_solve(bx, by, rb, ax - bx, ay - by, ra, cx - bx, cy - by, rc)


def grid_points(grid) -> np.ndarray:
    """A CoverageGrid's cell centres as an (nx·ny, 2) point list, in the ravel order of its cell layout."""
    xs, ys = np.broadcast_arrays(*grid.axes)
    return np.column_stack([xs.ravel(), ys.ravel()])


def make_trio(ids, states, r: float) -> TrioContext:
    """The TrioContext of rows ids of an (n, 4) state array; raises DegenerateTrio on bad geometry."""
    ids = sorted(map(int, ids))
    rows = footprint_rows(np.asarray(states, dtype=float)[ids], r)
    center = radical_center(*((x, y, R) for x, y, _, _, R in rows))
    return TrioContext(tuple(ids), tuple(rows), center, r)


def argmax(vals) -> int:
    """The 1-based component that attains a view's barrier value (the first, on a tie)."""
    return vals.index(max(vals)) + 1


def active_set(vals, epsilon: float) -> tuple:
    """The almost-active set {ℓ : |h_ℓ − h| ≤ ε} of a view's values, 1-based, as `build_constraints` picks rows."""
    value = max(vals)
    return tuple(l for l, h in enumerate(vals, 1) if abs(h - value) <= epsilon)


def degenerate_guard(components, threshold: float) -> list:
    """The guard rule: the triangle components (1..3) of a view whose magnitude exceeds the threshold.

    Near-collinear triangles send the signed-area ratios to huge values;
    `build_constraints` gives these components no row.
    """
    return [l for l in (1, 2, 3) if abs(components.vals[l - 1]) > threshold]


def oracle_witnesses(states, r, grid, graph):
    """Grid-oracle witnesses of states on grid with a given graph.

    The oracle reads the partition's owners, and coverage depends on r
    alone, so any sensing constants with that r give the same witnesses.
    """
    params = SensingParams(r=r, kappa=1.0, sigma=1.0, M=1.0, w=0.0)
    return detect_holes_grid(partition(states, params, grid), grid, graph)


def grid_witnesses(states, mission, resolution, r=1.0):
    """Grid-oracle witnesses of states on a fresh grid, with the states' own graph."""
    return oracle_witnesses(states, r, CoverageGrid(mission, resolution), build_graph(states, r))


def cross2(a, b) -> float:
    """z-component of the cross product of two planar vectors."""
    return float(a[0] * b[1] - a[1] * b[0])


def triangle(trio):
    """A trio's triangle: its three footprint centers as (x, y) float pairs, in id order."""
    return tuple(row[:2] for row in trio.rows)


def disks(trio):
    """A trio's three footprints as (cx, cy, R) disks, in id order."""
    return tuple((x, y, R) for x, y, _, _, R in trio.rows)


def trio_states(trio):
    """A trio's three agent states, in id order."""
    return [AgentState(*row[:4]) for row in trio.rows]


def view(trio, viewpoint):
    """One agent's view from its trio's single evaluation; raises DegenerateTrio where `build_constraints` would drop it."""
    evaluated = cbf_components(trio)[trio.ids.index(viewpoint)]
    if isinstance(evaluated, DegenerateTrio):
        raise evaluated
    return evaluated


def hole_exists_exact(trio) -> bool:
    """Exact hole oracle: the radical center is strictly inside the triangle and outside every footprint.

    Membership in one footprint decides all three (equal power distance), and
    a boundary contact counts as covered (closed convention).
    """
    inside, _ = point_in_triangle(*triangle(trio), trio.radical_center)
    if not inside:
        return False
    return power_distance(disks(trio)[0], trio.radical_center) > 0.0


def radical_axis(fa, fb):
    """Locus of equal power distance to two disks (cx, cy, R) as (point, unit direction); perpendicular to their center line."""
    ca, cb = np.array(fa[:2]), np.array(fb[:2])
    d = cb - ca
    nd2 = float(d @ d)
    if nd2 < CONCENTRIC_TOL**2:
        raise DegenerateTrio("concentric footprints admit no radical axis")
    # Points q with 2 q·d = (‖cb‖² − Rb²) − (‖ca‖² − Ra²).
    c = 0.5 * ((cb @ cb - fb[2] ** 2) - (ca @ ca - fa[2] ** 2))
    return d * (c / nd2), np.array([-d[1], d[0]]) / np.sqrt(nd2)


def frame_rotation(frame):
    """Matrix that maps world xy-vectors into a working frame (ox, oy, ax, ay)."""
    _, _, ax, ay = frame
    return np.array([[ax, ay], [-ay, ax]])


def to_frame(frame, q):
    """Frame coordinates of a point q: rotation @ (q − origin)."""
    ox, oy, _, _ = frame
    return frame_rotation(frame) @ (np.asarray(q, dtype=float) - np.array([ox, oy]))


def sensing_quality(state, q, params) -> float:
    """Perspective × resolution quality of one ground point; zero outside the footprint."""
    return float(sensing_field(state, params, np.atleast_2d(np.asarray(q, dtype=float)))[0][0])


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
        centers = [np.array([s.x, s.y]) for s in states]
        radii = [r * s.z / s.lam for s in states]
        area = 0.5 * abs(cross2(centers[1] - centers[0], centers[2] - centers[0]))
        if area < area_margin:
            continue
        if require_overlap:
            ok = True
            for a in range(3):
                for b in range(a + 1, 3):
                    gap = np.linalg.norm(centers[a] - centers[b]) - (
                        radii[a] + radii[b]
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
            _, ratios = point_in_triangle(*triangle(trio), trio.radical_center)
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


def fuzz_scenarios(runs: int):
    """The first `runs` scenarios of the seeded forward-invariance fuzz, as (index, Scenario).

    One `default_rng(7)` stream: per run n ~ integers(3, 8) agents, each
    drawing x, y ~ U(0.6, 2.4), z ~ U(0.4, 0.8) and λ ~ U(0.8, 1.2) in that
    order; even runs then draw fixed nominals N(0, 0.5)·(1, 1, 0.2, 0.01)
    per agent, odd runs use coverage control.  Every run shares a 3 m square
    mission with one Gaussian at its centre, r = 1, κ = 4, σ = 1, M = 0.7,
    w = 0.2, dt = 0.01, α(h) = 20h³, w_λ = 1e6, a 0.05 m grid, the hole
    oracle every step and 150 steps.
    """
    rng = np.random.default_rng(7)
    density = DensityField(components=((1.0, (1.5, 1.5), 0.8),), mission=(0.0, 0.0, 3.0, 3.0))
    sensing = SensingParams(r=1.0, kappa=4.0, sigma=1.0, M=0.7, w=0.2)
    for index in range(runs):
        n = int(rng.integers(3, 8))
        agents = tuple(
            AgentState(*(float(rng.uniform(lo, hi)) for lo, hi in ((0.6, 2.4), (0.6, 2.4), (0.4, 0.8), (0.8, 1.2))))
            for _ in range(n)
        )
        nominal = None
        if index % 2 == 0:
            scale = np.array([1.0, 1.0, 0.2, 0.01])
            nominal = tuple(tuple((rng.normal(0.0, 0.5, 4) * scale).tolist()) for _ in range(n))
        yield index, Scenario(
            agents=agents, sensing=sensing, density=density, dt=0.01, steps=150,
            alpha=ClassK(gain=20.0, power=3), w_lambda=1e6, grid_resolution=0.05,
            hole_check_every=1, fixed_nominal=nominal,
        )


class DensePartition:
    """Dense (n, N) views of a Partition, rebuilt from its windows.

    f[i, q] is agent i's quality field (zero off its window); covered its
    closed-disk membership; strict its open-disk membership (where gradients
    are evaluated), d² < R² from the window's terms.
    """

    def __init__(self, part, grid):
        self.owner = part.owner
        self.f, self.covered, self.strict = (
            self._dense(part, grid, read, fill)
            for read, fill in (
                (lambda w: w.f, 0.0),
                (lambda w: w.covered, False),
                (lambda w: w.terms[2] < w.terms[5] ** 2, False),  # d² < R²
            )
        )

    @staticmethod
    def _dense(part, grid, read, fill):
        out = np.full((len(part.windows), len(part.owner)), fill)
        for row, window in zip(out, part.windows):
            grid.cells(row)[window.cells] = read(window)
        return out

    def losers(self, i: int) -> np.ndarray:
        """Points agent i covers but does not own (its overlap set)."""
        return self.covered[i] & (self.owner != i)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
