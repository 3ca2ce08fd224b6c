"""Power-diagram geometry for downward-camera agent teams.

The team's state is one (n, 4) float64 array with columns x, y, z, λ; a
camera's ground footprint is the disk centered under it with radius
R = r·z/λ, computed over a column.  The module provides the power distance
to such disks, radical centers, the communication graph whose triangles
drive the barrier functions, the per-triangle working frame used by the
analytic gradients, and one detector for coverage holes: a grid oracle that
labels uncovered cells by runs (`enclosed_cells`), so the module needs only
numpy.

The per-trio kernels work on plain floats: on 2-vectors numpy's per-call
overhead costs more than the arithmetic.  A disk is the triple (cx, cy, R);
a trio holds its agents' rows (x, y, z, λ, R), read from the state array as
Python floats.  A radical center (a float pair) solves the two radical-axis
equations by Cramer's rule on the lifted heights |c|² − R² (the lifting view
of power diagrams); the working frame is the 4-tuple (ox, oy, ax, ay) of its
origin and x-axis, and both pick a trio's roles by position (`ROLE_POSITIONS`);
a trio's triangle is the centers of its footprints.  `build_graph` runs the
same solve on arrays over every candidate trio, tests the candidates against
all footprints in fixed row blocks and keeps each trio once.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Geometric degeneracy tolerances (meters² for areas, meters for distances).
AREA_TOL = 1e-9
CONCENTRIC_TOL = 1e-9
# Closed-comparison slack for power-cell adjacency tests.
ADJACENCY_TOL = 1e-9
# Positions in a trio of the roles (I, J, K) = (viewpoint, lower other, higher other).
ROLE_POSITIONS = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
# Candidate trios per block of `build_graph`'s vertex test (bounds its memory).
GRAPH_BLOCK = 128


class DegenerateTrio(Exception):
    """Raised when three FOVs admit no usable radical center or triangle (collinear centers, a concentric pair, or an area below tolerance)."""


class AgentState(NamedTuple("AgentState", [("x", float), ("y", float), ("z", float), ("lam", float)])):
    """One agent's scenario row: planar position, altitude, focal length (all meters).

    A sequence of them is a state array's input: `np.array(agents)` is (n, 4).
    """

    __slots__ = ()

    def __new__(cls, x, y, z, lam):
        # Plain floats, so that serialization writes repr(float) and never np.float64(...).
        return super().__new__(cls, float(x), float(y), float(z), float(lam))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make (and so _replace) bypasses __new__; route it through.
        return cls(*iterable)


@dataclass(slots=True)
class TrioContext:
    """One triangle {i, j, k} of the communication graph.

    `rows` holds the three agents' (x, y, z, λ, R) in id order: the state row
    and the footprint radius, so the footprint centers (x, y) are the
    triangle's vertices.  `radical_center` is the common equal-power point of
    the three footprint disks as a float pair, and r the sensing constant in
    R = r·z/λ, which the gradients' ∂R²/∂z and ∂R²/∂λ need.
    """

    ids: tuple
    rows: tuple
    radical_center: tuple
    r: float


@dataclass
class CommGraph:
    """Communication graph: each trio of a power-diagram vertex with pairwise-overlapping footprints once, sorted by id triple."""

    n: int
    trios: tuple

    def __post_init__(self):
        self._by_agent = [[] for _ in range(self.n)]  # each agent's trios, in the same order
        for trio in self.trios:
            for agent in trio.ids:
                self._by_agent[agent].append(trio)

    def trios_of(self, agent_id: int):
        return self._by_agent[agent_id]

    def all_trios(self):
        return list(self.trios)

    def trio_keys(self):
        return {t.ids for t in self.trios}


def power_distance(disk, q) -> float:
    """Squared distance from q to the center of the disk (cx, cy, R) minus R².

    Negative inside the disk, zero on its boundary, positive outside.
    """
    cx, cy, radius = disk
    return float((q[0] - cx) ** 2 + (q[1] - cy) ** 2 - radius**2)


def _lift(cx, cy, radius):
    """Lifted height |c|² − R² of a footprint: its power distance at the origin."""
    return cx * cx + cy * cy - radius * radius


def _cramer_center(ax, ay, pa, bx, by, pb, cx, cy, pc):
    """Solve 2q·(b − a) = p_b − p_a, 2q·(c − b) = p_c − p_b by Cramer's rule; floats or arrays."""
    a00, a01 = 2.0 * (bx - ax), 2.0 * (by - ay)
    a10, a11 = 2.0 * (cx - bx), 2.0 * (cy - by)
    r0, r1 = pb - pa, pc - pb
    det = a00 * a11 - a01 * a10
    return (r0 * a11 - a01 * r1) / det, (a00 * r1 - r0 * a10) / det


def radical_center(da, db, dc) -> tuple:
    """Common equal-power point (x, y) of three disks (cx, cy, R) (their pairwise radical axes meet there)."""
    (ax, ay, ra), (bx, by, rb), (cx, cy, rc) = da, db, dc
    tol2 = CONCENTRIC_TOL * CONCENTRIC_TOL
    for dx, dy in ((bx - ax, by - ay), (cx - ax, cy - ay), (cx - bx, cy - by)):
        if dx * dx + dy * dy < tol2:
            raise DegenerateTrio("concentric footprint pair")
    if abs(0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))) < AREA_TOL:
        raise DegenerateTrio("collinear footprint centers")
    pa, pb, pc = _lift(ax, ay, ra), _lift(bx, by, rb), _lift(cx, cy, rc)
    return _cramer_center(ax, ay, pa, bx, by, pb, cx, cy, pc)


def point_in_triangle(I, J, K, v):
    """Signed-area ratios of v against triangle IJK and the strict-interior test.

    Returns (inside, (ratio_IJK, ratio_JKI, ratio_KIJ)): each ratio is the
    signed area of the sub-triangle over the full signed area; they sum to 1
    and are all strictly positive exactly when v is strictly inside.  v may
    be a pair of coordinate arrays; inside and the ratios are then arrays.
    """
    (ix, iy), (jx, jy), (kx, ky), (vx, vy) = I, J, K, v
    denom = (jx - ix) * (ky - iy) - (jy - iy) * (kx - ix)
    if abs(denom) < 2.0 * AREA_TOL:
        raise DegenerateTrio("triangle area below tolerance")
    r_ijk = ((jx - ix) * (vy - iy) - (jy - iy) * (vx - ix)) / denom
    r_jki = ((kx - jx) * (vy - jy) - (ky - jy) * (vx - jx)) / denom
    r_kij = ((ix - kx) * (vy - ky) - (iy - ky) * (vx - kx)) / denom
    inside = (r_ijk > 0.0) & (r_jki > 0.0) & (r_kij > 0.0)
    return inside, (r_ijk, r_jki, r_kij)


def footprint_rows(states, r: float) -> list:
    """Each agent's (x, y, z, λ, R) as floats: its row of an (n, 4) state array and its footprint radius r·z/λ."""
    states = np.asarray(states, dtype=float)
    return list(zip(*states.T.tolist(), (r * states[:, 2] / states[:, 3]).tolist()))


def make_trio(ids, states, r: float) -> TrioContext:
    """The TrioContext of rows ids of an (n, 4) state array; raises DegenerateTrio on bad geometry."""
    ids = sorted(map(int, ids))
    return _trio(ids, footprint_rows(np.asarray(states, dtype=float)[ids], r), r, None)


def _trio(ids, rows, r, center):
    """A TrioContext from its agents' rows in id order; solves the radical center when center is None."""
    if center is None:
        center = radical_center(*((x, y, R) for x, y, _, _, R in rows))
    return TrioContext(tuple(ids), tuple(rows), center, r)


def sigma_d_frame(trio: TrioContext, distinguished: int) -> tuple:
    """Working frame for one viewpoint: x-axis on segment JK (K side positive), y-axis on the JK radical axis.

    Returns (ox, oy, ax, ay): the origin and the unit x-axis; the y-axis is
    (−ay, ax).  J, K are the two non-distinguished agents in id order.  The
    frame is right-handed and its origin is the intersection of line JK with
    the JK radical axis, so the frame x-coordinates of J and K satisfy
    x_J² − R_J² = x_K² − R_K².
    """
    _, pj, pk = ROLE_POSITIONS[trio.ids.index(distinguished)]
    jx, jy, _, _, rj = trio.rows[pj]
    kx, ky, _, _, rk = trio.rows[pk]
    dx, dy = kx - jx, ky - jy
    nd2 = dx * dx + dy * dy
    nd = math.sqrt(nd2)
    if nd < CONCENTRIC_TOL:
        raise DegenerateTrio("coincident J/K centers")
    # Origin: the radical axis meets line JK at s from J, s² − R_J² = (‖d‖ − s)² − R_K²,
    # with no lifted heights |c|² − R² to cancel however far the trio lies.
    dr2 = rj**2 - rk**2
    s = (nd2 + dr2) / (2.0 * nd)
    ax, ay = dx / nd, dy / nd
    ox, oy = jx + s * ax, jy + s * ay
    if dr2 > nd2:
        # Origin beyond K (s > ‖d‖, so R_J² − R_K² > ‖d‖²): flip so K keeps a
        # positive frame x-coordinate; decided from the radii, not from the rounded s.
        ax, ay = -ax, -ay
    return ox, oy, ax, ay


def enclosed_cells(mask):
    """The True cells of a 2-D boolean grid whose 4-connected component touches no grid edge.

    Run-length labelling (Rosenfeld & Pfaltz 1966; He, Chao & Suzuki 2008):
    a run, a row's maximal stretch of True cells, is held as the flat indices,
    in the (rows, columns + 1) grid, of its first cell and of the cell after
    its last.  Runs overlapping in consecutive rows are linked; each link hooks
    the larger root onto the smaller until pointer jumping leaves every tree a
    star.  Components with no run on the grid edge are painted back by a
    cumulative sum of ±1 marks.
    """
    h, w = mask.shape
    k = w + 1
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = mask
    bounds = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    start, end = bounds[0::2], bounds[1::2]
    edge = (start < k) | (end >= (h - 1) * k) | (start % k == 0) | (end % k == w)
    marks = np.zeros(h * k, dtype=np.int8)
    if not edge.all():
        # Run i meets count[i] runs of the next row from lo[i], the first to end past its start.
        lo = np.searchsorted(end, start + k, side="right")
        count = np.searchsorted(start, end + k) - lo
        a = np.repeat(np.arange(len(start)), count)
        b = np.arange(len(a)) + np.repeat(lo - np.cumsum(count) + count, count)
        root = np.arange(len(start))
        while not np.array_equal(ra := root[a], rb := root[b]):
            np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
            while not np.array_equal(jumped := root[root], root):
                root = jumped
        inner = np.bincount(root[edge], minlength=len(start))[root] == 0
        if inner.any():
            marks[start[inner]] = 1
            marks[end[inner]] = -1
            np.cumsum(marks, dtype=np.int8, out=marks)
    return marks.reshape(h, k)[:, :w].view(bool)


def detect_holes_grid(states, r: float, grid, graph):
    """Independent grid oracle for holes.

    Samples the mission rectangle at the cell centres of grid (a
    CoverageGrid), painting each footprint on its window of cells; a witness
    is an uncovered cell lying strictly inside some trio triangle of graph,
    the communication graph of these states, whose uncovered connected
    component (4-connectivity) does not touch the mission boundary.  Those
    components come from `enclosed_cells`, a run-length labelling of the
    uncovered mask.  Returns the witness points as an (m, 2) array.
    """
    XX, YY = grid.cells(grid.points[:, 0]), grid.cells(grid.points[:, 1])
    covered = np.zeros(grid.shape, dtype=bool)
    for x, y, _, _, R in footprint_rows(states, r):
        cells = grid.window(x, y, R)
        covered[cells] |= (XX[cells] - x) ** 2 + (YY[cells] - y) ** 2 <= R**2
    candidate = enclosed_cells(~covered)
    if not candidate.any():
        return np.empty((0, 2))
    cx, cy = XX[candidate], YY[candidate]
    inside_any = np.zeros(cx.shape, dtype=bool)
    for trio in graph.all_trios():
        try:
            inside_any |= point_in_triangle(*(row[:2] for row in trio.rows), (cx, cy))[0]
        except DegenerateTrio:
            pass  # no interior
    return np.column_stack([cx[inside_any], cy[inside_any]])


def build_graph(states, r: float) -> CommGraph:
    """Communication graph: power-diagram vertices whose three footprints overlap pairwise.

    Trios are triples whose radical center is a power-diagram vertex — no
    other footprint has a smaller power distance there, within
    ADJACENCY_TOL — and whose footprints intersect pairwise (closed
    comparison, so tangency counts).  A degenerate vertex shared by four or
    more footprints is split into triangles by an index-ordered fan from its
    lowest-index member.

    Only the 3-cliques of the footprint-overlap graph are tried as
    candidates.  This is exact: a triple with a non-overlapping pair never
    survives the overlap filter, each candidate's vertex test still sees all
    n footprints, and a live vertex is a point where the three power cells
    meet, so they are pairwise adjacent.  Cost: O(n²) center distances plus
    O(t·n) vertex tests over the t overlap 3-cliques, instead of O(n⁴).  The
    t candidate centers are solved together and tested against all
    footprints GRAPH_BLOCK rows at a time, so no Python loop runs per
    candidate and the excess matrix stays small at large n.
    """
    states = np.asarray(states, dtype=float).reshape(-1, 4)
    n = len(states)
    centers = states[:, :2]
    cx, cy = centers.T
    radii = r * states[:, 2] / states[:, 3]
    radii2 = radii * radii
    # Pairwise inner products through matmul round like np.linalg.norm's dot,
    # so tangent pairs are decided as a per-pair norm would decide them.
    diff = (centers[:, None, :] - centers[None, :, :])[..., None, :]
    dist = np.sqrt(diff @ diff.swapaxes(-1, -2))[..., 0, 0]
    overlap = np.triu(dist <= radii[:, None] + radii[None, :], 1)

    # Every overlap 3-clique i < j < k, in lexicographic order.
    pi, pj = np.nonzero(overlap)
    pair, K = np.nonzero(overlap[pi] & overlap[pj])
    I, J = pi[pair], pj[pair]
    # Drop what radical_center rejects (a concentric pair, collinear centers)
    # before solving, so no determinant near zero is divided by.
    area = 0.5 * ((cx[J] - cx[I]) * (cy[K] - cy[I]) - (cy[J] - cy[I]) * (cx[K] - cx[I]))
    concentric = np.minimum(np.minimum(dist[I, J], dist[I, K]), dist[J, K]) < CONCENTRIC_TOL
    ok = ~(concentric | (np.abs(area) < AREA_TOL))
    I, J, K = I[ok], J[ok], K[ok]
    lift = _lift(cx, cy, radii)
    vx, vy = _cramer_center(cx[I], cy[I], lift[I], cx[J], cy[J], lift[J], cx[K], cy[K], lift[K])

    # Power distance of every footprint at each candidate vertex minus
    # footprint i's, o·(o − 2w) − (R² − Rᵢ²) with o = c − cᵢ and w = v − cᵢ:
    # exact for a footprint concentric with i, however far away v lies.
    # Candidates go through in blocks of GRAPH_BLOCK rows; each row's test is
    # elementwise, so the blocking does not change any decision.
    simple = np.zeros(len(I), dtype=bool)
    shared = []  # members of each live vertex shared by four or more footprints, in row order
    for lo in range(0, len(I), GRAPH_BLOCK):
        block = slice(lo, lo + GRAPH_BLOCK)
        Ib = I[block]
        ox = cx - cx[Ib, None]
        oy = cy - cy[Ib, None]
        excess = (
            ox * (ox - 2.0 * (vx[block] - cx[Ib])[:, None])
            + oy * (oy - 2.0 * (vy[block] - cy[Ib])[:, None])
            - (radii2 - radii2[Ib, None])
        )
        # j and k tie with i at v by construction; keep rounding out.
        rows = np.arange(len(Ib))
        excess[rows, J[block]] = excess[rows, K[block]] = 0.0
        live = ~np.any(excess < -ADJACENCY_TOL, axis=1)
        cofactor = excess <= ADJACENCY_TOL
        size = cofactor.sum(axis=1)
        simple[block] = live & (size == 3)
        shared += [tuple(np.flatnonzero(cofactor[row]).tolist())
                   for row in np.flatnonzero(live & (size > 3)).tolist()]

    # Triple -> radical center, or None where _trio must solve it.
    trio_triples = dict(zip(
        zip(I[simple].tolist(), J[simple].tolist(), K[simple].tolist()),
        zip(vx[simple].tolist(), vy[simple].tolist()),
    ))
    handled_degenerate = set()
    for members in shared:
        if members in handled_degenerate:
            continue
        # Split the degenerate vertex once, deterministically.
        handled_degenerate.add(members)
        apex = members[0]
        for a, b in zip(members[1:], members[2:]):
            if overlap[apex, a] and overlap[apex, b] and overlap[a, b]:
                trio_triples.setdefault((apex, a, b), None)

    rows = footprint_rows(states, r)
    trios = []
    for triple in sorted(trio_triples):
        try:
            trios.append(_trio(triple, [rows[a] for a in triple], r, trio_triples[triple]))
        except DegenerateTrio:
            continue
    return CommGraph(n=n, trios=tuple(trios))
