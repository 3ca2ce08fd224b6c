"""Power-diagram geometry for downward-camera agent teams.

The team's state is one (n, 4) float64 array with columns x, y, z, λ; a
camera's ground footprint is the disk centered under it with radius
R = r·z/λ, computed over a column.  The module provides the power distance
to such disks, the communication graph whose triangles drive the barrier
functions, the per-triangle working frame used by the analytic gradients,
and one detector for coverage holes: a grid oracle that reads the covered
cells from the coverage partition and labels the uncovered ones by runs
(`enclosed_cells`), so the module needs only numpy.

The per-trio kernels work on plain floats: on 2-vectors numpy's per-call
overhead costs more than the arithmetic.  A disk is the triple (cx, cy, R);
a trio holds its agents' rows (x, y, z, λ, R), read from the state array as
Python floats, and its radical center (a float pair); the working frame is
the 4-tuple (ox, oy, ax, ay) of its origin and x-axis, and picks a trio's
roles by position (`ROLE_POSITIONS`); a trio's triangle is the centers of
its footprints.  `build_graph` solves every candidate's radical center on
arrays (`_radical_solve`: two radical-axis equations by Cramer's rule, both
written from a member of the closest pair so that no lifted heights
|c|² − R² cancel), tests the candidates against all footprints in fixed row
blocks and keeps each vertex's fan triangles.
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
        return frozenset(t.ids for t in self.trios)


def power_distance(disk, q) -> float:
    """Squared distance from q to the center of the disk (cx, cy, R) minus R².

    Negative inside the disk, zero on its boundary, positive outside.
    """
    cx, cy, radius = disk
    return float((q[0] - cx) ** 2 + (q[1] - cy) ** 2 - radius**2)


def _radical_solve(bx, by, rb, ux, uy, ru, vx, vy, rv):
    """Radical center of disks at b, b + u and b + v with radii rb, ru, rv; floats or arrays.

    Solves 2(q − b)·u = |u|² − (R_u − R_b)(R_u + R_b) and its twin in v by
    Cramer's rule.  With b on the trio's closest pair, that pair's own axis
    enters with no lifted heights |c|² − R² to cancel, however close it is.
    """
    pu = ux * ux + uy * uy - (ru - rb) * (ru + rb)
    pv = vx * vx + vy * vy - (rv - rb) * (rv + rb)
    det = 2.0 * (ux * vy - uy * vx)
    return bx + (pu * vy - uy * pv) / det, by + (ux * pv - pu * vx) / det


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


def detect_holes_grid(part, grid, graph):
    """Grid oracle for holes, read from the step's partition.

    A cell of grid (a CoverageGrid) is uncovered where part, its Partition,
    gives no owner: the oracle evaluates no footprint.  A witness is an
    uncovered cell centre strictly inside some trio triangle of graph, the
    same states' communication graph, whose uncovered 4-connected component
    does not touch the mission boundary (`enclosed_cells`, a run-length
    labelling).  Returns the witness points as an (m, 2) array.
    """
    ix, iy = np.nonzero(enclosed_cells(grid.cells(part.owner) < 0))  # in ravel order
    points = np.column_stack((grid.axes[0][ix, 0], grid.axes[1][0, iy]))
    if not len(points):
        return np.empty((0, 2))
    inside_any = np.zeros(len(points), dtype=bool)
    for trio in graph.all_trios():
        try:
            inside_any |= point_in_triangle(*(row[:2] for row in trio.rows), points.T)[0]
        except DegenerateTrio:
            pass  # no interior
    return points[inside_any]


def build_graph(states, r: float) -> CommGraph:
    """Communication graph: power-diagram vertices whose three footprints overlap pairwise.

    Trios are triples whose radical center is a power-diagram vertex — no
    other footprint has a smaller power distance there, within
    ADJACENCY_TOL — and whose footprints intersect pairwise (closed
    comparison, so tangency counts).  The footprints that tie there within
    ADJACENCY_TOL are the vertex's cofactors, and a triple is kept when it is
    their index-ordered fan triangle: i the lowest cofactor, j and k
    consecutive ones.  A three-way vertex is its own fan; one shared by four
    or more footprints splits into the fan from its lowest member.

    Only the 3-cliques of the footprint-overlap graph are tried as
    candidates.  This is exact: a triple with a non-overlapping pair never
    survives the overlap filter, each candidate's vertex test still sees all
    n footprints, and a live vertex is a point where the three power cells
    meet, so they are pairwise adjacent.  A fan triangle whose footprints
    overlap pairwise is itself a candidate at the same vertex, solved and
    tested there like any other, and a collinear or concentric one is
    dropped before the solve; so one mask decides both kinds of vertex, and
    the kept candidates are already in id order.  Cost: O(n²) center
    distances plus O(t·n) vertex tests over the t overlap 3-cliques, instead
    of O(n⁴).  The t candidate centers are solved together and tested against
    all footprints GRAPH_BLOCK rows at a time, so no Python loop runs per
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
    overlap = dist <= radii[:, None] + radii[None, :]
    overlap &= np.arange(n)[:, None] < np.arange(n)  # strict upper triangle: i < j

    # Every overlap 3-clique i < j < k, in lexicographic order.
    pi, pj = np.nonzero(overlap)
    pair, K = np.nonzero(overlap[pi] & overlap[pj])
    I, J = pi[pair], pj[pair]
    # Drop a concentric pair or collinear centers before solving, so no
    # determinant near zero is divided by.
    area = 0.5 * ((cx[J] - cx[I]) * (cy[K] - cy[I]) - (cy[J] - cy[I]) * (cx[K] - cx[I]))
    d_ik, near = dist[I, K], np.minimum(dist[I, J], dist[J, K])
    ok = ~((np.minimum(near, d_ik) < CONCENTRIC_TOL) | (np.abs(area) < AREA_TOL))
    # Solve from a member of the closest pair: I when that pair is (I, K), else J.
    at_i = (d_ik < near)[ok]
    I, J, K = I[ok], J[ok], K[ok]
    B, P = np.where(at_i, I, J), np.where(at_i, J, I)
    bx, by = cx[B], cy[B]
    vx, vy = _radical_solve(
        bx, by, radii[B], cx[P] - bx, cy[P] - by, radii[P], cx[K] - bx, cy[K] - by, radii[K])

    # Power distance of every footprint at each candidate vertex minus
    # footprint i's, o·(o − 2w) − (R² − Rᵢ²) with o = c − cᵢ and w = v − cᵢ:
    # exact for a footprint concentric with i, however far away v lies.
    # Candidates go through in blocks of GRAPH_BLOCK rows; each row's test is
    # elementwise, so the blocking does not change any decision.
    keep = np.zeros(len(I), dtype=bool)
    for lo in range(0, len(I), GRAPH_BLOCK):
        block = slice(lo, lo + GRAPH_BLOCK)
        Ib, Jb, Kb = I[block], J[block], K[block]
        ox = cx - cx[Ib, None]
        oy = cy - cy[Ib, None]
        excess = (
            ox * (ox - 2.0 * (vx[block] - cx[Ib])[:, None])
            + oy * (oy - 2.0 * (vy[block] - cy[Ib])[:, None])
            - (radii2 - radii2[Ib, None])
        )
        # j and k tie with i at v by construction; keep rounding out.
        at = np.arange(len(Ib))
        excess[at, Jb] = excess[at, Kb] = 0.0
        live = ~np.any(excess < -ADJACENCY_TOL, axis=1)
        # rank[., l] counts the vertex's cofactors with index up to l: i is the
        # lowest where it is 1, and j, k are consecutive where theirs differ by 1.
        rank = np.cumsum(excess <= ADJACENCY_TOL, axis=1)
        keep[block] = live & (rank[at, Ib] == 1) & (rank[at, Kb] - rank[at, Jb] == 1)

    rows = list(zip(*states.T.tolist(), radii.tolist()))
    return CommGraph(n=n, trios=tuple(
        TrioContext((i, j, k), (rows[i], rows[j], rows[k]), center, r)
        for i, j, k, center in zip(
            I[keep].tolist(), J[keep].tolist(), K[keep].tolist(),
            zip(vx[keep].tolist(), vy[keep].tolist()))
    ))
