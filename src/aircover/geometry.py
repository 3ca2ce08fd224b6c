"""Power-diagram geometry for downward-camera agent teams.

Each agent carries a camera whose ground footprint is a disk (its field of
view).  The module provides the power distance to such disks, radical axes and
radical centers, the communication graph whose triangles drive the barrier
functions, the per-triangle working frame used by the analytic gradients, and
two independent detectors for coverage holes; the grid one labels uncovered
cells by runs (`enclosed_cells`), so the module needs only numpy.

The per-trio kernels work on plain floats: on 2-vectors numpy's per-call
overhead costs more than the arithmetic.  A radical center solves the two
radical-axis equations by Cramer's rule on the lifted heights |c|² − R² (the
lifting view of power diagrams); the working frame stores its origin and
x-axis, and both pick a trio's roles by position (`ROLE_POSITIONS`); a
trio keeps its triangle as float pairs.  `build_graph` runs the same solve on
arrays over every candidate trio and tests the candidates against all
footprints in fixed row blocks.
"""

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class AgentState:
    """One agent's state: planar position, altitude, focal length (all meters)."""

    x: float
    y: float
    z: float
    lam: float

    def __post_init__(self):
        # Normalize numpy scalars (e.g. from integrator arithmetic) to plain floats so
        # downstream repr-based serialization stays clean; plain floats pass one test.
        if not (type(self.x) is type(self.y) is type(self.z) is type(self.lam) is float):
            for name in ("x", "y", "z", "lam"):
                object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class Fov:
    """Ground-plane footprint disk of one agent's camera."""

    cx: float
    cy: float
    radius: float

    @property
    def center(self):
        return np.array([self.cx, self.cy])


def fov_of(state: AgentState, r: float) -> Fov:
    """Footprint of an agent: disk centered under it with radius r·z/λ."""
    return Fov(state.x, state.y, r * state.z / state.lam)


@dataclass(frozen=True)
class Line2:
    """Line in the plane through `point` along unit `direction`."""

    point: np.ndarray
    direction: np.ndarray


class SigmaDFrame:
    """Per-triangle working frame: x-axis along segment JK, y-axis along the JK radical axis.

    (ox, oy) is the origin and (ax, ay) the unit x-axis; the y-axis is
    (−ay, ax).  `rotation` maps world xy-vectors into frame coordinates, so
    frame coordinates of a point q are rotation @ (q − origin).
    """

    __slots__ = ("ox", "oy", "ax", "ay")

    def __init__(self, ox: float, oy: float, ax: float, ay: float):
        self.ox, self.oy, self.ax, self.ay = ox, oy, ax, ay

    @property
    def origin(self):
        return np.array([self.ox, self.oy])

    @property
    def rotation(self):
        return np.array([[self.ax, self.ay], [-self.ay, self.ax]])

    def to_frame(self, q):
        return self.rotation @ (np.asarray(q, dtype=float) - self.origin)


@dataclass(slots=True)
class TrioContext:
    """One triangle {i, j, k} of the communication graph.

    `triangle` holds the three FOV centers in id order as (x, y) float
    pairs; `radical_center` is the common equal-power point of the three
    footprint disks.
    """

    ids: tuple
    states: tuple
    fovs: tuple
    radical_center: np.ndarray
    triangle: tuple
    r: float


@dataclass
class CommGraph:
    """Communication graph: the trios of power-diagram vertices with pairwise-overlapping footprints."""

    n: int
    trios: dict

    def trios_of(self, agent_id: int):
        return self.trios.get(agent_id, [])

    def all_trios(self):
        """All distinct trios, sorted by id triple."""
        seen = {t.ids: t for lst in self.trios.values() for t in lst}
        return [seen[k] for k in sorted(seen)]

    def trio_keys(self):
        return {t.ids for lst in self.trios.values() for t in lst}


def power_distance(fov: Fov, q) -> float:
    """Squared distance from q to the disk center minus squared radius.

    Negative inside the disk, zero on its boundary, positive outside.
    """
    return float((q[0] - fov.cx) ** 2 + (q[1] - fov.cy) ** 2 - fov.radius**2)


def radical_axis(fa: Fov, fb: Fov) -> Line2:
    """Locus of equal power distance to two disks; perpendicular to their center line."""
    ca, cb = fa.center, fb.center
    d = cb - ca
    nd2 = float(d @ d)
    if nd2 < CONCENTRIC_TOL**2:
        raise DegenerateTrio("concentric footprints admit no radical axis")
    # Points q with 2 q·d = (‖cb‖² − Rb²) − (‖ca‖² − Ra²).
    c = 0.5 * ((cb @ cb - fb.radius**2) - (ca @ ca - fa.radius**2))
    point = d * (c / nd2)
    direction = np.array([-d[1], d[0]]) / np.sqrt(nd2)
    return Line2(point, direction)


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


def radical_center(fa: Fov, fb: Fov, fc: Fov) -> np.ndarray:
    """Common equal-power point of three disks (their pairwise radical axes meet there)."""
    ax, ay, bx, by, cx, cy = fa.cx, fa.cy, fb.cx, fb.cy, fc.cx, fc.cy
    tol2 = CONCENTRIC_TOL * CONCENTRIC_TOL
    for dx, dy in ((bx - ax, by - ay), (cx - ax, cy - ay), (cx - bx, cy - by)):
        if dx * dx + dy * dy < tol2:
            raise DegenerateTrio("concentric footprint pair")
    if abs(0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))) < AREA_TOL:
        raise DegenerateTrio("collinear footprint centers")
    pa, pb, pc = _lift(ax, ay, fa.radius), _lift(bx, by, fb.radius), _lift(cx, cy, fc.radius)
    return np.array(_cramer_center(ax, ay, pa, bx, by, pb, cx, cy, pc))


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


def make_trio(ids, states, r: float, center=None, fovs=None) -> TrioContext:
    """Build a TrioContext for three agents; raises DegenerateTrio on bad geometry.

    center is the trio's radical center and fovs the agents' footprints, in
    the order of ids, when the caller already has them.
    """
    a, b, c = sorted(range(3), key=ids.__getitem__)
    ids = (int(ids[a]), int(ids[b]), int(ids[c]))
    states = (states[a], states[b], states[c])
    fovs = tuple(fov_of(s, r) for s in states) if fovs is None else (fovs[a], fovs[b], fovs[c])
    v = radical_center(*fovs) if center is None else np.array(center, dtype=float)
    triangle = tuple((f.cx, f.cy) for f in fovs)
    return TrioContext(ids, states, fovs, v, triangle, r)


def sigma_d_frame(trio: TrioContext, distinguished: int) -> SigmaDFrame:
    """Working frame for one viewpoint: x-axis on segment JK (K side positive), y-axis on the JK radical axis.

    J, K are the two non-distinguished agents in id order.  The frame is
    right-handed and its origin is the intersection of line JK with the JK
    radical axis, so the frame x-coordinates of J and K satisfy
    x_J² − R_J² = x_K² − R_K².
    """
    _, pj, pk = ROLE_POSITIONS[trio.ids.index(distinguished)]
    fj, fk = trio.fovs[pj], trio.fovs[pk]
    dx, dy = fk.cx - fj.cx, fk.cy - fj.cy
    nd = math.sqrt(dx * dx + dy * dy)
    if nd < CONCENTRIC_TOL:
        raise DegenerateTrio("coincident J/K centers")
    # Origin: intersection of the radical axis with line JK.  Points q of the
    # axis satisfy q·d = c; substituting the line q = cj + s·d/‖d‖ gives s.
    c = 0.5 * (_lift(fk.cx, fk.cy, fk.radius) - _lift(fj.cx, fj.cy, fj.radius))
    s = (c - (fj.cx * dx + fj.cy * dy)) / nd
    ox = fj.cx + s * dx / nd
    oy = fj.cy + s * dy / nd
    ax, ay = dx / nd, dy / nd
    if ax * (fk.cx - ox) + ay * (fk.cy - oy) < 0.0:
        # Origin beyond K: flip so K keeps a positive frame x-coordinate.
        ax, ay = -ax, -ay
    return SigmaDFrame(ox, oy, ax, ay)


def hole_exists_exact(trio: TrioContext) -> bool:
    """True exactly when the radical center is strictly inside the triangle and outside every footprint.

    Membership in one footprint decides all three (equal power distance), and
    a boundary contact counts as covered (closed convention).
    """
    I, J, K = trio.triangle
    inside, _ = point_in_triangle(I, J, K, trio.radical_center)
    if not inside:
        return False
    return power_distance(trio.fovs[0], trio.radical_center) > 0.0


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
    for s in states:
        f = fov_of(s, r)
        cells = grid.window(f.cx, f.cy, f.radius)
        covered[cells] |= (XX[cells] - f.cx) ** 2 + (YY[cells] - f.cy) ** 2 <= f.radius**2
    candidate = enclosed_cells(~covered)
    if not candidate.any():
        return np.empty((0, 2))
    cx, cy = XX[candidate], YY[candidate]
    inside_any = np.zeros(cx.shape, dtype=bool)
    for trio in graph.all_trios():
        try:
            inside_any |= point_in_triangle(*trio.triangle, (cx, cy))[0]
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
    n = len(states)
    fovs = [fov_of(s, r) for s in states]
    centers = np.array([(f.cx, f.cy) for f in fovs], dtype=float).reshape(n, 2)
    cx, cy = centers.T
    radii = np.array([f.radius for f in fovs], dtype=float)
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

    # Triple -> radical center, or None where make_trio must solve it.
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

    trios = {i: [] for i in range(n)}
    for triple in sorted(trio_triples):
        a, b, c = triple
        try:
            ctx = make_trio(triple, [states[a], states[b], states[c]], r, trio_triples[triple],
                            [fovs[a], fovs[b], fovs[c]])
        except DegenerateTrio:
            continue
        for agent in triple:
            trios[agent].append(ctx)
    return CommGraph(n=n, trios=trios)
