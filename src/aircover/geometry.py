"""Power-diagram geometry for downward-camera agent teams.

Each agent carries a camera whose ground footprint is a disk (its field of
view).  The module provides the power distance to such disks, radical axes and
radical centers, the communication graph whose triangles drive the barrier
functions, the per-triangle working frame used by the analytic gradients, and
two independent detectors for coverage holes.

The per-trio kernels work on plain floats: on 2-vectors numpy's per-call
overhead costs more than the arithmetic.  A radical center solves the two
radical-axis equations by Cramer's rule on the lifted heights |c|² − R² (the
lifting view of power diagrams); the working frame stores its origin and
x-axis.  `build_graph` runs the same solve on arrays over every candidate
trio and tests all candidates against all footprints in one excess matrix.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

# Geometric degeneracy tolerances (meters² for areas, meters for distances).
AREA_TOL = 1e-9
CONCENTRIC_TOL = 1e-9
# Closed-comparison slack for power-cell adjacency tests.
ADJACENCY_TOL = 1e-9


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
        # Normalize numpy scalars (e.g. from integrator arithmetic) to plain
        # floats so downstream repr-based serialization stays clean.
        for name in ("x", "y", "z", "lam"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def as_array(self):
        return np.array([self.x, self.y, self.z, self.lam])


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


@dataclass(frozen=True)
class SigmaDFrame:
    """Per-triangle working frame: x-axis along segment JK, y-axis along the JK radical axis.

    (ox, oy) is the origin and (ax, ay) the unit x-axis; the y-axis is
    (−ay, ax).  `rotation` maps world xy-vectors into frame coordinates, so
    frame coordinates of a point q are rotation @ (q − origin).
    """

    ox: float
    oy: float
    ax: float
    ay: float

    @property
    def origin(self):
        return np.array([self.ox, self.oy])

    @property
    def rotation(self):
        return np.array([[self.ax, self.ay], [-self.ay, self.ax]])

    def to_frame(self, q):
        return self.rotation @ (np.asarray(q, dtype=float) - self.origin)

    def to_world_vector(self, v):
        # For vectors (gradients) only the rotation applies.
        return self.rotation.T @ np.asarray(v, dtype=float)


@dataclass(frozen=True)
class TrioContext:
    """One triangle {i, j, k} of the communication graph.

    `triangle` holds the three FOV centers in id order; `radical_center` is
    the common equal-power point of the three footprint disks.
    """

    ids: tuple
    states: tuple
    fovs: tuple
    radical_center: np.ndarray
    triangle: tuple
    r: float

    def index_of(self, agent_id: int) -> int:
        return self.ids.index(agent_id)

    def roles(self, viewpoint: int):
        """Return (i, j, k) id roles for a viewpoint: itself first, the others in id order."""
        others = [a for a in self.ids if a != viewpoint]
        return (viewpoint, others[0], others[1])


@dataclass
class CommGraph:
    """Communication graph: the trios of power-diagram vertices with pairwise-overlapping footprints."""

    n: int
    trios: dict

    def trios_of(self, agent_id: int):
        return self.trios.get(agent_id, [])

    def all_trios(self):
        """All distinct trios, sorted by id triple."""
        seen = {}
        for lst in self.trios.values():
            for t in lst:
                seen[t.ids] = t
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


def point_in_triangle(I, J, K, v, area_tol: float = AREA_TOL):
    """Signed-area ratios of v against triangle IJK and the strict-interior test.

    Returns (inside, (ratio_IJK, ratio_JKI, ratio_KIJ)): each ratio is the
    signed area of the sub-triangle over the full signed area; they sum to 1
    and are all strictly positive exactly when v is strictly inside.
    """
    (ix, iy), (jx, jy), (kx, ky), (vx, vy) = I, J, K, v
    denom = (jx - ix) * (ky - iy) - (jy - iy) * (kx - ix)
    if abs(denom) < 2.0 * area_tol:
        raise DegenerateTrio("triangle area below tolerance")
    r_ijk = ((jx - ix) * (vy - iy) - (jy - iy) * (vx - ix)) / denom
    r_jki = ((kx - jx) * (vy - jy) - (ky - jy) * (vx - jx)) / denom
    r_kij = ((ix - kx) * (vy - ky) - (iy - ky) * (vx - kx)) / denom
    inside = r_ijk > 0.0 and r_jki > 0.0 and r_kij > 0.0
    return inside, (r_ijk, r_jki, r_kij)


def make_trio(ids, states, r: float, center=None) -> TrioContext:
    """Build a TrioContext for three agents; raises DegenerateTrio on bad geometry.

    center is the trio's radical center when the caller already has it.
    """
    order = sorted(range(3), key=lambda o: ids[o])
    ids = tuple(int(ids[o]) for o in order)
    states = tuple(states[o] for o in order)
    fovs = tuple(fov_of(s, r) for s in states)
    v = radical_center(*fovs) if center is None else np.asarray(center, dtype=float)
    triangle = tuple(f.center for f in fovs)
    return TrioContext(ids=ids, states=states, fovs=fovs, radical_center=v, triangle=triangle, r=r)


def sigma_d_frame(trio: TrioContext, distinguished: int) -> SigmaDFrame:
    """Working frame for one viewpoint: x-axis on segment JK (K side positive), y-axis on the JK radical axis.

    J, K are the two non-distinguished agents in id order.  The frame is
    right-handed and its origin is the intersection of line JK with the JK
    radical axis, so the frame x-coordinates of J and K satisfy
    x_J² − R_J² = x_K² − R_K².
    """
    i, j, k = trio.roles(distinguished)
    fj = trio.fovs[trio.index_of(j)]
    fk = trio.fovs[trio.index_of(k)]
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


def detect_holes_grid(states, r: float, mission, resolution: float, graph=None):
    """Independent grid oracle for holes.

    Samples the mission rectangle at cell centers; a witness is an uncovered
    cell lying strictly inside some trio triangle whose uncovered connected
    component (4-connectivity) does not touch the mission boundary.  Returns
    the witness points as an (m, 2) array.  graph is the communication graph
    of these states, built here when not given.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
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
    if nlab == 0:
        return np.empty((0, 2))

    # Components touching the grid edge touch the mission boundary: not holes.
    edge_labels = np.unique(
        np.concatenate([labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]])
    )
    touches_boundary = np.zeros(nlab + 1, dtype=bool)
    touches_boundary[edge_labels] = True

    if graph is None:
        graph = build_graph(states, r)
    trios = graph.all_trios()
    if not trios:
        return np.empty((0, 2))

    witness = np.zeros((nx, ny), dtype=bool)
    candidate = uncovered & ~touches_boundary[labels]
    if not candidate.any():
        return np.empty((0, 2))
    cx = XX[candidate]
    cy = YY[candidate]
    inside_any = np.zeros(cx.shape, dtype=bool)
    for trio in trios:
        I, J, K = trio.triangle
        denom = (J[0] - I[0]) * (K[1] - I[1]) - (J[1] - I[1]) * (K[0] - I[0])
        if abs(denom) < 2.0 * AREA_TOL:
            continue
        r1 = ((J[0] - I[0]) * (cy - I[1]) - (J[1] - I[1]) * (cx - I[0])) / denom
        r2 = ((K[0] - J[0]) * (cy - J[1]) - (K[1] - J[1]) * (cx - J[0])) / denom
        r3 = ((I[0] - K[0]) * (cy - K[1]) - (I[1] - K[1]) * (cx - K[0])) / denom
        inside_any |= (r1 > 0) & (r2 > 0) & (r3 > 0)
    witness[candidate] = inside_any
    return np.column_stack([XX[witness], YY[witness]])


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
    t candidate centers are solved together and tested in one (t, n) excess
    matrix, so no Python loop runs per candidate.
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
    ox = cx - cx[I, None]
    oy = cy - cy[I, None]
    excess = (
        ox * (ox - 2.0 * (vx - cx[I])[:, None])
        + oy * (oy - 2.0 * (vy - cy[I])[:, None])
        - (radii2 - radii2[I, None])
    )
    # j and k tie with i at v by construction; keep rounding out.
    rows = np.arange(len(I))
    excess[rows, J] = excess[rows, K] = 0.0
    live = ~np.any(excess < -ADJACENCY_TOL, axis=1)
    cofactor = excess <= ADJACENCY_TOL
    size = cofactor.sum(axis=1)

    # Triple -> radical center, or None where make_trio must solve it.
    simple = live & (size == 3)
    trio_triples = dict(zip(
        zip(I[simple].tolist(), J[simple].tolist(), K[simple].tolist()),
        zip(vx[simple].tolist(), vy[simple].tolist()),
    ))
    handled_degenerate = set()
    for row in np.flatnonzero(live & (size > 3)).tolist():
        members = tuple(np.flatnonzero(cofactor[row]).tolist())
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
            ctx = make_trio(triple, [states[a], states[b], states[c]], r, trio_triples[triple])
        except DegenerateTrio:
            continue
        for agent in triple:
            trios[agent].append(ctx)
    return CommGraph(n=n, trios=trios)
