"""Visual sensing quality, conic Voronoi partition, and the coverage controller.

The sensing quality of a ground point combines a perspective factor (unity at
nadir, zero at the footprint boundary) with a resolution factor (best at a
desired capture distance).  Each grid point is owned by the covering agent of
highest quality; overlap losers are tracked separately so the objective can
penalize redundant coverage.  The nominal input is the gradient ascent of that
objective, evaluated by midpoint quadrature with analytic partials.

The quadrature visits each agent only on its window: the grid cells under
its footprint's bounding box, with a one-cell margin.  ``partition``
evaluates the sensing model once per agent on that window and keeps the
terms for the nominal inputs, with each point's running best quality and
quality sum for the objective; the density mass phi·cell_area is computed
once per grid and density.  A nominal input is one reduction per agent: the
window's mass is signed (+1 on owned, −w on overlap points of the open
footprint, 0 elsewhere) and dotted with per-point factors of the four
partials.
"""

import math
from dataclasses import dataclass

import numpy as np

from aircover.geometry import AgentState


@dataclass(frozen=True)
class SensingParams:
    """Sensing-model constants: image radius, resolution shape, capture distance, overlap weight."""

    r: float
    kappa: float
    sigma: float
    M: float
    w: float

    def __post_init__(self):
        if not (self.r > 0 and self.kappa > 0 and self.sigma > 0 and self.M > 0):
            raise ValueError("r, kappa, sigma, M must be positive")
        if not self.w >= 0:
            raise ValueError("w must be nonnegative")


@dataclass(frozen=True)
class DensityField:
    """Importance density: isotropic Gaussian mixture clipped to the mission rectangle."""

    components: tuple  # (weight, (mx, my), scale) triples
    mission: tuple  # (xmin, ymin, xmax, ymax)

    def __post_init__(self):
        xmin, ymin, xmax, ymax = self.mission
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("mission rectangle is empty")
        for weight, _, scale in self.components:
            if not weight >= 0:
                raise ValueError("component weights must be nonnegative")
            if not scale > 0:
                raise ValueError("component scales must be positive")

    def phi(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(points))
        for weight, mean, scale in self.components:
            d2 = (points[:, 0] - mean[0]) ** 2 + (points[:, 1] - mean[1]) ** 2
            out += weight * np.exp(-d2 / (2.0 * scale**2))
        xmin, ymin, xmax, ymax = self.mission
        inside = (
            (points[:, 0] >= xmin)
            & (points[:, 0] <= xmax)
            & (points[:, 1] >= ymin)
            & (points[:, 1] <= ymax)
        )
        return np.where(inside, out, 0.0)


class CoverageGrid:
    """Uniform midpoint grid over the mission rectangle.

    Points are in the ravel order of an (nx, ny) cell layout; ``cells`` views
    any per-point array in that layout, so a window of cells is a
    subsequence of the points.
    """

    def __init__(self, mission, resolution: float):
        if not resolution > 0:
            raise ValueError("resolution must be positive")
        xmin, ymin, xmax, ymax = mission
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("mission rectangle is empty")
        nx = max(1, int(np.ceil((xmax - xmin) / resolution)))
        ny = max(1, int(np.ceil((ymax - ymin) / resolution)))
        dx = (xmax - xmin) / nx
        dy = (ymax - ymin) / ny
        xs = xmin + (np.arange(nx) + 0.5) * dx
        ys = ymin + (np.arange(ny) + 0.5) * dy
        XX, YY = np.meshgrid(xs, ys, indexing="ij")
        self.mission = tuple(float(v) for v in mission)
        self.resolution = float(resolution)
        self.shape = (nx, ny)
        self.spacing = (dx, dy)
        self.points = np.column_stack([XX.ravel(), YY.ravel()])
        self.cell_area = dx * dy
        self._mass = (None, None)  # (density, its point masses)

    def cells(self, values: np.ndarray) -> np.ndarray:
        """View of a per-point array in the (nx, ny) cell layout."""
        return values.reshape(self.shape + values.shape[1:])

    def window(self, cx: float, cy: float, radius: float) -> tuple:
        """(x, y) cell slices under a disk's bounding box, with a one-cell margin."""
        spans = []
        for c, lo, d, n in zip((cx, cy), self.mission[:2], self.spacing, self.shape):
            start = math.floor((c - radius - lo) / d - 0.5) - 1
            stop = math.ceil((c + radius - lo) / d - 0.5) + 2
            spans.append(slice(min(max(start, 0), n), min(max(stop, 0), n)))
        return tuple(spans)

    def mass(self, density: "DensityField") -> np.ndarray:
        """Read-only point masses phi·cell_area, computed once per density object."""
        if self._mass[0] is not density:
            mass = density.phi(self.points) * self.cell_area
            mass.flags.writeable = False
            self._mass = (density, mass)
        return self._mass[1]


@dataclass(slots=True)
class FieldWindow:
    """One agent's sensing model on its grid window.

    cells are the window's slices of the grid's cell layout; terms the
    `_field_terms` at the window's points, from which the quality f, the
    closed (covered) and open (strict) footprint masks and the gradient are
    all taken.  Arrays have the window's (wx, wy) shape.
    """

    cells: tuple
    terms: tuple
    f: np.ndarray
    covered: np.ndarray
    strict: np.ndarray


@dataclass(frozen=True)
class Partition:
    """Conic Voronoi assignment of grid points.

    owner[q] is the covering agent of maximal sensing quality (−1 when no
    footprint covers q), best[q] its quality (−inf if none) and total[q] the
    sum over covering agents; windows[i] is agent i's sensing model.
    """

    owner: np.ndarray
    best: np.ndarray
    total: np.ndarray
    windows: tuple


@dataclass(frozen=True)
class CoverageReport:
    """Objective decomposition: H = H_M − w·H_O."""

    H_M: float
    H_O: float
    H: float


def _field_terms(state: AgentState, params: SensingParams, points):
    """Vectorized pieces of the sensing model at ground points (..., 2)."""
    dx = state.x - points[..., 0]
    dy = state.y - points[..., 1]
    d2 = dx * dx + dy * dy
    s = np.sqrt(d2 + state.z**2)
    A = np.sqrt(state.lam**2 + params.r**2)
    radius = params.r * state.z / state.lam
    f_pers = (A * state.z / s - state.lam) / (A - state.lam)
    f_res = (state.lam / A) ** params.kappa * np.exp(
        -((s - params.M) ** 2) / (2.0 * params.sigma**2)
    )
    return dx, dy, d2, s, A, radius, f_pers, f_res


def _masked_quality(terms):
    """Quality (zero outside the footprint), closed and strict footprint masks."""
    _, _, d2, _, _, radius, f_pers, f_res = terms
    covered = d2 <= radius**2
    strict = d2 < radius**2
    return np.where(covered, f_pers * f_res, 0.0), covered, strict


def _gradient(state: AgentState, params: SensingParams, terms) -> np.ndarray:
    """(4, ...) analytic partials of the quality w.r.t. the agent state, from its terms."""
    dx, dy, d2, s, A, _, f_pers, f_res = terms
    z, lam = state.z, state.lam
    s3 = s**3
    # Perspective factor: distance enters through s only; λ also moves A.
    pers_scale = A * z / (s3 * (A - lam))
    dp_x = -pers_scale * dx
    dp_y = -pers_scale * dy
    dp_z = A * d2 / (s3 * (A - lam))
    dp_lam = (
        (lam * z / (A * s) - 1.0) * (A - lam)
        - (A * z / s - lam) * (lam / A - 1.0)
    ) / (A - lam) ** 2
    # Resolution factor: Gaussian in the capture distance, power law in λ.
    res_scale = f_res * (-(s - params.M) / params.sigma**2)
    dr_x = res_scale * dx / s
    dr_y = res_scale * dy / s
    dr_z = res_scale * z / s
    dr_lam = f_res * params.kappa * params.r**2 / (lam * A * A)
    return np.stack(
        [
            f_pers * dr_x + f_res * dp_x,
            f_pers * dr_y + f_res * dp_y,
            f_pers * dr_z + f_res * dp_z,
            f_pers * dr_lam + f_res * dp_lam,
        ]
    )


def sensing_quality(state: AgentState, q, params: SensingParams) -> float:
    """Perspective × resolution quality of a ground point; zero outside the footprint."""
    points = np.atleast_2d(np.asarray(q, dtype=float))
    return float(sensing_field(state, params, points)[0][0])


def sensing_field(state: AgentState, params: SensingParams, points):
    """Quality, closed, and strict footprint masks of one agent over many points."""
    return _masked_quality(_field_terms(state, params, points))


def sensing_gradient(state: AgentState, params: SensingParams, points) -> np.ndarray:
    """(4, N) analytic partials of the quality w.r.t. the agent state.

    Valid at points strictly inside the footprint; the caller masks.
    """
    return _gradient(state, params, _field_terms(state, params, points))


def partition(states, params: SensingParams, grid: CoverageGrid) -> Partition:
    """Assign each grid point to its best covering agent (lowest index on ties).

    Keeps each point's running best quality and quality sum beside its owner.
    """
    points = grid.cells(grid.points)
    n = len(grid.points)
    owner, best, total = np.full(n, -1), np.full(n, -np.inf), np.zeros(n)
    owner_cells, best_cells, total_cells = grid.cells(owner), grid.cells(best), grid.cells(total)
    windows = []
    for i, state in enumerate(states):
        cells = grid.window(state.x, state.y, params.r * state.z / state.lam)
        terms = _field_terms(state, params, points[cells])
        f, covered, strict = _masked_quality(terms)
        # Only a strictly better quality takes a point: ties stay with the lower index.
        best_w = best_cells[cells]
        wins = covered & (f > best_w)
        np.copyto(best_w, f, where=wins)
        np.copyto(owner_cells[cells], i, where=wins)
        total_w = total_cells[cells]
        total_w += f  # f is zero off the footprint: a point covered once keeps total == best
        windows.append(FieldWindow(cells, terms, f, covered, strict))
    return Partition(owner=owner, best=best, total=total, windows=tuple(windows))


def coverage_objective(
    states, params: SensingParams, density: DensityField, grid: CoverageGrid, part: Partition = None
) -> CoverageReport:
    """Midpoint-quadrature objective H = H_M − w·H_O.

    Reductions over the box spanned by all windows: H_M = Σ best·mass and
    H_O = Σ (total − best)·mass over covered points (best is −inf elsewhere),
    so a point covered once adds exactly 0 to H_O.
    """
    if part is None:
        part = partition(states, params, grid)
    spans = [w.cells for w in part.windows if w.f.size]
    box = tuple(slice(min((c[a].start for c in spans), default=0),
                      max((c[a].stop for c in spans), default=0)) for a in (0, 1))
    mass, owner, best, total = (
        grid.cells(v)[box] for v in (grid.mass(density), part.owner, part.best, part.total)
    )
    covered = owner >= 0
    gain = np.multiply(best, mass, out=np.zeros(mass.shape), where=covered)
    excess = np.subtract(total, best, out=np.zeros(mass.shape), where=covered)
    excess *= mass
    H_M, H_O = float(gain.sum()), float(excess.sum())
    return CoverageReport(H_M=H_M, H_O=H_O, H=H_M - params.w * H_O)


def nominal_input(
    i: int,
    states,
    params: SensingParams,
    density: DensityField,
    grid: CoverageGrid,
    part: Partition = None,
) -> np.ndarray:
    """Gradient-ascent input: owned-region pull minus w × overlap-region pull.

    One reduction over the agent's window with a signed mass: the density
    mass where agent i owns an open-footprint point, −w times it where i
    covers the point without owning it, zero elsewhere.  The partials of
    `_gradient` are linear in the mass, so each is a dot product of that
    mass with per-point factors; the (4, k) gradient is never formed.
    """
    if part is None:
        part = partition(states, params, grid)
    window = part.windows[i]
    m = np.where(grid.cells(part.owner)[window.cells] == i, 1.0, -params.w)
    m *= window.strict
    m *= grid.cells(grid.mass(density))[window.cells]
    dx, dy, d2, s, A, _, f_pers, f_res = window.terms
    z, lam, sigma2 = states[i].z, states[i].lam, params.sigma**2
    inv_s = 1.0 / s
    m_res = m * f_res
    m_both = m_res * f_pers
    # Each partial sums m·(f_pers·∂f_res + f_res·∂f_pers).
    # Resolution: ∂f_res/∂(x, y, z) = f_res·(M − s)/(σ²·s)·(dx, dy, z).
    res = params.M - s
    res *= inv_s
    res *= m_both
    # Perspective: ∂f_pers/∂(x, y, z) = A/((A − λ)·s³)·(−z·dx, −z·dy, d²).
    pers = inv_s * inv_s
    pers *= inv_s
    pers *= m_res
    planar = pers * (-sigma2 * A * z / (A - lam))
    planar += res  # σ² × the coefficient of dx and of dy
    # Focal length: ∂f_res/∂λ = f_res·κ·r²/(λ·A²); ∂f_pers/∂λ = r²·(z/s − 1)/(A·(A − λ)²).
    tilt = z * inv_s
    tilt -= 1.0
    r2 = params.r**2
    return np.array(
        [
            np.vdot(planar, dx) / sigma2,
            np.vdot(planar, dy) / sigma2,
            z * res.sum() / sigma2 + A / (A - lam) * np.vdot(pers, d2),
            params.kappa * r2 / (lam * A * A) * m_both.sum()
            + r2 / (A * (A - lam) ** 2) * np.vdot(m_res, tilt),
        ]
    )
