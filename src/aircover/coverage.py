"""Visual sensing quality, conic Voronoi partition, and the coverage controller.

The sensing quality of a ground point combines a perspective factor (unity at
nadir, zero at the footprint boundary) with a resolution factor (best at a
desired capture distance).  Each grid point is owned by the covering agent of
highest quality; overlap losers are tracked separately so the objective can
penalize redundant coverage.  The nominal input is the gradient ascent of that
objective, evaluated by midpoint quadrature with analytic partials.

The quadrature visits each agent only on its window: the grid cells under
its footprint's bounding box, with a one-cell margin, all windows taken in
one span computation.  ``partition`` evaluates the sensing model once per
agent on its window's axes (an x column and a y row), unless handed it as
known from an earlier step, and keeps the terms for the nominal inputs,
with each point's owner (read by the hole oracle), running best quality
and quality sum (for the objective).  The grid is its two axes, and the
density takes coordinates that broadcast: its mass phi·cell_area is taken
once per grid and density, on the x column and y row.  A nominal input is
one reduction per agent: the window's mass is signed (+1 on owned, −w on
overlap points of the open footprint, 0 elsewhere) and dotted with
per-point factors of the four partials.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from aircover.geometry import footprint_rows


@dataclass(frozen=True)
class SensingParams:
    """Sensing-model constants: image radius, resolution shape, capture distance, overlap weight."""

    r: float
    kappa: float
    sigma: float
    M: float
    w: float

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.r, self.kappa, self.sigma, self.M)):
            raise ValueError("r, kappa, sigma, M must be positive and finite")
        if not 0 <= self.w < math.inf:
            raise ValueError("w must be nonnegative and finite")


@dataclass(frozen=True)
class DensityField:
    """Importance density: isotropic Gaussian mixture clipped to the mission rectangle."""

    components: tuple  # (weight, (mx, my), scale) triples
    mission: tuple  # (xmin, ymin, xmax, ymax)

    def __post_init__(self):
        xmin, ymin, xmax, ymax = self.mission
        if not (all(map(math.isfinite, self.mission)) and xmax > xmin and ymax > ymin):
            raise ValueError("mission rectangle must be finite and nonempty")
        for weight, mean, scale in self.components:
            if not (0 <= weight < math.inf and all(map(math.isfinite, mean))):
                raise ValueError("component weights must be nonnegative and means finite")
            if not 0 < scale < math.inf:
                raise ValueError("component scales must be positive and finite")

    def phi(self, px, py) -> np.ndarray:
        """Density at ground points px, py, zero outside the mission; px and py broadcast (the grid's
        x column and y row, or two point columns), and each component's terms are taken in place."""
        px, py = np.asarray(px, dtype=float), np.asarray(py, dtype=float)
        out = None if self.components else np.zeros(np.broadcast_shapes(px.shape, py.shape))
        for weight, (mx, my), scale in self.components:
            dx, dy = px - mx, py - my
            term = dx * dx + dy * dy  # then each term in its formula's order
            term /= -2.0 * scale**2  # −a/c is a/(−c) exactly
            np.exp(term, out=term)
            term *= weight
            out = term if out is None else np.add(out, term, out=out)  # the first term is the sum
        xmin, ymin, xmax, ymax = self.mission
        np.copyto(out, 0.0, where=~((px >= xmin) & (px <= xmax) & (py >= ymin) & (py <= ymax)))
        return out


class CoverageGrid:
    """Uniform midpoint grid over the mission rectangle, held as its two axes.

    The points, never listed, pair the x column and y row of ``axes`` in the
    ravel order of an (nx, ny) cell layout, which ``cells`` views, so a
    window of cells is a subsequence of the points.
    """

    def __init__(self, mission, resolution: float):
        if not 0 < resolution < math.inf:
            raise ValueError("resolution must be positive and finite")
        xmin, ymin, xmax, ymax = mission
        if not (all(map(math.isfinite, mission)) and xmax > xmin and ymax > ymin):
            raise ValueError("mission rectangle must be finite and nonempty")
        nx, ny = max(1, math.ceil((xmax - xmin) / resolution)), max(1, math.ceil((ymax - ymin) / resolution))
        dx, dy = (xmax - xmin) / nx, (ymax - ymin) / ny
        xs, ys = xmin + (np.arange(nx) + 0.5) * dx, ymin + (np.arange(ny) + 0.5) * dy
        self.mission = tuple(float(v) for v in mission)
        self.resolution = float(resolution)
        self.shape = (nx, ny)
        self.spacing = (dx, dy)
        self.axes = (xs[:, None], ys[None, :])  # the x-axis as a column, the y-axis as a row
        self._span_frame = [np.array(v, dtype=float)[:, None] for v in (self.mission[:2], self.spacing, self.shape)]
        self.cell_area = dx * dy
        self._mass = (None, None)  # (density, its point masses)

    def cells(self, values: np.ndarray) -> np.ndarray:
        """View of a per-point array in the (nx, ny) cell layout."""
        return values.reshape(self.shape + values.shape[1:])

    def window(self, cx, cy, radius) -> list:
        """(x, y) cell slices under each disk's bounding box, with a one-cell margin (one entry per disk)."""
        c = np.array((cx, cy, radius), dtype=float).reshape(3, -1)
        if not np.isfinite(c).all():
            raise ValueError("window needs finite centres and radii")
        lo, d, n = self._span_frame
        edges = np.floor((c[:2] - c[2] - lo) / d - 0.5) - 1, np.ceil((c[:2] + c[2] - lo) / d - 0.5) + 2
        (x0, y0), (x1, y1) = (np.minimum(np.maximum(v, 0), n).astype(int).tolist() for v in edges)
        return list(zip(map(slice, x0, x1), map(slice, y0, y1)))

    def mass(self, density: "DensityField") -> np.ndarray:
        """Read-only point masses phi·cell_area, computed once per density object."""
        if self._mass[0] is not density:
            mass = density.phi(*self.axes).ravel()
            mass *= self.cell_area
            mass.flags.writeable = False
            self._mass = (density, mass)
        return self._mass[1]


class FieldWindow(NamedTuple):
    """One agent's sensing model on its grid window.

    cells are the window's slices of the grid's cell layout; terms the
    `_field_terms` at the window's points, from which the quality f, the
    closed (covered) and open (d² < R²) footprint masks and the gradient are
    all taken.  Arrays are (wx, wy), but dx is (wx, 1) and dy (1, wy): the window's axes.
    It depends only on the agent's state row, the sensing parameters and the
    grid.  A named tuple: immutable, and made at about half a frozen
    dataclass's cost, once per agent and step.
    """

    cells: tuple
    terms: tuple
    f: np.ndarray
    covered: np.ndarray

    def seal(self) -> "FieldWindow":
        """Make the window's arrays read-only, so that two steps can share them; returns the window."""
        if self.f.flags.writeable:  # f goes last: a window with a read-only f is sealed
            for array in (*self.terms, self.covered, self.f):
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False
        return self


@dataclass(frozen=True)
class Partition:
    """Conic Voronoi assignment of grid points.

    owner[q] is the covering agent of maximal sensing quality (−1 when no
    footprint covers q), best[q] its quality (−inf if none) and total[q] the
    sum over covering agents; windows[i] and rows[i] are agent i's sensing
    model and its (x, y, z, λ, R) floats (`footprint_rows`).
    """

    owner: np.ndarray
    best: np.ndarray
    total: np.ndarray
    windows: tuple
    rows: tuple


@dataclass(frozen=True)
class CoverageReport:
    """Objective decomposition: H = H_M − w·H_O."""

    H_M: float
    H_O: float
    H: float


def _field_terms(state, params: SensingParams, px, py):
    """Vectorized pieces of the sensing model of one state row (x, y, z, λ) at ground points px, py.

    px and py broadcast: a window's x column (wx, 1) and y row (1, wy), or two point columns.
    A is a float64, so that a later division by A − λ = 0 gives inf, not an error.
    """
    x, y, z, lam = state
    dx = x - px
    dy = y - py
    d2 = dx * dx + dy * dy
    s = np.sqrt(d2 + z**2)
    A = math.sqrt(lam**2 + params.r**2)
    radius = params.r * z / lam
    f_pers = A * z / s  # the terms below are taken in place, in the order of their formulas
    f_pers -= lam
    f_pers /= A - lam
    f_res = s - params.M
    f_res *= f_res
    f_res /= -2.0 * params.sigma**2  # −a/c is a/(−c) exactly
    np.exp(f_res, out=f_res)
    f_res *= (lam / A) ** params.kappa
    return dx, dy, d2, s, np.float64(A), radius, f_pers, f_res


def _masked_quality(terms):
    """Quality (zero outside the footprint) and the closed footprint mask."""
    _, _, d2, _, _, radius, f_pers, f_res = terms
    covered = d2 <= radius**2
    return np.where(covered, f_pers * f_res, 0.0), covered


def _gradient(state, params: SensingParams, terms) -> np.ndarray:
    """(4, ...) analytic partials of the quality w.r.t. the agent state, from its terms."""
    dx, dy, d2, s, A, _, f_pers, f_res = terms
    _, _, z, lam = state
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


def sensing_field(state, params: SensingParams, points):
    """Quality, closed, and strict footprint masks of one agent over many points."""
    terms = _field_terms(state, params, points[..., 0], points[..., 1])
    _, _, d2, _, _, radius, _, _ = terms
    return (*_masked_quality(terms), d2 < radius**2)


def sensing_gradient(state, params: SensingParams, points) -> np.ndarray:
    """(4, N) analytic partials of the quality w.r.t. the agent state.

    Valid at points strictly inside the footprint; the caller masks.
    """
    return _gradient(state, params, _field_terms(state, params, points[..., 0], points[..., 1]))


def partition(states, params: SensingParams, grid: CoverageGrid, known=None) -> Partition:
    """Assign each grid point to its best covering agent (lowest index on ties).

    Keeps each point's running best quality and quality sum beside its
    owner; a point is covered exactly where it has one.  known[i], if not
    None, is agent i's window made for the same row, params and grid: it is
    reused, not evaluated again, and still updates ownership in index order.
    """
    owner_cells, best_cells, total_cells = np.full(grid.shape, -1), np.full(grid.shape, -np.inf), np.zeros(grid.shape)
    rows = tuple(footprint_rows(states, params.r))
    xs, ys, _, _, radii = zip(*rows)
    windows = []
    for i, ((x, y, z, lam, _), cells) in enumerate(zip(rows, grid.window(xs, ys, radii))):
        window = None if known is None else known[i]
        if window is None:
            terms = _field_terms((x, y, z, lam), params, grid.axes[0][cells[0]], grid.axes[1][:, cells[1]])
            window = FieldWindow(cells, terms, *_masked_quality(terms))
        f, covered = window.f, window.covered
        # Only a strictly better quality takes a point: ties stay with the lower index.
        best_w = best_cells[cells]
        wins = f > best_w
        wins &= covered
        np.copyto(best_w, f, where=wins)
        np.copyto(owner_cells[cells], i, where=wins)
        total_w = total_cells[cells]
        total_w += f  # f is zero off the footprint: a point covered once keeps total == best
        windows.append(window)
    return Partition(owner_cells.ravel(), best_cells.ravel(), total_cells.ravel(), tuple(windows), rows)


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
    dx, dy, d2, s, A, radius, f_pers, f_res = window.terms
    m = np.where(grid.cells(part.owner)[window.cells] == i, 1.0, -params.w)
    m *= d2 < radius**2
    m *= grid.cells(grid.mass(density))[window.cells]
    z, lam, sigma2 = float(states[i][2]), float(states[i][3]), params.sigma**2
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
    # dx and dy lie on the window's axes: each dot takes them at full size, so its sum keeps its order.
    return np.array(
        [
            np.vdot(planar, dx.repeat(s.shape[1], axis=1)) / sigma2,
            np.vdot(planar, dy.repeat(s.shape[0], axis=0)) / sigma2,
            z * res.sum() / sigma2 + A / (A - lam) * np.vdot(pers, d2),
            params.kappa * r2 / (lam * A * A) * m_both.sum()
            + r2 / (A * (A - lam) ** 2) * np.vdot(m_res, tilt),
        ]
    )
