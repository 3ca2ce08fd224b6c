"""Per-agent QP safety filter.

`trio_views` evaluates each of an agent's triangles once from its viewpoint
(`barrier.cbf_components`) and drops a degenerate one with a single warning;
the simulator shares that list between this filter and the trace.  From it
the agent assembles one linear constraint per almost-active, non-suppressed
barrier component, computing only those components' gradients, then minimally
modifies its nominal input in the weighted least-squares sense subject to
those constraints.  The QP is tiny (4 variables, a couple dozen constraints at
most), so a deterministic dense active-set method is used rather than an
external solver.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from aircover.barrier import cbf_components, cbf_gradient, degenerate_guard
from aircover.geometry import DegenerateTrio

log = logging.getLogger(__name__)

# Constraints whose gradient is shorter than this are dropped (degenerate
# configurations where the analytic gradient genuinely vanishes).
GRADIENT_FLOOR = 1e-9
ALL_COMPONENTS = (1, 2, 3, 4)

# Worst constraint violation tolerated in a returned solution.
_FEAS_TOL = 1e-8


class Infeasible(Exception):
    """The constraint polytope is empty."""


class NumericalFailure(Exception):
    """The active-set iteration failed to converge."""


@dataclass(frozen=True)
class ClassK:
    """Odd-power class-K function α(h) = gain·h^power (strictly increasing, α(0) = 0)."""

    gain: float = 1.0
    power: int = 3

    def __post_init__(self):
        if self.gain <= 0:
            raise ValueError("gain must be positive")
        if self.power <= 0 or self.power % 2 == 0:
            raise ValueError("power must be a positive odd integer")

    def __call__(self, h: float) -> float:
        return self.gain * float(h) ** self.power


@dataclass
class QpProblem:
    """min (u − u_nom)ᵀ W (u − u_nom)  s.t.  a·u ≥ b for every (a, b) in constraints."""

    u_nom: np.ndarray
    weights: np.ndarray  # diagonal of W: (1, 1, 1, w_lambda)
    constraints: list = field(default_factory=list)


def qp_weights(w_lambda: float) -> np.ndarray:
    """Diagonal input weight: unit on position/altitude rates, w_lambda on the focal rate."""
    if w_lambda <= 0:
        raise ValueError("w_lambda must be positive")
    return np.array([1.0, 1.0, 1.0, float(w_lambda)])


@dataclass(frozen=True)
class FilterParams:
    """Safety-filter knobs shared by every agent."""

    epsilon: float = 0.2
    alpha: ClassK = field(default_factory=ClassK)
    w_lambda: float = 3.0e6
    guard_threshold: float = 1.0e4
    components: tuple = ALL_COMPONENTS


def trio_views(viewpoint: int, trios):
    """One `cbf_components` evaluation per trio from the viewpoint; a degenerate trio is dropped with a warning."""
    views = []
    for trio in trios:
        try:
            views.append(cbf_components(trio, viewpoint))
        except DegenerateTrio as exc:
            log.warning("agent %d trio %s degenerate, dropped: %s", viewpoint, trio.ids, exc)
    return views


def build_constraints(
    views,
    epsilon: float,
    alpha: ClassK,
    guard_threshold: float,
    components: tuple = ALL_COMPONENTS,
):
    """One (a, b) halfspace per almost-active, non-suppressed component of each evaluated triangle.

    a is the world-frame gradient of the component with respect to the agent's
    own state; b = −α(h)/3 splits the decay budget evenly across the triangle's
    three agents.  `components` restricts which conditions define the barrier
    (all four normally; only the footprint condition in hf-only mode).
    """
    rows = []
    for comps in views:
        viewpoint, ids = comps.viewpoint, comps.trio.ids
        suppressed = degenerate_guard(comps, guard_threshold)
        value = max(comps[l] for l in components)
        b = -alpha(value) / 3.0
        try:
            for l in components:
                if abs(comps[l] - value) > epsilon:
                    continue
                if l in suppressed:
                    log.debug(
                        "agent %d trio %s: component %d suppressed (|%.3g| > %.3g)",
                        viewpoint, ids, l, comps[l], guard_threshold,
                    )
                    continue
                a = cbf_gradient(comps, l)
                norm = float(np.linalg.norm(a))
                if norm < GRADIENT_FLOOR:
                    log.warning(
                        "agent %d trio %s: component %d gradient vanished (%.3g); constraint dropped",
                        viewpoint, ids, l, norm,
                    )
                    continue
                rows.append((a, b))
        except DegenerateTrio as exc:
            log.warning("agent %d trio %s degenerate, dropped: %s", viewpoint, ids, exc)
    return rows


def solve_qp(problem: QpProblem, max_iter: int = 200) -> np.ndarray:
    """Dual active-set solve (Goldfarb–Idnani) of the weighted least-distance QP.

    Starts at the unconstrained optimum u_nom and drives the most violated
    constraint into the working set: a primal step moves u along the part of
    the new normal W-orthogonal to the working normals, a dual step (taken
    when the new normal is spanned by them) trades multiplier mass instead;
    blocking constraints leave the set when their multiplier reaches zero,
    and a spanned normal with no positive combination coefficient is a Farkas
    certificate of infeasibility.  Ties break on the lowest index, so the
    solve is deterministic.
    """
    u_nom = np.asarray(problem.u_nom, dtype=float)
    w = np.asarray(problem.weights, dtype=float)
    if w.shape != u_nom.shape or np.any(w <= 0):
        raise ValueError("weights must be positive and match u_nom")
    if not problem.constraints:
        return u_nom.copy()
    A = np.array([a for a, _ in problem.constraints], dtype=float)
    b = np.array([bb for _, bb in problem.constraints], dtype=float)
    winv = 1.0 / w
    sqrt_winv = np.sqrt(winv)

    u = u_nom.copy()
    S = []  # working constraint indices
    mu = []  # their multipliers, kept aligned with S

    def polish(u, S):
        # One-shot equality re-solve on the final working set: removes the
        # drift accumulated over the iteration's incremental steps.
        if not S:
            return u
        As = A[S]
        G = (As * winv) @ As.T
        try:
            mu_S = np.linalg.solve(G, b[S] - As @ u_nom)
        except np.linalg.LinAlgError:
            return u
        refined = u_nom + winv * (As.T @ mu_S)
        if float(np.min(mu_S)) >= -1e-9 and float((A @ refined - b).min()) >= -_FEAS_TOL:
            return refined
        return u

    iters = 0
    while True:
        resid = A @ u - b
        p = int(np.argmin(resid))
        if resid[p] >= -_FEAS_TOL:
            return polish(u, S)
        n_p = A[p]
        mu_p = 0.0
        while True:
            iters += 1
            if iters > max_iter:
                raise NumericalFailure(f"active-set iteration exceeded {max_iter} steps")
            # Split W⁻¹n_p into a component along the working normals (dual
            # direction r) and one W-orthogonal to them (primal direction z).
            hn = winv * n_p
            if S:
                M = sqrt_winv[:, None] * A[S].T
                r, *_ = np.linalg.lstsq(M, sqrt_winv * n_p, rcond=None)
                z = hn - winv * (A[S].T @ r)
            else:
                r = np.zeros(0)
                z = hn
            s_p = float(n_p @ u - b[p])
            if float(np.linalg.norm(z)) > 1e-10 * (1.0 + float(np.linalg.norm(hn))):
                t1 = -s_p / float(z @ n_p)  # step that lands p on its boundary
            else:
                t1 = np.inf
            t2, blocker = np.inf, -1
            for j in range(len(S)):
                if r[j] > 1e-12 and mu[j] / r[j] < t2:
                    t2, blocker = mu[j] / r[j], j
            if not np.isfinite(t1) and not np.isfinite(t2):
                raise Infeasible("constraint polytope is empty")
            t = min(t1, t2)
            if np.isfinite(t1):
                u += t * z
            for j in range(len(S)):
                mu[j] -= t * r[j]
            mu_p += t
            if t1 <= t2:
                S.append(p)
                mu.append(mu_p)
                break
            S.pop(blocker)
            mu.pop(blocker)


def agent_control(viewpoint: int, views, u_nom, params: FilterParams) -> np.ndarray:
    """Safety-filtered input for one agent from its own triangles' evaluations (`trio_views`).

    Only the agent's own triangles (and the neighbor states embedded in them)
    are consulted — the distributed information pattern.  Raises Infeasible or
    NumericalFailure for the caller to handle (fall back and log).
    """
    if any(v.viewpoint != viewpoint for v in views):
        raise ValueError(f"views must be evaluated from agent {viewpoint}'s viewpoint")
    u_nom = np.asarray(u_nom, dtype=float)
    rows = build_constraints(
        views, params.epsilon, params.alpha, params.guard_threshold, params.components
    )
    if not rows:
        return u_nom.copy()
    problem = QpProblem(u_nom=u_nom, weights=qp_weights(params.w_lambda), constraints=rows)
    return solve_qp(problem)
