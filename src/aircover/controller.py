"""Per-agent QP safety filter.

`build_constraints` makes one pass over the graph's trios, which the
simulator's trace also reads: it evaluates each once (`barrier.cbf_components`),
drops a degenerate view with a warning, composes the trio's barrier once, and
gives each agent one linear constraint per almost-active (|h_ℓ − h| ≤ ε)
component of its views that the guard (|h_ℓ| > threshold for ℓ ∈ 1..3) keeps,
the package's one rule of each kind.  It computes only those gradients: the
footprint rows by the barrier's world-frame closed form, a working frame only
for a view with a side row.  `FilterParams` checks its knobs once, when built.
An agent keeps its nominal input if every row holds there, or else minimally
modifies it in the weighted least-squares sense.  The QP is tiny (4 variables,
a couple dozen constraints at most), so a deterministic dual active-set method
is used rather than an external solver.  Rows are (4-tuple, float) pairs and
the solver runs on Python floats: on 4-vectors numpy's per-call overhead costs
more than the arithmetic.
"""

import logging
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from aircover.barrier import cbf_components, cbf_gradient
from aircover.geometry import DegenerateTrio

log = logging.getLogger(__name__)

# Constraints whose gradient is shorter than this (degenerate configurations
# where the analytic gradient genuinely vanishes) or whose row is not finite are dropped.
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
        if not 0 < self.gain < math.inf:
            raise ValueError("gain must be positive and finite")
        if self.power <= 0 or self.power % 2 == 0:
            raise ValueError("power must be a positive odd integer")

    def __call__(self, h: float) -> float:
        return self.gain * float(h) ** self.power


@dataclass
class QpProblem:
    """min (u − u_nom)ᵀ W (u − u_nom)  s.t.  a·u ≥ b for every (a, b) in constraints."""

    u_nom: np.ndarray
    weights: tuple  # diagonal of W: (1, 1, 1, w_lambda)
    constraints: list = field(default_factory=list)


@dataclass(frozen=True)
class FilterParams:
    """Safety-filter knobs shared by every agent.

    `components` composes the barrier from all four conditions, the footprint
    alone, or none (no rows): never part of 1–3, so every view composes alike.
    """

    epsilon: float = 0.2
    alpha: ClassK = field(default_factory=ClassK)
    w_lambda: float = 3.0e6
    guard_threshold: float = 1.0e4
    components: tuple = ALL_COMPONENTS

    def __post_init__(self):
        for name in ("epsilon", "guard_threshold", "w_lambda"):
            if not 0 < getattr(self, name) < math.inf:  # fails on NaN
                raise ValueError(f"{name} must be positive and finite")


class FilterRows(NamedTuple):
    """`build_constraints`' one pass over a graph's trios."""

    rows: list  # per agent, its (a, b) rows in graph trio order, then component order
    trio_vals: list  # each trio's four values as its last kept view holds them, if it kept one
    kept: list  # per agent, the indices into trio_vals of the trios whose view it kept


def build_constraints(graph, params: FilterParams) -> FilterRows:
    """Every agent's halfspaces from one `cbf_components` call per trio of the graph.

    A trio's views hold its four values, permuted, so the value composed over `params.components`,
    b = −α(h)/3 (the decay budget split evenly across its three agents) and whether a side ratio is
    almost active are taken once.  Each kept view adds one (a, b) row per almost-active component
    that the guard keeps, a being its world-frame gradient (a 4-tuple) in the agent's own state.
    """
    rows = [[] for _ in range(graph.n)]
    kept = [[] for _ in range(graph.n)]
    trio_vals = []
    components, epsilon, threshold = params.components, params.epsilon, params.guard_threshold
    for trio in graph.trios:
        try:
            evaluated = cbf_components(trio)
        except DegenerateTrio as exc:
            evaluated = (exc,) * 3
        views = []
        for agent, view in zip(trio.ids, evaluated):
            if isinstance(view, DegenerateTrio):
                log.warning("agent %d trio %s degenerate, dropped: %s", agent, trio.ids, view)
            else:
                views.append(view)
                kept[agent].append(len(trio_vals))
        if not views:
            continue
        vals = views[-1].vals
        trio_vals.append(vals)
        # No components (nominal_only) compose no barrier and give no rows.
        value = max((vals[l - 1] for l in components), default=0.0)
        b = -params.alpha(value) / 3.0
        # Every view holds h_f and the trio's three side ratios, permuted, none above the value.
        near = (4,) if components == ALL_COMPONENTS and abs(max(vals[:3]) - value) > epsilon else components
        for view in views:
            viewpoint, vals = view.viewpoint, view.vals
            try:
                for l in near:
                    h = vals[l - 1]
                    if abs(h - value) > epsilon:
                        continue
                    # The guard: near-collinear triangles blow the side ratios up.
                    if l != 4 and abs(h) > threshold:
                        log.debug("agent %d trio %s: component %d suppressed (|%.3g| > %.3g)",
                                  viewpoint, trio.ids, l, h, threshold)
                        continue
                    a = cbf_gradient(view, l)
                    norm = math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3])
                    if not (GRADIENT_FLOOR <= norm < math.inf and math.isfinite(b)):
                        # A vanished row with a finite b < 0 holds for every u: no warning.
                        quiet = norm < GRADIENT_FLOOR and -math.inf < b < 0.0
                        log.log(logging.DEBUG if quiet else logging.WARNING, "agent %d trio %s: "
                                "component %d gradient vanished or row non-finite (|a| = %.3g, "
                                "b = %.3g); constraint dropped", viewpoint, trio.ids, l, norm, b)
                        continue
                    rows[viewpoint].append((a, b))
            except DegenerateTrio as exc:
                log.warning("agent %d trio %s degenerate, dropped: %s", viewpoint, trio.ids, exc)
    return FilterRows(rows, trio_vals, kept)


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _project(Q, v):
    """Modified Gram–Schmidt: v's coefficients on the orthonormal Q, and what is left of v."""
    coef = []
    for q in Q:
        c = _dot(q, v)
        v = (v[0] - c * q[0], v[1] - c * q[1], v[2] - c * q[2], v[3] - c * q[3])
        coef.append(c)
    return coef, v


def solve_qp(problem: QpProblem, max_iter: int = 200) -> np.ndarray:
    """Dual active-set solve (Goldfarb–Idnani) of the weighted least-distance QP.

    Starts at the unconstrained optimum u_nom and drives the most violated
    constraint into the working set: a primal step moves u along the part of
    the new normal W-orthogonal to the working normals, a dual step (taken
    when the new normal is spanned by them) trades multiplier mass instead;
    blocking constraints leave the set when their multiplier reaches zero,
    and a spanned normal with no positive combination coefficient is a Farkas
    certificate of infeasibility.  Ties break on the lowest index, so the
    solve is deterministic.  The answer is the first iterate at which every
    row holds within _FEAS_TOL.

    A new normal is split by a modified Gram–Schmidt QR of the W^-½-scaled
    working normals (at most four), not by normal equations, which at
    w_lambda = 3e6 would square the conditioning.  The solve runs on Python
    floats and returns a float64 array.
    """
    u_nom = tuple(np.asarray(problem.u_nom, dtype=float).tolist())
    w = tuple(map(float, problem.weights))
    if len(u_nom) != 4 or len(w) != 4 or not all(x > 0.0 for x in w):
        raise ValueError("u_nom and weights must be 4-vectors, weights positive")
    A = [tuple(map(float, a)) for a, _ in problem.constraints]
    b = [float(bb) for _, bb in problem.constraints]
    if not all(map(math.isfinite, chain(u_nom, b, *A))):
        raise ValueError("u_nom and every constraint row must be finite")
    if not A:
        return np.array(u_nom)
    winv = tuple(1.0 / x for x in w)
    sw = tuple(math.sqrt(x) for x in winv)
    scaled = [(sw[0] * a[0], sw[1] * a[1], sw[2] * a[2], sw[3] * a[3]) for a in A]  # W^-½a

    u = u_nom
    S = []  # working constraint indices
    mu = []  # their multipliers, kept aligned with S
    iters = 0
    while True:
        resid = [a[0] * u[0] + a[1] * u[1] + a[2] * u[2] + a[3] * u[3] - bb for a, bb in zip(A, b)]  # _dot
        s_p = min(resid)
        if s_p >= -_FEAS_TOL:
            return np.array(u)
        p = resid.index(s_p)
        n_p = A[p]
        hn = (winv[0] * n_p[0], winv[1] * n_p[1], winv[2] * n_p[2], winv[3] * n_p[3])  # W⁻¹n_p
        hn_norm = math.sqrt(_dot(hn, hn))
        mu_p = 0.0
        while True:
            iters += 1
            if iters > max_iter:
                raise NumericalFailure(f"active-set iteration exceeded {max_iter} steps")
            # Split W⁻¹n_p into a component along the working normals (dual
            # direction r, from R r = Qᵀ W^-½ n_p) and one W-orthogonal to
            # them (primal direction z = W^-½ times what Q leaves of W^-½ n_p).
            Q, R = [], []  # QR of the scaled working normals, by modified Gram–Schmidt
            for j in S:
                coef, rest = _project(Q, scaled[j])
                norm = math.sqrt(_dot(rest, rest))
                Q.append((rest[0] / norm, rest[1] / norm, rest[2] / norm, rest[3] / norm))
                R.append(coef + [norm])  # column of the upper-triangular R
            coef, rest = _project(Q, scaled[p])
            r = [0.0] * len(S)
            for i in range(len(S) - 1, -1, -1):
                r[i] = (coef[i] - sum(R[k][i] * r[k] for k in range(i + 1, len(S)))) / R[i][i]
            z = (sw[0] * rest[0], sw[1] * rest[1], sw[2] * rest[2], sw[3] * rest[3])
            s_p = _dot(n_p, u) - b[p]
            if math.sqrt(_dot(z, z)) > 1e-10 * (1.0 + hn_norm):
                # Step that lands p on its boundary.  z·n_p equals |rest|²,
                # which keeps its sign when rest is tiny; z·n_p itself may not.
                t1 = -s_p / _dot(rest, rest)
            else:
                t1 = math.inf
            t2, blocker = math.inf, -1
            for j in range(len(S)):
                if r[j] > 1e-12 and mu[j] / r[j] < t2:
                    t2, blocker = mu[j] / r[j], j
            if t1 == math.inf and t2 == math.inf:
                raise Infeasible("constraint polytope is empty")
            t = min(t1, t2)
            if t1 != math.inf:
                u = (u[0] + t * z[0], u[1] + t * z[1], u[2] + t * z[2], u[3] + t * z[3])
            for j in range(len(S)):
                mu[j] -= t * r[j]
            mu_p += t
            if t1 <= t2:
                S.append(p)
                mu.append(mu_p)
                break
            S.pop(blocker)
            mu.pop(blocker)


def agent_control(rows, u_nom, params: FilterParams) -> np.ndarray:
    """Safety-filtered input for one agent from its own rows (`build_constraints(...).rows[i]`).

    The rows read only the agent's own triangles (and the neighbor states in
    them): the distributed information pattern.  Raises Infeasible or
    NumericalFailure for the caller to handle (fall back and log).
    """
    u_nom = np.asarray(u_nom, dtype=float)
    u = u_nom.tolist()
    if not rows or (len(u) == 4 and all(map(math.isfinite, u)) and all(  # else solve_qp rejects u_nom
            a[0] * u[0] + a[1] * u[1] + a[2] * u[2] + a[3] * u[3] - b >= -_FEAS_TOL for a, b in rows)):
        return u_nom.copy()  # every row holds (summed in _dot's order): solve_qp would return u_nom
    return solve_qp(QpProblem(u_nom, (1.0, 1.0, 1.0, params.w_lambda), rows))
