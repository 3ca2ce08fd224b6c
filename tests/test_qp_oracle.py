"""The float `solve_qp` against the numpy solver it replaced.

The oracle is the earlier numpy Goldfarb–Idnani solve: the same iteration,
with one `np.linalg.lstsq` per active-set step to split the new normal, and
a final polish that the float solver does not have: `np.linalg.solve` on the
final working set's normal equations.  Both must reach the same outcome
(a solution, `Infeasible` or `NumericalFailure`) and, on a solution, the same
u within 1e-9·(1 + |u|).  The inputs cover what the float solver's QR and
its primal and dual steps must get right: weights up to 3e6, near-parallel
rows, dual steps that drop a blocking constraint, normals spanned by the
working set, contradictory pairs, the iteration cap, and every QP of one
`lattice25_expand` benchmark run.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import nnls

import aircover.controller
import aircover.sim
from aircover.cli import parse_config
from aircover.controller import (
    Infeasible,
    NumericalFailure,
    QpProblem,
    _FEAS_TOL,
    solve_qp,
)
from aircover.sim import run

ROOT = Path(__file__).resolve().parents[1]
TOL = 1e-9


def oracle_solve_qp(problem, max_iter=200, stats=None):
    """The numpy dual active-set solve; `stats["drops"]` counts blockers that left the set."""
    u_nom = np.asarray(problem.u_nom, dtype=float)
    w = np.asarray(problem.weights, dtype=float)
    if w.shape != u_nom.shape or np.any(w <= 0):
        raise ValueError("weights must be positive and match u_nom")
    if not problem.constraints:
        return u_nom.copy()
    A = np.array([a for a, _ in problem.constraints], dtype=float)
    b = np.array([bb for _, bb in problem.constraints], dtype=float)
    if float((A @ u_nom - b).min()) >= -_FEAS_TOL:
        return u_nom.copy()
    winv = 1.0 / w
    sqrt_winv = np.sqrt(winv)

    u = u_nom.copy()
    S = []
    mu = []

    def polish(u, S):
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
                t1 = -s_p / float(z @ n_p)
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
            if stats is not None:
                stats["drops"] = stats.get("drops", 0) + 1


def outcome(solver, problem, max_iter=200, **kw):
    try:
        return "ok", solver(problem, max_iter, **kw)
    except Infeasible:
        return "infeasible", None
    except NumericalFailure:
        return "numerical", None


def active_conditioning(problem, u):
    """κ(G) of the Gram matrix G = A_S W⁻¹ A_Sᵀ of the rows active at u, over their span."""
    A = np.array([a for a, _ in problem.constraints], dtype=float)
    b = np.array([bb for _, bb in problem.constraints], dtype=float)
    active = A[(A @ u - b < 1e-6 * (1.0 + np.abs(u).max())) & np.any(A != 0.0, axis=1)]
    if not len(active):
        return 1.0
    s = np.linalg.svd(active / np.sqrt(problem.weights), compute_uv=False)
    s = s[s > 1e-12 * s[0]]
    return float(s[0] / s[-1]) ** 2


def kkt_holds(problem, u):
    """u is feasible and W(u − u_nom) is a nonnegative combination of the rows active at u."""
    A = np.array([a for a, _ in problem.constraints], dtype=float)
    b = np.array([bb for _, bb in problem.constraints], dtype=float)
    scale = 1.0 + np.abs(u).max()
    resid = A @ u - b
    active = A[resid < 1e-6 * scale]
    g = problem.weights * (u - problem.u_nom)
    misfit = nnls(active.T, g)[1] if len(active) else np.abs(g).max()
    return resid.min() >= -_FEAS_TOL * scale and misfit <= 1e-6 * (1.0 + np.abs(g).max())


def assert_matches_oracle(problem, max_iter=200, stats=None):
    """Same outcome, and on a solution u within 1e-9·(1 + |u|), unless the oracle is wrong.

    The oracle polishes with the normal equations of the final working set,
    so it is accurate to about eps·κ(G) only: the bound grows to
    1e-14·κ(G)·(1 + |u|) past κ(G) = 1e5.  Rows a hair from parallel in the
    W^-½ scaling defeat the oracle: its primal step divides by z·n_p, which
    rounding can give the wrong sign when z is tiny, so it may stop far from
    the optimum, take extra steps into the iteration cap, or call a feasible
    problem infeasible.  Where the two disagree, the float solver must reach
    a KKT point (uncapped, if the cap stopped it), and the oracle must not
    have one, except that past κ(G) = 1e6 rounding may change how many steps
    a solve takes, so only the float solver may run into a small cap there.
    """
    kind, got = outcome(solve_qp, problem, max_iter)
    expect_kind, expect = outcome(oracle_solve_qp, problem, max_iter, stats=stats)
    if kind == "ok":
        assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == (4,)
    if kind == expect_kind:
        if kind != "ok":
            return kind
        scale = max(TOL, 1e-14 * active_conditioning(problem, got))
        if np.abs(got - expect).max() <= scale * (1.0 + np.abs(expect).max()):
            return kind
    full_kind, full = outcome(solve_qp, problem) if kind == "numerical" else (kind, got)
    assert full_kind == "ok" and kkt_holds(problem, full)
    if expect_kind == "ok" and kkt_holds(problem, expect):
        assert kind == "numerical" and max_iter < 200
        assert active_conditioning(problem, expect) > 1e6
        return "steps differ"
    return "oracle wrong"


def problem_of(rows, u_nom, w_lambda):
    return QpProblem(
        u_nom=np.asarray(u_nom, dtype=float),
        weights=np.array([1.0, 1.0, 1.0, w_lambda]),
        constraints=[(tuple(float(x) for x in a), float(b)) for a, b in rows],
    )


# Entries are 0 or of magnitude 0.1–3: ill-conditioning comes from the
# weights and the deliberate near-parallel tilts, not from stray tiny entries.
entries = st.one_of(st.just(0.0), st.floats(0.1, 3.0), st.floats(-3.0, -0.1))
vectors = st.lists(entries, min_size=4, max_size=4).map(np.array)
unit_scale = st.floats(0.1, 10.0)
# Offsets of b from a·u_nom.  They stay 1e-6 clear of the 1e-8 feasibility
# threshold, where rounding alone decides whether a row is violated.
offsets = st.one_of(st.floats(-1.0, -1e-6), st.floats(1e-6, 2.0))


@st.composite
def qps(draw):
    """A QP with 1–8 rows of one kind: random, near-parallel, spanned or contradictory."""
    kind = draw(st.sampled_from(["random", "near_parallel", "spanned", "contradictory"]))
    w_lambda = draw(st.sampled_from([1.0, 1e3, 1e6, 3e6]))
    u_nom = draw(vectors)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(vectors)
        rows.append((a, float(a @ u_nom) + draw(offsets)))
    base, offset = rows[0]
    if kind == "near_parallel":
        # A second row within 1e-6–1e-2 of the first's direction.
        tilt = draw(vectors) * draw(st.sampled_from([1e-6, 1e-4, 1e-2]))
        rows.append((base + tilt, offset + draw(st.floats(-0.1, 0.1))))
        assume(abs(float(rows[-1][0] @ u_nom) - rows[-1][1]) > 1e-6)
    elif kind == "spanned" and len(rows) >= 2:
        # A normal in the span of two others: a dual step, or a Farkas certificate.
        c1, c2 = draw(entries.filter(bool)), draw(entries.filter(bool))
        a = c1 * rows[0][0] + c2 * rows[1][0]
        rows.append((a, float(a @ u_nom) + draw(offsets)))
    elif kind == "contradictory":
        # a·u ≥ b and −a·u ≥ b' with b + b' > 0: no u satisfies both.
        rows.append((-base, -offset + draw(st.floats(0.01, 1.0))))
    # Rescaling a row (both sides) changes its norm, not the set it bounds.
    scales = [draw(unit_scale) for _ in rows]
    rows = [(a * c, b * c) for (a, b), c in zip(rows, scales)]
    order = draw(st.permutations(range(len(rows))))
    return problem_of([rows[i] for i in order], u_nom, w_lambda)


# Fixed examples, kept whatever seed the test's source hashes to: an
# infeasible antiparallel pair (u_x ≥ 1 and u_x ≤ −0.5), and a nominal that
# violates both rows under an iteration cap of 0.
@settings(max_examples=600, deadline=None, derandomize=True)
@given(qps(), st.sampled_from([200, 200, 200, 0, 1, 2, 3]))
@example(problem_of([((1.0, 0.0, 0.0, 0.0), 1.0), ((-1.0, 0.0, 0.0, 0.0), 0.5)], [0.0] * 4, 1e6), 200)
@example(problem_of([((1.0, 0.5, 0.0, 0.2), 1.0), ((0.0, 1.0, -0.3, 0.0), 0.4)], [0.0] * 4, 3e6), 0)
def test_float_solver_matches_oracle(problem, max_iter):
    assert_matches_oracle(problem, max_iter)


def random_feasible_problem(rng, n_rows):
    """Rows of mixed scale around a known feasible point; u_nom violates some of them."""
    A = rng.normal(size=(n_rows, 4)) * rng.uniform(0.1, 10.0, size=(n_rows, 1))
    u_feas = rng.normal(size=4)
    b = A @ u_feas - rng.uniform(0.0, 1.0, size=n_rows)
    u_nom = u_feas + 2.0 * rng.normal(size=4)
    return problem_of(zip(A, b), u_nom, float(rng.choice([1.0, 1e6, 3e6])))


def test_dual_steps_that_drop_a_blocker_match_oracle():
    # Two or three rows: the solution has at most three active rows, and some
    # solves take dual steps that drop a blocking constraint on the way.
    rng = np.random.default_rng(11)
    stats = {}
    for _ in range(1000):
        problem = random_feasible_problem(rng, int(rng.integers(2, 4)))
        assert assert_matches_oracle(problem, stats=stats) == "ok"
    assert stats["drops"] >= 20


def exact_kkt_point(problem, active):
    """u and multipliers of the equality-constrained solve on `active`, in exact rationals."""
    A = [[Fraction(x) for x in a] for a, _ in problem.constraints]
    b = [Fraction(bb) for _, bb in problem.constraints]
    winv = [1 / Fraction(x) for x in problem.weights]
    u_nom = [Fraction(x) for x in problem.u_nom]
    rows = [A[j] for j in active]
    M = [
        [sum(ai[c] * winv[c] * ak[c] for c in range(4)) for ak in rows]
        + [b[j] - sum(ai[c] * u_nom[c] for c in range(4))]
        for j, ai in zip(active, rows)
    ]
    m = len(rows)
    for c in range(m):
        pivot = next(i for i in range(c, m) if M[i][c] != 0)
        M[c], M[pivot] = M[pivot], M[c]
        for i in range(m):
            if i != c:
                f = M[i][c] / M[c][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    mu = [M[i][m] / M[i][i] for i in range(m)]
    u = [u_nom[c] + winv[c] * sum(mk * ak[c] for mk, ak in zip(mu, rows)) for c in range(4)]
    return u, mu


def test_vertex_problems_match_exact_solution():
    # Solutions with one to four active rows (four: a vertex), each checked
    # against the exact KKT point within 1e-14·κ(G)·(1 + |u|), where G =
    # A_S W⁻¹ A_Sᵀ: at a vertex both the float solver's active-set iterate
    # and the oracle's polished answer are accurate to about eps·κ(G) only.
    rng = np.random.default_rng(12)
    checked = dict.fromkeys(range(1, 5), 0)
    for _ in range(600):
        problem = random_feasible_problem(rng, int(rng.integers(1, 10)))
        expect = oracle_solve_qp(problem)
        got = solve_qp(problem)
        A = np.array([a for a, _ in problem.constraints])
        b = np.array([bb for _, bb in problem.constraints])
        active = np.flatnonzero(A @ expect - b < 1e-6).tolist()
        if len(active) not in checked:
            continue
        u, mu = exact_kkt_point(problem, active)
        # Exact KKT point: feasible, nonnegative multipliers, so the optimum.
        assert min(mu) > 0
        assert all(sum(Fraction(x) * uc for x, uc in zip(a, u)) >= Fraction(bb)
                   for a, bb in problem.constraints)
        u = np.array([float(x) for x in u])
        G = (A[active] / problem.weights) @ A[active].T
        bound = 1e-14 * np.linalg.cond(G) * (1.0 + np.abs(u).max())
        assert np.abs(got - u).max() <= bound
        assert np.abs(expect - u).max() <= bound
        checked[len(active)] += 1
    assert min(checked.values()) >= 50


def load_lattice():
    spec = importlib.util.spec_from_file_location("lattice", ROOT / "perfbench" / "lattice.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def lattice_qps():
    """The QP of every agent and step of one 41-step `lattice25_expand` run (layout 0), and the ones solved.

    `agent_control` hands solve_qp only the problems whose rows fail at u_nom;
    the others are rebuilt here from the same rows, so that solve_qp's own
    answer on them is checked too.
    """
    recorded, solved = [], []
    original_control = aircover.sim.agent_control
    original_qp = aircover.controller.solve_qp

    def recording(rows, u_nom, params):
        weights = (1.0, 1.0, 1.0, params.w_lambda)
        recorded.append(QpProblem(np.asarray(u_nom, dtype=float), weights, rows))
        return original_control(rows, u_nom, params)

    def solving(problem, *args, **kwargs):
        solved.append(problem)
        return original_qp(problem, *args, **kwargs)

    scenario = parse_config(load_lattice().generate(0))
    mp = pytest.MonkeyPatch()
    mp.setattr(aircover.sim, "agent_control", recording)
    mp.setattr(aircover.controller, "solve_qp", solving)
    try:
        run(scenario)
    finally:
        mp.undo()
    return recorded, solved


def test_lattice_run_qps_match_oracle(lattice_qps):
    problems, solved = lattice_qps
    assert len(problems) == 25 * 41
    iterating = 0
    stats = {}
    for problem in problems:
        assert assert_matches_oracle(problem, stats=stats) == "ok"
        A = np.array([a for a, _ in problem.constraints])
        b = np.array([bb for _, bb in problem.constraints])
        iterating += float((A @ problem.u_nom - b).min()) < -_FEAS_TOL
    assert iterating >= 100
    assert len(solved) == iterating
    # Dual steps that drop a blocker: a sign error in the multiplier update shows here.
    assert stats["drops"] >= 20
