"""The float kernels against the numpy formulations they replaced.

The oracles below are the earlier numpy versions of `radical_center`
(`np.linalg.solve` on the two radical-axis equations), `sigma_d_frame`
(rotation stacked with `np.vstack`) and `cbf_components` (one signed-area
split of the id-ordered triangle, permuted into each viewpoint's roles, and
frame coordinates through that rotation), and the working-frame formula of
the footprint gradient that its world-frame closed form replaced
(`conftest.frame_footprint_gradient`).  The float kernels round
differently, so values are
compared within 1e-12 relative to the scale that rounding can reach for the
problem at hand (a 2×2 solve's condition number times its magnitudes).
Every decision — a `DegenerateTrio`, the frame's orientation — must be
identical, and so must the component values, which take the same
arithmetic from a given radical center.
"""

from fractions import Fraction

import logging

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import aircover.controller
from aircover.barrier import cbf_components, cbf_gradient
from aircover.controller import FilterParams, build_constraints
from aircover.geometry import (
    AREA_TOL,
    CONCENTRIC_TOL,
    AgentState,
    CommGraph,
    DegenerateTrio,
    build_graph,
    power_distance,
    sigma_d_frame,
)
from conftest import (
    NEAR_PAIR_TEAM,
    SQUARE_TEAM,
    cross2,
    disks,
    frame_footprint_gradient,
    frame_rotation,
    make_trio,
    radical_center,
    roles,
    view,
)

RTOL = 1e-12


def center(disk):
    return np.array(disk[:2])


def oracle_radical_center(fa, fb, fc):
    centers = [center(fa), center(fb), center(fc)]
    for a in range(3):
        for b in range(a + 1, 3):
            if np.linalg.norm(centers[a] - centers[b]) < CONCENTRIC_TOL:
                raise DegenerateTrio("concentric footprint pair")
    ca, cb, cc = centers
    if abs(0.5 * cross2(cb - ca, cc - ca)) < AREA_TOL:
        raise DegenerateTrio("collinear footprint centers")
    pa = ca @ ca - fa[2] ** 2
    pb = cb @ cb - fb[2] ** 2
    pc = cc @ cc - fc[2] ** 2
    A = 2.0 * np.array([cb - ca, cc - cb])
    rhs = np.array([pb - pa, pc - pb])
    return np.linalg.solve(A, rhs)


def oracle_sigma_d_frame(trio, distinguished):
    """(origin, rotation) of the viewpoint's working frame."""
    i, j, k = roles(trio, distinguished)
    _, _, rj = fj = disks(trio)[trio.ids.index(j)]
    _, _, rk = fk = disks(trio)[trio.ids.index(k)]
    cj, ck = center(fj), center(fk)
    d = ck - cj
    nd = float(np.linalg.norm(d))
    if nd < CONCENTRIC_TOL:
        raise DegenerateTrio("coincident J/K centers")
    c = 0.5 * ((ck @ ck - rk**2) - (cj @ cj - rj**2))
    s = (c - float(cj @ d)) / nd
    origin = cj + s * d / nd
    x_axis = d / nd
    # Origin beyond K (t > 1 in origin = cj + t·d) exactly when R_J² − R_K² > ‖d‖².
    if rj**2 - rk**2 > float(d @ d):
        x_axis = -x_axis
    y_axis = np.array([-x_axis[1], x_axis[0]])
    return origin, np.vstack([x_axis, y_axis])


def oracle_cbf_components(trio, viewpoint):
    """(values, frame coordinates (x_i, y_i, x_j, x_k)) of one viewpoint.

    The values are the trio's: each agent's barycentric coordinate of the
    radical center in the id-ordered triangle, and the negated power distance
    to the lowest-id footprint, arranged by the viewpoint's roles.
    """
    i, j, k = roles(trio, viewpoint)
    I, J, K = (center(disks(trio)[trio.ids.index(a)]) for a in (i, j, k))
    v = trio.radical_center
    P0, P1, P2 = (center(f) for f in disks(trio))
    denom = cross2(P1 - P0, P2 - P0)
    if abs(denom) < 2.0 * AREA_TOL:
        raise DegenerateTrio("triangle area below tolerance")
    bary = dict(zip(trio.ids, (
        cross2(P2 - P1, v - P1) / denom,
        cross2(P0 - P2, v - P2) / denom,
        cross2(P1 - P0, v - P0) / denom,
    )))
    h_f = -power_distance(disks(trio)[0], v)
    origin, rotation = oracle_sigma_d_frame(trio, viewpoint)
    pi = rotation @ (I - origin)
    xj = (rotation @ (J - origin))[0]
    xk = (rotation @ (K - origin))[0]
    return (-bary[k], -bary[i], -bary[j], h_f), (pi[0], pi[1], xj, xk)


def solve_scale(fovs, v):
    """What rounding can reach in a radical-center solve: κ(A)·(‖v‖ + max|p|/‖A‖).

    A is the 2×2 radical-axis matrix and p the lifted heights |c|² − R²,
    whose rounding is what the right-hand side carries.
    """
    ca, cb, cc = (center(f) for f in fovs)
    A = 2.0 * np.array([cb - ca, cc - cb])
    lifted = max(abs(float(c @ c - f[2] ** 2)) for c, f in zip((ca, cb, cc), fovs))
    return np.linalg.cond(A) * (np.abs(v).max() + lifted / np.linalg.norm(A, 2))


def frame_scale(trio):
    """What rounding can reach in a frame origin: m²/‖c_k − c_j‖ + m over the trio's magnitudes m."""
    fovs = disks(trio)
    m = max(abs(x) + abs(y) + R for x, y, R in fovs)
    gap = min(
        np.linalg.norm(center(a) - center(b))
        for n, a in enumerate(fovs)
        for b in fovs[n + 1:]
    )
    return m * m / gap + m


def outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateTrio:
        return None


@st.composite
def footprint_trios(draw):
    """Three footprints: mixed radii, far from the origin, near-collinear, or with a concentric pair."""
    kind = draw(st.sampled_from(["mixed", "far", "near_collinear", "concentric"]))
    coord = st.floats(-5.0, 5.0)
    a = np.array([draw(coord), draw(coord)])
    b = a + np.array([draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))])
    if kind == "near_collinear":
        d = b - a
        length = float(np.linalg.norm(d))
        assume(length > 1e-3)
        normal = np.array([-d[1], d[0]]) / length
        area = AREA_TOL * draw(st.floats(1.01, 20.0))
        c = a + draw(st.floats(-2.0, 2.0)) * d + normal * (2.0 * area / length)
    elif kind == "concentric":
        c = draw(st.sampled_from([a, b])).copy()
    else:
        c = a + np.array([draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))])
    if kind == "far":
        offset = np.array([draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))])
        a, b, c = a + offset, b + offset, c + offset
    radii = [draw(st.floats(0.05, 5.0)) for _ in range(3)]
    return [(float(p[0]), float(p[1]), r) for p, r in zip((a, b, c), radii)]


# Fixed examples, kept whatever seed a test's source hashes to: J and K 4e-9 m
# apart at |c| ≈ 3.4 m, where a frame origin's rounding exceeds their gap; a
# near-collinear trio at 1.01·AREA_TOL; a trio 1e3 m from the origin.
NEAR_PAIR = [(0.5, -1.0, 1.2), (2.4, 2.4, 1.0), (2.4 + 4e-9, 2.4, 1.0)]
NEAR_COLLINEAR = [(0.3, -0.2, 1.1), (1.3, -0.2, 0.9), (0.8, -0.2 + 2.02 * AREA_TOL, 1.4)]
FAR = [(1000.5, 998.8, 1.5), (1001.8, 999.9, 2.0), (1000.2, 1001.3, 1.2)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(footprint_trios())
@example(NEAR_PAIR)
@example(NEAR_COLLINEAR)
@example(FAR)
def test_radical_center_matches_solve(fovs):
    expect = outcome(oracle_radical_center, *fovs)
    got = outcome(radical_center, *fovs)
    assert (got is None) == (expect is None)
    if expect is not None:
        assert np.abs(got - expect).max() <= RTOL * solve_scale(fovs, expect)


def trio_of(fovs):
    # Unit focal length and r = 1 give footprint radius z.
    states = [AgentState(x, y, R, 1.0) for x, y, R in fovs]
    return make_trio((0, 1, 2), states, 1.0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(footprint_trios())
@example(NEAR_PAIR)
@example(NEAR_COLLINEAR)
@example(FAR)
def test_frame_and_components_match_numpy(fovs):
    trio = outcome(trio_of, fovs)
    assume(trio is not None)
    scale = frame_scale(trio)
    for viewpoint in trio.ids:
        expect = outcome(oracle_sigma_d_frame, trio, viewpoint)
        frame = outcome(sigma_d_frame, trio, viewpoint)
        assert (frame is None) == (expect is None)
        if frame is None:
            continue
        origin, rotation = expect
        assert np.abs(np.array(frame[:2]) - origin).max() <= RTOL * scale
        # Same orientation: the axes agree to rounding, not up to a sign.
        assert np.abs(frame_rotation(frame) - rotation).max() <= RTOL

        expect = outcome(oracle_cbf_components, trio, viewpoint)
        comps = outcome(view, trio, viewpoint)
        assert (comps is None) == (expect is None)
        if comps is None:
            continue
        vals, coords = expect
        assert comps.vals == vals
        assert np.abs(np.array(comps.coords[:4]) - coords).max() <= RTOL * scale


# Viewpoint 0's frame flipped (R_J² − R_K² = 8.75 > ‖JK‖² = 1, so its x-axis
# runs from K to J), and viewpoint 0 9e-13 m off a 3,000 m line JK, under
# the frame's 1e-12 m (the triangle's area, 1.35e-9 m², is above AREA_TOL).
FLIPPED = [(0.5, 1.5, 1.0), (0.0, 0.0, 3.0), (1.0, 0.0, 0.5)]
ON_LINE = [(0.0, 9e-13, 2000.0), (-1500.0, 0.0, 2500.0), (1500.0, 0.0, 2500.0)]


def raised(fn, *args):
    """fn(*args), or the DegenerateTrio it raises."""
    try:
        return fn(*args)
    except DegenerateTrio as exc:
        return exc


def footprint_scale(trio, position):
    """What rounding can reach in a footprint row.

    The closed form 2λ_I(v − c_I) carries the solve's reach, and the frame
    formula the frame's, times (1 + |λ_I|)(1 + ‖v − c_I‖); the frame formula
    divides by the viewpoint's frame height y_i as well, which multiplies its
    reach by 1 + m/|y_i| over the trio's magnitudes m.
    """
    comps = cbf_components(trio)[position]
    v = np.array(trio.radical_center)
    offset = float(np.linalg.norm(v - np.array(trio.rows[position][:2])))
    m = max(abs(x) + abs(y) + R for x, y, R in disks(trio))
    return ((1.0 + abs(comps.vals[1])) * (1.0 + offset) * (1.0 + m / comps.height)
            * (solve_scale(disks(trio), v) + frame_scale(trio)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(footprint_trios())
@example(NEAR_COLLINEAR)
@example(FAR)
@example(FLIPPED)
@example(ON_LINE)
def test_footprint_closed_form_matches_frame_formula(fovs):
    # Each member's footprint row from the world-frame closed form against
    # the working-frame formula: the same rows, or the same DegenerateTrio.
    trio = outcome(trio_of, fovs)
    assume(trio is not None)
    views = outcome(cbf_components, trio)
    assume(views is not None)
    for position, comps in enumerate(views):
        if isinstance(comps, DegenerateTrio):
            continue
        expect, got = raised(frame_footprint_gradient, comps), raised(cbf_gradient, comps, 4)
        if isinstance(expect, DegenerateTrio):
            assert isinstance(got, DegenerateTrio) and str(got) == str(expect)
            continue
        assert all(type(x) is float for x in got)
        error = max(abs(g - e) for g, e in zip(got, expect))
        assert error <= RTOL * footprint_scale(trio, position)


def test_pinned_footprint_examples_and_the_on_line_drop(monkeypatch, caplog):
    # FLIPPED flips viewpoint 0's frame.  On ON_LINE, the filter drops agent
    # 0's row with the same warning under either form and keeps the rows of
    # agents 1 and 2, whose heights over their JK are 1.8e-12 m.
    assert sigma_d_frame(trio_of(FLIPPED), 0)[2] < 0.0
    graph = CommGraph(3, (trio_of(ON_LINE),))
    built = {}
    for form in ("closed", "frame"):
        if form == "frame":
            monkeypatch.setattr(aircover.controller, "cbf_gradient", lambda comps, l: (
                frame_footprint_gradient(comps) if l == 4 else cbf_gradient(comps, l)))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="aircover.controller"):
            rows = build_constraints(graph, FilterParams()).rows
        built[form] = rows, caplog.messages
    (closed, warned), (framed, framed_warned) = built["closed"], built["frame"]
    assert warned == framed_warned == [
        "agent 0 trio (0, 1, 2) degenerate, dropped: viewpoint agent on the line through the other two"]
    assert closed[0] == framed[0] == []
    for agent in (1, 2):
        ((a, b),), ((fa, fb),) = closed[agent], framed[agent]
        assert b == fb and np.allclose(a, fa, rtol=1e-12, atol=0.0)


def test_near_pair_frame_origin_is_exact():
    # J and K 4e-9 m apart on one horizontal line at |c| ≈ 3.4 m: the origin,
    # where their radical axis crosses line JK, lies (‖d‖² + R_J² − R_K²)/(2‖d‖)
    # from J, which Fractions give exactly.
    trio = trio_of(NEAR_PAIR)
    ox, oy, _, _ = sigma_d_frame(trio, 0)
    (jx, jy, rj), (kx, _, rk) = NEAR_PAIR[1:]
    d = Fraction(kx) - Fraction(jx)
    exact = Fraction(jx) + (d * d + Fraction(rj) ** 2 - Fraction(rk) ** 2) / (2 * d)
    assert abs(Fraction(ox) - exact) <= 4e-16 * exact
    assert oy == jy


def exact_radical_center(fovs):
    """The radical center of three disks (cx, cy, R) in Fractions: exact for their float values."""
    (ax, ay, ra), (bx, by, rb), (cx, cy, rc) = ([Fraction(v) for v in f] for f in fovs)
    lift = [x * x + y * y - r * r for x, y, r in ((ax, ay, ra), (bx, by, rb), (cx, cy, rc))]
    a00, a01, a10, a11 = 2 * (bx - ax), 2 * (by - ay), 2 * (cx - bx), 2 * (cy - by)
    r0, r1 = lift[1] - lift[0], lift[2] - lift[1]
    det = a00 * a11 - a01 * a10
    return (r0 * a11 - a01 * r1) / det, (a00 * r1 - r0 * a10) / det


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
def test_near_pair_radical_center_is_exact(pair):
    # The 4e-9 m pair of NEAR_PAIR placed at each pair of ids.  Lifted heights
    # |c|² − R² of about 11.5 m² cancel to 2e-8 m² between the pair, which left
    # both solves about 1.7e-7 m off; written from a member of the pair, its
    # axis enters directly.  The graph solves the same trio with r = 2, where
    # all three footprints overlap.
    fovs = list(NEAR_PAIR[1:])
    fovs.insert(3 - sum(pair), NEAR_PAIR[0])
    (trio,) = build_graph([AgentState(x, y, R, 1.0) for x, y, R in fovs], 2.0).all_trios()
    for got, solved in ((radical_center(*fovs), fovs), (trio.radical_center, disks(trio))):
        exact = exact_radical_center(solved)
        assert max(abs(Fraction(g) - e) for g, e in zip(got, exact)) <= 1e-12


@st.composite
def teams(draw):
    n = draw(st.integers(3, 25))
    half = draw(st.floats(1.0, 6.0))
    coord = st.floats(-half, half)
    return [
        AgentState(draw(coord), draw(coord), draw(st.floats(1.0, 3.0)), draw(st.floats(0.7, 1.5)))
        for _ in range(n)
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(teams())
@example(SQUARE_TEAM)
@example(NEAR_PAIR_TEAM)
def test_graph_centers_equal_scalar_kernel(states):
    # The graph's batched solve and radical_center share one formula, so a
    # trio's stored center is exactly what radical_center gives for it.
    for trio in build_graph(states, 1.0).all_trios():
        assert np.array_equal(trio.radical_center, radical_center(*disks(trio)))
