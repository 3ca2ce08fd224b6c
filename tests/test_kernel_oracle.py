"""The float kernels against the numpy formulations they replaced.

The oracles below are the earlier numpy versions of `radical_center`
(`np.linalg.solve` on the two radical-axis equations), `sigma_d_frame`
(rotation stacked with `np.vstack`) and `cbf_components` (frame coordinates
through that rotation).  The float kernels round differently, so values are
compared within 1e-12 relative to the scale that rounding can reach for the
problem at hand (a 2×2 solve's condition number times its magnitudes).
Every decision — a `DegenerateTrio`, the frame's orientation — must be
identical, and so must the component values, which take the same
arithmetic from a given radical center.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from aircover.barrier import cbf_components
from aircover.geometry import (
    AREA_TOL,
    CONCENTRIC_TOL,
    AgentState,
    DegenerateTrio,
    Fov,
    build_graph,
    make_trio,
    power_distance,
    radical_center,
    sigma_d_frame,
)
from conftest import cross2, roles

RTOL = 1e-12


def oracle_radical_center(fa, fb, fc):
    centers = [fa.center, fb.center, fc.center]
    for a in range(3):
        for b in range(a + 1, 3):
            if np.linalg.norm(centers[a] - centers[b]) < CONCENTRIC_TOL:
                raise DegenerateTrio("concentric footprint pair")
    ca, cb, cc = centers
    if abs(0.5 * cross2(cb - ca, cc - ca)) < AREA_TOL:
        raise DegenerateTrio("collinear footprint centers")
    pa = ca @ ca - fa.radius**2
    pb = cb @ cb - fb.radius**2
    pc = cc @ cc - fc.radius**2
    A = 2.0 * np.array([cb - ca, cc - cb])
    rhs = np.array([pb - pa, pc - pb])
    return np.linalg.solve(A, rhs)


def oracle_sigma_d_frame(trio, distinguished):
    """(origin, rotation) of the viewpoint's working frame."""
    i, j, k = roles(trio, distinguished)
    fj = trio.fovs[trio.ids.index(j)]
    fk = trio.fovs[trio.ids.index(k)]
    cj, ck = fj.center, fk.center
    d = ck - cj
    nd = float(np.linalg.norm(d))
    if nd < CONCENTRIC_TOL:
        raise DegenerateTrio("coincident J/K centers")
    c = 0.5 * ((ck @ ck - fk.radius**2) - (cj @ cj - fj.radius**2))
    s = (c - float(cj @ d)) / nd
    origin = cj + s * d / nd
    x_axis = d / nd
    if float(x_axis @ (ck - origin)) < 0.0:
        x_axis = -x_axis
    y_axis = np.array([-x_axis[1], x_axis[0]])
    return origin, np.vstack([x_axis, y_axis])


def oracle_cbf_components(trio, viewpoint):
    """(values, frame coordinates (x_i, y_i, x_j, x_k)) of one viewpoint."""
    i, j, k = roles(trio, viewpoint)
    fi, fj, fk = (trio.fovs[trio.ids.index(a)] for a in (i, j, k))
    v = trio.radical_center
    I, J, K = fi.center, fj.center, fk.center
    denom = cross2(J - I, K - I)
    if abs(denom) < 2.0 * AREA_TOL:
        raise DegenerateTrio("triangle area below tolerance")
    r_ijk = cross2(J - I, v - I) / denom
    r_jki = cross2(K - J, v - J) / denom
    r_kij = cross2(I - K, v - K) / denom
    h_f = -power_distance(fi, v)
    origin, rotation = oracle_sigma_d_frame(trio, viewpoint)
    pi = rotation @ (fi.center - origin)
    xj = (rotation @ (fj.center - origin))[0]
    xk = (rotation @ (fk.center - origin))[0]
    return (-r_ijk, -r_jki, -r_kij, h_f), (pi[0], pi[1], xj, xk)


def solve_scale(fovs, v):
    """What rounding can reach in a radical-center solve: κ(A)·(‖v‖ + max|p|/‖A‖).

    A is the 2×2 radical-axis matrix and p the lifted heights |c|² − R²,
    whose rounding is what the right-hand side carries.
    """
    ca, cb, cc = (f.center for f in fovs)
    A = 2.0 * np.array([cb - ca, cc - cb])
    lifted = max(abs(float(f.center @ f.center - f.radius**2)) for f in fovs)
    return np.linalg.cond(A) * (np.abs(v).max() + lifted / np.linalg.norm(A, 2))


def frame_scale(trio):
    """What rounding can reach in a frame origin: m²/‖c_k − c_j‖ + m over the trio's magnitudes m."""
    m = max(abs(f.cx) + abs(f.cy) + f.radius for f in trio.fovs)
    gap = min(
        np.linalg.norm(a.center - b.center)
        for n, a in enumerate(trio.fovs)
        for b in trio.fovs[n + 1:]
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
    return [Fov(float(p[0]), float(p[1]), r) for p, r in zip((a, b, c), radii)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(footprint_trios())
def test_radical_center_matches_solve(fovs):
    expect = outcome(oracle_radical_center, *fovs)
    got = outcome(radical_center, *fovs)
    assert (got is None) == (expect is None)
    if expect is not None:
        assert np.abs(got - expect).max() <= RTOL * solve_scale(fovs, expect)


def trio_of(fovs):
    # Unit focal length and r = 1 give footprint radius z.
    states = [AgentState(f.cx, f.cy, f.radius, 1.0) for f in fovs]
    return make_trio((0, 1, 2), states, 1.0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(footprint_trios())
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
        assert np.abs(frame.origin - origin).max() <= RTOL * scale
        # Same orientation: the axes agree to rounding, not up to a sign.
        assert np.abs(frame.rotation - rotation).max() <= RTOL

        expect = outcome(oracle_cbf_components, trio, viewpoint)
        comps = outcome(cbf_components, trio, viewpoint)
        assert (comps is None) == (expect is None)
        if comps is None:
            continue
        vals, coords = expect
        assert comps.vals == vals
        assert np.abs(np.array(comps.coords[:4]) - coords).max() <= RTOL * scale


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
def test_graph_centers_equal_scalar_kernel(states):
    # The graph's batched solve and radical_center share one formula, so a
    # trio's stored center is exactly what radical_center gives for it.
    for trio in build_graph(states, 1.0).all_trios():
        assert np.array_equal(trio.radical_center, radical_center(*trio.fovs))
