"""build_graph against the brute-force O(n⁴) construction it replaced.

The oracle tries every triple against every footprint and keeps a trio only
when all three of its pairs are overlapping footprints whose power cells
share a face (a 1-D feasibility test along each radical axis).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aircover.geometry import (
    ADJACENCY_TOL,
    AgentState,
    DegenerateTrio,
    build_graph,
    fov_of,
    make_trio,
    power_distance,
    radical_axis,
    radical_center,
)


def _fovs_overlap(fa, fb):
    # Closed test: tangent footprints count as overlapping.
    return np.linalg.norm(fa.center - fb.center) <= fa.radius + fb.radius


def _cells_adjacent(fovs, i, j):
    """Do the power cells of i and j meet along their radical axis?

    On the axis the difference to any third cell's power distance is affine,
    so the shared face is an interval; the cells are adjacent iff it is
    nonempty (closed, with tolerance).
    """
    try:
        axis = radical_axis(fovs[i], fovs[j])
    except DegenerateTrio:
        return False
    q0, u = axis.point, axis.direction
    lo, hi = -np.inf, np.inf
    for l in range(len(fovs)):
        if l in (i, j):
            continue
        # g(t) = d_i(q0 + t u) − d_l(q0 + t u) must stay ≤ 0 (within tolerance).
        g0 = power_distance(fovs[i], q0) - power_distance(fovs[l], q0)
        g1 = 2.0 * float((fovs[l].center - fovs[i].center) @ u)
        if abs(g1) < 1e-15:
            if g0 > ADJACENCY_TOL:
                return False
            continue
        t = (ADJACENCY_TOL - g0) / g1
        if g1 > 0:
            hi = min(hi, t)
        else:
            lo = max(lo, t)
        if lo > hi:
            return False
    return lo <= hi


def oracle_trio_keys(states, r):
    """Sorted id triples of the brute-force graph."""
    n = len(states)
    fovs = [fov_of(s, r) for s in states]
    edges = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if _fovs_overlap(fovs[i], fovs[j]) and _cells_adjacent(fovs, i, j)
    }
    trio_triples = set()
    handled_degenerate = set()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                try:
                    v = radical_center(fovs[i], fovs[j], fovs[k])
                except DegenerateTrio:
                    continue
                d = power_distance(fovs[i], v)
                cofactor = [i, j, k]
                vertex_alive = True
                for l in range(n):
                    if l in (i, j, k):
                        continue
                    dl = power_distance(fovs[l], v)
                    if dl < d - ADJACENCY_TOL:
                        vertex_alive = False
                        break
                    if dl <= d + ADJACENCY_TOL:
                        cofactor.append(l)
                if not vertex_alive:
                    continue
                cofactor = tuple(sorted(cofactor))
                if len(cofactor) == 3:
                    trio_triples.add(cofactor)
                elif cofactor not in handled_degenerate:
                    handled_degenerate.add(cofactor)
                    apex, rest = cofactor[0], cofactor[1:]
                    for m in range(len(rest) - 1):
                        trio_triples.add((apex, rest[m], rest[m + 1]))
    keys = []
    for a, b, c in sorted(trio_triples):
        if not ((a, b) in edges and (a, c) in edges and (b, c) in edges):
            continue
        try:
            make_trio((a, b, c), [states[a], states[b], states[c]], r)
        except DegenerateTrio:
            continue
        keys.append((a, b, c))
    return keys


def graph_trio_keys(states, r):
    return [t.ids for t in build_graph(states, r).all_trios()]


def lattice_states(side, spacing, jitter=0.0, seed=0):
    rng = random.Random(seed)
    return [
        AgentState(
            gx * spacing + rng.uniform(-jitter, jitter),
            gy * spacing + rng.uniform(-jitter, jitter),
            1.0,
            1.0,
        )
        for gx in range(side)
        for gy in range(side)
    ]


@st.composite
def teams(draw):
    """0–30 agents with mixed z and λ, packed into a box of random size."""
    n = draw(st.integers(0, 30))
    half = draw(st.floats(1.0, 8.0))
    coord = st.floats(-half, half)
    return [
        AgentState(draw(coord), draw(coord), draw(st.floats(1.0, 3.0)), draw(st.floats(0.7, 1.5)))
        for _ in range(n)
    ]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(teams())
def test_random_teams_match_oracle(states):
    assert graph_trio_keys(states, 1.0) == oracle_trio_keys(states, 1.0)


@pytest.mark.parametrize("spacing", [0.75, 1.0, 1.25])
@pytest.mark.parametrize("side", [2, 3, 4, 5])
def test_square_lattice_fans_match_oracle(side, spacing):
    # Every lattice cell's centre is a four-way vertex; its sorted corners
    # (a, b, c, d) split into the index-ordered fan (a, b, c), (a, c, d).
    states = lattice_states(side, spacing)
    expected = set()
    for gx in range(side - 1):
        for gy in range(side - 1):
            a, b = gx * side + gy, gx * side + gy + 1
            c, d = a + side, b + side
            expected |= {(a, b, c), (a, c, d)}
    keys = graph_trio_keys(states, 1.0)
    assert keys == sorted(expected)
    assert keys == oracle_trio_keys(states, 1.0)


def test_jittered_7x7_lattice_matches_oracle():
    states = lattice_states(7, 1.2, jitter=0.1, seed=7)
    keys = graph_trio_keys(states, 1.0)
    assert len(keys) == 2 * 6 * 6
    assert keys == oracle_trio_keys(states, 1.0)


def test_nested_concentric_footprint_has_no_trio():
    # Footprint 0 lies inside the concentric footprint 1, so its power cell
    # is empty.  The candidate (0, 2, 3) has its vertex about 1.5e8 m away,
    # where absolute power distances round to within a few units of each
    # other; the vertex test must still see that footprint 1 beats 0.
    states = [
        AgentState(0.0, 0.0, 1.0, 1.0),
        AgentState(0.0, 0.0, 1.0, 0.75),
        AgentState(1e-08, 0.0, 2.0, 1.0),
        AgentState(0.0, 1.0, 1.0, 1.0),
    ]
    assert graph_trio_keys(states, 1.0) == [(1, 2, 3)]
    assert oracle_trio_keys(states, 1.0) == [(1, 2, 3)]
