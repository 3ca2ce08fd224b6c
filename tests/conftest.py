import numpy as np
import pytest

from aircover.geometry import AgentState, fov_of, make_trio, point_in_triangle


def cross2(a, b) -> float:
    """z-component of the cross product of two planar vectors."""
    return float(a[0] * b[1] - a[1] * b[0])


def random_state(rng, box=4.0):
    return AgentState(
        x=float(rng.uniform(-box, box)),
        y=float(rng.uniform(-box, box)),
        z=float(rng.uniform(1.0, 3.0)),
        lam=float(rng.uniform(0.7, 1.5)),
    )


def random_trio(rng, r=1.0, require_overlap=False, area_margin=0.1):
    """Sample a well-conditioned random trio (retrying until margins hold)."""
    while True:
        states = [random_state(rng) for _ in range(3)]
        fovs = [fov_of(s, r) for s in states]
        centers = [f.center for f in fovs]
        area = 0.5 * abs(cross2(centers[1] - centers[0], centers[2] - centers[0]))
        if area < area_margin:
            continue
        if require_overlap:
            ok = True
            for a in range(3):
                for b in range(a + 1, 3):
                    gap = np.linalg.norm(centers[a] - centers[b]) - (
                        fovs[a].radius + fovs[b].radius
                    )
                    if gap > -0.05:  # overlap with margin
                        ok = False
            if not ok:
                continue
        try:
            trio = make_trio((0, 1, 2), states, r)
        except Exception:
            continue
        # Keep the radical center at a sane distance and the geometry away from
        # frame degeneracy (distinguished agent on the others' center line).
        if np.linalg.norm(trio.radical_center) > 50.0:
            continue
        try:
            _, ratios = point_in_triangle(*trio.triangle, trio.radical_center)
        except Exception:
            continue
        if max(abs(x) for x in ratios) > 25.0:
            continue
        degenerate_frame = False
        for i in range(3):
            others = [c for j, c in enumerate(centers) if j != i]
            d = others[1] - others[0]
            dist_to_line = abs(cross2(d, centers[i] - others[0])) / np.linalg.norm(d)
            if dist_to_line < 0.1:
                degenerate_frame = True
        if degenerate_frame:
            continue
        return trio


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
