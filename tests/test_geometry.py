import numpy as np
import pytest

from aircover.geometry import (
    AgentState,
    DegenerateTrio,
    build_graph,
    point_in_triangle,
    power_distance,
    sigma_d_frame,
)
from aircover.coverage import CoverageGrid
from conftest import (
    cross2,
    disks,
    frame_rotation,
    grid_witnesses,
    hole_exists_exact,
    make_trio,
    oracle_witnesses,
    radical_axis,
    radical_center,
    random_trio,
    roles,
    to_frame,
    trio_states,
    triangle,
)


def equal_radius_states(centers, z=1.0, lam=1.0):
    return [AgentState(x=c[0], y=c[1], z=z, lam=lam) for c in centers]


class TestAgentState:
    def test_numpy_scalars_become_plain_floats(self):
        s = AgentState(np.float64(1.5), np.float32(2.0), np.int64(3), 4)
        assert all(type(v) is float for v in (s.x, s.y, s.z, s.lam))
        assert repr(s) == "AgentState(x=1.5, y=2.0, z=3.0, lam=4.0)"

    def test_one_numpy_field_among_floats_is_normalized(self):
        s = AgentState(1.5, 2.0, np.float64(3.25), 4.0)
        assert type(s.z) is float
        assert repr(s) == "AgentState(x=1.5, y=2.0, z=3.25, lam=4.0)"

    def test_plain_floats_kept(self):
        x = 0.1 + 0.2
        s = AgentState(x, -0.0, 1e-300, 7.0)
        assert s.x is x
        assert repr(s) == "AgentState(x=0.30000000000000004, y=-0.0, z=1e-300, lam=7.0)"
        assert s == AgentState(np.float64(x), np.float64(-0.0), np.float64(1e-300), np.float64(7.0))

    def test_replace_and_make_normalize_numpy_scalars(self):
        s = AgentState(1.5, 2.0, 3.0, 4.0)._replace(x=np.float64(0.5), lam=np.int64(5))
        assert all(type(v) is float for v in s)
        assert repr(s) == "AgentState(x=0.5, y=2.0, z=3.0, lam=5.0)"
        made = AgentState._make(np.array([1.0, 2.0, 3.0, 4.0]))
        assert all(type(v) is float for v in made)


class TestPowerDistance:
    def test_center_gives_minus_radius_squared(self):
        assert power_distance((0, 0, 2), (0, 0)) == -4

    def test_boundary_point_gives_zero(self):
        assert power_distance((1, 0, 1), (1, 1)) == 0

    def test_outside_point(self):
        assert power_distance((0, 0, 1), (3, 4)) == 24


class TestRadicalCenter:
    def test_known_three_circle_case(self):
        fa, fb, fc = (0, 0, 1), (2, 0, 1), (1, 2, 1)
        v = radical_center(fa, fb, fc)
        assert np.allclose(v, [1.0, 0.75], atol=1e-12)
        for f in (fa, fb, fc):
            assert power_distance(f, v) == pytest.approx(0.5625, abs=1e-12)

    def test_concentric_pair_rejected(self):
        with pytest.raises(DegenerateTrio):
            radical_center((0, 0, 1), (0, 0, 2), (1, 1, 1))

    def test_collinear_centers_rejected(self):
        with pytest.raises(DegenerateTrio):
            radical_center((0, 0, 1), (1, 0, 1.2), (2, 0, 0.8))

    def test_equal_radii_reduce_to_circumcenter(self, rng):
        for _ in range(50):
            pts = rng.uniform(-3, 3, size=(3, 2))
            if abs(cross2(pts[1] - pts[0], pts[2] - pts[0])) < 0.2:
                continue
            footprints = [(p[0], p[1], 1.5) for p in pts]
            v = radical_center(*footprints)
            d = [np.linalg.norm(v - p) for p in pts]
            assert d[0] == pytest.approx(d[1], abs=1e-9)
            assert d[1] == pytest.approx(d[2], abs=1e-9)

    def test_equal_power_distance_property(self, rng):
        for _ in range(200):
            trio = random_trio(rng)
            v = trio.radical_center
            d = [power_distance(f, v) for f in disks(trio)]
            assert abs(d[0] - d[1]) < 1e-9
            assert abs(d[1] - d[2]) < 1e-9

    def test_axes_are_perpendicular_and_concurrent(self, rng):
        for _ in range(200):
            trio = random_trio(rng)
            v = trio.radical_center
            for a in range(3):
                for b in range(a + 1, 3):
                    point, direction = radical_axis(disks(trio)[a], disks(trio)[b])
                    center_dir = np.subtract(triangle(trio)[b], triangle(trio)[a])
                    assert abs(direction @ center_dir) < 1e-12 * np.linalg.norm(center_dir)
                    # Distance from v to the axis.
                    off = v - point
                    dist = abs(cross2(direction, off))
                    assert dist < 1e-9


class TestPointInTriangle:
    I, J, K = np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])

    def test_interior_point(self):
        inside, ratios = point_in_triangle(self.I, self.J, self.K, (0.25, 0.25))
        assert inside
        assert all(r > 0 for r in ratios)
        assert sum(ratios) == pytest.approx(1.0, abs=1e-12)

    def test_vertex_is_not_strictly_inside(self):
        inside, ratios = point_in_triangle(self.I, self.J, self.K, self.I)
        assert not inside
        # At vertex I the ratio for the side not touching I is 1, the others 0.
        assert ratios[1] == pytest.approx(1.0, abs=1e-12)
        assert ratios[0] == pytest.approx(0.0, abs=1e-12)
        assert ratios[2] == pytest.approx(0.0, abs=1e-12)

    def test_far_outside_point(self):
        inside, ratios = point_in_triangle(self.I, self.J, self.K, (-1.0, -1.0))
        assert not inside
        assert min(ratios) < 0

    def test_ratios_sum_to_one(self, rng):
        for _ in range(200):
            pts = rng.uniform(-5, 5, size=(4, 2))
            if abs(cross2(pts[1] - pts[0], pts[2] - pts[0])) < 0.1:
                continue
            _, ratios = point_in_triangle(pts[0], pts[1], pts[2], pts[3])
            assert sum(ratios) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(DegenerateTrio):
            point_in_triangle((0, 0), (1, 0), (2, 0), (0.5, 0.5))


class TestSigmaDFrame:
    def test_equal_radii_frame(self):
        # J=(0,0), K=(2,0), equal radii: origin at the midpoint, axes world-aligned.
        states = equal_radius_states([(3, 4), (0, 0), (2, 0)])
        trio = make_trio((0, 1, 2), states, r=1.0)
        frame = sigma_d_frame(trio, 0)
        assert np.allclose(frame[:2], [1.0, 0.0], atol=1e-12)
        assert np.allclose(frame_rotation(frame), np.eye(2), atol=1e-12)

    def test_radical_center_sits_on_frame_y_axis(self, rng):
        for _ in range(200):
            trio = random_trio(rng)
            for viewpoint in trio.ids:
                frame = sigma_d_frame(trio, viewpoint)
                v_frame = to_frame(frame, trio.radical_center)
                assert abs(v_frame[0]) < 1e-9

    def test_k_has_positive_x_and_frame_is_right_handed(self, rng):
        for _ in range(100):
            trio = random_trio(rng)
            for viewpoint in trio.ids:
                _, j, k = roles(trio, viewpoint)
                frame = sigma_d_frame(trio, viewpoint)
                xk = to_frame(frame, triangle(trio)[trio.ids.index(k)])
                xj = to_frame(frame, triangle(trio)[trio.ids.index(j)])
                assert xk[0] > 0 or abs(xk[0]) < 1e-12
                assert abs(xk[1]) < 1e-9 and abs(xj[1]) < 1e-9
                assert np.linalg.det(frame_rotation(frame)) == pytest.approx(1.0, abs=1e-12)

    def test_ij_axis_intercept_matches_radical_center_height(self, rng):
        # The radical axis of the (i, j) pair crosses the frame y-axis at the
        # radical center's frame height.
        for _ in range(100):
            trio = random_trio(rng)
            i, j, k = roles(trio, trio.ids[0])
            frame = sigma_d_frame(trio, i)
            point, direction = radical_axis(disks(trio)[trio.ids.index(i)], disks(trio)[trio.ids.index(j)])
            p = to_frame(frame, point)
            d = frame_rotation(frame) @ direction
            assert abs(d[0]) > 1e-12  # axis not parallel to the y-axis for sane trios
            t = -p[0] / d[0]
            intercept = p[1] + t * d[1]
            v_frame = to_frame(frame, trio.radical_center)
            assert intercept == pytest.approx(v_frame[1], abs=1e-9)


def assert_footprints_overlap_pairwise(trio):
    for a in range(3):
        for b in range(a + 1, 3):
            (xa, ya, ra), (xb, yb, rb) = disks(trio)[a], disks(trio)[b]
            assert np.linalg.norm([xa - xb, ya - yb]) <= ra + rb


class TestBuildGraph:
    def test_distant_fovs_give_no_trio(self):
        states = equal_radius_states([(0, 0), (10, 0), (5, 8)])
        g = build_graph(states, r=1.0)
        assert g.all_trios() == []

    def test_three_overlapping_fovs_single_trio(self):
        states = equal_radius_states([(0, 0), (1.5, 0), (0.75, 1.2)])
        g = build_graph(states, r=1.0)
        assert len(g.all_trios()) == 1
        assert_footprints_overlap_pairwise(g.all_trios()[0])
        for i in range(3):
            assert [t.ids for t in g.trios_of(i)] == [(0, 1, 2)]

    def test_unit_square_degenerate_vertex_fan_split(self):
        states = equal_radius_states([(0, 0), (1, 0), (1, 1), (0, 1)])
        g = build_graph(states, r=1.0)
        keys = sorted(t.ids for t in g.all_trios())
        assert keys == [(0, 1, 2), (0, 2, 3)]

    def test_trio_membership_is_symmetric(self, rng):
        for _ in range(20):
            states = [
                AgentState(
                    float(rng.uniform(-3, 3)),
                    float(rng.uniform(-3, 3)),
                    float(rng.uniform(1, 2.5)),
                    1.0,
                )
                for _ in range(6)
            ]
            g = build_graph(states, r=1.0)
            for trio in g.all_trios():
                for agent in trio.ids:
                    assert trio.ids in [t.ids for t in g.trios_of(agent)]

    def test_trios_are_three_cliques(self, rng):
        for _ in range(20):
            states = [
                AgentState(
                    float(rng.uniform(-3, 3)),
                    float(rng.uniform(-3, 3)),
                    float(rng.uniform(1, 2.5)),
                    1.0,
                )
                for _ in range(6)
            ]
            g = build_graph(states, r=1.0)
            for trio in g.all_trios():
                assert_footprints_overlap_pairwise(trio)


class TestHoleOracles:
    def shrinkable_trio(self, scale):
        # Symmetric trio; scale shrinks the radii via altitude.
        centers = [(0, 0), (3, 0), (1.5, 2.6)]
        return equal_radius_states(centers, z=scale, lam=1.0)

    def test_hole_appears_when_radii_shrink(self):
        grown = make_trio((0, 1, 2), self.shrinkable_trio(2.0), r=1.0)
        assert not hole_exists_exact(grown)
        shrunk = make_trio((0, 1, 2), self.shrinkable_trio(1.6), r=1.0)
        assert hole_exists_exact(shrunk)

    def test_radical_center_outside_triangle_is_no_hole(self):
        states = equal_radius_states([(0, 0), (1, 0), (0.5, 0.2)], z=1.0)
        trio = make_trio((0, 1, 2), states, r=1.0)
        inside, _ = point_in_triangle(*triangle(trio), trio.radical_center)
        assert not inside
        assert not hole_exists_exact(trio)

    def test_covered_radical_center_is_no_hole(self):
        states = equal_radius_states([(0, 0), (1.5, 0), (0.75, 1.3)], z=1.5)
        trio = make_trio((0, 1, 2), states, r=1.0)
        inside, _ = point_in_triangle(*triangle(trio), trio.radical_center)
        assert inside
        assert power_distance(disks(trio)[0], trio.radical_center) < 0
        assert not hole_exists_exact(trio)

    def test_grid_oracle_empty_when_triangle_covered(self):
        states = self.shrinkable_trio(2.0)
        witnesses = grid_witnesses(states, (-4, -4, 7, 7), 0.05)
        assert len(witnesses) == 0

    def test_grid_oracle_witnesses_cluster_at_radical_center(self):
        states = self.shrinkable_trio(1.6)
        trio = make_trio((0, 1, 2), states, r=1.0)
        witnesses = grid_witnesses(states, (-4, -4, 7, 7), 0.02)
        assert len(witnesses) > 0
        dists = np.linalg.norm(witnesses - trio.radical_center, axis=1)
        assert dists.max() < 1.0

    def test_grid_oracle_uses_a_given_graph(self):
        states = self.shrinkable_trio(1.6)
        grid = CoverageGrid((-4, -4, 7, 7), 0.05)
        assert len(oracle_witnesses(states, 1.0, grid, build_graph(states, 1.0))) > 0
        # The oracle trusts the graph it is given: with no trios there is no witness.
        alone = build_graph(states[:1], 1.0)
        assert len(oracle_witnesses(states, 1.0, grid, alone)) == 0

    def test_oracles_agree_on_random_trios(self, rng):
        mismatches = 0
        n_cases = 60
        for _ in range(n_cases):
            trio = random_trio(rng, require_overlap=True)
            centers = np.array(triangle(trio))
            rmax = max(R for _, _, R in disks(trio))
            lo = centers.min(axis=0) - 2 * rmax
            hi = centers.max(axis=0) + 2 * rmax
            diam = np.linalg.norm(
                np.ptp(np.vstack([centers + rmax, centers - rmax]), axis=0)
            )
            res = 0.01 * np.linalg.norm(np.ptp(centers, axis=0))
            witnesses = grid_witnesses(
                trio_states(trio), (lo[0], lo[1], hi[0], hi[1]), max(res, diam / 400), trio.r
            )
            if hole_exists_exact(trio) != (len(witnesses) > 0):
                mismatches += 1
        assert mismatches <= max(1, int(0.05 * n_cases))
