"""Barrier functions that certify the absence of coverage holes per triangle.

For each triangle {i, j, k} of the communication graph, four scalar conditions
are composed by max: three negated signed-area ratios that certify the radical
center lies outside the triangle, and one footprint-membership value that
certifies the radical center is covered.  The max is nonnegative exactly when
no hole exists.  Component indices are 1-based: 1..3 are the triangle-side
conditions (lines IJ, JK, KI with I the viewpoint agent), 4 is footprint
membership.

`cbf_components` is the one evaluation of a (trio, viewpoint) per step: it
computes the four values and the viewpoint's working frame (x-axis on segment
JK, y-axis on the JK radical axis) with the frame coordinates of the three
footprint centers.  The safety filter and the trace share that result:
`ncbf_value` composes the values, and `cbf_gradient` reads the stored frame to
give one component's analytic gradient, where the radical center has a closed
form, rotated back to world coordinates; altitude and focal-length entries
are frame-invariant.  The barrier's sign is a per-trio certificate, not a
detector: the package's one hole detector is the grid oracle
`geometry.detect_holes_grid`.

Everything here runs on plain floats: the frame is the 4-tuple
(ox, oy, ax, ay) of its origin and x-axis, the roles J and K are picked by
position in the trio, a gradient is a 4-tuple, and the records are slot
classes (the composed value works out its attaining component and
almost-active set only when read), because on four numbers numpy's per-call
overhead costs more than the arithmetic.
"""

from aircover.geometry import (
    ROLE_POSITIONS,
    DegenerateTrio,
    TrioContext,
    point_in_triangle,
    power_distance,
    sigma_d_frame,
)


class CbfComponents:
    """One (trio, viewpoint) evaluation: the four condition values and what their gradients need.

    `vals` is ordered (−ratio_IJK, −ratio_JKI, −ratio_KIJ, footprint).
    `frame` is the viewpoint's working frame (ox, oy, ax, ay) and `coords` holds
    (x_i, y_i, x_j, x_k, R_i², R_j², R_k², z, λ, r): the frame coordinates of
    the three footprint centers, the squared radii, the viewpoint's altitude
    and focal length, and the sensing constant.  Values alone suffice for
    composition and the guard; gradients need the rest.
    """

    __slots__ = ("vals", "trio", "viewpoint", "frame", "coords")

    def __init__(self, vals, trio=None, viewpoint=None, frame=None, coords=None):
        self.vals, self.trio, self.viewpoint = vals, trio, viewpoint
        self.frame, self.coords = frame, coords

    def __getitem__(self, component: int) -> float:
        # 1-based component index.
        return self.vals[component - 1]


class NcbfValue:
    """Max-composed barrier value; its attaining component and almost-active set are worked out when read."""

    __slots__ = ("vals", "epsilon", "value")

    def __init__(self, vals, epsilon: float):
        self.vals, self.epsilon, self.value = vals, epsilon, max(vals)

    @property
    def argmax(self) -> int:
        return self.vals.index(self.value) + 1

    @property
    def active_set(self) -> tuple:
        return tuple(l + 1 for l, h in enumerate(self.vals) if abs(h - self.value) <= self.epsilon)


def cbf_components(trio: TrioContext, viewpoint: int) -> CbfComponents:
    """Evaluate the four condition values and the working frame from one agent's viewpoint.

    The triangle ratios use vertex roles (I, J, K) = (viewpoint, lower other,
    higher other); the footprint value is the negated power distance of the
    radical center to the viewpoint's footprint.  Raises DegenerateTrio when
    the triangle's area is below tolerance.
    """
    pi, pj, pk = ROLE_POSITIONS[trio.ids.index(viewpoint)]
    xi, yi, z, lam, Ri = trio.rows[pi]
    xj, yj, _, _, Rj = trio.rows[pj]
    xk, yk, _, _, Rk = trio.rows[pk]
    v = trio.radical_center.tolist()
    _, (r_ijk, r_jki, r_kij) = point_in_triangle((xi, yi), (xj, yj), (xk, yk), v)
    h_f = -power_distance((xi, yi, Ri), v)
    frame = sigma_d_frame(trio, viewpoint)
    ox, oy, ax, ay = frame
    dx, dy = xi - ox, yi - oy
    coords = (
        ax * dx + ay * dy,
        -ay * dx + ax * dy,
        ax * (xj - ox) + ay * (yj - oy),
        ax * (xk - ox) + ay * (yk - oy),
        Ri**2,
        Rj**2,
        Rk**2,
        z,
        lam,
        trio.r,
    )
    return CbfComponents((-r_ijk, -r_jki, -r_kij, h_f), trio, viewpoint, frame, coords)


def ncbf_value(vals, epsilon: float) -> NcbfValue:
    """Max-compose four component values; the almost-active set {ℓ : |h_ℓ − h| ≤ ε} comes on demand."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return NcbfValue(vals, epsilon)


def cbf_gradient(components: CbfComponents, component: int) -> tuple:
    """Analytic world-frame gradient (∂x, ∂y, ∂z, ∂λ) of one component w.r.t. the viewpoint agent's state.

    Derivatives are taken holding the other two agents fixed; the working
    frame they define is therefore constant, and the world planar gradient is
    the frame rotation transposed applied to the frame planar gradient.
    """
    if component not in (1, 2, 3, 4):
        raise ValueError("component must be 1..4")
    xi, yi, xj, xk, Ri2, Rj2, Rk2, z, lam, r = components.coords
    if abs(yi) < 1e-12:
        raise DegenerateTrio("viewpoint agent on the line through the other two")
    # Derivative of the squared footprint radius w.r.t. altitude and focal length.
    dR2_dz = 2.0 * r**2 * z / lam**2
    dR2_dlam = -2.0 * r**2 * z**2 / lam**3
    # C compares the two power offsets that set the radical-center height.
    C = (xi**2 - Ri2) - (xj**2 - Rj2)
    vy = (C + yi**2) / (2.0 * yi)

    if component == 4:
        # Footprint membership: h = R_i² − x_i² − (v_y − y_i)².
        g = vy / yi
        d_x = -2.0 * xi * g
        d_y = 2.0 * vy * (vy - yi) / yi
        dh_dR2 = g
        gx, gy = d_x, d_y
        d_z = dh_dR2 * dR2_dz
        d_lam = dh_dR2 * dR2_dlam
    elif component == 2:
        # −ratio_JKI with ratio_JKI = v_y / y_i.
        d_x = xi / yi**2
        d_y = -C / yi**3
        dh_dR2 = -1.0 / (2.0 * yi**2)
        gx, gy = -d_x, -d_y
        d_z = -dh_dR2 * dR2_dz
        d_lam = -dh_dR2 * dR2_dlam
    else:
        # Components 1 and 3 are symmetric under the J↔K swap.
        if component == 1:
            xo, denom, Ro2 = xj, xk - xj, Rj2
            Co = C
        else:
            xo, denom, Ro2 = xk, xj - xk, Rk2
            Co = (xi**2 - Ri2) - (xk**2 - Rk2)
        d_x = -(3.0 * xi**2 - 2.0 * xo * xi + (yi**2 - Ri2) - (xo**2 - Ro2)) / (
            2.0 * denom * yi**2
        )
        d_y = (xi - xo) * Co / (denom * yi**3)
        dh_dR2 = (xi - xo) / (2.0 * denom * yi**2)
        gx, gy = -d_x, -d_y
        d_z = -dh_dR2 * dR2_dz
        d_lam = -dh_dR2 * dR2_dlam

    _, _, ax, ay = components.frame
    return (ax * gx - ay * gy, ay * gx + ax * gy, d_z, d_lam)


def degenerate_guard(components: CbfComponents, threshold: float):
    """Indices among the triangle components whose magnitude exceeds the blow-up threshold.

    Near-collinear triangles send the signed-area ratios to huge values; the
    returned indices are excluded from QP constraints for the step.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    return [l for l in (1, 2, 3) if abs(components.vals[l - 1]) > threshold]
