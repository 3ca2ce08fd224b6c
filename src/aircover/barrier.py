"""Barrier functions that certify the absence of coverage holes per triangle.

For each triangle {i, j, k} of the communication graph, four scalar conditions
are composed by max: three negated signed-area ratios that certify the radical
center lies outside the triangle, and one footprint-membership value that
certifies the radical center is covered.  The max is nonnegative exactly when
no hole exists.  Component indices are 1-based: 1..3 are the triangle-side
conditions (lines IJ, JK, KI with I the viewpoint agent), 4 is footprint
membership.

`cbf_components` is the one evaluation of a trio per step: its three agents
share one barrier with the roles permuted, so each view permutes the trio's
four values and adds the agent's working frame (x-axis on segment JK, y-axis
on the JK radical axis) with the frame coordinates of the footprint centers.
`controller.build_constraints` makes the call for the filter and the trace,
and picks each view's almost-active components; `ncbf_value` composes the
values for the trace, and `cbf_gradient` reads the stored frame for one
component's analytic gradient (the radical center has a closed form),
rotated back to world coordinates; altitude and focal-length entries are
frame-invariant.  The barrier's sign is a per-trio certificate, not a
detector: the package's one hole detector is `geometry.detect_holes_grid`.

Everything here runs on plain floats: the frame is the 4-tuple
(ox, oy, ax, ay) of its origin and x-axis, the roles J and K are picked by
position in the trio, a gradient is a 4-tuple, and a view is a slot class,
because on four numbers numpy's per-call overhead costs more than the
arithmetic.
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
    """One agent's view of a trio: the four condition values and what their gradients need.

    `vals` is ordered (−ratio_IJK, −ratio_JKI, −ratio_KIJ, footprint).
    `frame` is the viewpoint's working frame (ox, oy, ax, ay) and `coords` holds
    (x_i, y_i, x_j, x_k, R_i², R_j², R_k², z, λ, r): the frame coordinates of
    the three footprint centers, the squared radii, the viewpoint's altitude
    and focal length, and the sensing constant.  Values alone suffice for
    composition and the guard; gradients need the rest.
    """

    __slots__ = ("vals", "viewpoint", "frame", "coords")

    def __init__(self, vals, viewpoint=None, frame=None, coords=None):
        self.vals, self.viewpoint, self.frame, self.coords = vals, viewpoint, frame, coords


def cbf_components(trio: TrioContext) -> tuple:
    """Evaluate a trio once: its agents' views, in id order (a degenerate frame's view is its DegenerateTrio).

    The ratios of lines 01, 12, 20 are the radical center's barycentric coordinates λ₂, λ₀, λ₁;
    with h_f its negated power distance to footprint 0 (equal for all three there), the agent at
    position p, with roles (I, J, K) = ROLE_POSITIONS[p], sees (−λ_K, −λ_I, −λ_J, h_f).
    Raises DegenerateTrio when the triangle's area is below tolerance.
    """
    rows, v = trio.rows, trio.radical_center
    _, (l2, l0, l1) = point_in_triangle(rows[0][:2], rows[1][:2], rows[2][:2], v)
    neg = (-l0, -l1, -l2)
    h_f = -power_distance((rows[0][0], rows[0][1], rows[0][4]), v)
    views = []
    for viewpoint, (pi, pj, pk) in zip(trio.ids, ROLE_POSITIONS):
        try:
            frame = sigma_d_frame(trio, viewpoint)
        except DegenerateTrio as exc:
            views.append(exc)
            continue
        (xi, yi, z, lam, Ri), (xj, yj, _, _, Rj), (xk, yk, _, _, Rk) = rows[pi], rows[pj], rows[pk]
        ox, oy, ax, ay = frame
        dx, dy = xi - ox, yi - oy
        coords = (ax * dx + ay * dy, -ay * dx + ax * dy, ax * (xj - ox) + ay * (yj - oy),
                  ax * (xk - ox) + ay * (yk - oy), Ri**2, Rj**2, Rk**2, z, lam, trio.r)
        views.append(CbfComponents((neg[pk], neg[pi], neg[pj], h_f), viewpoint, frame, coords))
    return tuple(views)


def ncbf_value(vals) -> float:
    """The barrier value: the max of a view's four component values."""
    return max(vals)


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

