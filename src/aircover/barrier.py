"""Barrier functions that certify the absence of coverage holes per triangle.

For each triangle {i, j, k} of the communication graph, four scalar conditions
are composed by max: three negated signed-area ratios that certify the radical
center lies outside the triangle, and one footprint-membership value that
certifies the radical center is covered.  The max is nonnegative exactly when
no hole exists.  Component indices are 1-based: 1..3 are the triangle-side
conditions (lines IJ, JK, KI with I the viewpoint agent), 4 is footprint
membership.

`cbf_components` is the one evaluation of a trio per step (for the filter
and the trace, via `controller.build_constraints`): its three agents share
one barrier with the roles permuted, so each view permutes the trio's four
values.  `ncbf_value` composes them, and `cbf_gradient` gives one component's
analytic world-frame gradient.  h_f's has one closed form for all three
members: J and K fixed, the radical center v moves along their radical axis,
so ∂h_f/∂c_I = 2λ_I(v − c_I) and ∂h_f/∂R_I² = λ_I, λ_I being v's barycentric
coordinate at I.  A side ratio's is taken in the viewpoint's working frame
(x-axis on JK, y-axis on the JK radical axis), built only when one is asked
for.  The barrier's sign is a per-trio certificate; the package's one hole
detector is `geometry.detect_holes_grid`.

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
    jk_length,
    point_in_triangle,
    power_distance,
    sigma_d_frame,
)

LINE_TOL = 1e-12  # meters: a viewpoint closer to the line through the other two has no gradients


class CbfComponents:
    """One agent's view of a trio: `vals` = (−ratio_IJK, −ratio_JKI, −ratio_KIJ, footprint).

    `height` is the viewpoint's distance from line JK; `frame` (ox, oy, ax, ay) is built on first
    read, and `coords` is the frame's (x_i, y_i, x_j, x_k), then (R_i², R_j², R_k², z, λ, r).
    """

    __slots__ = ("vals", "viewpoint", "trio", "position", "height", "_frame")

    def __init__(self, vals, viewpoint=None, trio=None, position=None, height=None):
        self.vals, self.viewpoint, self.trio, self.position, self.height = vals, viewpoint, trio, position, height
        self._frame = None

    @property
    def frame(self) -> tuple:
        if self._frame is None:
            self._frame = sigma_d_frame(self.trio, self.viewpoint)
        return self._frame

    @property
    def coords(self) -> tuple:
        ox, oy, ax, ay = self.frame
        (xi, yi, z, lam, Ri), (xj, yj, _, _, Rj), (xk, yk, _, _, Rk) = (
            self.trio.rows[p] for p in ROLE_POSITIONS[self.position])
        dx, dy = xi - ox, yi - oy
        return (ax * dx + ay * dy, -ay * dx + ax * dy, ax * (xj - ox) + ay * (yj - oy),
                ax * (xk - ox) + ay * (yk - oy), Ri**2, Rj**2, Rk**2, z, lam, self.trio.r)


def cbf_components(trio: TrioContext) -> tuple:
    """Evaluate a trio once: its agents' views, in id order (a degenerate frame's view is its DegenerateTrio).

    The ratios of lines 01, 12, 20 are the radical center's barycentric coordinates λ₂, λ₀, λ₁;
    with h_f its negated power distance to footprint 0 (equal for all three there), the agent at
    position p, with roles (I, J, K) = ROLE_POSITIONS[p], sees (−λ_K, −λ_I, −λ_J, h_f).  A view
    whose J and K coincide fails `jk_length`, as its frame would.  Raises DegenerateTrio when the
    triangle's area is below tolerance.
    """
    v = trio.radical_center
    rows = trio.rows
    (x0, y0, _, _, r0), (x1, y1, _, _, _), (x2, y2, _, _, _) = rows
    _, (l2, l0, l1) = point_in_triangle((x0, y0), (x1, y1), (x2, y2), v)
    neg = (-l0, -l1, -l2)
    h_f = -power_distance((x0, y0, r0), v)
    area2 = abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))  # |JK| times each viewpoint's height
    views = []
    for p, (pi, pj, pk) in enumerate(ROLE_POSITIONS):
        try:
            _, nd = jk_length(rows[pk][0] - rows[pj][0], rows[pk][1] - rows[pj][1])
        except DegenerateTrio as exc:
            views.append(exc)
            continue
        views.append(CbfComponents((neg[pk], neg[pi], neg[pj], h_f), trio.ids[p], trio, p, area2 / nd))
    return tuple(views)


def ncbf_value(vals) -> float:
    """The barrier value: the max of a view's four component values."""
    return max(vals)


def cbf_gradient(components: CbfComponents, component: int) -> tuple:
    """Analytic world-frame gradient (∂x, ∂y, ∂z, ∂λ) of one component w.r.t. the viewpoint agent's state.

    The other two agents are held fixed.  The footprint component has a world-frame closed form;
    a side ratio's gradient is taken in the working frame and rotated back.
    """
    if component not in (1, 2, 3, 4):
        raise ValueError("component must be 1..4")
    if components.height < LINE_TOL:
        raise DegenerateTrio("viewpoint agent on the line through the other two")
    if component == 4:
        # h_f = R_I² − |v − c_I|², v moving along n = perp(c_K − c_J): with
        # g = ((v − c_J)·n) / ((c_J − c_I)·n) = −λ_I = vals[1], ∂h_f/∂c_I = −2g(v − c_I) and ∂h_f/∂R_I² = −g.
        trio, m = components.trio, -2.0 * components.vals[1]
        x, y, z, lam, R = trio.rows[components.position]
        vx, vy = trio.radical_center
        t = m * R * R  # ∂R²/∂z = 2R²/z and ∂R²/∂λ = −2R²/λ
        return (m * (vx - x), m * (vy - y), t / z, -t / lam)
    xi, yi, xj, xk, Ri2, Rj2, Rk2, z, lam, r = components.coords
    # (gx, gy) is the frame planar gradient and k = ∂h/∂R_i²; C compares the power
    # offsets of I and of O, the other end of the component's line.
    xo, denom, Ro2 = (xk, xj - xk, Rk2) if component == 3 else (xj, xk - xj, Rj2)
    C = (xi**2 - Ri2) - (xo**2 - Ro2)
    if component == 2:
        # −ratio_JKI with ratio_JKI = v_y / y_i.
        gx, gy, k = -xi / yi**2, C / yi**3, 1.0 / (2.0 * yi**2)
    else:
        # Components 1 and 3 are symmetric under the J↔K swap.
        gx = (3.0 * xi**2 - 2.0 * xo * xi + (yi**2 - Ri2) - (xo**2 - Ro2)) / (2.0 * denom * yi**2)
        gy, k = -(xi - xo) * C / (denom * yi**3), -(xi - xo) / (2.0 * denom * yi**2)
    _, _, ax, ay = components.frame
    # ∂R²/∂z and ∂R²/∂λ with R = r·z/λ.
    return (ax * gx - ay * gy, ay * gx + ax * gy, k * (2.0 * r**2 * z / lam**2), k * (-2.0 * r**2 * z**2 / lam**3))
