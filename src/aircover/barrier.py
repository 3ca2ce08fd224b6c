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
are frame-invariant.  Both run on plain floats (the frame stores its origin
and x-axis); only the returned gradient is a numpy array.
"""

from dataclasses import dataclass

import numpy as np

from aircover.geometry import (
    DegenerateTrio,
    SigmaDFrame,
    TrioContext,
    point_in_triangle,
    power_distance,
    sigma_d_frame,
)


@dataclass(frozen=True)
class CbfComponents:
    """One (trio, viewpoint) evaluation: the four condition values and what their gradients need.

    `vals` is ordered (−ratio_IJK, −ratio_JKI, −ratio_KIJ, footprint).
    `frame` is the viewpoint's working frame and `coords` holds
    (x_i, y_i, x_j, x_k, R_i², R_j², R_k², z, λ, r): the frame coordinates of
    the three footprint centers, the squared radii, the viewpoint's altitude
    and focal length, and the sensing constant.  Values alone suffice for
    composition and the guard; gradients need the rest.
    """

    vals: tuple
    trio: TrioContext = None
    viewpoint: int = None
    frame: SigmaDFrame = None
    coords: tuple = None

    def __getitem__(self, component: int) -> float:
        # 1-based component index.
        return self.vals[component - 1]


@dataclass(frozen=True)
class NcbfValue:
    """Max-composed barrier value with its attaining component and almost-active set."""

    value: float
    argmax: int
    active_set: tuple


def cbf_components(trio: TrioContext, viewpoint: int) -> CbfComponents:
    """Evaluate the four condition values and the working frame from one agent's viewpoint.

    The triangle ratios use vertex roles (I, J, K) = (viewpoint, lower other,
    higher other); the footprint value is the negated power distance of the
    radical center to the viewpoint's footprint.  Raises DegenerateTrio when
    the triangle's area is below tolerance.
    """
    i, j, k = trio.roles(viewpoint)
    fi, fj, fk = (trio.fovs[trio.index_of(a)] for a in (i, j, k))
    v = trio.radical_center.tolist()
    _, (r_ijk, r_jki, r_kij) = point_in_triangle((fi.cx, fi.cy), (fj.cx, fj.cy), (fk.cx, fk.cy), v)
    h_f = -power_distance(fi, v)
    frame = sigma_d_frame(trio, viewpoint)
    ox, oy, ax, ay = frame.ox, frame.oy, frame.ax, frame.ay
    dx, dy = fi.cx - ox, fi.cy - oy
    state = trio.states[trio.index_of(i)]
    coords = (
        ax * dx + ay * dy,
        -ay * dx + ax * dy,
        ax * (fj.cx - ox) + ay * (fj.cy - oy),
        ax * (fk.cx - ox) + ay * (fk.cy - oy),
        fi.radius**2,
        fj.radius**2,
        fk.radius**2,
        state.z,
        state.lam,
        trio.r,
    )
    return CbfComponents((-r_ijk, -r_jki, -r_kij, h_f), trio, viewpoint, frame, coords)


def ncbf_value(vals, epsilon: float) -> NcbfValue:
    """Max-compose four component values and collect the almost-active set {ℓ : |h_ℓ − h| ≤ ε}."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    value = max(vals)
    argmax = vals.index(value) + 1
    active = tuple(l + 1 for l, h in enumerate(vals) if abs(h - value) <= epsilon)
    return NcbfValue(value=value, argmax=argmax, active_set=active)


def component_apex(trio: TrioContext, viewpoint: int, component: int):
    """Agent id of the triangle vertex opposite the component's line, or None for component 4.

    Components 1/2/3 certify v beyond lines IJ/JK/KI; their defining vertices
    (apexes) are agents k/i/j respectively.  The mapping lets the same
    geometric condition be identified across the three viewpoints.
    """
    i, j, k = trio.roles(viewpoint)
    return {1: k, 2: i, 3: j, 4: None}[component]


def cbf_gradient(components: CbfComponents, component: int) -> np.ndarray:
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

    ax, ay = components.frame.ax, components.frame.ay
    return np.array([ax * gx - ay * gy, ay * gx + ax * gy, d_z, d_lam])


def degenerate_guard(components: CbfComponents, threshold: float):
    """Indices among the triangle components whose magnitude exceeds the blow-up threshold.

    Near-collinear triangles send the signed-area ratios to huge values; the
    returned indices are excluded from QP constraints for the step.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return [l for l in (1, 2, 3) if abs(components[l]) > threshold]
