"""
The coverage-hole barrier and its gradients
===========================================

A hole can only open at the radical center v of a triangle of cameras, and it
exists exactly when v is strictly inside the triangle of footprint centers
while no footprint covers it.  Four scalar conditions encode this; their
pointwise max is the barrier h.  h >= 0 certifies "no hole", and the sign
flips exactly when the independent oracles say a hole appears.
"""

import numpy as np

from aircover import (
    AgentState,
    CoverageGrid,
    SensingParams,
    build_graph,
    cbf_components,
    cbf_gradient,
    detect_holes_grid,
    make_trio,
    ncbf_value,
    partition,
    power_distance,
)
from aircover.geometry import point_in_triangle

r = 1.0
grid = CoverageGrid((-4, -4, 4, 4), 0.02)
# The grid oracle reads a partition's owners; coverage depends on r alone.
sensing = SensingParams(r=r, kappa=1.0, sigma=1.0, M=1.0, w=0.0)
hoverers = [AgentState(-1.4, 0.0, 1.5, 1.0), AgentState(1.4, 0.0, 1.5, 1.0)]

# Slide a third agent away from the pair and watch the barrier cross zero.
# (Exactly y = 0 would make the three centers collinear -- a degenerate
# triangle the library rejects -- so the sweep starts just off the line.)
print("mover y    h (barrier)   argmax   exact oracle   grid witnesses")
for y in (-0.3, -0.6, -1.2, -1.5, -1.8, -2.2):
    mover = AgentState(0.0, y, 1.5, 1.0)
    trio = make_trio((0, 1, 2), [mover, *hoverers], r)
    value = ncbf_value(cbf_components(trio)[0].vals, epsilon=0.2)
    # The exact test: v strictly inside the triangle and outside the footprints
    # (one footprint decides for all three, as v has equal power to each).
    inside, _ = point_in_triangle(*(row[:2] for row in trio.rows), trio.radical_center)
    x, y, _, _, R = trio.rows[0]
    holed = inside and power_distance((x, y, R), trio.radical_center) > 0.0
    agents = [mover, *hoverers]
    witnesses = detect_holes_grid(partition(agents, sensing, grid), grid, build_graph(agents, r))
    print(f"{y:+7.1f}   {value.value:+11.4f}   comp {value.argmax}   "
          f"{'HOLE' if holed else 'safe':>12}   {len(witnesses):>5}")

# The four components from the mover's viewpoint: three triangle-side
# conditions (is v beyond an edge?) and the footprint condition (does my
# disk reach v?).  The max picks the "most safe" certificate.  One evaluation
# of the trio gives all three agents' views, in id order; the mover is agent 0.
# In a run, `build_constraints` makes this one call per trio and step, and the
# filter's rows and the trace's barrier values both read it.
mover = AgentState(0.0, -1.2, 1.5, 1.0)
trio = make_trio((0, 1, 2), [mover, *hoverers], r)
comps = cbf_components(trio)[0]
print("\ncomponent values from the mover's viewpoint:",
      np.round(comps.vals, 4))
print("almost-active set (within epsilon = 0.2 of the max):",
      ncbf_value(comps.vals, 0.2).active_set)

# Every component has an analytic gradient in the agent's own four controls
# (x, y, z, lambda), read from the same evaluation's working frame.  Check one
# against central finite differences.
component = 4
grad = cbf_gradient(comps, component)
h = 1e-6
fd = np.zeros(4)
for coord in range(4):
    vals = []
    for sign in (+1.0, -1.0):
        bumped = [mover.x, mover.y, mover.z, mover.lam]
        bumped[coord] += sign * h
        t = make_trio((0, 1, 2), [AgentState(*bumped), *hoverers], r)
        vals.append(cbf_components(t)[0][component])
    fd[coord] = (vals[0] - vals[1]) / (2.0 * h)
print(f"\ncomponent {component} gradient (analytic):", np.round(grad, 6))
print(f"component {component} gradient (finite diff):", np.round(fd, 6))
print("max abs difference:", f"{np.max(np.abs(grad - fd)):.2e}")
