"""
Power diagrams of camera footprints
===================================

Three downward-facing cameras project disks onto the ground plane.  The power
diagram carves the plane into the regions where each disk "wins" the weighted
distance d_P(p, q) = |q - c|^2 - R^2, and the three pairwise boundaries (the
radical axes) meet in a single equal-power point: the radical center.  Each
agent's working frame carries one of those axes as its y-axis.
"""

import numpy as np

from aircover import (
    AgentState,
    build_graph,
    footprint_rows,
    power_distance,
    sigma_d_frame,
)

# Three agents at different altitudes and zoom levels: the team's state is
# one (n, 4) array with columns x, y, z, lambda.  Each footprint is centered
# under its agent with radius r * z / lambda, so the high zoomed-out agent
# casts the biggest disk.
states = np.array([
    AgentState(x=0.0, y=-2.0, z=1.5, lam=1.0),
    AgentState(x=-1.4, y=0.0, z=1.2, lam=0.8),
    AgentState(x=1.4, y=0.0, z=2.0, lam=1.1),
])
r = 1.0
for x, y, z, lam, R in footprint_rows(states, r):
    print(f"agent at ({x:+.1f}, {y:+.1f}), z = {z:.1f}, lambda = {lam:.1f}: "
          f"footprint radius {R:.3f}")

# The three footprints overlap pairwise, so the communication graph has this
# one trio.  Its context holds the three agents' rows (x, y, z, lambda, R),
# whose centers are the triangle, and the radical center v.
(trio,) = build_graph(states, r).trios
v = trio.radical_center
print(f"\nradical center v = ({v[0]:+.4f}, {v[1]:+.4f})")

# v has the same power distance to all three disks -- that is its definition.
powers = [power_distance((x, y, R), v) for x, y, _, _, R in trio.rows]
print("power distances at v:", np.round(powers, 12))

# Each agent's working frame (ox, oy, ax, ay) has its origin on the line
# through the other two centers, and its y-axis, direction (-ay, ax), is the
# radical axis of those two.  The axis is perpendicular to the line of
# centers, and v lies on it: v's frame x-coordinate is 0.
for agent in trio.ids:
    j, k = (b for b in trio.ids if b != agent)
    ox, oy, ax, ay = sigma_d_frame(trio, agent)
    direction = np.array([-ay, ax])
    centers = np.subtract(trio.rows[k][:2], trio.rows[j][:2])
    to_v = np.subtract(v, (ox, oy))
    print(f"agent {agent}, axis {j}-{k}: |direction . centers| = "
          f"{abs(float(direction @ centers)):.2e}, frame coordinates of v = "
          f"({ax * to_v[0] + ay * to_v[1]:+.2e}, {-ay * to_v[0] + ax * to_v[1]:+.4f})")
