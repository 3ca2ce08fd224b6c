"""
Visual coverage: sensing quality, partition, and gradient ascent
================================================================

Each camera scores every ground point by perspective quality (worst at the
footprint rim) times resolution quality (best at a preferred capture
distance).  Points go to whichever camera sees them best -- a conic Voronoi
partition -- and the team objective H rewards owned mass while penalizing
overlap.  The nominal controller climbs the gradient of H.
"""

import numpy as np

from aircover import (
    AgentState,
    CoverageGrid,
    DensityField,
    Scenario,
    SensingParams,
    coverage_objective,
    nominal_input,
    partition,
    run,
)
from aircover.coverage import sensing_field

sensing = SensingParams(r=1.0, kappa=4.0, sigma=3.0, M=11.0, w=0.4)
agent = AgentState(x=10.0, y=10.0, z=8.0, lam=1.0)

# Quality profile along a ray from the nadir point: 1 at the nadir by the
# perspective factor, 0 exactly at the footprint rim.
print("ground distance   sensing quality")
for d in (0.0, 2.0, 4.0, 6.0, 7.9, 8.0):
    q = sensing_field(agent, sensing, np.array([[agent.x + d, agent.y]]))[0][0]
    print(f"{d:>13.1f}   {q:.6f}")

# Two-camera partition over a density with two hotspots.
density = DensityField(components=((1.0, (7.0, 10.0), 2.0),
                                   (0.7, (14.0, 11.0), 2.0)),
                       mission=(0.0, 0.0, 20.0, 20.0))
grid = CoverageGrid(density.mission, resolution=0.25)
agents = [AgentState(8.0, 10.0, 8.0, 1.0), AgentState(13.0, 10.5, 8.0, 1.0)]
part = partition(agents, sensing, grid)
owned = [(part.owner == i).sum() for i in range(len(agents))]
print(f"\ngrid cells owned: agent 0 -> {owned[0]}, agent 1 -> {owned[1]}, "
      f"uncovered -> {(part.owner == -1).sum()}")

report = coverage_objective(agents, sensing, density, grid)
print(f"objective H = {report.H:.3f} "
      f"(owned mass {report.H_M:.3f} - {sensing.w} x overlap {report.H_O:.3f})")

# The nominal input is the analytic gradient of H in each agent's own
# controls; a tiny Euler step along it must not decrease H.
for i in range(len(agents)):
    u = nominal_input(i, agents, sensing, density, grid)
    print(f"agent {i} gradient-ascent input:", np.round(u, 4))

scenario = Scenario(agents=tuple(agents), sensing=sensing, density=density,
                    dt=2e-3, steps=300, mode="nominal_only",
                    grid_resolution=0.25)
records, summary = run(scenario)
hs = [r.H for r in records]
print(f"\n300 ascent steps: H {hs[0]:.3f} -> {summary['final_H']:.3f}, "
      f"monotone: {all(b >= a - 1e-6 * abs(a) for a, b in zip(hs, hs[1:]))}")
