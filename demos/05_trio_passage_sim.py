"""
Simulated trio passage: the filter threads the needle
=====================================================

One agent is commanded straight through the gap between two hovering
teammates.  Unfiltered, its departure would tear a coverage hole at the
radical center.  Filtered, it brakes exactly as much as the barrier demands,
slips through, and the certificate switches between the footprint condition
and a triangle-side condition on the way in and out.
"""

from dataclasses import replace

from aircover import (build_graph, cbf_components, initial_world, ncbf_value,
                      parse_config, run, step)
from aircover.cli import bundled_scenario

scenario = parse_config(bundled_scenario("trio"))
print(f"{len(scenario.agents)} agents, dt = {scenario.dt}, "
      f"{scenario.steps} steps, mode = {scenario.mode}")
print("mover nominal input:", scenario.fixed_nominal[0])

# Walk the simulation manually to watch the certificate (argmax component).
# The team's state is one read-only (n, 4) array with columns x, y, z, lambda.
world = initial_world(scenario)
last_argmax = None
print("\nstep    mover y    barrier h   certificate")
for k in range(scenario.steps):
    trios = build_graph(world.states, scenario.sensing.r).trios_of(0)
    if trios:
        value = ncbf_value(cbf_components(trios[0])[0].vals, scenario.epsilon)
        if value.argmax != last_argmax or k % 400 == 0:
            print(f"{k:>4}   {world.states[0, 1]:+8.3f}   {value.value:+9.4f}"
                  f"   component {value.argmax}"
                  + ("   <- switch" if last_argmax not in (None, value.argmax)
                     else ""))
            last_argmax = value.argmax
    world, _ = step(world, scenario)
print(f"final mover position: y = {world.states[0, 1]:+.3f}")

# The same scenario in nominal_only mode, the filter with no barrier
# components: no agent gets a row, so the mover never brakes, and on the exit
# leg its footprint lets go of the radical center while the triangle still
# stands -- the grid oracle reports hole witnesses.
records, summary = run(replace(scenario, mode="nominal_only"))
holed = [r.step for r in records if r.hole_witnesses > 0]
print(f"\nunfiltered run: first hole witnessed at step "
      f"{holed[0] if holed else 'never'}, "
      f"{len(holed)} of {summary['hole_sampled_steps']} sampled steps holed, "
      f"min barrier {summary['min_ncbf']:+.3f}")

# Footprint-only mode enforces just the footprint condition; the agent then
# prefers shrinking its own footprint (descend / zoom) to braking.
records, _ = run(replace(scenario, mode="hf_only"))
radii = [r.agents[0][4] for r in records]
print(f"footprint-only run: mover footprint radius {radii[0]:.2f} -> "
      f"min {min(radii):.2f} (shrinks instead of braking)")
