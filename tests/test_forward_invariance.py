"""Forward invariance on the seeded fuzz: a trio that is safe stays safe.

The paper's guarantee is that a team starting hole-free stays hole-free.
Over the first runs of the fuzz in `conftest.fuzz_scenarios`, skipping runs
whose start already has a hole, no trio that was in the graph with h >= 0
at one step may be in it with h < 0 at the next.  A trio's h is the minimum
over its three viewpoints of the composed barrier.  A trio that enters the
graph already below zero is the known failure of trio switching and is not
asserted here.
"""

from aircover.barrier import ncbf_value
from aircover.geometry import DegenerateTrio, build_graph
from aircover.sim import initial_world, step
from conftest import fuzz_scenarios, hole_exists_exact, view

RUNS = 12


def trio_barriers(states, scenario):
    """{trio ids: h} over the graph of states; trios a viewpoint cannot evaluate are left out."""
    out = {}
    for trio in build_graph(states, scenario.sensing.r).all_trios():
        try:
            out[trio.ids] = min(ncbf_value(view(trio, a).vals) for a in trio.ids)
        except DegenerateTrio:
            continue
    return out


def test_safe_trios_stay_safe_on_the_fuzz():
    falls, kept, started = [], 0, 0
    for index, scenario in fuzz_scenarios(RUNS):
        graph = build_graph(scenario.agents, scenario.sensing.r)
        if any(hole_exists_exact(trio) for trio in graph.all_trios()):
            continue
        started += 1
        world = initial_world(scenario)
        before = trio_barriers(world.states, scenario)
        for t in range(1, scenario.steps + 1):
            world, _ = step(world, scenario)
            after = trio_barriers(world.states, scenario)
            for ids, h in after.items():
                if before.get(ids, -1.0) >= 0.0:
                    kept += 1
                    if h < 0.0:
                        falls.append((index, t, ids, h))
            before = after
    assert started >= RUNS - 2
    assert kept > 0
    assert falls == []
