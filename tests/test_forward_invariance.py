"""Forward invariance on the seeded fuzz: a trio that is safe stays safe.

The paper's guarantee is that a team starting hole-free stays hole-free.
Over the first runs of the fuzz in `conftest.fuzz_scenarios`, skipping runs
whose start already has a hole, no trio that was in the graph with h >= 0
at one step may be in it with h < 0 at the next.  A trio's h is the minimum
over its three viewpoints of the composed barrier.  A trio that enters the
graph already below zero is the known failure of trio switching and is not
asserted here; fuzz run 185, its smallest case, is pinned as a strict
xfail in every mode until switching is made safe (ROADMAP item 1).
"""

from dataclasses import replace
from pathlib import Path

import pytest

from aircover.barrier import ncbf_value
from aircover.cli import parse_config
from aircover.geometry import DegenerateTrio, build_graph
from aircover.sim import MODES, initial_world, step
from conftest import fuzz_scenarios, hole_exists_exact, view

RUNS = 12
# Fuzz run 185 over 60 steps with the hole oracle on every step (its origin is in the file).
CLOSURE_185 = Path(__file__).resolve().parent / "data" / "closure_185" / "scenario.cfg"


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


def test_closure_185_starts_hole_free():
    # Three disks with an open pair enclose no hole: no trio at step 0.
    scenario = parse_config(CLOSURE_185.read_text())
    assert (scenario.steps, scenario.hole_check_every) == (60, 1)
    assert build_graph(scenario.agents, scenario.sensing.r).all_trios() == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("mode", MODES)
def test_closure_185_stays_hole_free(mode):
    # No trio exists before step 41, so the filter has no rows and every mode
    # moves alike; trio (0, 1, 2) then closes with h < 0 and the grid sees
    # the hole on steps 41-44.
    scenario = replace(parse_config(CLOSURE_185.read_text()), mode=mode)
    world = initial_world(scenario)
    present, entries, witnessed = set(), [], []
    for _ in range(scenario.steps):
        barriers = trio_barriers(world.states, scenario)
        entries += [(world.step, ids, h) for ids, h in barriers.items() if ids not in present and h < 0.0]
        present = set(barriers)
        world, record = step(world, scenario)
        if record.hole_witnesses > 0:
            witnessed.append((record.step, record.hole_witnesses))
    assert witnessed == []
    assert entries == []
