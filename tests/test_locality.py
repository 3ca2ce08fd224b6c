"""The paper's distributed claim on the whole step: each agent's input comes from its one-hop sub-team.

An agent's sub-team is the agent itself plus every agent whose footprint
overlaps its own (closed test, tangency counts), in id order, each with its
fixed nominal where the run has them.  Running the step's layers on the
sub-team alone — `build_graph`, `partition`, `nominal_input`,
`build_constraints`, `agent_control` — must give the agent the same nominal
and the same filtered input as `sim.step` gives it on the whole team, bit for
bit, a zero-input fallback included.

Sampled on the first runs of the seeded fuzz (`conftest.fuzz_scenarios`) at
every SAMPLE_EVERY-th step.  The sub-team's rows may outnumber the team's
(a vertex that a non-neighbour's footprint kills in the team's graph can live
in the sub-team's); only the inputs are compared.  Where the team's graph
hides a trio hole that the sub-team's graph sees, the inputs can differ; the
runs sampled here hold no such state, and no fallback either (a fallback
would have to happen on both sides).
"""

import numpy as np

import aircover.sim
from aircover.controller import Infeasible, NumericalFailure, agent_control, build_constraints
from aircover.coverage import nominal_input, partition
from aircover.geometry import build_graph
from aircover.sim import initial_world, step
from conftest import fuzz_scenarios

RUNS = 20
SAMPLE_EVERY = 10


def sub_team(states, r, agent):
    """Ids of the agent and of every agent whose footprint overlaps its own, in id order."""
    radii = r * states[:, 2] / states[:, 3]
    dist = np.linalg.norm(states[:, :2] - states[agent, :2], axis=1)
    return np.flatnonzero(dist <= radii + radii[agent])


def local_input(scenario, states, agent):
    """(nominal, filtered input or None on a fallback) of the agent from its sub-team alone."""
    members = sub_team(states, scenario.sensing.r, agent)
    sub = states[members]
    me = int(np.flatnonzero(members == agent)[0])
    if scenario.fixed_nominal is not None:
        u_nom = np.array(scenario.fixed_nominal[agent], dtype=float)
    else:
        grid = scenario.grid()
        part = partition(sub, scenario.sensing, grid)
        u_nom = nominal_input(me, sub, scenario.sensing, scenario.density, grid, part)
    fp = scenario.filter_params()
    rows = build_constraints(build_graph(sub, scenario.sensing.r), fp).rows[me]
    try:
        return u_nom, agent_control(rows, u_nom, fp)
    except (Infeasible, NumericalFailure):
        return u_nom, None


def bits(u):
    """An input's bytes, for a bit-for-bit comparison; None (a fallback) stays None."""
    return None if u is None else u.tobytes()


def test_every_input_comes_from_the_one_hop_sub_team(monkeypatch):
    team = []  # (nominal, filtered input or None) of each agent_control call of sim.step

    def recording(rows, u_nom, params):
        try:
            u = agent_control(rows, u_nom, params)
        except (Infeasible, NumericalFailure):
            team.append((np.array(u_nom, dtype=float), None))
            raise
        team.append((np.array(u_nom, dtype=float), u))
        return u

    monkeypatch.setattr(aircover.sim, "agent_control", recording)
    checked, mismatches = 0, []
    for index, scenario in fuzz_scenarios(RUNS):
        world = initial_world(scenario)
        for _ in range(0, scenario.steps, SAMPLE_EVERY):
            team.clear()
            states = world.states
            world, _ = step(world, scenario)
            for agent, (u_nom, u) in enumerate(team):
                local_nom, local_u = local_input(scenario, states, agent)
                checked += 1
                if (bits(u_nom), bits(u)) != (bits(local_nom), bits(local_u)):
                    mismatches.append((index, world.step - 1, agent))
            for _ in range(SAMPLE_EVERY - 1):
                world, _ = step(world, scenario)
    assert mismatches == []
    assert checked == 1545
