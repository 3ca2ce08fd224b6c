"""Synchronous discrete-time simulation of a barrier-filtered camera team.

Each step rebuilds the communication graph from the current states, detects
graph switches by comparing trio sets, computes nominal inputs (coverage
gradient or fixed per-agent vectors), filters them through the per-agent QP,
and Euler-integrates the single-integrator dynamics with positive floors on
altitude and focal length.  Every step emits a TraceRecord; the integration
itself uses no randomness, so a scenario replays bit-identically.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from aircover.barrier import ncbf_value
from aircover.controller import (
    ALL_COMPONENTS,
    ClassK,
    FilterParams,
    Infeasible,
    NumericalFailure,
    agent_control,
)
from aircover.coverage import (
    CoverageGrid,
    DensityField,
    SensingParams,
    coverage_objective,
    nominal_input,
    partition,
)
from aircover.geometry import (
    AgentState,
    DegenerateTrio,
    build_graph,
    detect_holes_grid,
    fov_of,
)

log = logging.getLogger(__name__)

MODES = ("ncbf", "hf_only", "nominal_only")

# Component selections per mode: the full nonsmooth barrier or footprint-only.
_MODE_COMPONENTS = {"ncbf": ALL_COMPONENTS, "hf_only": (4,)}


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulation run."""

    agents: tuple
    sensing: SensingParams
    density: DensityField
    dt: float = 1e-2
    steps: int = 1000
    epsilon: float = 0.2
    alpha: ClassK = field(default_factory=ClassK)
    w_lambda: float = 3.0e6
    mode: str = "ncbf"
    guard_threshold: float = 1e4
    grid_resolution: float = 0.25
    min_z: float = 0.05
    min_lambda: float = 1e-4
    seed: int = 0
    hole_check_every: int = 10
    fixed_nominal: tuple = None  # per-agent 4-vectors; None means coverage control

    def __post_init__(self):
        if not self.agents:
            raise ValueError("scenario needs at least one agent")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.min_z <= 0 or self.min_lambda <= 0:
            raise ValueError("min_z and min_lambda must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.grid_resolution <= 0:
            raise ValueError("grid_resolution must be positive")
        if self.hole_check_every < 1:
            raise ValueError("hole_check_every must be at least 1")
        if self.fixed_nominal is not None and len(self.fixed_nominal) != len(self.agents):
            raise ValueError("fixed_nominal needs one input per agent")

    def filter_params(self) -> FilterParams:
        return FilterParams(
            epsilon=self.epsilon,
            alpha=self.alpha,
            w_lambda=self.w_lambda,
            guard_threshold=self.guard_threshold,
            components=_MODE_COMPONENTS.get(self.mode, ALL_COMPONENTS),
        )

    def grid(self) -> CoverageGrid:
        return CoverageGrid(self.density.mission, self.grid_resolution)


@dataclass(frozen=True)
class WorldState:
    """Integrator state: step index, agent states, and last step's trio sets."""

    step: int
    states: tuple
    trio_keys: frozenset = None


@dataclass(frozen=True)
class TraceRecord:
    """Per-step telemetry, recorded against the pre-integration snapshot."""

    step: int
    agents: tuple  # per agent (x, y, z, lambda, R)
    min_ncbf: tuple  # per agent, min over its trios; 0.0 with no trios
    trio_counts: tuple
    H: float
    H_M: float
    H_O: float
    hole_witnesses: int  # grid-oracle count; -1 on unsampled steps
    switch: bool
    fallback: tuple  # per agent, True when the QP failed and input fell to zero
    clamped: tuple  # per agent, True when a floor clamp activated this step


def initial_world(scenario: Scenario) -> WorldState:
    return WorldState(step=0, states=tuple(scenario.agents), trio_keys=None)


def _min_ncbf(graph, states, epsilon):
    """Per-agent minimum barrier value over incident trios (0.0 when none)."""
    values = []
    counts = []
    for i in range(len(states)):
        trios = graph.trios_of(i)
        counts.append(len(trios))
        best = None
        for trio in trios:
            try:
                value = ncbf_value(trio, i, epsilon).value
            except DegenerateTrio:
                log.warning("agent %d: degenerate trio %s skipped in trace", i, trio.ids)
                continue
            best = value if best is None else min(best, value)
        values.append(0.0 if best is None else best)
    return tuple(values), tuple(counts)


def step(world: WorldState, scenario: Scenario):
    """Advance one step; returns (next world state, TraceRecord)."""
    states = world.states
    n = len(states)
    params = scenario.sensing

    # 1. Rebuild the communication graph from current states.
    graph = build_graph(states, params.r)

    # 2. Switch detection: any change in the trio sets since the last step.
    keys = graph.trio_keys()
    switch = world.trio_keys is not None and keys != world.trio_keys

    # 3. Immutable snapshot (states tuple already is one) + shared metrics.
    grid = scenario.grid()
    part = partition(states, params, grid)
    report = coverage_objective(states, params, scenario.density, grid, part)

    # 4. Nominal inputs.
    if scenario.fixed_nominal is not None:
        nominals = [np.asarray(u, dtype=float) for u in scenario.fixed_nominal]
    else:
        nominals = [
            nominal_input(i, states, params, scenario.density, grid, part) for i in range(n)
        ]

    # 5. Safety filter against the snapshot (skipped in nominal_only mode).
    fallback = [False] * n
    if scenario.mode == "nominal_only":
        inputs = nominals
    else:
        fp = scenario.filter_params()
        inputs = []
        for i in range(n):
            try:
                inputs.append(agent_control(i, states, graph, nominals[i], fp))
            except (Infeasible, NumericalFailure) as exc:
                log.warning("step %d agent %d: %s; zero-input fallback", world.step, i, exc)
                inputs.append(np.zeros(4))
                fallback[i] = True

    # 6. Euler integration.
    dt = scenario.dt
    moved = [s.as_array() + dt * u for s, u in zip(states, inputs)]

    # 7. Floor clamps on altitude and focal length.
    clamped = [False] * n
    next_states = []
    for i, v in enumerate(moved):
        z = v[2]
        lam = v[3]
        if z < scenario.min_z or lam < scenario.min_lambda:
            clamped[i] = True
            z = max(z, scenario.min_z)
            lam = max(lam, scenario.min_lambda)
        next_states.append(AgentState(v[0], v[1], z, lam))

    # 8. Telemetry for the pre-integration snapshot.
    min_ncbf, trio_counts = _min_ncbf(graph, states, scenario.epsilon)
    if world.step % scenario.hole_check_every == 0:
        witnesses = len(
            detect_holes_grid(states, params.r, scenario.density.mission, scenario.grid_resolution)
        )
    else:
        witnesses = -1
    record = TraceRecord(
        step=world.step,
        agents=tuple(
            (s.x, s.y, s.z, s.lam, fov_of(s, params.r).radius) for s in states
        ),
        min_ncbf=min_ncbf,
        trio_counts=trio_counts,
        H=report.H,
        H_M=report.H_M,
        H_O=report.H_O,
        hole_witnesses=witnesses,
        switch=switch,
        fallback=tuple(fallback),
        clamped=tuple(clamped),
    )
    for value in (record.H, record.H_M, record.H_O, *record.min_ncbf):
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite trace value at step {world.step}")
    return WorldState(step=world.step + 1, states=tuple(next_states), trio_keys=keys), record


def run(scenario: Scenario):
    """Execute the scenario; returns (records, summary).

    The summary reports the final objective, the worst barrier value seen,
    hole-witness and switch statistics, and fallback/clamp activation counts.
    """
    world = initial_world(scenario)
    records = []
    for _ in range(scenario.steps):
        world, record = step(world, scenario)
        records.append(record)
    final_report = coverage_objective(
        world.states, scenario.sensing, scenario.density, scenario.grid()
    )
    sampled = [r for r in records if r.hole_witnesses >= 0]
    summary = {
        "mode": scenario.mode,
        "steps": scenario.steps,
        "dt": scenario.dt,
        "seed": scenario.seed,
        "final_H": final_report.H,
        "final_H_M": final_report.H_M,
        "final_H_O": final_report.H_O,
        "min_ncbf": min((min(r.min_ncbf) for r in records), default=0.0),
        "hole_witness_steps": sum(1 for r in sampled if r.hole_witnesses > 0),
        "hole_sampled_steps": len(sampled),
        "switch_count": sum(1 for r in records if r.switch),
        "fallback_count": sum(1 for r in records if any(r.fallback)),
        "clamp_count": sum(1 for r in records if any(r.clamped)),
    }
    return records, summary
