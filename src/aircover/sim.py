"""Synchronous discrete-time simulation of a barrier-filtered camera team.

The team's state is one read-only (n, 4) float64 array with columns x, y, z,
λ.  Each step rebuilds the communication graph from it, detects graph
switches by comparing trio sets, computes nominal inputs (coverage gradient
or fixed per-agent vectors), filters each through the agent's rows from one
pass over the trios that the trace shares (nominal_only's filter has no
components, so no rows), and Euler-integrates the single-integrator dynamics
over the whole array, with positive floors on altitude and focal length.  A
non-finite nominal input or next state stops the run with a
FloatingPointError.  Every step emits a TraceRecord of Python floats; the
integration itself uses no randomness, so a scenario replays bit-identically.
"""

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from aircover import controller
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
from aircover.geometry import build_graph, detect_holes_grid, footprint_rows

log = logging.getLogger(__name__)

# The filter's components per mode; none leaves every agent its nominal input.
_MODE_COMPONENTS = {"ncbf": ALL_COMPONENTS, "hf_only": (4,), "nominal_only": ()}
MODES = tuple(_MODE_COMPONENTS)

# The Euler step's floors on altitude z (m) and focal length lambda.
MIN_Z = 0.05
MIN_LAMBDA = 1e-4


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
    hole_check_every: int = 10
    fixed_nominal: tuple = None  # per-agent 4-vectors; None means coverage control

    def __post_init__(self):
        if not self.agents:
            raise ValueError("scenario needs at least one agent")
        # Each check fails on NaN.
        finite = all(math.isfinite(v) for s in self.agents for v in (s.x, s.y, s.z, s.lam))
        if not (finite and all(s.z > 0 and s.lam > 0 for s in self.agents)):
            raise ValueError(
                "every agent needs finite coordinates and a positive altitude z and focal length lambda")
        for name in ("dt", "grid_resolution"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.hole_check_every < 1:
            raise ValueError("hole_check_every must be at least 1")
        if self.fixed_nominal is not None:
            if len(self.fixed_nominal) != len(self.agents):
                raise ValueError("fixed_nominal needs one input per agent")
            if not all(np.shape(u) == (4,) and np.isfinite(u).all() for u in self.fixed_nominal):
                raise ValueError("every fixed_nominal input must be four finite numbers")
        self.filter_params  # checks epsilon, guard_threshold and w_lambda

    # Each cached_property is built on first read and kept in the instance
    # __dict__, outside the fields, so equality and replace() ignore it.
    @cached_property
    def filter_params(self) -> FilterParams:
        """The filter's knobs, built (and checked) once."""
        return FilterParams(self.epsilon, self.alpha, self.w_lambda, self.guard_threshold,
                            _MODE_COMPONENTS[self.mode])

    @cached_property
    def grid(self) -> CoverageGrid:
        """The coverage grid, built once."""
        return CoverageGrid(self.density.mission, self.grid_resolution)

    @cached_property
    def fixed_inputs(self) -> np.ndarray:
        """fixed_nominal as a read-only (n, 4) array, built once; None under coverage control."""
        if self.fixed_nominal is None:
            return None
        inputs = np.array(self.fixed_nominal, dtype=float)
        inputs.flags.writeable = False
        return inputs


@dataclass(frozen=True)
class WorldState:
    """Integrator state: step index, the read-only (n, 4) state array, and last step's trio sets."""

    step: int
    states: np.ndarray
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


def _finite(step_index: int, what: str, rows) -> np.ndarray:
    """rows as an (n, 4) array; FloatingPointError names the step and the first agent with a non-finite entry."""
    rows = np.asarray(rows, dtype=float)
    if not np.isfinite(rows).all():
        agent = int(np.argmin(np.isfinite(rows).all(axis=1)))
        raise FloatingPointError(f"non-finite {what} at step {step_index}, agent {agent}")
    return rows


def initial_world(scenario: Scenario) -> WorldState:
    states = np.array(scenario.agents, dtype=float)
    states.flags.writeable = False
    return WorldState(step=0, states=states, trio_keys=None)


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

    # 3. Shared metrics of the (read-only) snapshot.
    grid = scenario.grid
    part = partition(states, params, grid)
    report = coverage_objective(states, params, scenario.density, grid, part)

    # 4. Nominal inputs.
    nominals = scenario.fixed_inputs
    if nominals is None:
        nominals = _finite(world.step, "nominal input", [
            nominal_input(i, states, params, scenario.density, grid, part) for i in range(n)
        ])

    # 5. One pass over the trios for every agent's rows and the trace's values
    #    (called through its module, so that a wrapper put there sees it).
    fp = scenario.filter_params
    built = controller.build_constraints(graph, fp)
    inputs, fallback = [], [False] * n
    for i in range(n):
        try:
            inputs.append(agent_control(built.rows[i], nominals[i], fp))
        except (Infeasible, NumericalFailure) as exc:
            log.warning("step %d agent %d: %s; zero-input fallback", world.step, i, exc)
            inputs.append(np.zeros(4))
            fallback[i] = True

    # 6. Euler integration, with floor clamps on z and lambda.
    next_states = _finite(world.step, "next state", states + scenario.dt * np.array(inputs))
    floors = (MIN_Z, MIN_LAMBDA)
    clamped = (next_states[:, 2:] < floors).any(axis=1)
    np.maximum(next_states[:, 2:], floors, out=next_states[:, 2:])
    next_states.flags.writeable = False

    # 7. Telemetry for the pre-integration snapshot: each trio's value composed
    #    over all four conditions, once, read over each agent's kept views.
    h = [ncbf_value(vals) for vals in built.trio_vals]
    min_ncbf = tuple(min((h[t] for t in ts), default=0.0) for ts in built.kept)
    if world.step % scenario.hole_check_every == 0:
        witnesses = len(detect_holes_grid(part, grid, graph))
    else:
        witnesses = -1
    record = TraceRecord(
        step=world.step,
        agents=tuple(footprint_rows(states, params.r)),
        min_ncbf=min_ncbf,
        trio_counts=tuple(len(graph.trios_of(i)) for i in range(n)),
        H=report.H,
        H_M=report.H_M,
        H_O=report.H_O,
        hole_witnesses=witnesses,
        switch=switch,
        fallback=tuple(fallback),
        clamped=tuple(clamped.tolist()),
    )
    for value in (record.H, record.H_M, record.H_O, *record.min_ncbf):
        if not math.isfinite(value):
            raise FloatingPointError(f"non-finite trace value at step {world.step}")
    return WorldState(step=world.step + 1, states=next_states, trio_keys=keys), record


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
        world.states, scenario.sensing, scenario.density, scenario.grid
    )
    sampled = [r for r in records if r.hole_witnesses >= 0]
    summary = {
        "mode": scenario.mode,
        "steps": scenario.steps,
        "dt": scenario.dt,
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
