"""Deterministic multi-agent simulation of downward-camera coverage teams.

The package provides power-diagram geometry, nonsmooth barrier functions with
analytic gradients, a per-agent QP safety filter, a gradient-ascent coverage
controller, a discrete-time simulator, and a scenario-file CLI
(`python -m aircover run ...`).
"""

from aircover.barrier import cbf_components, cbf_gradient, ncbf_value
from aircover.controller import (
    ClassK,
    FilterParams,
    Infeasible,
    NumericalFailure,
    QpProblem,
    agent_control,
    build_constraints,
    solve_qp,
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
    footprint_rows,
    power_distance,
    sigma_d_frame,
)
from aircover.sim import Scenario, initial_world, run, step

__version__ = "0.1.0"

# The CLI's names resolve on first use (PEP 562), so that `python -m
# aircover.cli` does not find aircover.cli already imported by this package.
_CLI_NAMES = (
    "ParseError", "RunConfig", "ValidationError", "bundled_scenario", "parse_config",
    "run_command", "serialize",
)


def __getattr__(name):
    if name in _CLI_NAMES:
        from aircover import cli

        return getattr(cli, name)
    raise AttributeError(f"module 'aircover' has no attribute '{name}'")
