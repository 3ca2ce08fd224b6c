"""Deterministic multi-agent simulation of downward-camera coverage teams.

The package provides power-diagram geometry, nonsmooth barrier functions with
analytic gradients, a per-agent QP safety filter, a gradient-ascent coverage
controller, a discrete-time simulator, and a scenario-file CLI.
"""

from aircover.barrier import (
    CbfComponents,
    CbfGradient,
    NcbfValue,
    cbf_components,
    cbf_gradient,
    compose_ncbf,
    component_apex,
    degenerate_guard,
    ncbf_value,
)
from aircover.cli import (
    ParseError,
    RunConfig,
    ValidationError,
    bundled_scenario,
    emit_plotdata,
    parse_config,
    run_command,
    serialize,
    write_summary,
    write_trace,
)
from aircover.controller import (
    ClassK,
    FilterParams,
    Infeasible,
    NumericalFailure,
    QpProblem,
    agent_control,
    build_constraints,
    qp_weights,
    solve_qp,
)
from aircover.coverage import (
    CoverageGrid,
    CoverageReport,
    DensityField,
    Partition,
    SensingParams,
    coverage_objective,
    nominal_input,
    partition,
    sensing_field,
    sensing_gradient,
    sensing_quality,
)
from aircover.geometry import (
    AgentState,
    CommGraph,
    DegenerateTrio,
    Fov,
    Line2,
    SigmaDFrame,
    TrioContext,
    build_graph,
    detect_holes_grid,
    fov_of,
    hole_exists_exact,
    make_trio,
    point_in_triangle,
    power_distance,
    radical_axis,
    radical_center,
    sigma_d_frame,
)
from aircover.sim import (
    MODES,
    Scenario,
    TraceRecord,
    WorldState,
    initial_world,
    run,
    step,
)

__version__ = "0.1.0"
