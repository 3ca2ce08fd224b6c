"""
The per-agent safety filter
===========================

Each agent minimally edits its nominal input so that every almost-active
barrier component keeps at least a -alpha(h)/3 decay rate -- one third of the
budget, because the other two triangle members enforce their thirds
independently.  The edit is a small weighted QP over the agent's own four
controls, solved with a dense active-set method.
"""

import numpy as np

from aircover import (
    AgentState,
    ClassK,
    FilterParams,
    Infeasible,
    QpProblem,
    build_constraints,
    build_graph,
    cbf_components,
    make_trio,
    ncbf_value,
    qp_weights,
    solve_qp,
)

# A trio close to opening a hole: the mover is pulling away from the pair.
r = 1.0
states = [
    AgentState(0.0, -1.3, 1.5, 1.0),
    AgentState(-1.4, 0.0, 1.5, 1.0),
    AgentState(1.4, 0.0, 1.5, 1.0),
]
trio = make_trio((0, 1, 2), states, r)
mover_view = cbf_components(trio)[0]  # the trio's views come in id order
value = ncbf_value(mover_view.vals, epsilon=0.2)
print(f"barrier h = {value.value:.4f}, almost-active components: "
      f"{value.active_set}")

# The mover's nominal input keeps retreating -- unsafe if left unfiltered.
u_nom = np.array([0.0, -0.4, 0.0, 0.0])
# One pass over the graph's trios gives every agent its rows: one per
# almost-active component of its views, all sharing the trio's b.
params = FilterParams(epsilon=0.2, alpha=ClassK(gain=20.0, power=3),
                      guard_threshold=1e4)
rows = build_constraints(build_graph(states, r), params).rows[0]
for a, b in rows:
    print("constraint row a =", np.round(a, 4), f" b = {b:+.5f}",
          f" slack at u_nom = {float(a @ u_nom) - b:+.5f}")

# The focal-rate weight is huge, so the filter prefers to spend position and
# altitude rates before touching the zoom.
u = solve_qp(QpProblem(u_nom, qp_weights(1.0e6), rows))
print("\nnominal input :", np.round(u_nom, 4))
print("filtered input:", np.round(u, 4))
print("deviation      :", np.round(u - u_nom, 4))
print("worst row residual at the solution:",
      f"{min(float(a @ u) - b for a, b in rows):+.2e}")

# When no constraint is anywhere near active -- far from any hole -- the
# filter is inert.
safe = [AgentState(0.0, -0.2, 1.5, 1.0), states[1], states[2]]
rows_safe = build_constraints(build_graph(safe, r), params).rows[0]
u_safe = solve_qp(QpProblem(u_nom, qp_weights(1.0e6), rows_safe))
print("\nwith a comfortable barrier the filter returns u_nom exactly:",
      bool(np.array_equal(u_safe, u_nom)))

# Contradictory halfspaces are reported, not silently mangled; the simulator
# catches this and falls back to a zero input for the step.
try:
    a = np.array([1.0, 0.0, 0.0, 0.0])
    solve_qp(QpProblem(np.zeros(4), np.ones(4), [(a, 1.0), (-a, 1.0)]))
except Infeasible as exc:
    print("infeasible example correctly raises:", exc)
