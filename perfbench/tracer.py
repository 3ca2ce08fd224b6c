"""Span tracer that times calls into aircover's public functions from outside.

``Tracer.install`` replaces each traced name in every module namespace that
calls it with a wrapper, and ``uninstall`` puts back exactly the objects it
found.  Each call records a span (name, start, end, parent, run id) in
memory; per-layer metrics are derived from those spans once the traced runs
are over.  A span's layer is the part of its name before the first dot.
"""

import importlib
import os
import time

import numpy as np

# (module, attribute, span name).  A name is wrapped in every namespace that
# calls it, so calls made inside the package are seen too.  Each wrapper
# wraps the original function, so a call is recorded once.
TARGETS = (
    ("aircover.cli", "parse_config", "io.parse_config"),
    ("aircover.cli", "run", "sim.run"),
    ("aircover.cli", "write_trace", "io.write_trace"),
    ("aircover.cli", "write_summary", "io.write_summary"),
    ("aircover.cli", "emit_plotdata", "io.emit_plotdata"),
    ("aircover.sim", "step", "sim.step"),
    ("aircover.sim", "build_graph", "graph.build_graph"),
    ("aircover.sim", "detect_holes_grid", "oracle.detect_holes_grid"),
    ("aircover.sim", "partition", "coverage.partition"),
    ("aircover.sim", "coverage_objective", "coverage.coverage_objective"),
    ("aircover.sim", "nominal_input", "coverage.nominal_input"),
    ("aircover.sim", "agent_control", "filter.agent_control"),
    ("aircover.sim", "ncbf_value", "telemetry.ncbf_value"),
    ("aircover.geometry", "build_graph", "graph.build_graph"),
    ("aircover.geometry", "sigma_d_frame", "barrier.sigma_d_frame"),
    ("aircover.coverage", "partition", "coverage.partition"),
    ("aircover.coverage", "sensing_field", "coverage.sensing_field"),
    ("aircover.coverage", "sensing_gradient", "coverage.sensing_gradient"),
    ("aircover.coverage.DensityField", "phi", "coverage.phi"),
    ("aircover.controller", "build_constraints", "filter.build_constraints"),
    ("aircover.controller", "solve_qp", "filter.solve_qp"),
    ("aircover.controller", "cbf_components", "barrier.cbf_components"),
    ("aircover.controller", "cbf_gradient", "barrier.cbf_gradient"),
    ("aircover.barrier", "cbf_components", "barrier.cbf_components"),
    ("aircover.barrier", "sigma_d_frame", "barrier.sigma_d_frame"),
)

# Rows with |a.u - b| at most this are counted as active at the returned u.
ACTIVE_TOL = 1e-7


def _resolve(path):
    """Module or class object for a dotted path such as aircover.coverage.DensityField."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _npoints(args):
    # sensing_field / sensing_gradient(state, params, points); phi(self, points).
    return len(args[-1])


# Extra per-call data kept for the metrics, computed after the span has ended.
_EXTRA = {
    "coverage.sensing_field": lambda args, result: _npoints(args),
    "coverage.sensing_gradient": lambda args, result: _npoints(args),
    "coverage.phi": lambda args, result: _npoints(args),
    "graph.build_graph": lambda args, result: result,
    "filter.solve_qp": lambda args, result: (args[0], result),
    "io.write_trace": lambda args, result: args[1],
    "io.write_summary": lambda args, result: args[1],
    "io.emit_plotdata": lambda args, result: result,
}


class Tracer:
    """In-memory span recorder; one per benchmark process."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.run_ids = []
        self.extra = {}
        self.failed = set()
        self.run_id = -1
        self._stack = [-1]
        self._saved = []

    def _wrap(self, name, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, run_ids, stack = self.parents, self.run_ids, self._stack
        extra_fn = _EXTRA.get(name)
        extra, failed = self.extra, self.failed
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            run_ids.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                failed.add(idx)
                raise
            ends[idx] = clock()
            stack.pop()
            if extra_fn is not None:
                extra[idx] = extra_fn(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, run_id):
        """Wrap every target; spans recorded until uninstall carry ``run_id``."""
        self.run_id = run_id
        originals = {}
        for path, attr, name in TARGETS:
            owner = _resolve(path)
            current = owner.__dict__[attr]
            self._saved.append((owner, attr, current))
            key = getattr(current, "__wrapped__", current)
            if key not in originals:
                originals[key] = self._wrap(name, current)
            setattr(owner, attr, originals[key])

    def uninstall(self):
        """Restore the saved objects; returns the names that did not come back intact."""
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        broken = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, obj in self._saved
            if owner.__dict__[attr] is not obj
        ]
        self._saved = []
        return broken

    def spans(self):
        """Columns as numpy arrays plus derived self times and enclosing step."""
        n = len(self.names)
        start = np.array(self.starts)
        end = np.array(self.ends)
        parent = np.array(self.parents, dtype=int)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        step_of = np.full(n, -1, dtype=int)
        for i, name in enumerate(self.names):
            if name == "sim.step":
                step_of[i] = i
            elif parent[i] >= 0:
                step_of[i] = step_of[parent[i]]
        return {
            "name": np.array(self.names),
            "start": start,
            "end": end,
            "parent": parent,
            "run": np.array(self.run_ids, dtype=int),
            "dur": dur,
            "self": dur - child,
            "step_of": step_of,
        }

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,run\n")
            for i, row in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.run_ids)
            ):
                fh.write(f"{i},{row[0]},{row[1]!r},{row[2]!r},{row[3]},{row[4]}\n")


def layer_metrics(tracer, n_agents, hole_check_every):
    """Per-layer metrics and completeness checks from the spans of the traced runs.

    Per-step figures are totals over every traced step divided by the number
    of traced steps; per-run figures are means over traced runs.  ``*_ms``
    figures of a named function are inclusive of its children; ``self``
    figures and the layer shares exclude them.
    """
    s = tracer.spans()
    name, dur, self_t, parent, step_of = s["name"], s["dur"], s["self"], s["parent"], s["step_of"]
    n_runs = len(set(s["run"].tolist()))
    is_step = name == "sim.step"
    steps = int(is_step.sum())
    in_step = step_of >= 0
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], "")

    def sel(span_name, under_step=True):
        mask = name == span_name
        return mask & in_step if under_step else mask

    def ms_per_step(span_name, which=dur):
        return 1e3 * float(which[sel(span_name)].sum()) / steps

    def per_step(count):
        return count / steps

    def extras(span_name, under_step=True):
        return [tracer.extra[i] for i in np.flatnonzero(sel(span_name, under_step))]

    graph = sel("graph.build_graph")
    oracle = sel("oracle.detect_holes_grid")
    n_graph = int(graph.sum())
    n_oracle = int(oracle.sum())
    graph_in_oracle = int((graph & (parent_name == "oracle.detect_holes_grid")).sum())
    graph_in_step = int((graph & (parent_name == "sim.step")).sum())

    qps = extras("filter.solve_qp")
    rows = [len(p.constraints) for p, _ in qps]
    active = []
    edited = 0
    for problem, u in qps:
        A = np.array([a for a, _ in problem.constraints])
        b = np.array([bb for _, bb in problem.constraints])
        active.append(int(np.sum(np.abs(A @ u - b) <= ACTIVE_TOL)))
        edited += not np.array_equal(u, np.asarray(problem.u_nom, dtype=float))
    n_qp = len(qps)
    control = sel("filter.agent_control")
    failures = len(tracer.failed & set(np.flatnonzero(control).tolist()))

    points = sum(
        sum(extras(n)) for n in ("coverage.sensing_field", "coverage.sensing_gradient", "coverage.phi")
    )

    written = []
    for n in ("io.write_trace", "io.write_summary"):
        written += extras(n, under_step=False)
    for paths in extras("io.emit_plotdata", under_step=False):
        written += paths
    bytes_written = sum(os.path.getsize(p) for p in written)

    step_ms = 1e3 * float(dur[is_step].sum()) / steps
    layers = {}
    for i in np.flatnonzero(in_step):
        layer = name[i].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_t[i]
    layer_ms = {k: 1e3 * v / steps for k, v in layers.items()}

    metrics = {
        "graph.self_ms_per_step": (ms_per_step("graph.build_graph", self_t), "ms"),
        "graph.ms_per_call": (1e3 * float(dur[graph].sum()) / n_graph, "ms"),
        "graph.calls_per_step": (per_step(n_graph), "count"),
        "graph.trios_per_call": (
            float(np.mean([len(g.all_trios()) for g in extras("graph.build_graph")])), "count"),
        "oracle.self_ms_per_call": (
            1e3 * float(self_t[oracle].sum()) / n_oracle, "ms"),
        "oracle.calls_per_step": (per_step(n_oracle), "count"),
        "oracle.graph_builds_per_call": (graph_in_oracle / n_oracle, "count"),
        "coverage.partition_ms_per_step": (ms_per_step("coverage.partition"), "ms"),
        "coverage.objective_ms_per_step": (ms_per_step("coverage.coverage_objective"), "ms"),
        "coverage.nominal_ms_per_step": (ms_per_step("coverage.nominal_input"), "ms"),
        "coverage.phi_calls_per_step": (per_step(int(sel("coverage.phi").sum())), "count"),
        "coverage.points_per_step": (per_step(points), "count"),
        "barrier.component_evals_per_step": (
            per_step(int(sel("barrier.cbf_components").sum())), "count"),
        "barrier.frame_builds_per_step": (
            per_step(int(sel("barrier.sigma_d_frame").sum())), "count"),
        "barrier.gradient_ms_per_step": (ms_per_step("barrier.cbf_gradient"), "ms"),
        "filter.constraints_ms_per_step": (ms_per_step("filter.build_constraints"), "ms"),
        "filter.qp_ms_per_step": (ms_per_step("filter.solve_qp"), "ms"),
        "filter.qp_calls_per_step": (per_step(n_qp), "count"),
        "filter.rows_per_qp": (float(np.mean(rows)) if rows else 0.0, "count"),
        "filter.active_rows_per_qp": (float(np.mean(active)) if active else 0.0, "count"),
        "filter.edit_ratio": (edited / n_qp if n_qp else 0.0, "share"),
        "filter.failures": (failures / n_runs, "count"),
        "sim.self_ms_per_step": (ms_per_step("sim.step", self_t), "ms"),
        "telemetry.ncbf_ms_per_step": (ms_per_step("telemetry.ncbf_value"), "ms"),
        "io.parse_ms": (1e3 * float(dur[name == "io.parse_config"].sum()) / n_runs, "ms"),
        "io.write_trace_ms": (1e3 * float(dur[name == "io.write_trace"].sum()) / n_runs, "ms"),
        "io.write_plotdata_ms": (
            1e3 * float(dur[name == "io.emit_plotdata"].sum()) / n_runs, "ms"),
        "io.bytes_written": (bytes_written / n_runs, "bytes"),
        "trace.step_ms": (step_ms, "ms"),
        "trace.self_sum_ms_per_step": (sum(layer_ms.values()), "ms"),
    }
    for layer in ("graph", "oracle", "coverage", "barrier", "filter", "telemetry", "sim"):
        metrics[f"share.{layer}"] = (layer_ms.get(layer, 0.0) / step_ms, "share")

    control_calls = int(control.sum())
    steps_per_run = steps / n_runs
    expected_oracle = n_runs * -(-int(steps_per_run) // hole_check_every)
    checks = {
        "agent_control calls = agents x steps": control_calls == n_agents * steps,
        "oracle calls = ceil(steps / hole_check_every)": n_oracle == expected_oracle,
        "graph calls = steps + oracle graph builds": (
            graph_in_step == steps and n_graph == steps + graph_in_oracle
        ),
        "every span closed inside its parent": bool(
            np.all(s["end"] >= s["start"])
            and np.all(s["start"][parent >= 0] >= s["start"][parent[parent >= 0]])
            and np.all(s["end"][parent >= 0] <= s["end"][parent[parent >= 0]])
        ),
        "self times sum to step time": abs(sum(layer_ms.values()) - step_ms) <= 1e-6 * step_ms,
    }
    return ({k: (float(v), unit) for k, (v, unit) in metrics.items()},
            {k: bool(v) for k, v in checks.items()})
