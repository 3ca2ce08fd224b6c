"""End-to-end acceptance suite.

Nine criteria, one test each, every test printing a single
``[criterion N] name: PASS/FAIL`` line (visible with ``pytest -s`` or in the
captured output of a failing run).  Each criterion also enforces its runtime
budget on this machine.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from aircover.barrier import (
    cbf_gradient,
    ncbf_value,
)
from aircover.cli import bundled_scenario, parse_config, run_command
from aircover.controller import (
    ClassK,
    FilterParams,
    Infeasible,
    QpProblem,
    build_constraints,
    solve_qp,
)
from aircover.coverage import CoverageGrid, DensityField, SensingParams
from aircover.geometry import (
    AgentState,
    CommGraph,
    build_graph,
    power_distance,
    sigma_d_frame,
)
from aircover.sim import Scenario, initial_world, run, step
from conftest import (
    active_set,
    argmax,
    component_apex,
    degenerate_guard,
    disks,
    make_trio,
    oracle_witnesses,
    radical_axis,
    random_trio,
    to_frame,
    trio_states,
    triangle,
    view,
)


def report(n, name, ok, detail):
    print(f"\n[criterion {n}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} {name}: {detail}"


def _perturbed_trio(trio, agent_index, coord, h):
    states = trio_states(trio)
    values = [states[agent_index].x, states[agent_index].y,
              states[agent_index].z, states[agent_index].lam]
    values[coord] += h
    states[agent_index] = AgentState(*values)
    return make_trio(trio.ids, states, trio.r)


def fd_component_gradient(trio, viewpoint, component, h=1e-6):
    idx = trio.ids.index(viewpoint)
    fd = np.zeros(4)
    for coord in range(4):
        plus = view(_perturbed_trio(trio, idx, coord, h), viewpoint).vals[component - 1]
        minus = view(_perturbed_trio(trio, idx, coord, -h), viewpoint).vals[component - 1]
        fd[coord] = (plus - minus) / (2.0 * h)
    return fd


def test_criterion_1_gradient_suite(rng):
    t0 = time.monotonic()
    worst = 0.0
    for k in range(100):
        trio = random_trio(rng)
        viewpoint = trio.ids[k % 3]
        for component in (1, 2, 3, 4):
            grad = cbf_gradient(view(trio, viewpoint), component)
            fd = fd_component_gradient(trio, viewpoint, component)
            rel = np.max(np.abs(grad - fd) / np.maximum(1.0, np.abs(grad)))
            worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-5 and elapsed < 5.0
    report(1, "analytic gradients vs finite differences", ok,
           f"worst rel err {worst:.2e} over 100 trios x 4 components, {elapsed:.1f}s")


def test_criterion_2_power_diagram_suite(rng):
    t0 = time.monotonic()
    worst_power = worst_perp = worst_frame_x = 0.0
    for _ in range(1000):
        trio = random_trio(rng)
        v = trio.radical_center
        powers = [power_distance(f, v) for f in disks(trio)]
        worst_power = max(worst_power, max(powers) - min(powers))
        for a in range(3):
            for b in range(a + 1, 3):
                _, direction = radical_axis(disks(trio)[a], disks(trio)[b])
                line = np.subtract(triangle(trio)[b], triangle(trio)[a])
                cosang = abs(float(direction @ line)) / np.linalg.norm(line)
                worst_perp = max(worst_perp, cosang)
        for agent in trio.ids:
            frame = sigma_d_frame(trio, agent)
            worst_frame_x = max(worst_frame_x, abs(float(to_frame(frame, v)[0])))
    elapsed = time.monotonic() - t0
    ok = worst_power < 1e-9 and worst_perp < 1e-9 and worst_frame_x < 1e-9 and elapsed < 2.0
    report(2, "power-diagram identities", ok,
           f"equal-power {worst_power:.1e}, axis-angle {worst_perp:.1e}, "
           f"frame-x {worst_frame_x:.1e} over 1000 trios, {elapsed:.1f}s")


def test_criterion_3_hole_oracle_equivalence(rng):
    t0 = time.monotonic()
    checked = 0
    mismatches = 0
    while checked < 1000:
        trio = random_trio(rng, require_overlap=True)
        graph = build_graph(trio_states(trio), trio.r)
        if not graph.all_trios():
            continue
        checked += 1
        value = ncbf_value(view(trio, trio.ids[0]).vals)
        xs, ys, radii = zip(*disks(trio))
        radius = max(radii)
        mission = (min(xs) - radius - 1.0, min(ys) - radius - 1.0,
                   max(xs) + radius + 1.0, max(ys) + radius + 1.0)
        size = max(mission[2] - mission[0], mission[3] - mission[1])
        witnesses = oracle_witnesses(trio_states(trio), trio.r, CoverageGrid(mission, size / 260), graph)
        if (value >= 0.0) != (len(witnesses) == 0):
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches <= 10 and elapsed < 60.0
    report(3, "barrier sign vs independent grid oracle", ok,
           f"{mismatches}/1000 boundary-cell mismatches (budget 1%), {elapsed:.1f}s")


def test_criterion_4_trio_passage_replication():
    t0 = time.monotonic()
    scenario = parse_config(bundled_scenario("trio"))
    records, _ = run(scenario)
    hoverer_y = max(s.y for s in scenario.agents[1:])
    hoverer_R = scenario.agents[1].z / scenario.agents[1].lam * scenario.sensing.r
    final_y = records[-1].agents[0][1]
    min_h = min(min(r.min_ncbf) for r in records)

    # Track which component defines the mover's barrier along the same run.
    world = initial_world(scenario)
    argmaxes = []
    for _ in range(scenario.steps):
        trios = build_graph(world.states, scenario.sensing.r).trios_of(0)
        if trios:
            argmaxes.append(argmax(view(trios[0], 0).vals))
        else:
            argmaxes.append(None)
        world, _ = step(world, scenario)
    swaps = sum(
        1 for a, b in zip(argmaxes, argmaxes[1:]) if a != b and {a, b} == {2, 4}
    )

    hf_records, _ = run(replace(scenario, mode="hf_only"))
    radii = [r.agents[0][4] for r in hf_records]
    shrink = 1.0 - min(radii) / radii[0]
    elapsed = time.monotonic() - t0

    passed = final_y >= hoverer_y + hoverer_R
    ok = passed and min_h >= 0.0 and swaps >= 2 and shrink >= 0.20 and elapsed < 30.0
    report(4, "trio passage replication", ok,
           f"final y {final_y:.2f} (needs >= {hoverer_y + hoverer_R:.2f}), "
           f"min barrier {min_h:.4f}, component swaps {swaps}, "
           f"footprint shrink {shrink:.0%} in footprint-only mode, {elapsed:.1f}s")


def test_criterion_5_nine_agent_replication():
    t0 = time.monotonic()
    scenario = replace(parse_config(bundled_scenario("nine_agents")), steps=2000)
    safe_records, safe_summary = run(scenario)
    nominal_records, nominal_summary = run(replace(scenario, mode="nominal_only"))

    safe_sampled = [r for r in safe_records if r.hole_witnesses >= 0]
    clean = sum(1 for r in safe_sampled if r.hole_witnesses == 0)
    clean_frac = clean / len(safe_sampled)

    # Any witnessed step must be cleared again within 200 steps.
    reeliminated = True
    for i, record in enumerate(safe_sampled):
        if record.hole_witnesses > 0:
            horizon = [
                r for r in safe_sampled[i + 1:] if r.step <= record.step + 200
            ]
            if not any(r.hole_witnesses == 0 for r in horizon):
                reeliminated = False

    nominal_sampled = [r for r in nominal_records if r.hole_witnesses >= 0]
    nominal_frac = sum(1 for r in nominal_sampled if r.hole_witnesses > 0) / len(
        nominal_sampled
    )

    h_safe = safe_summary["final_H"]
    h_nominal = nominal_summary["final_H"]
    ordering = h_safe <= h_nominal
    within = abs(h_nominal - h_safe) <= 0.2 * max(abs(h_nominal), abs(h_safe))
    elapsed = time.monotonic() - t0

    ok = (
        clean_frac >= 0.999
        and reeliminated
        and nominal_frac >= 0.10
        and ordering
        and within
        and safe_summary["clamp_count"] == 0
        and elapsed < 600.0
    )
    report(5, "nine-agent replication", ok,
           f"filtered clean fraction {clean_frac:.1%}, unfiltered witness fraction "
           f"{nominal_frac:.1%}, final H {h_safe:.1f} vs {h_nominal:.1f}, {elapsed:.0f}s")


def test_criterion_6_qp_suite(rng):
    t0 = time.monotonic()
    weights_pool = [1.0, 1.0, 1.0, 1e6]

    identity_ok = True
    for _ in range(200):
        m = int(rng.integers(1, 7))
        A = rng.normal(size=(m, 4))
        u_feas = rng.normal(size=4)
        b = A @ u_feas - np.abs(rng.normal(size=m)) - 1e-6
        u = solve_qp(QpProblem(u_feas, np.array(weights_pool), [(A[i], b[i]) for i in range(m)]))
        identity_ok &= bool(np.array_equal(u, u_feas))

    proj_worst = 0.0
    for _ in range(200):
        a = rng.normal(size=4)
        u_nom = rng.normal(size=4)
        w = np.array([1.0, 1.0, 1.0, float(rng.uniform(1.0, 1e6))])
        b = float(a @ u_nom + np.abs(rng.normal()) + 0.1)  # violated
        u = solve_qp(QpProblem(u_nom, w, [(a, b)]))
        expected = u_nom + (b - a @ u_nom) / float(a @ (a / w)) * (a / w)
        proj_worst = max(proj_worst, float(np.max(np.abs(u - expected))))

    a = np.array([1.0, 0.0, 0.0, 0.0])
    try:
        solve_qp(QpProblem(np.zeros(4), np.ones(4), [(a, 1.0), (-a, 1.0)]))
        infeasible_ok = False
    except Infeasible:
        infeasible_ok = True

    residual_worst = 0.0
    for _ in range(10_000):
        m = int(rng.integers(1, 8))
        A = rng.normal(size=(m, 4))
        u_feas = rng.normal(size=4)
        b = A @ u_feas - np.abs(rng.normal(size=m))
        u_nom = rng.normal(size=4) * 2.0
        w = np.array([1.0, 1.0, 1.0, float(rng.uniform(1.0, 3e6))])
        u = solve_qp(QpProblem(u_nom, w, [(A[i], b[i]) for i in range(m)]))
        residual_worst = min(residual_worst, float(np.min(A @ u - b)))
    elapsed = time.monotonic() - t0

    ok = (
        identity_ok
        and proj_worst < 1e-10
        and infeasible_ok
        and residual_worst >= -1e-8
        and elapsed < 10.0
    )
    report(6, "safety-filter QP suite", ok,
           f"identity {identity_ok}, projection err {proj_worst:.1e}, "
           f"infeasibility detected {infeasible_ok}, worst residual {residual_worst:.1e} "
           f"over 10^4 instances, {elapsed:.1f}s")


def test_criterion_7_coverage_ascent():
    t0 = time.monotonic()
    tol_breaches = []

    single = Scenario(
        agents=(AgentState(9.0, 9.0, 7.0, 1.1),),
        sensing=SensingParams(r=1.0, kappa=4.0, sigma=3.0, M=11.0, w=0.4),
        density=DensityField(components=((1.0, (10.0, 10.0), 3.0),), mission=(0, 0, 20, 20)),
        dt=2e-3,
        steps=500,
        mode="nominal_only",
        grid_resolution=0.25,
    )
    records, _ = run(single)
    hs = [r.H for r in records]
    for prev, cur in zip(hs, hs[1:]):
        if cur < prev - 1e-6 * abs(prev):
            tol_breaches.append(("single", prev, cur))

    three = Scenario(
        agents=(
            AgentState(5.0, 5.0, 4.0, 1.2),
            AgentState(15.0, 5.2, 4.0, 1.2),
            AgentState(25.0, 4.8, 4.0, 1.2),
        ),
        sensing=SensingParams(r=1.0, kappa=4.0, sigma=3.0, M=11.0, w=0.4),
        density=DensityField(
            components=(
                (1.0, (5.0, 5.0), 1.5),
                (1.0, (15.0, 5.0), 1.5),
                (1.0, (25.0, 5.0), 1.5),
            ),
            mission=(0, 0, 30, 10),
        ),
        dt=2e-3,
        steps=500,
        mode="nominal_only",
        grid_resolution=0.25,
    )
    records, _ = run(three)
    assert all(r.trio_counts == (0, 0, 0) for r in records[:1])  # disjoint footprints
    hs = [r.H for r in records]
    for prev, cur in zip(hs, hs[1:]):
        if cur < prev - 1e-6 * abs(prev):
            tol_breaches.append(("three", prev, cur))
    elapsed = time.monotonic() - t0

    ok = not tol_breaches and elapsed < 60.0
    report(7, "coverage objective ascent", ok,
           f"{len(tol_breaches)} tolerance breaches over 2 x 500 steps, {elapsed:.1f}s")


def test_criterion_8_distributed_implies_central(rng):
    t0 = time.monotonic()
    epsilon = 0.2
    alpha = ClassK(gain=1.0, power=3)
    checked = 0
    failures = 0
    trios_done = 0
    while trios_done < 500:
        trio = random_trio(rng)
        trios_done += 1
        vals = view(trio, trio.ids[0]).vals
        value, active = ncbf_value(vals), active_set(vals, epsilon)
        per_agent = {}
        solved = {}
        skip_components = set()
        for agent in trio.ids:
            comps = view(trio, agent)
            suppressed = degenerate_guard(comps, 1e4)
            for local in suppressed:
                apex = component_apex(trio, agent, local)
                for glob in active:
                    if component_apex(trio, trio.ids[0], glob) == apex:
                        skip_components.add(glob)
            params = FilterParams(epsilon=epsilon, alpha=alpha, guard_threshold=1e4)
            rows = build_constraints(CommGraph(3, (trio,)), params).rows[agent]
            u_nom = rng.normal(size=4) * 2.0
            try:
                solved[agent] = (
                    solve_qp(QpProblem(u_nom, (1.0, 1.0, 1.0, 3.0e6), rows)) if rows else u_nom
                )
            except Infeasible:
                solved[agent] = np.zeros(4)  # the simulator's fallback input
            per_agent[agent] = comps

        for glob in active:
            if glob in skip_components:
                continue
            apex = component_apex(trio, trio.ids[0], glob)
            total = 0.0
            premise = True
            degenerate = False
            for agent in trio.ids:
                local = next(
                    (
                        l
                        for l in (1, 2, 3, 4)
                        if component_apex(trio, agent, l) == apex
                        and abs(per_agent[agent].vals[l - 1] - value) <= epsilon + 1e-9
                    ),
                    None,
                )
                if local is None:
                    premise = False
                    break
                grad = cbf_gradient(view(trio, agent), local)
                if float(np.linalg.norm(grad)) < 1e-9:
                    degenerate = True
                    break
                contribution = float(grad @ solved[agent])
                total += contribution
                if contribution < -alpha(value) / 3.0 - 1e-9:
                    premise = False
                    break
            if not premise or degenerate:
                continue
            checked += 1
            if total < -alpha(value) - 3e-9:
                failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and checked >= 400 and elapsed < 5.0
    report(8, "per-agent inequalities imply the trio-wide inequality", ok,
           f"{checked} component checks across 500 trios, {failures} failures, {elapsed:.1f}s")


def test_criterion_9_determinism(tmp_path):
    t0 = time.monotonic()
    scenario_path = tmp_path / "scenario.cfg"
    scenario_path.write_text(bundled_scenario("nine_agents"))
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = run_command(str(scenario_path), str(out), steps=150)
        assert code == 0
        outputs.append((out / "trace.csv").read_bytes())
    elapsed = time.monotonic() - t0
    ok = outputs[0] == outputs[1]
    report(9, "byte-identical replays", ok,
           f"two traces of {len(outputs[0])} bytes, identical: {ok}, {elapsed:.0f}s")
