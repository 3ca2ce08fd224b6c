"""Scenarios against pinned traces.

`tests/data/<scenario>/` holds `trace.csv` and `summary.txt` of short ncbf
runs (trio 300 steps, five_agents 200, nine_agents 60) made with the numpy
geometry and barrier kernels.  The float kernels round differently, so a
replay must match every integer and boolean cell exactly (trio counts,
switches, witnesses, fallbacks, clamps) and every float within 1e-9 relative
plus 1e-12 absolute.

`tests/data/lattice25_expand/` also holds its `scenario.cfg`: layout 0 of the
benchmark's jittered 5×5 lattice (`perfbench/lattice.py --seed 0`), 41 steps,
pinned with the float filter and the per-agent coverage objective.  Its QPs
take steps with a nonempty working set, which the bundled runs rarely do, so
a sign error in the solver's primal step, its QR or its dual step changes it.

`tests/data/square25/` is the same layout with no jitter: an exact square
lattice, whose cell centres are power-diagram vertices shared by four
footprints, so the run goes through `build_graph`'s fan split on every step.

`tests/data/trio_hf_only/` and `tests/data/trio_nominal_only/` are the bundled
trio in the other two modes, 300 steps each.  In hf_only the filter composes
the footprint condition alone while the trace composes all four; nominal_only
runs the filter with no components, so every agent keeps its nominal input.
"""

from pathlib import Path

import pytest

from aircover import bundled_scenario, run_command

DATA = Path(__file__).resolve().parent / "data"
PINNED = {"trio": 300, "five_agents": 200, "nine_agents": 60, "lattice25_expand": 41, "square25": 41,
          "trio_hf_only": 300, "trio_nominal_only": 300}
# Pins of a bundled scenario in another mode: name -> (scenario, mode).
MODE_PINS = {"trio_hf_only": ("trio", "hf_only"), "trio_nominal_only": ("trio", "nominal_only")}
RTOL = 1e-9
ATOL = 1e-12


def cells(text, sep):
    """(row label, column label, token) for every cell of a trace or summary."""
    lines = text.splitlines()
    if sep == ",":
        header = lines[1].split(",")
        for row in lines[2:]:
            tokens = row.split(",")
            assert len(tokens) == len(header)
            for name, token in zip(header, tokens):
                yield tokens[0], name, token
    else:
        for row in lines:
            key, value = row.split(" = ")
            yield key, key, value


def same_cell(pinned, got):
    """Exact for integers and strings; within RTOL·|pinned| + ATOL for floats."""
    try:
        int(pinned)
        return got == pinned
    except ValueError:
        pass
    try:
        want = float(pinned)
    except ValueError:
        return got == pinned
    return abs(float(got) - want) <= RTOL * abs(want) + ATOL


@pytest.mark.parametrize("name", sorted(PINNED))
def test_replay_matches_pinned_trace(name, tmp_path):
    scenario, mode = MODE_PINS.get(name, (name, "ncbf"))
    config = DATA / name / "scenario.cfg"
    if not config.exists():
        config = tmp_path / f"{scenario}.cfg"
        config.write_text(bundled_scenario(scenario))
    out = tmp_path / "out"
    code = run_command(str(config), str(out), mode=mode, steps=PINNED[name])
    assert code == 0
    for artifact, sep in (("trace.csv", ","), ("summary.txt", " = ")):
        pinned = (DATA / name / artifact).read_text()
        got = (out / artifact).read_text()
        pinned_cells = list(cells(pinned, sep))
        got_cells = list(cells(got, sep))
        assert [c[:2] for c in got_cells] == [c[:2] for c in pinned_cells]
        off = [
            (row, col, want, have)
            for (row, col, want), (_, _, have) in zip(pinned_cells, got_cells)
            if not same_cell(want, have)
        ]
        assert not off, f"{artifact}: {len(off)} cells off, first {off[:5]}"
