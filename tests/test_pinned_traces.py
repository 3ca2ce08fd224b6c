"""Bundled scenarios against traces pinned before the float kernels.

`tests/data/<scenario>/` holds `trace.csv` and `summary.txt` of short ncbf
runs (trio 300 steps, five_agents 200, nine_agents 60) made with the numpy
geometry and barrier kernels.  The float kernels round differently, so a
replay must match every integer and boolean cell exactly (trio counts,
switches, witnesses, fallbacks, clamps) and every float within 1e-9 relative
plus 1e-12 absolute.
"""

from pathlib import Path

import pytest

from aircover import RunConfig, bundled_scenario, run_command

DATA = Path(__file__).resolve().parent / "data"
PINNED = {"trio": 300, "five_agents": 200, "nine_agents": 60}
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
    config = tmp_path / f"{name}.cfg"
    config.write_text(bundled_scenario(name))
    out = tmp_path / "out"
    code = run_command(
        RunConfig(scenario_path=str(config), out_dir=str(out), mode="ncbf", steps=PINNED[name])
    )
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
