"""
Scenario files and the command-line runner
==========================================

Runs are described by small INI-style scenario files: agent rows, sensing
parameters, a Gaussian-mixture density over a mission rectangle, integrator
settings, and controller knobs.  The `aircover run` command executes one and
writes deterministic CSV artifacts; the same file gives byte-identical
traces.
"""

import pathlib
import tempfile

from aircover import parse_config, run_command, serialize
from aircover.cli import bundled_scenario

# Three scenarios ship with the package.
for name in ("trio", "five_agents", "nine_agents"):
    scenario = parse_config(bundled_scenario(name))
    print(f"{name:>12}: {len(scenario.agents)} agents, {scenario.steps} steps, "
          f"grid {scenario.grid_resolution}, mission "
          f"{scenario.density.mission}")

# A scenario parses to a plain dataclass and serializes back to the same
# normalized text (round-trip stable).
text = serialize(parse_config(bundled_scenario("trio")))
print("\nnormalized trio scenario file:")
print("\n".join(text.splitlines()[:12]))
print("...")

# Run it from the CLI entry point (same function the `aircover run`
# subcommand calls), truncated to 300 steps for the demo.  The artifacts go to
# a temporary directory that is removed at the end.
with tempfile.TemporaryDirectory() as tmp:
    out = pathlib.Path(tmp) / "trio_run"
    config_path = out.parent / "trio.cfg"
    config_path.write_text(bundled_scenario("trio"))
    code = run_command(str(config_path), str(out), steps=300,
                       emit=("trace", "summary", "plotdata"))
    print(f"\nrun_command exit code: {code}")
    for artifact in sorted(out.iterdir()):
        print(f"  {artifact.name:>18}: {artifact.stat().st_size} bytes")

    print("\ntrace head:")
    for line in (out / "trace.csv").read_text().splitlines()[:4]:
        print(" ", line[:100] + ("..." if len(line) > 100 else ""))

    print("\nsummary:")
    print((out / "summary.txt").read_text().rstrip())
