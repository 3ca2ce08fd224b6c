"""Scenario files, run orchestration, and trace/summary/plot-data emission.

Scenario grammar: named sections ``[agents]``, ``[sensing]``, ``[density]``,
``[sim]``, ``[controller]``.  ``[agents]`` holds one bare row per agent with
``x y z lambda`` (optionally followed by ``ux uy uz ulambda`` to fix that
agent's nominal input; row widths must agree).  ``[density]`` holds a
``mission = xmin ymin xmax ymax`` key and one ``weight mx my scale`` row per
mixture component.  The remaining sections hold ``key = value`` pairs.
Numbers are finite decimal floats (``nan`` and ``inf`` are errors); ``#``
starts a comment; unknown sections and keys are errors.  Omitted keys take
the dataclass defaults of ``Scenario`` and ``ClassK`` (sim dt=0.01,
steps=1000, mode ncbf, grid_resolution=0.25, min_z=0.05, min_lambda=1e-4,
hole_check_every=10; controller epsilon=0.2, alpha h^3, w_lambda=3e6,
guard_threshold=1e4) and, in ``[sensing]``, r=1, kappa=4, sigma=3, M=11,
w=0.4.
"""

import argparse
import logging
import math
import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass, replace
from importlib import resources
from itertools import chain
from operator import itemgetter
from pathlib import Path

from aircover.controller import ClassK
from aircover.coverage import DensityField, SensingParams
from aircover.geometry import AgentState
from aircover.sim import MODES, Scenario, run

log = logging.getLogger(__name__)

LOG_ENV_VAR = "AIRCOVER_LOG"
EMIT_CHOICES = ("trace", "summary", "plotdata")

# The `key = value` sections, in serialization order.  [sensing] keys are
# SensingParams fields, alpha_* keys ClassK fields, and every other key the
# Scenario field of its name; an omitted key takes its dataclass default.
_KEYS = {
    "sensing": {"r": float, "kappa": float, "sigma": float, "M": float, "w": float},
    "sim": {"dt": float, "steps": int, "mode": str, "grid_resolution": float,
            "min_z": float, "min_lambda": float, "hole_check_every": int},
    "controller": {"epsilon": float, "alpha_gain": float, "alpha_power": int,
                   "w_lambda": float, "guard_threshold": float},
}
_SECTIONS = ("agents", "density", *_KEYS)
# SensingParams has no defaults of its own.
_SENSING_DEFAULTS = {"r": 1.0, "kappa": 4.0, "sigma": 3.0, "M": 11.0, "w": 0.4}


class ParseError(Exception):
    """Malformed scenario text; carries the 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class ValidationError(Exception):
    """Well-formed scenario text whose values violate an invariant."""


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: scenario path, output directory, and overrides."""

    scenario_path: str
    out_dir: str
    mode: str = None
    steps: int = None
    dt: float = None
    emit: tuple = ("trace", "summary")


def _tokens_with_columns(line, start=0):
    out = []
    col = start
    for token in line[start:].split():
        col = line.index(token, col)
        out.append((token, col + 1))
        col += len(token)
    return out


def _parse_float(token, col, lineno):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"expected a number, got '{token}'", lineno, col) from None
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got '{token}'", lineno, col)
    return value


def _parse_int(token, col, lineno):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got '{token}'", lineno, col) from None


_PARSERS = {float: _parse_float, int: _parse_int, str: lambda token, col, lineno: token}


def _parse_row(line, lineno, widths, what):
    tokens = _tokens_with_columns(line)
    if len(tokens) not in widths:
        allowed = " or ".join(str(w) for w in sorted(widths))
        raise ParseError(
            f"{what} row needs {allowed} numbers, got {len(tokens)}", lineno, tokens[0][1]
        )
    return [_parse_float(tok, col, lineno) for tok, col in tokens]


def parse_config(text) -> Scenario:
    """Parse scenario text into a Scenario, applying documented defaults."""
    section = None
    agent_rows = []
    density_rows = []
    keys = {name: {} for name in _KEYS}
    mission = None
    seen = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = line.index(stripped[0]) + 1

        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", lineno, col)
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", lineno, col)
            section = name
            continue
        if section is None:
            raise ParseError("content before any section header", lineno, col)

        if "=" in stripped:
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ParseError("missing key before '='", lineno, col)
            if not value:
                raise ParseError(f"missing value for key '{key}'", lineno, col)
            if section == "agents":
                raise ParseError("[agents] holds agent rows, not keys", lineno, col)
            if section == "density" and key != "mission":
                raise ParseError(f"unknown key '{key}' in [density]", lineno, col)
            if (lineno_key := (section, key)) in seen:
                raise ParseError(f"duplicate key '{key}' in [{section}]", lineno, col)
            seen.add(lineno_key)
            if section == "density":
                parts = _tokens_with_columns(line, line.index("=") + 1)  # after '=', columns in line
                if len(parts) != 4:
                    raise ParseError("mission needs 4 numbers: xmin ymin xmax ymax", lineno, col)
                mission = tuple(_parse_float(tok, c, lineno) for tok, c in parts)
                continue
            kind = _KEYS[section].get(key)
            if kind is None:
                raise ParseError(f"unknown key '{key}' in [{section}]", lineno, col)
            value_col = line.index(value, line.index("=")) + 1
            keys[section][key] = _PARSERS[kind](value, value_col, lineno)
            continue

        # Bare row sections.
        if section == "agents":
            agent_rows.append((_parse_row(line, lineno, (4, 8), "agent"), lineno, col))
        elif section == "density":
            density_rows.append(_parse_row(line, lineno, (4,), "density component"))
        else:
            raise ParseError(f"[{section}] holds 'key = value' entries", lineno, col)

    widths = {len(row) for row, _, _ in agent_rows}
    if len(widths) > 1:
        row, lineno, col = next(t for t in agent_rows if len(t[0]) != max(widths))
        raise ParseError("agent rows must all have 4 or all have 8 numbers", lineno, col)

    try:
        if mission is None:
            raise ValidationError("density mission rectangle is required")
        fields = {**keys["sim"], **keys["controller"]}
        alpha = {k.removeprefix("alpha_"): fields.pop(k) for k in list(fields) if k.startswith("alpha_")}
        return Scenario(
            agents=tuple(AgentState(*row[:4]) for row, _, _ in agent_rows),
            sensing=SensingParams(**{**_SENSING_DEFAULTS, **keys["sensing"]}),
            density=DensityField(
                components=tuple((row[0], (row[1], row[2]), row[3]) for row in density_rows),
                mission=mission,
            ),
            alpha=ClassK(**alpha),
            fixed_nominal=tuple(tuple(row[4:]) for row, _, _ in agent_rows) if widths == {8} else None,
            **fields,
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def serialize(scenario: Scenario) -> str:
    """Scenario back to config text; parse_config(serialize(s)) == s."""

    def section(name):
        lines = ["", f"[{name}]"]
        for key, kind in _KEYS[name].items():
            field = key.removeprefix("alpha_")
            owner = scenario.sensing if name == "sensing" else scenario.alpha if field != key else scenario
            value = getattr(owner, field)
            lines.append(f"{key} = {value!r}" if kind is float else f"{key} = {value}")
        return lines

    lines = ["[agents]"]
    for i, s in enumerate(scenario.agents):
        row = f"{s.x!r} {s.y!r} {s.z!r} {s.lam!r}"
        if scenario.fixed_nominal is not None:
            row += "  " + " ".join(repr(float(u)) for u in scenario.fixed_nominal[i])
        lines.append(row)
    lines += section("sensing")
    lines += ["", "[density]", "mission = " + " ".join(repr(float(v)) for v in scenario.density.mission)]
    for weight, mean, scale in scenario.density.components:
        lines.append(f"{weight!r} {mean[0]!r} {mean[1]!r} {scale!r}")
    lines += section("sim") + section("controller")
    return "\n".join(lines) + "\n"


def bundled_scenario(name: str) -> str:
    """Text of a scenario shipped with the package (trio, nine_agents, five_agents)."""
    return (resources.files("aircover") / "scenarios" / f"{name}.cfg").read_text()


def _trace_table(records):
    """Header and text rows of the trace, one row per step in step order; rows are made lazily."""
    n = len(records[0].agents)
    header = ["step", "switch", "hole_witnesses", "H", "H_M", "H_O"]
    for i in range(n):
        header += [f"{name}{i}" for name in
                   ("x", "y", "z", "lambda", "R", "min_ncbf", "trios", "fallback", "clamped")]

    def rows():
        for r in records:
            row = [str(r.step), str(int(r.switch)), str(r.hole_witnesses),
                   repr(r.H), repr(r.H_M), repr(r.H_O)]
            for i in range(n):
                row += [*map(repr, r.agents[i]), repr(r.min_ncbf[i]), str(r.trio_counts[i]),
                        str(int(r.fallback[i])), str(int(r.clamped[i]))]
            yield row

    return header, rows()


def write_trace(records, path):
    """Delimited trace table, one row per step, ordered by step."""
    header, rows = _trace_table(records)
    with open(path, "w") as fh:
        fh.write("# per-step trace; positions/R in meters; min_ncbf per agent over its trios\n")
        for row in chain([header], rows):
            fh.write(",".join(row) + "\n")


def write_summary(summary, path):
    """Flat key = value summary document."""
    with open(path, "w") as fh:
        for key, value in summary.items():
            fh.write(f"{key} = {value!r}\n")


def emit_plotdata(records, out_dir):
    """Per-series-family files for plotting, each the step and some trace columns; returns paths."""
    header, rows = _trace_table(records)
    n = len(records[0].agents)
    families = {
        "plot_positions.csv": [f"{axis}{i}" for i in range(n) for axis in ("x", "y", "z", "lambda")],
        "plot_radius.csv": [f"R{i}" for i in range(n)],
        "plot_ncbf.csv": [f"min_ncbf{i}" for i in range(n)],
        "plot_global.csv": ["H", "H_M", "H_O", "hole_witnesses"],
    }
    column = {name: j for j, name in enumerate(header)}
    # Every family has at least two columns, so each pick returns a tuple.
    picks = [itemgetter(*[column[c] for c in ["step", *columns]]) for columns in families.values()]
    paths = [str(Path(out_dir) / name) for name in families]
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w")) for path in paths]
        for row in chain([header], rows):
            for fh, pick in zip(files, picks):
                fh.write(",".join(pick(row)) + "\n")
    return paths


def run_command(config: RunConfig) -> int:
    """Execute one scenario run and write the requested outputs."""
    path = Path(config.scenario_path)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: cannot read scenario '{path}': {exc}", file=sys.stderr)
        return 2
    try:
        mode = config.mode and config.mode.replace("-", "_")
        overrides = {"mode": mode, "steps": config.steps, "dt": config.dt}
        scenario = replace(parse_config(text), **{k: v for k, v in overrides.items() if v is not None})
    except (ParseError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for flag in config.emit:
        if flag not in EMIT_CHOICES:
            print(f"error: unknown emit flag '{flag}'", file=sys.stderr)
            return 2

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        records, summary = run(scenario)
    except Exception as exc:  # unrecoverable runtime failure
        print(f"error: run failed: {exc}", file=sys.stderr)
        return 1
    if "trace" in config.emit:
        write_trace(records, out_dir / "trace.csv")
    if "summary" in config.emit:
        write_summary(summary, out_dir / "summary.txt")
    if "plotdata" in config.emit:
        emit_plotdata(records, out_dir)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get(LOG_ENV_VAR, "WARNING").upper())
    parser = argparse.ArgumentParser(
        prog="aircover", description="Deterministic camera-team coverage simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="simulate a scenario file")
    runp.add_argument("--config", required=True, help="scenario file path")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--mode", choices=[m.replace("_", "-") for m in MODES])
    runp.add_argument("--steps", type=int)
    runp.add_argument("--dt", type=float)
    runp.add_argument(
        "--emit",
        action="append",
        help="artifacts to write: trace, summary, plotdata "
        "(repeat the flag or pass a comma list; default: trace,summary)",
    )
    args = parser.parse_args(argv)
    emit_args = args.emit if args.emit else ["trace,summary"]
    return run_command(
        RunConfig(
            scenario_path=args.config,
            out_dir=args.out,
            mode=args.mode,
            steps=args.steps,
            dt=args.dt,
            emit=tuple(s.strip() for arg in emit_args for s in arg.split(",") if s.strip()),
        )
    )


if __name__ == "__main__":
    sys.exit(main())
