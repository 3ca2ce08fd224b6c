"""The benchmark's workloads and how to run one as ``aircover run`` would.

Each workload is a scenario file plus the ``--steps`` of one run.  The
program only ever receives the scenario text; the lattice layout is made
from the benchmark's seed by lattice.py.
"""

import os
import sys
from dataclasses import dataclass
from pathlib import Path

import lattice

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "aircover" / "scenarios"
# Generated configs, artifacts and results; never committed.
OUT_ROOT = ROOT / "perfbench_out"

# BLAS/OpenMP pools pinned to one thread; children inherit the setting.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bundled: str  # bundled scenario name; None for the generated lattice
    steps: int  # steps of one run, passed as --steps
    setup_reps: int  # set-up-only runs after each full run, for the setup_s median

    def config_text(self, seed: int) -> str:
        if self.bundled is None:
            return lattice.generate(seed)
        return (SCENARIOS / f"{self.bundled}.cfg").read_text()

    def cli_args(self, config_path, out_dir, steps=None):
        """Arguments of ``aircover run`` for one run of this workload (or its first ``steps``)."""
        return ["run", "--config", str(config_path), "--out", str(out_dir),
                "--emit", "trace,summary,plotdata", "--steps", str(steps or self.steps)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "nine_coverage",
            "9 agents on 40,000 grid points with coverage nominals: the coverage layer "
            "is about three quarters of a step",
            bundled="nine_agents",
            steps=120,
            setup_reps=3,
        ),
        Workload(
            "trio_passage",
            "3 agents with fixed nominals that skip nominal_input; filter, barrier and "
            "telemetry take their largest share and trace rows per compute are highest",
            bundled="trio",
            steps=2000,
            setup_reps=10,
        ),
        Workload(
            "lattice25_expand",
            "seeded jittered 5x5 lattice expanding under fixed nominals: build_graph is "
            "about four fifths of a step and the oracle rebuilds the graph",
            bundled=None,
            steps=lattice.STEPS,
            setup_reps=2,
        ),
    )
}


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def child_env():
    """Environment for an ``aircover`` child process that imports this checkout's source."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def aircover_command(workload, config_path, out_dir):
    return [sys.executable, "-m", "aircover.cli", *workload.cli_args(config_path, out_dir)]
