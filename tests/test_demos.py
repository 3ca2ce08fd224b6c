"""Smoke test: every script under demos/ runs to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # Demos that write artifacts do so under a temp dir, and remove it.
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env["TMPDIR"] = str(scratch)
    # A numpy overflow or divide by zero fails the demo, as pyproject.toml's
    # filterwarnings makes it fail a test.
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
    assert not any(scratch.iterdir()), f"{demo.name} left {sorted(p.name for p in scratch.iterdir())}"
