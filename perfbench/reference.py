"""Reference traces pinned from the program, and the check against them.

A fingerprint of one run holds the SHA-256 digests of ``trace.csv`` and
``summary.txt``, the summary's counts and extremes, about ROWS_KEPT evenly
spaced trace rows reduced to (step, H, min over agents of min_ncbf, trio
incidences, fallbacks), and every agent's final (x, y, z, lambda).  A run matches its reference when
both digests are equal, or else when every integer is equal and every float
is within ABS_TOL + REL_TOL * |reference|.  The tolerance admits refactors
that only reorder floating-point sums; it does not admit a change of trios,
fallbacks or hole witnesses.

Re-pin (only when the program's traces are meant to change):
    python3 perfbench/reference.py
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import lattice
from workloads import OUT_ROOT, WORKLOADS, aircover_command, child_env, pin_threads

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-6
ABS_TOL = 1e-9
ROWS_KEPT = 50
SUMMARY_INTS = ("steps", "hole_witness_steps", "hole_sampled_steps", "switch_count",
                "fallback_count", "clamp_count")
SUMMARY_FLOATS = ("final_H", "final_H_M", "final_H_O", "min_ncbf")
DIGESTS = ("trace_sha256", "summary_sha256")


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_summary(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value.strip("'")
    return out


def read_trace(path):
    """(header, rows) of trace.csv with every cell as a string."""
    lines = Path(path).read_text().splitlines()
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


def fingerprint(trace_path, summary_path):
    header, rows = read_trace(trace_path)
    col = {name: i for i, name in enumerate(header)}
    n = sum(1 for name in header if name.startswith("min_ncbf"))
    stride = max(1, len(rows) // ROWS_KEPT)
    kept = sorted(set(range(0, len(rows), stride)) | {len(rows) - 1})
    summary = read_summary(summary_path)
    last = rows[-1]
    return {
        "trace_sha256": digest(trace_path),
        "summary_sha256": digest(summary_path),
        "summary": {
            **{k: int(summary[k]) for k in SUMMARY_INTS},
            **{k: float(summary[k]) for k in SUMMARY_FLOATS},
        },
        "rows": [
            [
                int(rows[r][col["step"]]),
                float(rows[r][col["H"]]),
                min(float(rows[r][col[f"min_ncbf{i}"]]) for i in range(n)),
                sum(int(rows[r][col[f"trios{i}"]]) for i in range(n)),
                sum(int(rows[r][col[f"fallback{i}"]]) for i in range(n)),
            ]
            for r in kept
        ],
        "final_states": [
            [float(last[col[f"{axis}{i}"]]) for axis in ("x", "y", "z", "lambda")]
            for i in range(n)
        ],
    }


def _diff(path, got, ref, out):
    if isinstance(ref, dict):
        for key in ref:
            _diff(f"{path}.{key}", got.get(key), ref[key], out)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            out.append(f"{path}: length {len(got or [])} != {len(ref)}")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _diff(f"{path}[{i}]", g, r, out)
    elif isinstance(ref, float):
        if got is None or not abs(got - ref) <= ABS_TOL + REL_TOL * abs(ref):
            out.append(f"{path}: {got!r} vs reference {ref!r}")
    elif got != ref:
        out.append(f"{path}: {got!r} vs reference {ref!r}")


def compare(got, ref):
    """Mismatches of a fingerprint against its reference; empty when it matches."""
    if all(got[k] == ref[k] for k in DIGESTS):
        return []
    out = []
    body = {k: v for k, v in ref.items() if k not in DIGESTS}
    _diff("trace", got, body, out)
    return out


def reference_key(workload, seed):
    return "bundled" if workload.bundled else str(lattice.layout_of(seed))


def load(workload, seed):
    path = REFERENCE_DIR / f"{workload.name}.json"
    return json.loads(path.read_text())[reference_key(workload, seed)]


def pin():
    """Run every workload (each lattice layout) once through ``aircover run`` and pin it."""
    pin_threads()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        seeds = (0,) if workload.bundled else range(lattice.LAYOUTS)
        refs = {}
        for seed in seeds:
            out = OUT_ROOT / "pin" / workload.name
            out.mkdir(parents=True, exist_ok=True)
            cfg = out / "scenario.cfg"
            cfg.write_text(workload.config_text(seed))
            subprocess.run(aircover_command(workload, cfg, out), env=child_env(),
                           check=True, capture_output=True, timeout=600)
            refs[reference_key(workload, seed)] = fingerprint(out / "trace.csv", out / "summary.txt")
            print(workload.name, seed, refs[reference_key(workload, seed)]["summary"], flush=True)
        path = REFERENCE_DIR / f"{workload.name}.json"
        entries = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in refs.items())
        path.write_text("{\n" + ",\n".join(entries) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(pin())
