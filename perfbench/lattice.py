"""Seeded generator of the jittered 5x5 lattice scenario (workload lattice25_expand).

Twenty-five agents sit on a 10 m lattice with uniform jitter of up to 1 m per
axis.  At z = 8 and lambda = 1 every footprint has R = 8 m, so the nominal
spacing is just under the 11.3 m at which four footprints open a hole.  Each
agent's fixed nominal input is the uniform expansion 0.5 * (p - centre), so
the team spreads and the barrier filter has to hold it together.  The jitter
keeps the degenerate four-way power-diagram vertex of a perfect square
lattice off the main path.

The layout is drawn from ``seed % LAYOUTS`` so that every layout the
benchmark can run has a pinned reference trace (see reference.py).

Usage: python3 perfbench/lattice.py --seed 3 --out lattice.cfg
"""

import argparse
import random
import sys

SIDE = 5
SPACING = 10.0
JITTER = 1.0
LAYOUTS = 32
STEPS = 41
CENTRE = SPACING * (SIDE - 1) / 2.0


def layout_of(seed: int) -> int:
    return seed % LAYOUTS


def generate(seed: int) -> str:
    """Scenario text for the layout chosen by ``seed``; same seed, same text."""
    layout = layout_of(seed)
    rng = random.Random(layout)
    rows = []
    for gx in range(SIDE):
        for gy in range(SIDE):
            x = gx * SPACING + rng.uniform(-JITTER, JITTER)
            y = gy * SPACING + rng.uniform(-JITTER, JITTER)
            ux = 0.5 * (x - CENTRE)
            uy = 0.5 * (y - CENTRE)
            rows.append(f"{x!r} {y!r} 8.0 1.0   {ux!r} {uy!r} 0.0 0.0")
    lo = -15.0
    hi = SPACING * (SIDE - 1) + 15.0
    return "\n".join(
        [
            f"# lattice25_expand: benchmark seed {seed}, layout {layout} of {LAYOUTS}",
            "[agents]",
            "# x y z lambda   ux uy uz ulambda (uniform expansion about the centre)",
            *rows,
            "",
            "[sensing]",
            "r = 1.0",
            "kappa = 4.0",
            "sigma = 3.0",
            "M = 11.0",
            "w = 0.4",
            "",
            "[density]",
            f"mission = {lo!r} {lo!r} {hi!r} {hi!r}",
            f"1.0 {CENTRE!r} {CENTRE!r} 20.0",
            "",
            "[sim]",
            "dt = 0.01",
            f"steps = {STEPS}",
            "mode = ncbf",
            "grid_resolution = 1.0",
            "hole_check_every = 10",
            "",
            "[controller]",
            "epsilon = 0.2",
            "alpha_gain = 1.0",
            "alpha_power = 3",
            "w_lambda = 3.0e6",
            "guard_threshold = 1e4",
            "",
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="path of the .cfg file to write")
    args = parser.parse_args(argv)
    with open(args.out, "w") as fh:
        fh.write(generate(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
