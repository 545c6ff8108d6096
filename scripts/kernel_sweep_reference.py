#!/usr/bin/env python3
"""Write the arbitrary-precision reference values of the kernel regression
sweep in tests/test_transforms.py (tests/data/kernel_B_sweep.json).

kernel_B_mp evaluates the paper's Hermite-Laguerre plus Lauricella form of the
kernel, whose (z zbar)^{-k} terms cancel for small |z|; the working precision
is raised by 2m log10(1/|z|) digits to absorb that.  The whole sweep takes
about half a minute, too long for every test run, so its values are stored.

    python scripts/kernel_sweep_reference.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cstk.oracles import kernel_B_mp  # noqa: E402

OUT = ROOT / "tests" / "data" / "kernel_B_sweep.json"
MS = tuple(range(9))
BETAS = (0.0, 0.5, 2.3)
RADII = (1e-6, 1e-4, 1e-2, 0.1, 1.0, 3.0)  # z = 0 is checked against its closed limit
PHASES = (0.3, 2.5)
XS = (-3.0, 0.7, 3.0)


def sweep_dps(m: int, r: float) -> int:
    return 40 + max(0, math.ceil(2 * m * math.log10(1.0 / r)))


def main() -> int:
    rows = []
    for m in MS:
        for beta in BETAS:
            for r in RADII:
                for phase in PHASES:
                    z = complex(r * np.exp(1j * phase))
                    for x in XS:
                        v = kernel_B_mp(m, beta, z, x, dps=sweep_dps(m, r))
                        rows.append([m, beta, r, phase, x, v.real, v.imag])
    grid = {"m": list(MS), "beta": list(BETAS), "r": list(RADII), "phase": list(PHASES), "x": list(XS)}
    lines = ",\n".join("  " + json.dumps(row) for row in rows)
    OUT.write_text('{"grid": ' + json.dumps(grid) + ',\n "values": [\n' + lines + "\n]}\n")
    print(f"wrote {len(rows)} values to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
