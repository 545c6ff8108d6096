#!/usr/bin/env python3
"""Small exploration script: tabulate the Bargmann kernels and the
resolution density along radial rays, as CSV on stdout.

Examples:
    python scripts/kernel_profiles.py --beta 1.0 --m 2 --x 0.5
    python scripts/kernel_profiles.py --beta 0.0 --m 3 --x 0.0 --rmax 4
"""

import argparse
import sys

import numpy as np

from cstk.coherent import eta_density
from cstk.formats import format_complex, format_real
from cstk.oracles import kernel_B_true_poly
from cstk.transforms import kernel_B


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta", type=float, default=0.0)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--x", type=float, default=0.5)
    parser.add_argument("--rmax", type=float, default=3.0)
    parser.add_argument("--points", type=int, default=25)
    args = parser.parse_args()

    print("r,kernel,true_poly_kernel,eta_density")
    for r in np.linspace(0.05, args.rmax, args.points):
        z = complex(r)
        k = kernel_B(args.m, args.beta, z, args.x)
        tp = kernel_B_true_poly(args.m, z, args.x) if args.beta == 0.0 else float("nan")
        eta = eta_density(z, args.m, args.beta)
        tp_text = format_complex(complex(tp)) if args.beta == 0.0 else "n/a"
        print(f"{format_real(r)},{format_complex(complex(k))},{tp_text},{format_real(eta)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
