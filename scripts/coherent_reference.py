#!/usr/bin/env python3
"""Write the arbitrary-precision reference values of the coherent-state
regression tests in tests/test_coherent.py (tests/data/coherent_reference.json).

Each value is the coefficient series of the paper, summed in mpmath:

    c_n(z)      = conj(H_{n,m}(z)) sqrt(s! / Gamma(beta + max(n, m) + 1)),  s = min(n, m)
    N_m(z)      = sum_n |c_n(z)|^2
    <z|w>_m     = sum_n c_n(w) conj(c_n(z)) / sqrt(N_m(z) N_m(w))
    eta_m(z)    = N_m(z) t^beta e^{-t},  t = z zbar
    K(z, w)     = sum_n (z wbar)^n / Gamma(beta + n + 1)

with H_{n,m}(z) = (-1)^s z^{n-s} zbar^{m-s} L_s^(|n-m|+beta)(z zbar) and the
Laguerre polynomial as its finite sum.  The sums stop once the last two terms
of both diagonal series are below 1e-45 of the running norm; the cross terms
are bounded by their geometric mean; the kernel's sum stops past n = |z wbar|
once two terms are below 1e-45 of it.  At m = 8, |z| = 6 one overlap takes
about a third of a second, so the values are stored (about 20 s in all).

    python scripts/coherent_reference.py
"""

import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "coherent_reference.json"
DPS = 50
TAIL = mp.mpf(10) ** -45


def _lag(s, alpha, u):
    return mp.fsum((-1) ** k * mp.rf(alpha + k + 1, s - k) / (mp.factorial(s - k) * mp.factorial(k)) * u**k
                   for k in range(s + 1))


def _coeff(n, m, b, z):
    s = min(n, m)
    h = (-1) ** s * z ** (n - s) * mp.conj(z) ** (m - s) * _lag(s, abs(n - m) + b, (z * mp.conj(z)).real)
    return mp.conj(h) * mp.sqrt(mp.factorial(s) / mp.gamma(b + max(n, m) + 1))


def _sums(z, w, m, beta):
    """(sum c_n(w) conj(c_n(z)), N(z), N(w)) at DPS digits."""
    b, zq, wq = mp.mpf(beta), mp.mpc(z), mp.mpc(w)
    cross, nz, nw = mp.mpc(0), mp.mpf(0), mp.mpf(0)
    small = 0
    for n in range(4000):
        cz, cw = _coeff(n, m, b, zq), _coeff(n, m, b, wq)
        tz, tw = abs(cz) ** 2, abs(cw) ** 2
        cross += cw * mp.conj(cz)
        nz += tz
        nw += tw
        small = small + 1 if n > m and tz <= TAIL * nz and tw <= TAIL * nw else 0
        if small == 2:
            return cross, nz, nw
    raise ArithmeticError("reference series did not converge")


def overlap(z, w, m, beta):
    with mp.workdps(DPS):
        cross, nz, nw = _sums(z, w, m, beta)
        return complex(cross / mp.sqrt(nz * nw))


def norm(z, m, beta):
    with mp.workdps(DPS):
        return float(_sums(z, z, m, beta)[1])


def eta(z, m, beta):
    with mp.workdps(DPS):
        _, nz, _ = _sums(z, z, m, beta)
        t = abs(mp.mpc(z)) ** 2
        return float(nz * t ** mp.mpf(beta) * mp.exp(-t))


def kernel_K(z, w, beta):
    with mp.workdps(DPS):
        b, t = mp.mpf(beta), mp.mpc(z) * mp.conj(mp.mpc(w))
        total, term, small, n = mp.mpc(0), 1 / mp.gamma(b + 1), 0, 0
        while small < 2:
            total += term
            small = small + 1 if n > abs(t) and abs(term) <= TAIL * abs(total) else 0
            n += 1
            term *= t / (b + n)
        return complex(total)


def _pair(v):
    return [complex(v).real, complex(v).imag]


def _overlap_rows(points):
    rows = []
    for m, beta, z, w in points:
        v = overlap(z, w, m, beta)
        rows.append([m, beta, z.real, z.imag, w.real, w.imag, v.real, v.imag])
    return rows


def main() -> int:
    # m = 8 pairs on |z|, |w| in [1.5, 6], where the paper's closed form cancels most
    rng = np.random.default_rng(6)
    wide = []
    for beta in (0.0, 0.5, 2.3):
        for _ in range(3):
            z, w = rng.uniform(1.5, 6.0, 2) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2))
            wide.append((8, beta, complex(z), complex(w)))
    # m = 8 pairs on |z|, |w| in [1.5, 3], eight per beta
    rng = np.random.default_rng(8)
    large_z = []
    for beta in (0.0, 0.5, 1.0, 1.7, 2.3):
        for _ in range(8):
            z, w = rng.uniform(1.5, 3.0, 2) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2))
            large_z.append((8, beta, complex(z), complex(w)))
    # distant states w ~ -z: the overlap is far below the norms' geometric mean
    distant = [(m, beta, complex(r * np.exp(0.4j)), complex(-r * np.exp(0.45j)))
               for m in (0, 4, 8) for beta in (0.0, 2.3) for r in (1.5, 2.0, 3.0, 4.5)]
    # past beta = 170, where Gamma(beta + 1) overflows float64
    large_beta = [(2, beta, 1 + 0.5j, 0.8 + 0j) for beta in (171.0, 200.0, 400.0)]
    # kernel_K where the former Kummer-only route was off: z = w = 6 and 10, then t = z wbar with w = 1
    kernel = [(0.5, 6, 6), (2.3, 6, 6), (2.3, 10, 10)]
    kernel += [(beta, t, 1) for beta in (0.0, 1.7) for t in (36, -36, 100, 9j, -9 + 0.1j)]
    # past beta = 170 at the smallest t = |z|^2 in 50 where the value is normal in float64
    # (250, 600 and 2500, from about 550 up with a raised --max-terms); eta only returns at 171
    large_beta_t = {171.0: 250.0, 200.0: 600.0, 400.0: 2500.0}
    large_beta_norm = [(2, 171.0, 1.0)] + [(2, beta, math.sqrt(t)) for beta, t in large_beta_t.items()]
    large_beta_kernel = [(beta, math.sqrt(t), math.sqrt(t)) for beta, t in large_beta_t.items()]
    data = {
        "kernel_K": [[beta, *_pair(z), *_pair(w), *_pair(kernel_K(z, w, beta))] for beta, z, w in kernel],
        "eta": [[8, beta, 6.0, 0.0, eta(6.0, 8, beta)] for beta in (0.5, 2.3)],
        "norm_large_beta": [[m, beta, z, 0.0, norm(z, m, beta)] for m, beta, z in large_beta_norm],
        "eta_large_beta": [[2, 171.0, z, 0.0, eta(z, 2, 171.0)] for z in (1.0, 5.0)],
        "kernel_K_large_beta": [[beta, *_pair(z), *_pair(w), *_pair(kernel_K(z, w, beta))]
                                for beta, z, w in large_beta_kernel],
        "overlap_m8_wide": _overlap_rows(wide),
        "overlap_m8_large_z": _overlap_rows(large_z),
        "overlap_distant": _overlap_rows(distant),
        "overlap_large_beta": _overlap_rows(large_beta),
    }
    text = "{\n" + ",\n".join(
        f' "{key}": [\n' + ",\n".join("  " + json.dumps(row) for row in rows) + "\n ]" for key, rows in data.items()
    ) + "\n}\n"
    OUT.write_text(text)
    print(f"wrote {sum(len(rows) for rows in data.values())} values to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
