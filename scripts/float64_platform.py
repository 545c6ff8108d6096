#!/usr/bin/env python3
"""Run cstk as it runs where numpy's long double is float64 (Windows, macOS arm64).

numpy's long-double pair is rebound to float64 / complex128 before cstk is
imported.  specfun names the working precision once, from that pair, so every
series, recurrence and bracket sum of the toolkit then runs in float64, as on
those platforms.  A RuntimeWarning is an error.  The script runs

- `verify all` and `verify quadrature` at the seeds 12345, 777 and 2024,
- the kernel_B sweep of tests/data/kernel_B_sweep.json at kernel_B's 1e-10 gate,
- every set of tests/data/coherent_reference.json, each at the target its
  test in tests/test_coherent.py holds it to,
- gen_factorial at beta = 0 for n <= 400, m <= min(n, 200) against the exact
  n! / (m!)^2 at 1e-12,

and prints, as JSON, whether every check passed with its worst error over
tolerance, and per family the number of points that met their target or raised
NumericError, and the indices of those that returned a value missing it.
kernel_B also reports where its error estimate under-reports the true error.
The exit code is 0 whenever the run completes; tests/test_platform.py pins the
counts.

    python scripts/float64_platform.py
"""

import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

np.longdouble, np.clongdouble = np.float64, np.complex128  # before cstk reads them

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
DATA = ROOT / "tests" / "data"

from cstk import verify  # noqa: E402
from cstk.coherent import CoherentSpec, eta_density, kernel_K, norm_series, overlap_closed  # noqa: E402
from cstk.errors import NumericError  # noqa: E402
from cstk.measures import GammaMeasure, gen_factorial  # noqa: E402
from cstk.specfun import _EPS_LD, SeriesControl  # noqa: E402
from cstk.transforms import kernel_B  # noqa: E402

SEEDS = (12345, 777, 2024)
FACTORIAL_N, FACTORIAL_M, FACTORIAL_TARGET = 400, 200, 1e-12
KERNEL_B_TARGET = 1e-10
WIDER = SeriesControl(max_terms=20000)  # the budget of tests/test_coherent.py's past-Gamma-overflow tests


def _overlap(m, beta, zr, zi, wr, wi, vr, vi):
    return overlap_closed(complex(zr, zi), complex(wr, wi), m, beta), complex(vr, vi)


def _kernel_K(ctl):
    def call(beta, zr, zi, wr, wi, kr, ki):
        return kernel_K(complex(zr, zi), complex(wr, wi), beta, ctl), complex(kr, ki)

    return call


def _rel(tol, floor=0.0):
    return lambda ref: max(tol * abs(ref), floor)


# per set of coherent_reference.json: (value and reference of one stored row, allowed absolute error at ref)
COHERENT = {
    "kernel_K": (_kernel_K(SeriesControl()), _rel(1e-12)),
    "eta": (lambda m, beta, zr, zi, ref: (eta_density(complex(zr, zi), m, beta), ref), _rel(1e-12, 1e-12)),
    "norm_large_beta": (
        lambda m, beta, zr, zi, ref: (norm_series(CoherentSpec(complex(zr, zi), m, beta, WIDER)), ref),
        _rel(1e-12),
    ),
    "eta_large_beta": (lambda m, beta, zr, zi, ref: (eta_density(complex(zr, zi), m, beta), ref), _rel(1e-12)),
    "kernel_K_large_beta": (_kernel_K(WIDER), _rel(1e-12)),
    "overlap_m8_wide": (_overlap, lambda ref: 1e-12),
    "overlap_m8_large_z": (_overlap, _rel(1e-12)),
    "overlap_distant": (_overlap, lambda ref: 1e-12 * abs(ref) if abs(ref) >= 1e-10 else 1e-18),
    "overlap_large_beta": (_overlap, lambda ref: 1e-13),
}


def checks() -> dict:
    """Every report of verify all and verify quadrature at each seed: all passed, and the worst error/tolerance."""
    worst, where, passed = 0.0, None, True
    for seed in SEEDS:
        for report in verify.run_suite("all", seed=seed) + verify.run_suite(["quadrature"], seed=seed):
            ratio = max(report.details["err_over_tol"].values())
            passed = passed and report.passed
            if ratio > worst:
                worst, where = ratio, f"{report.check_name} (seed {seed})"
    return {"passed": passed, "worst_err_over_tol": worst, "worst_check": where}


def kernel_b_sweep() -> dict:
    """kernel_B at the 972 stored points against 1e-10, and its estimate against the true error."""
    met = raised = under = 0
    missed, worst_err, worst_under = [], 0.0, (0.0, None)
    rows = json.loads((DATA / "kernel_B_sweep.json").read_text())["values"]
    for i, (m, beta, r, phase, x, re, im) in enumerate(rows):
        try:
            val, est = kernel_B(m, beta, complex(r * np.exp(1j * phase)), x, return_error_estimate=True)
        except NumericError:
            raised += 1
            continue
        ref = complex(re, im)
        err = abs(val - ref) / abs(ref)
        worst_err = max(worst_err, err)
        if err <= KERNEL_B_TARGET:
            met += 1
        else:
            missed.append(i)
        if err > est:
            under += 1
            if err / est > worst_under[0]:
                worst_under = (err / est, {"m": m, "beta": beta, "r": r, "phase": phase, "x": x})
    return {
        "met": met, "raised": raised, "missed": len(missed), "missed_at": missed, "worst_rel_err": worst_err,
        "estimate_under_reports": under, "worst_under_report": worst_under[0], "worst_under_report_at": worst_under[1],
    }


def coherent_sets() -> dict:
    """Each set of coherent_reference.json: the rows that met their target, raised, or missed it (indices)."""
    out = {}
    for name, rows in json.loads((DATA / "coherent_reference.json").read_text()).items():
        call, allowed = COHERENT[name]
        met, raised, missed = 0, 0, []
        for i, row in enumerate(rows):
            try:
                val, ref = call(*row)
            except NumericError:
                raised += 1
                continue
            if abs(val - ref) <= allowed(ref):
                met += 1
            else:
                missed.append(i)
        out[name] = {"met": met, "raised": raised, "missed": len(missed), "missed_at": missed}
    return out


def gen_factorials() -> dict:
    """gen_factorial at beta = 0, n <= FACTORIAL_N, m <= min(n, FACTORIAL_M), against n! / (m!)^2 rounded once
    to float64 (exact integers): met within FACTORIAL_TARGET relative (or the smallest subnormal, below the normal
    range), raised OverflowError where that value is past float64, else missed (indices in that order)."""
    fact, measure = [math.factorial(k) for k in range(FACTORIAL_N + 1)], GammaMeasure(0.0)
    met, raised, missed = 0, 0, []
    pairs = ((n, m) for n in range(FACTORIAL_N + 1) for m in range(min(n, FACTORIAL_M) + 1))
    for i, (n, m) in enumerate(pairs):
        try:
            ref = fact[n] / (fact[m] * fact[m])  # correctly rounded
        except OverflowError:
            ref = math.inf
        try:
            val = gen_factorial(measure, n, m)
        except OverflowError:
            val = math.inf
        if val == ref == math.inf:
            raised += 1
        elif abs(val - ref) <= FACTORIAL_TARGET * ref + math.ulp(0.0):
            met += 1
        else:
            missed.append(i)
    return {"met": met, "raised": raised, "missed": len(missed), "missed_at": missed}


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    result = {
        "eps": _EPS_LD,
        "checks": checks(),
        "families": {"kernel_B": kernel_b_sweep(), **coherent_sets(), "gen_factorial": gen_factorials()},
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
