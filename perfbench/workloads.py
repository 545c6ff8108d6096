"""The four workloads: inputs made from the seed, the fixed operation list of
one pass, and the check of every output against the oracle.

Every pass runs the same operations in the same order, so a run attempts whole
passes and the share of failed operations does not depend on how many passes
fit into the run.  The seed picks the points; it never picks how many
operations of which kind a pass holds, so the cost of a pass barely depends
on it.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import mpmath as mp
import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BETAS = (0.0, 0.5, 1.0, 1.7, 2.3)
CAP_DIGITS = 16.0

# Tolerance per evaluator, each the tolerance of the certification check that
# covers it (src/cstk/verify.py).  gen_factorial has no check of its own; it
# gets the Gamma-ratio tolerance of kummer-normalization.
TOL = {
    "h_poly": 1e-10,  # pde-eigen, error / (1 + |H|)
    "p_norm": 1e-10,  # pde-eigen, same scale carried through the normalization
    "overlap_closed": 1e-8,  # overlap
    "eta_density": 1e-8,  # overlap: the same closed bracket
    "norm_series": 1e-11,  # kummer-normalization
    "norm_closed_m0": 1e-11,  # kummer-normalization
    "kernel_K": 1e-11,  # kummer-normalization: e^t 1F1(beta; beta+1; -t)
    "kernel_B": 1e-8,  # kernel-reduction
    "kernel_B_analytic": 1e-8,  # kernel-reduction
    "omega_weight": 1e-6,  # assoc-hermite
    "apply_transform": 1e-5,  # transform
    "gen_factorial": 1e-11,  # kummer-normalization
}

# The named fault: kernel_B at small |z| for m >= 1 (a z^m sum over
# 1/(z zbar)^k terms that cancel, and a ring-extrapolated z = 0 limit below
# |z| = 1e-4).  Fixed points, independent of the seed, that fail on every run.
KERNEL_B_FAULT_POINTS = (
    (8, 0.5, 0.01 + 0.003j, 0.7),
    (8, 0.5, 0.1 + 0.0j, 0.7),
    (4, 0.5, 1.01e-4 + 0.0j, 0.3),
    (4, 0.5, 5e-5 + 0.0j, 0.3),
)


def _disk(rng, rmin, rmax, count):
    """``count`` points of the annulus rmin <= |z| <= rmax, uniform in modulus and phase."""
    return rng.uniform(rmin, rmax, count) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, count))


class _Points:
    """Seeded single points laid on a fixed design across their box.

    The cost and the rounding error of most evaluators change with |z|,
    arg z and |x|, so points drawn uniformly would make both the time and the
    accuracy of a pass depend on the seed.  Moduli and phases instead walk
    fixed ladders (of coprime lengths, so that slots meet many combinations),
    and the seed moves each point by a jitter of 2 % in modulus and 0.05 rad
    in phase, and orders the operations.
    """

    MODULI = (0.35, 0.6, 0.85, 1.0, 0.5)
    PHASES = tuple(2.0 * math.pi * k / 7 + 0.3 for k in range(7))

    def __init__(self, rng):
        self.rng = rng
        self.k = 0

    def _next(self) -> tuple[float, float]:
        frac = self.MODULI[self.k % len(self.MODULI)] * (1.0 - 0.02 * self.rng.uniform())
        phase = self.PHASES[self.k % len(self.PHASES)] + 0.05 * self.rng.uniform(-1.0, 1.0)
        self.k += 1
        return frac, phase

    def z(self, rmin: float, rmax: float) -> complex:
        frac, phase = self._next()
        return complex((rmin + (rmax - rmin) * frac) * np.exp(1j * phase))

    def x(self, lo: float, hi: float) -> float:
        frac, phase = self._next()
        return float(math.copysign(lo + (hi - lo) * frac, math.cos(phase)))

    def t(self, hi: float) -> float:
        return hi * self._next()[0]


def digits_of(err: float) -> float:
    return CAP_DIGITS if err <= 0.0 else min(CAP_DIGITS, -math.log10(err))


def margin_of(err: float, tol: float) -> float:
    return CAP_DIGITS if err <= 0.0 else min(CAP_DIGITS, math.log10(tol / err))


@dataclass
class Op:
    """One timed call into the program and the way its output is judged.

    ``reference`` runs on the oracle side, once per run and outside every
    timed region; it returns (ref, scale) and the error of a value v is
    max |v - ref| / scale.  ``assess`` replaces that rule where an output
    carries its own error and tolerance (certification reports, CLI text).
    """

    kind: str
    call: object
    reference: object = None
    tol: float = 0.0
    known_fault: bool = False
    size: int = 1  # target values produced
    assess: object = None
    ref: object = None
    scale: object = None

    def prepare(self):
        if self.reference is not None and self.ref is None:
            ref, scale = self.reference()
            self.ref = np.asarray(ref, dtype=complex)
            self.scale = np.asarray(scale, dtype=float)

    def pairs(self, value) -> list[tuple[float, float]]:
        """(error, tolerance) pairs of one output; the first governs accuracy."""
        if self.assess is not None:
            return self.assess(value)
        v = np.asarray(value, dtype=complex)
        if v.shape != self.ref.shape:
            return [(math.inf, self.tol)]
        return [(float(np.max(np.abs(v - self.ref) / self.scale)), self.tol)]


@dataclass
class Tally:
    """Attempted and failed operations and the accuracy of those that passed."""

    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    digits: float = CAP_DIGITS
    margin: float = CAP_DIGITS
    worst: str = ""  # the operation that sets the margin

    def record(self, op: Op, value, counted: bool = True) -> None:
        if isinstance(value, Exception):
            pairs, why = None, f"{type(value).__name__}: {value}"
        else:
            pairs = op.pairs(value)
            why = None if all(e <= t for e, t in pairs) else f"error {pairs[0][0]:.3e} > tol {pairs[0][1]:.1e}"
        if counted:
            self.attempted += 1
        if why is None:
            self.digits = min(self.digits, digits_of(pairs[0][0]))
            margin = min(margin_of(e, t) for e, t in pairs)
            if margin < self.margin:
                self.margin = margin
                args = getattr(op.call, "args", ())
                self.worst = f"{op.kind}{tuple(a for a in args if np.ndim(a) == 0)}"
            return
        if counted:
            self.failed += 1
        if not op.known_fault:
            self.unexpected.append(f"{op.kind}: {why}")


def run_pass(ops, tally: Tally, counted: bool = True):
    """One pass through the operation list; returns (wall seconds, per-op
    seconds, outputs).  Outputs are judged after the pass, outside its timed
    region."""
    clock = time.perf_counter
    times, values = [], []
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            value = op.call()
        except Exception as exc:  # a failing call is a failed operation, not a crashed run
            value = exc
        times.append(clock() - t0)
        values.append(value)
    wall = clock() - start
    for op, value in zip(ops, values):
        tally.record(op, value, counted)
    return wall, times, values


def median_time(passes, ops, pick=lambda op: True) -> float:
    """Median time of the picked operations over every pass of a run."""
    return statistics.median(t for _, times in passes for op, t in zip(ops, times) if pick(op))


def median_pass(passes) -> float:
    return statistics.median(wall for wall, _ in passes)


# ---------------------------------------------------------------------------
# certify


# check_transform evaluates apply_transform at 12 sample targets plus the
# 20 x 48 polar nodes for every (beta, m, n) it covers
_TRANSFORM_CHECK_TARGETS = 12 + 20 * 48

# detail keys that carry a secondary (error, tolerance) pair of a report
_DETAIL_PAIRS = (
    ("max_offdiag_rel", "offdiag_tolerance"),
    ("beta0_max_rel", "beta0_tolerance"),
    ("max_diag_deviation", "diag_tolerance"),
)


def report_pairs(report) -> list[tuple[float, float]]:
    err = report.max_abs_err if report.mode == "abs" else report.max_rel_err
    pairs = [(float(err), float(report.tolerance))]
    for err_key, tol_key in _DETAIL_PAIRS:
        if err_key in report.details and tol_key in report.details:
            pairs.append((float(report.details[err_key]), float(report.details[tol_key])))
    if not report.passed:
        pairs.append((math.inf, float(report.tolerance)))
    return pairs


# Checks that take well under 2 s run three times in a pass, spread between
# the three long ones, so that their times are medians and not single samples.
_LONG_CHECKS = ("overlap", "resolution-identity", "density-positivity")


class Certify:
    """The ten checks of `cstk verify all` plus the quadrature suite, each its
    own timed operation, at the default seed and jobs = 1."""

    name = "certify"
    passes_in_trace = 1

    def __init__(self, cstk, seed: int):
        self.verify = cstk.verify
        self.names = list(self.verify.SUITES) + ["quadrature"]

    def _op(self, name):
        verify = self.verify
        return Op(
            kind=name,
            call=lambda: verify.run_suite([name], seed=verify.DEFAULT_SEED, jobs=1)[0],
            assess=report_pairs,
        )

    def setup(self):
        short = [name for name in self.names if name not in _LONG_CHECKS]
        self.ops = []
        for long_name in _LONG_CHECKS:
            self.ops += [self._op(name) for name in short] + [self._op(long_name)]
        self.light = self._op("quadrature")

    def prepare(self):
        pass

    def check_times(self, passes) -> dict:
        """Median time of each check over its runs in the passes."""
        return {name: median_time(passes, self.ops, lambda op, n=name: op.kind == n) for name in self.names}

    def metrics(self, passes, last_values):
        params = next(rep.parameters for rep in last_values if rep.check_name == "transform")
        count = len(params["betas"]) * (params["mmax"] + 1) * (params["nmax"] + 1) * _TRANSFORM_CHECK_TARGETS
        times = self.check_times(passes)
        return {
            "pass_s": sum(times.values()),  # one `verify all` plus the quadrature suite
            "targets_per_s": count / times["transform"],
            "small_job_ms": 1e3 * statistics.median(times.values()),
        }


# ---------------------------------------------------------------------------
# eval


def _relative(kind, call, reference, known_fault=False) -> Op:
    """An operation judged by its relative error against ``reference()``."""

    def ref_and_scale():
        ref = reference()
        return ref, abs(ref)

    return Op(kind, call, ref_and_scale, TOL[kind], known_fault=known_fault)


def _h_ref(n, m, beta, z):
    ref = oracle.h_poly(n, m, beta, z)
    return ref, 1.0 + abs(ref)


def _p_ref(n, m, beta, z):
    ref = oracle.p_norm(n, m, beta, z)
    c = math.sqrt(math.factorial(min(n, m)) / math.gamma(beta + max(n, m) + 1.0))
    return ref, c + abs(ref)


class Eval:
    """Single-point calls to the public evaluators, interleaved in a seeded
    order that stays fixed for the run."""

    name = "eval"
    passes_in_trace = 3

    def __init__(self, cstk, seed: int):
        self.cstk = cstk
        self.rng = np.random.default_rng(seed)

    def setup(self):
        P, C, T = self.cstk.poly2d, self.cstk.coherent, self.cstk.transforms
        pts = _Points(self.rng)
        ops = []
        for beta in BETAS:
            for n, m in ((6, 2), (4, 8)):
                idx = P.ModeIndex(n, m, beta)
                z = pts.z(0.0, 3.0)
                ops.append(Op("h_poly", partial(P.h_poly, idx, z), partial(_h_ref, n, m, beta, z), TOL["h_poly"]))
                z = pts.z(0.0, 3.0)
                ops.append(Op("p_norm", partial(P.p_norm, idx, z), partial(_p_ref, n, m, beta, z), TOL["p_norm"]))
            for m, rmax in ((0, 3.0), (4, 3.0), (8, 1.5)):
                z, w = pts.z(0.05, rmax), pts.z(0.05, rmax)
                ops.append(_relative("overlap_closed", partial(C.overlap_closed, z, w, m, beta),
                                     partial(oracle.overlap, z, w, m, beta)))
                z = pts.z(0.05, rmax)
                ops.append(_relative("eta_density", partial(C.eta_density, z, m, beta),
                                     partial(oracle.eta_density, z, m, beta)))
            for m in (0, 4, 8):
                z = pts.z(0.0, 3.0)
                ops.append(_relative("norm_series", partial(C.norm_series, C.CoherentSpec(z=z, idx_m=m, beta=beta)),
                                     partial(oracle.norm_series, m, beta, z)))
            t = pts.t(9.0)
            ops.append(_relative("norm_closed_m0", partial(C.norm_closed_m0, beta, t),
                                 partial(oracle.norm_closed_m0, beta, t)))
            z, w = pts.z(0.0, 3.0), pts.z(0.0, 3.0)
            ops.append(_relative("kernel_K", partial(C.kernel_K, z, w, beta), partial(oracle.kernel_K, z, w, beta)))
            for m in (1, 4, 8):
                z, x = pts.z(0.2, 3.0), pts.x(0.0, 3.0)
                ops.append(_relative("kernel_B", partial(T.kernel_B, m, beta, z, x),
                                     partial(oracle.kernel_B, m, beta, z, x)))
            z, x = pts.z(0.0, 3.0), pts.x(0.0, 3.0)
            ops.append(_relative("kernel_B_analytic", partial(T.kernel_B_analytic, beta, z, x),
                                 partial(oracle.kernel_B, 0, beta, z, x)))
            # one point in each regime of the pieced-together weight, plus the
            # series side of the |x| = 3.5 seam, where it is least accurate
            for x in [pts.x(lo, hi) for lo, hi in ((0.0, 3.5), (3.5, 7.0), (7.0, 8.0))] + [3.5]:
                ops.append(_relative("omega_weight", partial(T.omega_weight, x, beta),
                                     partial(oracle.omega_weight, x, beta)))
        for m, beta, z, x in KERNEL_B_FAULT_POINTS:
            ops.append(_relative("kernel_B", partial(T.kernel_B, m, beta, z, x),
                                 partial(oracle.kernel_B, m, beta, z, x), known_fault=True))
        self.ops = [ops[i] for i in self.rng.permutation(len(ops))]
        self.light = ops[0]
        # first-call caches: the weight's per-beta Chebyshev fit of the crossover band
        for beta in BETAS:
            T.omega_weight(5.0, beta)

    def prepare(self):
        for op in self.ops:
            op.prepare()

    def metrics(self, passes, last_values):
        return {
            "pass_s": median_pass(passes),
            "targets_per_s": len(self.ops) / median_pass(passes),
            "small_job_ms": 1e3 * median_time(passes, self.ops),
        }


# ---------------------------------------------------------------------------
# transform

NMAX_COEFFS = 6  # coefficient inputs are expansions over phi_0 .. phi_6
GRID_N = 3  # grid inputs sample phi_3
GRID_X = np.linspace(-12.0, 12.0, 1201)
# one m per beta, so one line rule per beta; beta = 2.3 at m = 0 is the
# 32 769-node rule, the others have 1 025 nodes
TRANSFORM_CASES = ((0.0, 5), (0.5, 8), (1.0, 4), (2.3, 0))
# jobs of one input kind at one beta in a pass, by number of targets
TRANSFORM_JOBS = {1: 2, 100: 1, 10_000: 1}
LARGE_TARGETS = 10_000
# The input functions are fixed and only the targets are seeded: the error of
# a job is set by the projection of its function, which the 10 000-target job
# of the same function samples densely, so the worst error does not hang on
# how the seed scatters the targets of the smaller jobs.
COEFFS = (0.8 - 0.6j) ** np.arange(NMAX_COEFFS + 1) / np.sqrt(np.arange(1, NMAX_COEFFS + 2))


def transform_reference(coeffs, m, beta, targets):
    """(image, Cauchy-Schwarz scale) of sum_n a_n phi_n at the targets.

    |B f(z)| <= ||a|| (sum_n |P~_{n,m}(z)|^2)^{1/2} over the span of
    phi_0..phi_6, so the scale bounds the value and never vanishes where the
    value does.
    """
    p = oracle.p_tilde_many(NMAX_COEFFS, m, beta, targets)
    ref = (np.asarray(coeffs, dtype=np.clongdouble) @ p).astype(complex)
    scale = float(np.linalg.norm(coeffs)) * np.sqrt(np.sum(np.abs(p) ** 2, axis=0))
    return ref, scale.astype(float)


class Transform:
    """apply_transform on coefficient and grid inputs at 1, 100 and 10 000
    targets, with one line rule per beta built in set-up the way
    `cstk transform` builds it."""

    name = "transform"
    passes_in_trace = 3

    def __init__(self, cstk, seed: int):
        self.cstk = cstk
        self.rng = np.random.default_rng(seed)

    def setup(self):
        Q, T = self.cstk.quadrature, self.cstk.transforms
        self.rules = {
            beta: Q.adaptive_line(lambda x, b=beta: T.omega_weight(x, b), 1e-11, m + 8)
            for beta, m in TRANSFORM_CASES
        }
        grid_coeffs = np.eye(NMAX_COEFFS + 1)[GRID_N]
        pts = _Points(self.rng)
        ops = []
        for beta, m in TRANSFORM_CASES:
            inputs = (
                (T.SampledFunction(kind="coeffs", beta=beta, coeffs=COEFFS), COEFFS),
                (T.SampledFunction(kind="grid", beta=beta, x=GRID_X, values=oracle.phi_values(GRID_N, beta, GRID_X)),
                 grid_coeffs),
            )
            for f, coeffs in inputs:
                for k, count in TRANSFORM_JOBS.items():
                    for _ in range(count):
                        targets = np.array([pts.z(0.2, 3.0)]) if k == 1 else _disk(self.rng, 0.2, 3.0, k)
                        ops.append(
                            Op("apply_transform", partial(T.apply_transform, f, m, beta, targets, self.rules[beta]),
                               partial(transform_reference, coeffs, m, beta, targets), TOL["apply_transform"],
                               size=k)
                        )
        self.ops = [ops[i] for i in self.rng.permutation(len(ops))]
        self.light = next(op for op in ops if op.size == 1)

    def prepare(self):
        for op in self.ops:
            op.prepare()
        self.oracle_mismatch = []
        # hold the vectorized reference to the mpmath route at two targets per job
        for op in self.ops:
            coeffs, m, beta, targets = op.reference.args
            for i in sorted({0, len(targets) - 1}):
                ref = oracle.transform_coeffs(coeffs, m, beta, targets[i])
                if abs(ref - op.ref[i]) > 1e-14 * op.scale[i]:
                    self.oracle_mismatch.append(f"transform reference at {targets[i]}: {op.ref[i]} vs {ref}")

    def metrics(self, passes, last_values):
        large = sum(op.size for op in self.ops if op.size == LARGE_TARGETS)
        rates = [large / sum(t for op, t in zip(self.ops, times) if op.size == LARGE_TARGETS) for _, times in passes]
        return {
            "pass_s": median_pass(passes),
            "targets_per_s": statistics.median(rates),
            "small_job_ms": 1e3 * median_time(passes, self.ops, lambda op: op.size == 1),
        }


# ---------------------------------------------------------------------------
# cli


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fmt_complex(z) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _parse_complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j"))


CLI_COMMANDS = ("eval_poly", "eval_kernel", "eval_weight", "transform", "table_factorials")
# `eval poly`, whose time is the cold start, runs twice in a pass for twice the samples
CLI_PASS = ("eval_poly", "eval_kernel", "eval_weight", "eval_poly", "transform", "table_factorials")
_IMPORT_PROBE = "import time; t = time.perf_counter(); import cstk; print(time.perf_counter() - t)"


def fresh_import(env) -> tuple[float, float]:
    """(wall seconds of a fresh interpreter that imports cstk, in-process import seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return time.perf_counter() - t0, float(proc.stdout.strip().splitlines()[-1])


class Cli:
    """Fresh `python -m cstk.cli` processes, one at a time."""

    name = "cli"
    passes_in_trace = 1

    def __init__(self, cstk, seed: int):
        self.rng = np.random.default_rng(seed)
        self.env = child_env()

    def setup(self):
        rng = self.rng
        pts = _Points(rng)
        work = OUT / "cli-inputs"
        work.mkdir(parents=True, exist_ok=True)
        self.poly = (3, 5, 0.5, pts.z(0.0, 3.0))
        self.kernel = (4, 1.7, pts.z(0.2, 3.0), pts.x(0.0, 3.0))
        # inside the crossover band, so every call pays the per-beta fit
        self.weight = (1.7, pts.x(3.5, 7.0))
        self.tr_coeffs = rng.normal(size=NMAX_COEFFS + 1) + 1j * rng.normal(size=NMAX_COEFFS + 1)
        self.tr_targets = _disk(rng, 0.2, 3.0, 100)
        self.tr = (2, 1.0)
        coeff_file, target_file = work / "coeffs.txt", work / "targets.txt"
        coeff_file.write_text("# kind=coeffs beta=1\n" + "".join(_fmt_complex(a) + "\n" for a in self.tr_coeffs))
        target_file.write_text("".join(_fmt_complex(z) + "\n" for z in self.tr_targets))
        n, m, beta, z = self.poly
        km, kbeta, kz, kx = self.kernel
        wbeta, wx = self.weight
        trm, trbeta = self.tr
        args = {
            # `--z=<value>`: a value that starts with '-' would otherwise be read as a flag
            "eval_poly": ["eval", "poly", "--n", str(n), "--m", str(m), "--beta", str(beta), f"--z={_fmt_complex(z)}"],
            "eval_kernel": ["eval", "kernel", "--m", str(km), "--beta", str(kbeta), f"--z={_fmt_complex(kz)}",
                            f"--x={kx!r}"],
            "eval_weight": ["eval", "weight", "--beta", str(wbeta), f"--x={wx!r}"],
            "transform": ["transform", "--input", str(coeff_file), "--targets", str(target_file),
                          "--m", str(trm), "--beta", str(trbeta)],
            "table_factorials": ["table", "factorials", "--beta", "0.5", "--nmax", "8", "--mmax", "8"],
        }
        self.ops = [
            Op(name, partial(self._invoke, args[name]), assess=getattr(self, "_check_" + name)) for name in CLI_PASS
        ]
        self.light = None  # its cold start is the eval_poly invocation itself

    def _invoke(self, argv):
        proc = subprocess.run([sys.executable, "-m", "cstk.cli", *argv], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return json.loads(proc.stdout)

    def prepare(self):
        n, m, beta, z = self.poly
        self.ref_poly = (oracle.h_poly(n, m, beta, z), oracle.p_norm(n, m, beta, z),
                         math.sqrt(math.factorial(min(n, m)) / math.gamma(beta + max(n, m) + 1.0)))
        self.ref_kernel = oracle.kernel_B(*self.kernel)
        self.ref_weight = oracle.omega_weight(self.weight[1], self.weight[0])
        self.ref_tr = transform_reference(self.tr_coeffs, *self.tr, self.tr_targets)
        # x_{n,m}! = Gamma(beta + max(n, m) + 1) / (min(n, m)! Gamma(beta + m + 1))
        with mp.workdps(oracle.DPS):
            b = mp.mpf(0.5)
            self.ref_fact = {
                (n, m): float(mp.gamma(b + max(n, m) + 1) / (mp.factorial(min(n, m)) * mp.gamma(b + m + 1)))
                for n in range(9)
                for m in range(9)
            }

    @staticmethod
    def _values(payload):
        return [row[-1] for row in payload["rows"]]

    def _check_eval_poly(self, payload):
        h_ref, p_ref, c = self.ref_poly
        h, p = (_parse_complex(v) for v in self._values(payload))
        return [(abs(h - h_ref) / (1.0 + abs(h_ref)), TOL["h_poly"]), (abs(p - p_ref) / (c + abs(p_ref)), TOL["p_norm"])]

    def _check_eval_kernel(self, payload):
        (v,) = self._values(payload)
        return [(abs(_parse_complex(v) - self.ref_kernel) / abs(self.ref_kernel), TOL["kernel_B"])]

    def _check_eval_weight(self, payload):
        (v,) = self._values(payload)
        return [(abs(float(v) - self.ref_weight) / self.ref_weight, TOL["omega_weight"])]

    def _check_transform(self, payload):
        vals = np.array([_parse_complex(v) for v in self._values(payload)])
        ref, scale = self.ref_tr
        if vals.shape != ref.shape:
            return [(math.inf, TOL["apply_transform"])]
        return [(float(np.max(np.abs(vals - ref) / scale)), TOL["apply_transform"])]

    def _check_table_factorials(self, payload):
        errs = [abs(float(v) - self.ref_fact[(n, m)]) / self.ref_fact[(n, m)] for n, m, v in payload["rows"]]
        if len(errs) != len(self.ref_fact):
            return [(math.inf, TOL["gen_factorial"])]
        return [(max(errs), TOL["gen_factorial"])]

    def command_times(self, passes) -> dict:
        """Median time of each command over its invocations in the passes."""
        return {name: median_time(passes, self.ops, lambda op, n=name: op.kind == n) for name in CLI_COMMANDS}

    def metrics(self, passes, last_values):
        times = self.command_times(passes)
        return {
            "pass_s": sum(times.values()),  # each of the five commands once
            "targets_per_s": len(self.tr_targets) / times["transform"],
            "small_job_ms": 1e3 * statistics.median(times.values()),
            "cold_start_ms": 1e3 * times["eval_poly"],
        }


WORKLOADS = {cls.name: cls for cls in (Certify, Eval, Transform, Cli)}
