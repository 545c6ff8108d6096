"""Certification suites: each check turns one closed-form identity of the
construction into a quadrature/series experiment with a pass/fail report.

Sample points are drawn from a fixed seed recorded in the report, so every
report is reproducible (runtime_seconds aside) for identical parameters.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import coherent, measures, poly2d, quadrature, transforms
from .oracles import assoc_hermite, closed_bracket, kernel_B_true_poly, lauricella_triple, mittag_leffler
from .specfun import gamma_fn, hyp_pfq, pochhammer

__all__ = [
    "VerificationReport",
    "DEFAULT_SEED",
    "SUITES",
    "run_suite",
    "check_orthogonality_2d",
    "check_assoc_hermite",
    "check_kummer_normalization",
    "check_generating_function",
    "check_kernel_reduction",
    "check_overlap",
    "check_pde_eigen",
    "check_transform",
    "check_resolution_identity",
    "check_density_positivity",
    "check_quadrature",
    "ladder_eigenvalue_comparison",
]

DEFAULT_SEED = 12345


def _jsonable(value):
    """Strip numpy scalar types so reports serialize with the stdlib json."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass
class VerificationReport:
    check_name: str
    parameters: dict
    max_abs_err: float
    max_rel_err: float
    tolerance: float
    passed: bool
    runtime_seconds: float
    seed: int | None = None
    mode: str = "rel"  # which error the tolerance governs
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check_name,
            "params": _jsonable(self.parameters),
            "max_abs_err": float(self.max_abs_err),
            "max_rel_err": float(self.max_rel_err),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "runtime_seconds": float(self.runtime_seconds),
            "seed": self.seed,
            "mode": self.mode,
            "details": _jsonable(self.details),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def summary_line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"[{flag}] {self.check_name}: max_rel={self.max_rel_err:.3e} "
            f"max_abs={self.max_abs_err:.3e} tol={self.tolerance:.1e} ({self.runtime_seconds:.2f}s)"
        )


def _annulus_points(rng, count, rmin, rmax):
    r = rng.uniform(rmin, rmax, count)
    th = rng.uniform(0.0, 2.0 * math.pi, count)
    return r * np.exp(1j * th)


def check_orthogonality_2d(
    betas=(0.0, 0.5, 2.3),
    nmax: int = 6,
    n_r: int = 64,
    n_theta: int = 256,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Gram matrix of the 2D polynomials under the polar weight vs the
    closed-form diagonal pi Gamma(beta + max(j,n) + 1)/min(j,n)!."""
    t0 = time.perf_counter()
    diag_tol, off_tol = 1e-8, 1e-10
    max_diag = max_off = max_abs = 0.0
    pairs = [(j, n) for j in range(nmax + 1) for n in range(nmax + 1)]
    vals = np.empty((len(pairs), n_r * n_theta), dtype=complex)  # filled anew for each beta
    step = -(-vals.shape[1] // 16)  # the Gram product in 16 node blocks: no full-size temporaries
    for beta in betas:
        rule = quadrature.polar_rule(n_r, n_theta, beta)
        zpts = rule.complex_points()
        for row, (j, n) in zip(vals, pairs):
            row[:] = poly2d.h_poly(poly2d.ModeIndex(j, n, beta), zpts)
        gram = np.zeros((len(pairs), len(pairs)), dtype=complex)
        for lo in range(0, len(zpts), step):
            blk = vals[:, lo : lo + step]
            gram += (blk * rule.weights[lo : lo + step]) @ np.conjugate(blk.T)
        ref = np.array([math.pi * gamma_fn(beta + max(j, n) + 1.0) / math.factorial(min(j, n)) for j, n in pairs])
        for a in range(len(pairs)):
            for b in range(len(pairs)):
                if a == b:
                    err = abs(gram[a, a].real - ref[a]) / ref[a]
                    max_diag = max(max_diag, err)
                    max_abs = max(max_abs, abs(gram[a, a].real - ref[a]))
                else:
                    err = abs(gram[a, b]) / math.sqrt(ref[a] * ref[b])
                    max_off = max(max_off, err)
                    max_abs = max(max_abs, abs(gram[a, b]))
    return VerificationReport(
        check_name="orthogonality-2d",
        parameters={"betas": list(betas), "nmax": nmax, "n_r": n_r, "n_theta": n_theta},
        max_abs_err=max_abs,
        max_rel_err=max_diag,
        tolerance=diag_tol,
        passed=(max_diag <= diag_tol and max_off <= off_tol),
        runtime_seconds=time.perf_counter() - t0,
        seed=seed,
        details={"max_offdiag_rel": max_off, "offdiag_tolerance": off_tol},
    )


def check_assoc_hermite(betas=(0.0, 1.0, 1.7), nmax: int = 5, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Associated-Hermite orthogonality against |D_{-beta}(ix sqrt2)|^{-2} dx.

    Diagonal 2^n sqrt(pi) Gamma(n+beta+1) to 1e-6 relative; the beta = 0 case
    must hit the plain Hermite normalization 2^n n! sqrt(pi) at 1e-10.
    """
    t0 = time.perf_counter()
    tol, tol_beta0 = 1e-6, 1e-10
    max_rel = max_abs = beta0_rel = 0.0
    for beta in betas:
        weight = lambda x, b=beta: transforms.omega_weight(x, b) * math.sqrt(math.pi) * gamma_fn(b + 1.0)
        rule = quadrature.adaptive_line(weight, 1e-11 if beta == 0.0 else 1e-9, nmax + 1)
        x = rule.nodes
        hvals = np.array([assoc_hermite(n, x, beta) for n in range(nmax + 1)])
        gram = (hvals * rule.weights) @ hvals.T
        for n in range(nmax + 1):
            ref = 2.0**n * math.sqrt(math.pi) * gamma_fn(n + beta + 1.0)
            err = abs(gram[n, n] - ref) / ref
            max_rel = max(max_rel, err)
            max_abs = max(max_abs, abs(gram[n, n] - ref))
            if beta == 0.0:
                beta0_rel = max(beta0_rel, err)
            for k in range(n):
                refk = 2.0**k * math.sqrt(math.pi) * gamma_fn(k + beta + 1.0)
                err = abs(gram[n, k]) / math.sqrt(ref * refk)
                max_rel = max(max_rel, err)
                max_abs = max(max_abs, abs(gram[n, k]))
                if beta == 0.0:
                    beta0_rel = max(beta0_rel, err)
    return VerificationReport(
        check_name="assoc-hermite",
        parameters={"betas": list(betas), "nmax": nmax},
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        tolerance=tol,
        passed=(max_rel <= tol and beta0_rel <= tol_beta0),
        runtime_seconds=time.perf_counter() - t0,
        seed=seed,
        details={"beta0_max_rel": beta0_rel, "beta0_tolerance": tol_beta0},
    )


def check_kummer_normalization(
    betas=(0.0, 0.5, 1.0, 2.3), ts=None, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """Three-way agreement of the m=0 normalization: direct series,
    e^t 1F1(beta; beta+1; -t) and Gamma(beta+1) E_{1,beta+1}(t)."""
    t0 = time.perf_counter()
    tol = 1e-11
    ts = np.linspace(0.0, 10.0, 41) if ts is None else np.asarray(ts, dtype=float)
    max_rel = max_abs = 0.0
    for beta in betas:
        for t in ts:
            a = coherent.norm_closed_m0(beta, float(t))
            b = math.exp(t) * hyp_pfq([beta], [beta + 1.0], -float(t)).real
            c = gamma_fn(beta + 1.0) * mittag_leffler(1.0, beta + 1.0, float(t))
            spread = max(abs(a - b), abs(a - c), abs(b - c))
            max_abs = max(max_abs, spread)
            max_rel = max(max_rel, spread / abs(a))
    return VerificationReport(
        check_name="kummer-normalization",
        parameters={"betas": list(betas), "t_range": [float(ts[0]), float(ts[-1])], "t_count": len(ts)},
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        tolerance=tol,
        passed=max_rel <= tol,
        runtime_seconds=time.perf_counter() - t0,
        seed=seed,
    )


def check_generating_function(
    betas=(0.0, 1.2), cs=(1.0, 2.2), xs=(0.0, 0.3, 1.0), samples: int = 12, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """Lauricella triple series vs the direct sum_n t^n H_n(x, beta)/(c)_n."""
    t0 = time.perf_counter()
    tol = 1e-9
    rng = np.random.default_rng(seed)
    tpts = np.concatenate([[0.4 + 0.0j], _annulus_points(rng, samples - 1, 0.05, 0.5)])
    max_rel = max_abs = 0.0
    for beta in betas:
        for c in cs:
            for x in xs:
                for t in tpts:
                    val = lauricella_triple(c, beta, 2.0 * x * t, -t * t, -2.0 * t * t)
                    direct = 0.0 + 0.0j
                    small = 0
                    n = 0
                    while small < 2 or n < 8:  # x = 0 kills every odd term
                        term = t**n * assoc_hermite(n, x, beta) / pochhammer(c, n)
                        direct += term
                        small = small + 1 if abs(term) <= 1e-17 * max(abs(direct), 1e-30) else 0
                        n += 1
                        if n > 400:
                            raise RuntimeError("direct generating-series oracle failed to converge")
                    err = abs(val - direct)
                    max_abs = max(max_abs, err)
                    max_rel = max(max_rel, err / max(abs(direct), 1e-30))
    return VerificationReport(
        check_name="generating-function",
        parameters={"betas": list(betas), "cs": list(cs), "xs": list(xs), "samples": int(len(tpts))},
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        tolerance=tol,
        passed=max_rel <= tol,
        runtime_seconds=time.perf_counter() - t0,
        seed=seed,
    )


def check_kernel_reduction(mmax: int = 8, samples: int = 100, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Generating-form kernel at beta=0 vs the true-polyanalytic closed form,
    over fixed-seed points with |z| <= 3, |x| <= 3."""
    t0 = time.perf_counter()
    tol = 1e-8
    rng = np.random.default_rng(seed)
    zs = _annulus_points(rng, samples, 0.0, 3.0)
    xs = rng.uniform(-3.0, 3.0, samples)
    ms = [i % (mmax + 1) for i in range(samples)]
    max_rel = max_abs = 0.0
    for m, z, x in zip(ms, zs, xs):
        val = transforms.kernel_B(m, 0.0, complex(z), float(x))
        ref = kernel_B_true_poly(m, complex(z), float(x))
        err = abs(val - ref)
        max_abs = max(max_abs, err)
        max_rel = max(max_rel, err / abs(ref))
    return VerificationReport(
        check_name="kernel-reduction",
        parameters={"mmax": mmax, "samples": samples},
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        tolerance=tol,
        passed=max_rel <= tol,
        runtime_seconds=time.perf_counter() - t0,
        seed=seed,
    )


def check_overlap(mmax: int = 4, samples: int = 6, betas=(0.0, 0.5, 2.3), seed: int = DEFAULT_SEED) -> VerificationReport:
    """Row-sum overlap vs the paper's closed Laguerre + 2F2 form, |z|,|w| <= 2."""
    t0 = time.perf_counter()
    tol, diag_tol = 1e-8, 1e-9
    rng = np.random.default_rng(seed)
    max_rel = max_abs = diag_err = 0.0
    for beta in betas:
        for m in range(mmax + 1):
            zs = _annulus_points(rng, samples, 0.05, 2.0)
            ws = _annulus_points(rng, samples, 0.05, 2.0)
            for z, w in zip(zs, ws):
                a = coherent.overlap_closed(complex(z), complex(w), m, beta)
                cross, nz, nw = closed_bracket([z, z, w], [w, z, w], m, beta)
                b = complex(cross / math.sqrt(nz.real * nw.real))
                err = abs(a - b)
                max_abs = max(max_abs, err)
                max_rel = max(max_rel, err / max(abs(b), 1e-30))
                diag_err = max(diag_err, abs(coherent.overlap_closed(complex(z), complex(z), m, beta) - 1.0))
    return VerificationReport(
        check_name="overlap",
        parameters={"mmax": mmax, "samples_per_m": samples, "betas": list(betas)},
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        tolerance=tol,
        passed=(max_rel <= tol and diag_err <= diag_tol),
        runtime_seconds=time.perf_counter() - t0,
        seed=seed,
        details={"max_diag_deviation": diag_err, "diag_tolerance": diag_tol},
    )


def check_pde_eigen(betas=(0.0, 0.5, 2.3), nmax: int = 8, samples: int = 50, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Exact-differentiation residual of the Landau operator eigen-identity."""
    t0 = time.perf_counter()
    tol = 1e-10
    rng = np.random.default_rng(seed)
    max_scaled = max_abs = 0.0
    for beta in betas:
        for n in range(nmax + 1):
            for m in range(n + 1):
                idx = poly2d.ModeIndex(n, m, beta)
                expansion = poly2d.h_poly_expand(idx)
                zs = _annulus_points(rng, samples, 0.2, 3.0)
                lhs = poly2d.landau_apply(beta, expansion, zs)
                href = poly2d.h_poly(idx, zs)
                resid = np.abs(lhs - m * href)
                max_abs = max(max_abs, float(np.max(resid)))
                max_scaled = max(max_scaled, float(np.max(resid / (1.0 + np.abs(href)))))
    return VerificationReport(
        check_name="pde-eigen",
        parameters={"betas": list(betas), "nmax": nmax, "samples_per_index": samples},
        max_abs_err=max_abs,
        max_rel_err=max_scaled,
        tolerance=tol,
        passed=max_scaled <= tol,
        runtime_seconds=time.perf_counter() - t0,
        seed=seed,
        details={"error_scale": "residual / (1 + |H|)"},
    )


def check_transform(mmax: int = 3, betas=(0.0, 1.0), nmax: int = 3, seed: int = DEFAULT_SEED) -> VerificationReport:
    """End-to-end transform: image of phi_n, given by its coefficient vector,
    vs the orthonormal polynomial, and the Gram matrix of the images under
    the polar rule vs the identity."""
    t0 = time.perf_counter()
    tol = 1e-5
    rng = np.random.default_rng(seed)
    targets = _annulus_points(rng, 12, 0.0, 1.8)
    max_rel = max_abs = gram_err = 0.0
    alpha_dev = 0.0
    for beta in betas:
        prule = quadrature.polar_rule(20, 48, beta)
        zpts = prule.complex_points()
        for m in range(mmax + 1):
            images = []
            for n in range(nmax + 1):
                co = np.zeros(n + 1)
                co[n] = 1.0
                f = transforms.SampledFunction(kind="coeffs", beta=beta, coeffs=co)
                vals = np.array(transforms.apply_transform(f, m, beta, targets))
                refs = np.array([poly2d.p_norm(poly2d.ModeIndex(n, m, beta), z) for z in targets])
                alpha = np.vdot(refs, vals) / np.vdot(refs, refs)
                resid = np.max(np.abs(vals - alpha * refs)) / np.max(np.abs(refs))
                max_rel = max(max_rel, resid)
                max_abs = max(max_abs, float(np.max(np.abs(vals - refs))))
                alpha_dev = max(alpha_dev, abs(alpha - 1.0))
                images.append(np.array(transforms.apply_transform(f, m, beta, zpts)))
            rows = np.array(images)
            gram = (rows * prule.weights) @ np.conjugate(rows.T) / math.pi
            gram_err = max(gram_err, float(np.max(np.abs(gram - np.eye(nmax + 1)))))
    return VerificationReport(
        check_name="transform",
        parameters={"mmax": mmax, "betas": list(betas), "nmax": nmax},
        max_abs_err=max_abs,
        max_rel_err=max(max_rel, gram_err),
        tolerance=tol,
        passed=(max_rel <= tol and gram_err <= tol),
        runtime_seconds=time.perf_counter() - t0,
        seed=seed,
        details={"pointwise_residual": max_rel, "gram_deviation": gram_err, "proportionality_offset": alpha_dev},
    )


def check_resolution_identity(mmax: int = 2, betas=(0.0, 1.0), nmax: int = 4, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Resolution of identity: normalized coefficient overlaps against the
    eta density integrate to delta_{kn} under the polar rule (1/pi folded)."""
    t0 = time.perf_counter()
    tol = 1e-6
    max_err = max_abs = 0.0
    for beta in betas:
        rule = quadrature.polar_rule(64, 256, beta)
        zpts = rule.complex_points()
        # the bracket depends on |z| alone: one evaluation per radial node
        radii, ring = np.unique(rule.nodes[:, 0], return_inverse=True)
        for m in range(mmax + 1):
            # eta_density = N * (z zbar)^beta e^{-z zbar}; the rule already
            # integrates against the (z zbar)^beta e^{-z zbar} factor, and the
            # normalized coefficients carry 1/sqrt(N) each
            nvals = coherent._norm(radii, m, beta)[ring]
            coeffs = np.array(
                [np.conjugate(poly2d.p_norm(poly2d.ModeIndex(n, m, beta), zpts)) for n in range(nmax + 1)]
            ) / np.sqrt(nvals)
            # one row k at a time: the same products and sums as the (k, n, node) broadcast
            gram = np.array([np.sum(np.conjugate(c) * coeffs * nvals * rule.weights, axis=1) for c in coeffs])
            gram /= math.pi
            err = np.max(np.abs(gram - np.eye(nmax + 1)))
            max_err = max(max_err, float(err))
            max_abs = max(max_abs, float(err))
    return VerificationReport(
        check_name="resolution-identity",
        parameters={"mmax": mmax, "betas": list(betas), "nmax": nmax},
        max_abs_err=max_abs,
        max_rel_err=max_err,
        tolerance=tol,
        passed=max_err <= tol,
        runtime_seconds=time.perf_counter() - t0,
        seed=seed,
    )


def check_density_positivity(
    mmax: int = 4, betas=(0.0, 0.5, 2.3), grid_points: int = 48, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """Scan the closed-form resolution density N t^beta e^{-t} on a log-radial
    grid; the construction implies positivity but the closed form does not
    show it (the row sum of coherent.eta_density is a sum of squares)."""
    t0 = time.perf_counter()
    tol = 1e-12
    radii = np.geomspace(1e-2, 6.0, grid_points)
    t = radii * radii
    min_val = math.inf
    argmin = None
    for beta in betas:
        for m in range(mmax + 1):
            vals = closed_bracket(radii, radii, m, beta).real * t**beta * np.exp(-t)
            i = int(np.argmin(vals))
            if vals[i] < min_val:
                min_val = float(vals[i])
                argmin = {"m": m, "beta": beta, "radius": float(radii[i])}
    return VerificationReport(
        check_name="density-positivity",
        parameters={"mmax": mmax, "betas": list(betas), "grid_points": grid_points},
        max_abs_err=max(0.0, -min_val),
        max_rel_err=max(0.0, -min_val),
        tolerance=tol,
        passed=min_val >= -tol,
        runtime_seconds=time.perf_counter() - t0,
        seed=seed,
        mode="abs",
        details={"min_density": min_val, "argmin": argmin},
    )


def check_quadrature(seed: int = DEFAULT_SEED) -> VerificationReport:
    """Polynomial exactness and mass invariants of the quadrature rules."""
    t0 = time.perf_counter()
    tol = 1e-13
    max_rel = max_abs = 0.0

    def track(err_scaled, err_abs):
        nonlocal max_rel, max_abs
        max_rel = max(max_rel, err_scaled)
        max_abs = max(max_abs, err_abs)

    for n, alpha in [(2, 0.0), (8, 0.5), (16, 2.3), (24, 1.0)]:
        rule = quadrature.gauss_laguerre(n, alpha)
        for k in range(0, 2 * n, max(1, n // 3)):
            val = float(np.sum(rule.weights * rule.nodes**k))
            ref = gamma_fn(k + alpha + 1.0)
            track(abs(val - ref) / ref, abs(val - ref) / ref)
        track(abs(rule.mass - gamma_fn(alpha + 1.0)) / gamma_fn(alpha + 1.0), 0.0)
    for n in [1, 8, 20]:
        rule = quadrature.gauss_hermite(n)
        track(abs(rule.mass - math.sqrt(math.pi)) / math.sqrt(math.pi), 0.0)
        if n >= 2:
            val = float(np.sum(rule.weights * rule.nodes**2))
            track(abs(val - math.sqrt(math.pi) / 2.0) / (math.sqrt(math.pi) / 2.0), 0.0)
            odd = float(np.sum(rule.weights * rule.nodes**3))
            track(abs(odd) / rule.mass, abs(odd) / rule.mass)  # zero target, mass-scaled
    for beta in [0.0, 1.0, 2.3]:
        rule = quadrature.polar_rule(24, 64, beta)
        ref = math.pi * gamma_fn(beta + 1.0)
        track(abs(rule.mass - ref) / ref, 0.0)
        zpts = rule.complex_points()
        val = complex(np.sum(rule.weights * zpts * np.conjugate(zpts)))
        ref2 = math.pi * gamma_fn(beta + 2.0)
        track(abs(val - ref2) / ref2, 0.0)
        for freq in [1, 5, 17]:
            val = complex(np.sum(rule.weights * np.exp(1j * freq * np.angle(zpts))))
            track(abs(val) / ref, abs(val) / ref)
    return VerificationReport(
        check_name="quadrature",
        parameters={},
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        tolerance=tol,
        passed=max_rel <= tol,
        runtime_seconds=time.perf_counter() - t0,
        seed=seed,
    )


def ladder_eigenvalue_comparison(beta: float = 0.0, nmax: int = 4) -> dict:
    """Informational (not pass/fail): the three candidate eigenvalues of the
    first number-type ladder combination on the (n, m) basis.

    The swapped-index combination gives (x_{m+1,n} + x_{m,n})/2, composing
    the ladder actions gives (x_{n,m} + x_{n+1,m})/2, and the differential
    realization acts with m + beta + 1/2 for n >= m; the three disagree, so
    the comparison is emitted instead of a verdict.
    """
    meas = measures.GammaMeasure(beta=beta)
    rows = []
    for n in range(nmax + 1):
        for m in range(nmax + 1):
            swapped = 0.5 * (measures.x_gen(meas, m + 1, n) + (measures.x_gen(meas, m, n) if m >= 1 else 0.0))
            composed = 0.5 * (measures.x_gen(meas, n + 1, m) + (measures.x_gen(meas, n, m) if n >= 1 else 0.0))
            differential = m + beta + 0.5 if n >= m else None
            rows.append(
                {
                    "n": n,
                    "m": m,
                    "swapped_index_lambda": swapped,
                    "composed_lambda": composed,
                    "differential_lambda": differential,
                }
            )
    return {"informational": True, "name": "ladder-eigenvalue-comparison", "beta": beta, "rows": rows}


SUITES = {
    "orthogonality-2d": check_orthogonality_2d,
    "assoc-hermite": check_assoc_hermite,
    "kummer-normalization": check_kummer_normalization,
    "generating-function": check_generating_function,
    "kernel-reduction": check_kernel_reduction,
    "overlap": check_overlap,
    "pde-eigen": check_pde_eigen,
    "transform": check_transform,
    "resolution-identity": check_resolution_identity,
    "density-positivity": check_density_positivity,
}

EXTRA_SUITES = {
    "quadrature": check_quadrature,
}


def run_suite(names, seed: int = DEFAULT_SEED, jobs: int = 1, **overrides) -> list[VerificationReport]:
    """Run the named checks (or all ten default ones) and return reports.

    Each override (e.g. ``mmax=2``) is passed to every named check whose
    signature takes it; one that none of them takes raises ValueError before
    anything runs.  Checks are independent; with jobs > 1 they run in worker
    processes and are returned in the declared suite order regardless of
    completion order.
    """
    if names in ("all", None):
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES and n not in EXTRA_SUITES]
    if unknown:
        raise KeyError(f"unknown suite(s): {', '.join(unknown)}")
    funcs = {n: (SUITES.get(n) or EXTRA_SUITES[n]) for n in names}
    kwargs = {
        n: {k: v for k, v in overrides.items() if k in inspect.signature(f).parameters} for n, f in funcs.items()
    }
    unused = [k for k in overrides if not any(k in kw for kw in kwargs.values())]
    if unused:
        raise ValueError(f"no selected check takes {', '.join(unused)} (selected: {', '.join(names)})")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {n: pool.submit(f, seed=seed, **kwargs[n]) for n, f in funcs.items()}
            return [futures[n].result() for n in names]
    return [funcs[n](seed=seed, **kwargs[n]) for n in names]
