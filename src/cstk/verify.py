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
from .errors import NumericError
from .oracles import (
    assoc_hermite,
    assoc_hermite_rows,
    closed_bracket,
    hyp_pfq,
    kernel_B_true_poly,
    lauricella_triple,
    mittag_leffler,
)
from .specfun import gamma_fn

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


def _max(errs) -> float:
    """The largest of a collection of errors (scalars or arrays), 0.0 if there
    are none.  A nan anywhere makes it nan: max(0.0, nan) would be 0.0."""
    return float(np.max([np.max(e, initial=0.0) for e in errs], initial=0.0))


def _report(name, t0, seed, params, pairs, *, abs_err=None, details=None, mode="rel") -> VerificationReport:
    """Build a check's report from its named (errors, tolerance) pairs.

    The report passes when every pair's largest error is within its
    tolerance, so a nan error fails it.  The first pair gives the report's
    error (``max_rel_err``, and ``max_abs_err`` too in ``mode="abs"`` or when
    no ``abs_err`` is given) and its ``tolerance``; ``details["err_over_tol"]``
    holds every pair's largest error divided by its tolerance.
    """
    worst = {key: _max(errs) for key, (errs, _) in pairs.items()}
    first = next(iter(pairs))
    return VerificationReport(
        check_name=name,
        parameters=params,
        max_abs_err=worst[first] if abs_err is None else _max(abs_err),
        max_rel_err=worst[first],
        tolerance=pairs[first][1],
        passed=all(worst[key] <= tol for key, (_, tol) in pairs.items()),
        runtime_seconds=time.perf_counter() - t0,
        seed=seed,
        mode=mode,
        details={**(details or {}), "err_over_tol": {key: worst[key] / tol for key, (_, tol) in pairs.items()}},
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
    diag, off, absolute = [], [], []
    pairs = [(j, n) for j in range(nmax + 1) for n in range(nmax + 1)]
    offdiag = ~np.eye(len(pairs), dtype=bool)
    vals = np.empty((len(pairs), n_r * n_theta), dtype=complex)  # filled anew for each beta
    step = -(-vals.shape[1] // 16)  # the Gram product in 16 node blocks: no full-size temporaries
    for beta in betas:
        rule = quadrature.polar_rule(n_r, n_theta, beta)
        zpts = rule.complex_points()
        _h_table(nmax, beta, zpts, vals)
        gram = np.zeros((len(pairs), len(pairs)), dtype=complex)
        for lo in range(0, len(zpts), step):
            blk = vals[:, lo : lo + step]
            gram += (blk * rule.weights[lo : lo + step]) @ np.conjugate(blk.T)
        ref = np.array([math.pi * gamma_fn(beta + max(j, n) + 1.0) / math.factorial(min(j, n)) for j, n in pairs])
        dev, mag = np.abs(gram.diagonal().real - ref), np.abs(gram)
        diag.append(dev / ref)
        off.append((mag / np.sqrt(np.outer(ref, ref)))[offdiag])
        absolute += [dev, mag[offdiag]]
    params = {"betas": list(betas), "nmax": nmax, "n_r": n_r, "n_theta": n_theta}
    return _report(
        "orthogonality-2d", t0, seed, params, {"diagonal": (diag, diag_tol), "off-diagonal": (off, off_tol)},
        abs_err=absolute, details={"max_offdiag_rel": _max(off), "offdiag_tolerance": off_tol},
    )


def _h_table(nmax: int, beta: float, z, out):
    """out[j (nmax+1) + n] = h_poly(ModeIndex(j, n, beta), z), j, n <= nmax, from
    h_poly's own rows (poly2d._h_rows): one Laguerre pass per |j - n|."""
    for d in range(nmax + 1):
        for s, row in zip(range(nmax + 1 - d), poly2d._h_rows(d, beta, z)):
            out[(s + d) * (nmax + 1) + s] = row(True)
            if d:
                out[s * (nmax + 1) + s + d] = row(False)
    return out


def check_assoc_hermite(betas=(0.0, 1.0, 1.7), nmax: int = 5, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Associated-Hermite orthogonality against |D_{-beta}(ix sqrt2)|^{-2} dx.

    Diagonal 2^n sqrt(pi) Gamma(n+beta+1) to 1e-6 relative; the beta = 0 case
    must hit the plain Hermite normalization 2^n n! sqrt(pi) at 1e-10.
    """
    t0 = time.perf_counter()
    tol, tol_beta0 = 1e-6, 1e-10
    rel, absolute, beta0 = [], [], []
    lower = np.tril_indices(nmax + 1)  # (n, k) with k <= n
    for beta in betas:
        weight = lambda x, b=beta: transforms.omega_weight(x, b) * math.sqrt(math.pi) * gamma_fn(b + 1.0)
        rule = quadrature.adaptive_line(weight, 1e-11 if beta == 0.0 else 1e-9, nmax + 1)
        x = rule.nodes
        hvals = np.array([assoc_hermite(n, x, beta) for n in range(nmax + 1)])
        gram = (hvals * rule.weights) @ hvals.T
        ref = np.array([2.0**n * math.sqrt(math.pi) * gamma_fn(n + beta + 1.0) for n in range(nmax + 1)])
        dev = np.abs(gram - np.diag(ref))
        err = dev / np.sqrt(np.outer(ref, ref))
        np.fill_diagonal(err, dev.diagonal() / ref)
        rel.append(err[lower])
        absolute.append(dev[lower])
        if beta == 0.0:
            beta0.append(err[lower])
    return _report(
        "assoc-hermite", t0, seed, {"betas": list(betas), "nmax": nmax},
        {"gram": (rel, tol), "beta0-hermite": (beta0, tol_beta0)},
        abs_err=absolute, details={"beta0_max_rel": _max(beta0), "beta0_tolerance": tol_beta0},
    )


def check_kummer_normalization(
    betas=(0.0, 0.5, 1.0, 2.3), ts=None, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """Three-way agreement of the m=0 normalization: direct series,
    e^t 1F1(beta; beta+1; -t) and Gamma(beta+1) E_{1,beta+1}(t)."""
    t0 = time.perf_counter()
    ts = np.linspace(0.0, 10.0, 41) if ts is None else np.asarray(ts, dtype=float)
    rel, absolute = [], []
    for beta in betas:
        a = np.array([coherent.norm_closed_m0(beta, float(t)) for t in ts])
        b = np.array([math.exp(t) for t in ts]) * hyp_pfq([beta], [beta + 1.0], -ts).real  # math.exp: np.exp can differ
        c = np.array([gamma_fn(beta + 1.0) * mittag_leffler(1.0, beta + 1.0, float(t)) for t in ts])
        spread = np.max(np.abs([a - b, a - c, b - c]), axis=0)
        absolute.append(spread)
        rel.append(spread / np.abs(a))
    params = {"betas": list(betas), "t_range": [float(ts[0]), float(ts[-1])], "t_count": len(ts)}
    return _report("kummer-normalization", t0, seed, params, {"three-way": (rel, 1e-11)}, abs_err=absolute)


def check_generating_function(
    betas=(0.0, 1.2), cs=(1.0, 2.2), xs=(0.0, 0.3, 1.0), samples: int = 12, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """Lauricella triple series vs the direct sum_n t^n H_n(x, beta)/(c)_n."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    tpts = np.concatenate([[0.4 + 0.0j], _annulus_points(rng, samples - 1, 0.05, 0.5)])
    rel, absolute = [], []
    for beta in betas:
        for c in cs:
            for x in xs:
                for t in tpts:
                    val = lauricella_triple(c, beta, 2.0 * x * t, -t * t, -2.0 * t * t)
                    direct = 0.0 + 0.0j
                    small = 0
                    for n, term in enumerate(_generating_terms(t, x, beta, c), 1):
                        direct += term
                        small = small + 1 if abs(term) <= 1e-17 * max(abs(direct), 1e-30) else 0
                        if n > 400:
                            raise RuntimeError("direct generating-series oracle failed to converge")
                        if small >= 2 and n >= 8:  # x = 0 kills every odd term
                            break
                    err = abs(val - direct)
                    absolute.append(err)
                    rel.append(err / max(abs(direct), 1e-30))
    params = {"betas": list(betas), "cs": list(cs), "xs": list(xs), "samples": int(len(tpts))}
    return _report("generating-function", t0, seed, params, {"lauricella": (rel, 1e-9)}, abs_err=absolute)


def _generating_terms(t, x, beta: float, c: float):
    """The terms t^n H_n(x, beta) / (c)_n, n = 0, 1, ..., of the direct generating series:
    one walk of oracles.assoc_hermite_rows, and (c)_n multiplied up in specfun.pochhammer's order."""
    poch = 1.0
    for n, h in enumerate(assoc_hermite_rows(x, beta)):
        yield t**n * h / poch
        poch *= c + n


def check_kernel_reduction(mmax: int = 8, samples: int = 100, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Generating-form kernel at beta=0 vs the true-polyanalytic closed form,
    over fixed-seed points with |z| <= 3, |x| <= 3.

    Where Re z and x are large with opposite signs, kernel_B's error estimate
    can pass its 1e-10 target and the call raises NumericError: such a point
    counts as an expected raise, listed as (m, Re z, Im z, x) in
    ``details["expected_raises"]``, not as an error."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    zs = _annulus_points(rng, samples, 0.0, 3.0)
    xs = rng.uniform(-3.0, 3.0, samples)
    ms = [i % (mmax + 1) for i in range(samples)]
    rel, absolute, raised = [], [], []
    for m, z, x in zip(ms, zs, xs):
        try:
            val = transforms.kernel_B(m, 0.0, complex(z), float(x))
        except NumericError:
            raised.append((m, float(z.real), float(z.imag), float(x)))
            continue
        ref = kernel_B_true_poly(m, complex(z), float(x))
        absolute.append(abs(val - ref))
        rel.append(absolute[-1] / abs(ref))
    return _report(
        "kernel-reduction", t0, seed, {"mmax": mmax, "samples": samples},
        {"true-polyanalytic": (rel, 1e-8)}, abs_err=absolute, details={"expected_raises": raised},
    )


def check_overlap(mmax: int = 4, samples: int = 6, betas=(0.0, 0.5, 2.3), seed: int = DEFAULT_SEED) -> VerificationReport:
    """Row-sum overlap vs the paper's closed Laguerre + 2F2 form, |z|,|w| <= 2."""
    t0 = time.perf_counter()
    tol, diag_tol = 1e-8, 1e-9
    rng = np.random.default_rng(seed)
    rel, absolute, diag = [], [], []
    for beta in betas:
        for m in range(mmax + 1):
            zs = _annulus_points(rng, samples, 0.05, 2.0)
            ws = _annulus_points(rng, samples, 0.05, 2.0)
            cross, nz, nw = closed_bracket([zs, zs, ws], [ws, zs, ws], m, beta)
            for z, w, b in zip(zs, ws, cross / np.sqrt(nz.real * nw.real)):
                a = coherent.overlap_closed(complex(z), complex(w), m, beta)
                err = abs(a - b)
                absolute.append(err)
                rel.append(err / max(abs(b), 1e-30))
                diag.append(abs(coherent.overlap_closed(complex(z), complex(z), m, beta) - 1.0))
    return _report(
        "overlap", t0, seed, {"mmax": mmax, "samples_per_m": samples, "betas": list(betas)},
        {"closed-form": (rel, tol), "diagonal": (diag, diag_tol)},
        abs_err=absolute, details={"max_diag_deviation": _max(diag), "diag_tolerance": diag_tol},
    )


def check_pde_eigen(betas=(0.0, 0.5, 2.3), nmax: int = 8, samples: int = 50, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Exact-differentiation residual of the Landau operator eigen-identity."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    scaled, absolute = [], []
    for beta in betas:
        for n in range(nmax + 1):
            for m in range(n + 1):
                idx = poly2d.ModeIndex(n, m, beta)
                expansion = poly2d.h_poly_expand(idx)
                zs = _annulus_points(rng, samples, 0.2, 3.0)
                lhs = poly2d.landau_apply(beta, expansion, zs)
                href = poly2d.h_poly(idx, zs)
                resid = np.abs(lhs - m * href)
                absolute.append(resid)
                scaled.append(resid / (1.0 + np.abs(href)))
    return _report(
        "pde-eigen", t0, seed, {"betas": list(betas), "nmax": nmax, "samples_per_index": samples},
        {"landau-residual": (scaled, 1e-10)}, abs_err=absolute, details={"error_scale": "residual / (1 + |H|)"},
    )


def check_transform(mmax: int = 3, betas=(0.0, 1.0), nmax: int = 3, seed: int = DEFAULT_SEED) -> VerificationReport:
    """End-to-end transform: image of phi_n, given by its coefficient vector,
    vs the orthonormal polynomial, and the Gram matrix of the images under
    the polar rule vs the identity."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    targets = _annulus_points(rng, 12, 0.0, 1.8)
    resid, absolute, gram_dev, alpha_dev = [], [], [], []
    for beta in betas:
        prule = quadrature.polar_rule(20, 48, beta)
        zpts = prule.complex_points()
        for m in range(mmax + 1):
            images = []
            for n in range(nmax + 1):
                co = np.zeros(n + 1)
                co[n] = 1.0
                f = transforms.SampledFunction(kind="coeffs", beta=beta, coeffs=co)
                vals = transforms.apply_transform(f, m, beta, targets)
                refs = np.array([poly2d.p_norm(poly2d.ModeIndex(n, m, beta), z) for z in targets])
                alpha = np.vdot(refs, vals) / np.vdot(refs, refs)
                resid.append(np.max(np.abs(vals - alpha * refs)) / np.max(np.abs(refs)))
                absolute.append(np.abs(vals - refs))
                alpha_dev.append(abs(alpha - 1.0))
                images.append(transforms.apply_transform(f, m, beta, zpts))
            rows = np.array(images)
            gram = (rows * prule.weights) @ np.conjugate(rows.T) / math.pi
            gram_dev.append(np.abs(gram - np.eye(nmax + 1)))
    pointwise, gram_err = _max(resid), _max(gram_dev)
    details = {"pointwise_residual": pointwise, "gram_deviation": gram_err, "proportionality_offset": _max(alpha_dev)}
    return _report(
        "transform", t0, seed, {"mmax": mmax, "betas": list(betas), "nmax": nmax},
        {"pointwise-and-gram": ([pointwise, gram_err], 1e-5)}, abs_err=absolute, details=details,
    )


def check_resolution_identity(mmax: int = 2, betas=(0.0, 1.0), nmax: int = 4, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Resolution of identity: normalized coefficient overlaps against the
    eta density integrate to delta_{kn} under the polar rule (1/pi folded)."""
    t0 = time.perf_counter()
    errs = []
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
            errs.append(np.abs(gram - np.eye(nmax + 1)))
    return _report(
        "resolution-identity", t0, seed, {"mmax": mmax, "betas": list(betas), "nmax": nmax}, {"gram": (errs, 1e-6)}
    )


def check_density_positivity(
    mmax: int = 4, betas=(0.0, 0.5, 2.3), grid_points: int = 48, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """Scan the closed-form resolution density N t^beta e^{-t} on a log-radial
    grid; the construction implies positivity but the closed form does not
    show it (the row sum of coherent.eta_density is a sum of squares)."""
    t0 = time.perf_counter()
    radii = np.geomspace(1e-2, 6.0, grid_points)
    t = radii * radii
    cases = [(m, beta) for beta in betas for m in range(mmax + 1)]
    vals = np.array([closed_bracket(radii, radii, m, beta).real * t**beta * np.exp(-t) for m, beta in cases])
    i, j = np.unravel_index(np.argmin(vals), vals.shape)  # the first minimum, or the first nan
    m, beta = cases[i]
    return _report(
        "density-positivity", t0, seed, {"mmax": mmax, "betas": list(betas), "grid_points": grid_points},
        {"negative-part": ([-vals], 1e-12)}, mode="abs",
        details={"min_density": float(vals[i, j]), "argmin": {"m": m, "beta": beta, "radius": float(radii[j])}},
    )


def check_quadrature(seed: int = DEFAULT_SEED) -> VerificationReport:
    """Polynomial exactness and mass invariants of the quadrature rules."""
    t0 = time.perf_counter()
    errs = []  # (scaled error, absolute error) of each invariant
    for n, alpha in [(2, 0.0), (8, 0.5), (16, 2.3), (24, 1.0)]:
        rule = quadrature.gauss_laguerre(n, alpha)
        for k in range(0, 2 * n, max(1, n // 3)):
            val = float(np.sum(rule.weights * rule.nodes**k))
            ref = gamma_fn(k + alpha + 1.0)
            errs.append((abs(val - ref) / ref, abs(val - ref) / ref))
        errs.append((abs(rule.mass - gamma_fn(alpha + 1.0)) / gamma_fn(alpha + 1.0), 0.0))
    for n in [1, 8, 20]:
        rule = quadrature.gauss_hermite(n)
        errs.append((abs(rule.mass - math.sqrt(math.pi)) / math.sqrt(math.pi), 0.0))
        if n >= 2:
            val = float(np.sum(rule.weights * rule.nodes**2))
            errs.append((abs(val - math.sqrt(math.pi) / 2.0) / (math.sqrt(math.pi) / 2.0), 0.0))
            odd = float(np.sum(rule.weights * rule.nodes**3))
            errs.append((abs(odd) / rule.mass, abs(odd) / rule.mass))  # zero target, mass-scaled
    for beta in [0.0, 1.0, 2.3]:
        rule = quadrature.polar_rule(24, 64, beta)
        ref = math.pi * gamma_fn(beta + 1.0)
        errs.append((abs(rule.mass - ref) / ref, 0.0))
        zpts = rule.complex_points()
        val = complex(np.sum(rule.weights * zpts * np.conjugate(zpts)))
        ref2 = math.pi * gamma_fn(beta + 2.0)
        errs.append((abs(val - ref2) / ref2, 0.0))
        for freq in [1, 5, 17]:
            val = complex(np.sum(rule.weights * np.exp(1j * freq * np.angle(zpts))))
            errs.append((abs(val) / ref, abs(val) / ref))
    rule = quadrature.adaptive_line(lambda x: np.exp(-(x**2)), 1e-11, 16)
    for k in range(17):
        val = float(np.sum(rule.weights * rule.nodes ** (2 * k)))
        ref = math.gamma(k + 0.5)
        errs.append((abs(val - ref) / ref, abs(val - ref) / ref))
    odd = float(np.sum(rule.weights * rule.nodes**3))
    errs.append((abs(odd) / rule.mass, abs(odd) / rule.mass))
    scaled, absolute = np.array(errs).T
    return _report("quadrature", t0, seed, {}, {"invariants": ([scaled], 1e-13)}, abs_err=[absolute])


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
