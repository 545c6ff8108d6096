"""Moment machinery driven by a single measure r^beta dmu(r) on (0, L).

A MomentMeasure supplies the moments mu_s = int_0^L r^s dmu(r); everything
else (the sequence x_n^beta, generalized factorials, orthogonality norms
zeta_n, convergence radii, diagonal Hamiltonian eigenvalues) is derived from
ratios of those moments, so an un-normalized dmu is harmless.

The builtin GammaMeasure (dmu = e^{-r} dr) has closed forms throughout; any
other measure goes through one Cholesky factor of the moment Hankel matrix,
taken in extended precision and capped at polynomial degree 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IllConditionedError, NumericError
from .formats import read_data
from .specfun import gamma_fn, laguerre, pochhammer

__all__ = [
    "MomentMeasure",
    "GammaMeasure",
    "CallableMeasure",
    "TabulatedMeasure",
    "load_moments",
    "x_seq",
    "x_gen",
    "gen_factorial",
    "zeta",
    "ortho_poly_phi",
    "ortho_poly_coeffs",
    "RadiusEstimate",
    "radius",
    "hamiltonian_eigen",
]

GENERIC_DEGREE_CAP = 12
_MP_DPS = 50


class MomentMeasure:
    """Source of moments mu_s for a positive measure on (0, L).

    Subclasses implement moment(s); the beta exponent is carried by the
    caller through the argument (mu_{n+beta} == moment(n + beta)).
    """

    description: str = "abstract measure"
    beta: float = 0.0
    support_bound: float = math.inf  # L
    is_builtin: bool = False
    moment_precision: float = 1e-16  # relative accuracy of moment values

    def moment(self, s: float) -> float:
        raise NotImplementedError

    def moment_mp(self, s: float) -> mp.mpf:
        """Extended-precision moment; default promotes the float value."""
        import mpmath as mp  # generic measures only: mpmath stays off the import path
        return mp.mpf(self.moment(s))

    def validate(self, nmax: int = 12) -> None:
        """Positivity plus the Hankel necessary condition on the integer grid."""
        beta = self.beta
        vals = [self.moment(n + beta) for n in range(nmax + 2)]
        for n, v in enumerate(vals):
            if not (v > 0.0 and math.isfinite(v)):
                raise NumericError(f"moment mu_{n}+beta must be positive and finite, got {v}")
        for n in range(1, nmax + 1):
            if vals[n - 1] * vals[n + 1] < vals[n] ** 2 * (1.0 - 1e-12):
                raise NumericError(
                    f"Hankel positivity violated at n={n}: "
                    f"mu_(n-1) mu_(n+1) < mu_n^2 on the beta-shifted grid"
                )


@dataclass(frozen=True)
class GammaMeasure(MomentMeasure):
    """The measure r^beta e^{-r} dr on (0, inf): moment(s) = Gamma(s+1)."""

    beta: float = 0.0
    description: str = "r^beta e^{-r} dr on (0, inf)"
    support_bound: float = math.inf
    is_builtin: bool = True
    moment_precision: float = 1e-49

    def moment(self, s: float) -> float:
        return gamma_fn(s + 1.0)

    def moment_mp(self, s: float) -> mp.mpf:
        import mpmath as mp
        with mp.workdps(_MP_DPS):
            return mp.gamma(mp.mpf(s) + 1)


@dataclass(frozen=True, eq=False)
class CallableMeasure(MomentMeasure):
    """Generic measure defined by a moment function s -> mu_s."""

    moment_fn: object = None
    beta: float = 0.0
    description: str = "callable measure"
    support_bound: float = math.inf

    def moment(self, s: float) -> float:
        return float(self.moment_fn(s))


@dataclass(frozen=True)
class TabulatedMeasure(MomentMeasure):
    """Measure known through a finite table of (s, mu_s) pairs."""

    table: tuple = ()
    beta: float = 0.0
    description: str = "tabulated moments"
    support_bound: float = math.inf

    def moment(self, s: float) -> float:
        for sv, value in self.table:
            if abs(sv - s) <= 1e-9 * max(1.0, abs(s)):
                return value
        raise NumericError(f"moment at s={s} not present in table")


def load_moments(path) -> TabulatedMeasure:
    """Read a moments file (formats.read_data): one `s value` pair per line, monotone in s.

    A leading comment of the form `# beta=<float> L=<float|inf>` sets the
    measure parameters.  The loader enforces positivity and the Hankel
    necessary condition on every unit-spaced triple present in the file.
    """
    header, fields = read_data(path, 2)
    beta, bound = float(header.get("beta", 0.0)), float(header.get("L", "inf"))
    rows = [(float(s), float(v)) for s, v in fields]
    if not rows:
        raise ValueError("moments file is empty")
    s_vals = [s for s, _ in rows]
    if any(b <= a for a, b in zip(s_vals, s_vals[1:])):
        raise ValueError("moment orders must be strictly increasing")
    for s, v in rows:
        if not (v > 0.0 and math.isfinite(v)):
            raise ValueError(f"moment at s={s} must be positive and finite")
    lookup = dict(rows)
    for s, v in rows:
        lo, hi = lookup.get(s - 1.0), lookup.get(s + 1.0)
        if lo is not None and hi is not None and lo * hi < v * v * (1.0 - 1e-12):
            raise ValueError(f"Hankel positivity violated around s={s}")
    return TabulatedMeasure(table=tuple(rows), beta=beta, support_bound=bound)


# ---------------------------------------------------------------------------
# moment-ratio sequences


def x_seq(measure: MomentMeasure, n: int) -> float:
    """x_n^beta = mu_{n+beta} / mu_{n+beta-1}, n >= 1; n + beta for the builtin measure."""
    if n < 1:
        raise ValueError("x_seq requires n >= 1")
    beta = measure.beta
    if measure.is_builtin:
        return n + beta
    num = measure.moment(n + beta)
    den = measure.moment(n - 1 + beta)
    val = num / den
    if not (val > 0.0 and math.isfinite(val)):
        raise NumericError(f"non-finite or non-positive moment ratio at n={n}")
    return val


def zeta(measure: MomentMeasure, n: int, alpha: float) -> float:
    """Orthogonality norm zeta_n(alpha) of the degree-n polynomial under dmu_alpha.

    Builtin closed form Gamma(alpha+n+1)/n!; generic measures go through one
    Cholesky factor of the moment Hankel matrix.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if measure.is_builtin:
        return gamma_fn(alpha + n + 1.0) / math.factorial(n)
    _, zetas = _generic_basis(measure, float(alpha), n)
    return zetas[n]


def x_gen(measure: MomentMeasure, n: int, m: int) -> float:
    """Single step x_{n,m}^beta = zeta_{n^m}(|n-m|+beta) / zeta_{(n-1)^m}(|n-m-1|+beta)."""
    if n < 1:
        raise ValueError("x_gen requires n >= 1")
    beta = measure.beta
    num = zeta(measure, min(n, m), abs(n - m) + beta)
    den = zeta(measure, min(n - 1, m), abs(n - 1 - m) + beta)
    return num / den


def gen_factorial(measure: MomentMeasure, n: int, m: int) -> float:
    """Generalized factorial x_{n,m}^beta! = zeta_{n^m}(|n-m|+beta) / zeta_0(m+beta).

    For the builtin measure Gamma(beta+max(n,m)+1) / (min(n,m)! Gamma(beta+m+1)), taken from
    math.lgamma differences where Gamma overflows float64; OverflowError where the value does.
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be non-negative")
    if n == 0:
        return 1.0
    beta = measure.beta
    try:
        return zeta(measure, min(n, m), abs(n - m) + beta) / zeta(measure, 0, m + beta)
    except OverflowError:  # only the builtin zeta, Gamma(alpha+n+1) / n!, overflows
        return math.exp(math.lgamma(beta + max(n, m) + 1.0) - math.lgamma(min(n, m) + 1.0) - math.lgamma(beta + m + 1.0))


def hamiltonian_eigen(measure: MomentMeasure, n: int) -> float:
    """Eigenvalue of the diagonal Hamiltonian on the n-th basis vector (x_0 = 0)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 0.0
    return x_seq(measure, n)


# ---------------------------------------------------------------------------
# orthogonal polynomials phi_n(r; alpha)


def ortho_poly_coeffs(measure: MomentMeasure, n: int, alpha: float) -> np.ndarray:
    """Coefficients c_j of phi_n(r; alpha) = sum_j c_j r^{n-j} (descending powers).

    The builtin measure has the closed form
        c_j = (-1)^j (alpha+1)_n / ((n-j)! j! (alpha+1)_{n-j}),
    the expansion of phi_n = (-1)^n L_n^(alpha) (leading coefficient +1/n!);
    generic measures take the monic polynomial from one Cholesky factor of
    the moment Hankel matrix, scaled by 1/n! to match.  Only coefficient
    ratios enter the radius probe, so the overall sign convention is inert
    there.
    """
    if measure.is_builtin:
        pa = pochhammer(alpha + 1.0, n)
        return np.array(
            [
                (-1.0) ** j * pa / (math.factorial(n - j) * math.factorial(j) * pochhammer(alpha + 1.0, n - j))
                for j in range(n + 1)
            ]
        )
    coeffs, _ = _generic_basis(measure, float(alpha), n)
    return coeffs[n][::-1]  # stored ascending internally, reported descending


def ortho_poly_phi(measure: MomentMeasure, n: int, alpha: float, r):
    """Value of phi_n(r; alpha), the degree-n orthogonal polynomial of dmu_alpha.

    phi_0 = 1; the builtin measure gives phi_n(r) = (-1)^n L_n^(alpha)(r).
    """
    if measure.is_builtin:
        return (-1.0) ** n * laguerre(n, alpha, r)
    coeffs, _ = _generic_basis(measure, float(alpha), n)
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    for c in coeffs[n][::-1]:  # ascending storage -> Horner from the top
        out = out * r + c
    return out if out.ndim else out[()]


@lru_cache(maxsize=256)
def _generic_basis(measure: MomentMeasure, alpha: float, nmax: int):
    """Monic-over-n! orthogonal basis of dmu_alpha up to degree nmax, from one
    Cholesky factor H = L L^T of the moment Hankel matrix H_ij = mu_{i+j+alpha}.

    Row n of L^{-1} holds the orthonormal polynomial q_n in ascending powers, so
    the monic p_n is that row over its last entry and zeta_n = (L_nn / n!)^2.
    Returns (coeff arrays ascending in power, zeta values).  Runs in extended
    precision; the degree cap and a conditioning estimate guard against the
    exponential ill-conditioning of moment Hankel systems.
    """
    if nmax > GENERIC_DEGREE_CAP:
        raise IllConditionedError(
            f"generic measures are capped at degree {GENERIC_DEGREE_CAP} (requested {nmax})"
        )
    import mpmath as mp
    with mp.workdps(_MP_DPS):
        mom = [measure.moment_mp(k + alpha) for k in range(2 * nmax + 1)]
        h = mp.matrix([[mom[i + j] for j in range(nmax + 1)] for i in range(nmax + 1)])
        try:
            # tol=0: positivity is scale-free here; the gate below judges conditioning
            chol = mp.cholesky(h, tol=0)
            q = mp.inverse(chol)
        except (ValueError, ZeroDivisionError) as exc:
            raise IllConditionedError(f"moment Hankel matrix is not positive definite (alpha={alpha})") from exc
        _check_conditioning(measure, mom, q, nmax)
        coeffs = []
        zetas = []
        for n in range(nmax + 1):
            scale = 1 / (q[n, n] * mp.factorial(n))
            coeffs.append(np.array([float(q[n, j] * scale) for j in range(n + 1)]))
            zetas.append(float((chol[n, n] / mp.factorial(n)) ** 2))
    return coeffs, zetas


def _check_conditioning(measure: MomentMeasure, mom, q, nmax: int) -> None:
    """First-order sensitivity of the zeta ratios to relative moment noise.

    zeta_n is a ratio of consecutive Hankel determinants, so
    d(log zeta_n) = sum_k mu_k [tr(H_{n+1}^{-1} E_k) - tr(H_n^{-1} E_k)] d(log mu_k)
    with E_k the antidiagonal indicator i+j = k.  H_{n+1}^{-1} - H_n^{-1} =
    q_n q_n^T for the orthonormal row q_n of L^{-1}, so the bracket is the
    coefficient of r^k in q_n(r)^2.  The estimate times the measure's moment
    precision bounds the relative residual of the output.
    """
    worst = 0
    for n in range(1, nmax + 1):
        square = [0] * (2 * n + 1)
        for i in range(n + 1):
            for j in range(n + 1):
                square[i + j] += q[n, i] * q[n, j]
        worst = max(worst, sum(abs(mu * c) for mu, c in zip(mom, square)))
    residual = float(worst) * measure.moment_precision
    if residual > 1e-6:
        raise IllConditionedError(
            f"Hankel system too ill-conditioned at degree {nmax}: "
            f"estimated relative residual {residual:.2e} > 1e-6"
        )


# ---------------------------------------------------------------------------
# convergence radius of the coherent-state disk


@dataclass(frozen=True)
class RadiusEstimate:
    """Numerical probe of the coherent-state convergence radius R_{beta,m}."""

    value: float
    converged: bool
    probe_depth: int
    agreement: float
    note: str = ""


def radius(measure: MomentMeasure, m: int, probe_depth: int = 60) -> RadiusEstimate:
    """Convergence radius of the fixed-m coherent-state disk.

    For the builtin measure the moment ratios grow without bound, so the
    radius is infinite.  Otherwise the limit ratio
        R^2_{i,j}(n) = |c_i(m; n-1+beta) c_j(m; n-1+beta) zeta_m(n+beta)|
                       / |c_i(m; n+beta) c_j(m; n+beta) zeta_m(n-1+beta)|
    is probed at n = probe_depth-1 and probe_depth; 1e-3 relative agreement
    is required for a converged finite estimate, monotone growth beyond any
    bound reports +inf.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if measure.is_builtin:
        return RadiusEstimate(math.inf, True, probe_depth, 0.0, "closed form: x_n -> inf")

    beta = measure.beta

    def ratio_min(n: int) -> float:
        c_prev = ortho_poly_coeffs(measure, m, n - 1 + beta)
        c_cur = ortho_poly_coeffs(measure, m, n + beta)
        z_cur = zeta(measure, m, n + beta)
        z_prev = zeta(measure, m, n - 1 + beta)
        best = math.inf
        for i in range(m + 1):
            for j in range(m + 1):
                denom = c_cur[i] * c_cur[j]
                if denom == 0.0:
                    continue
                val = abs(c_prev[i] * c_prev[j] * z_cur / (denom * z_prev))
                best = min(best, val)
        return best

    samples = [ratio_min(n) for n in range(probe_depth - 4, probe_depth + 1)]
    agreement = abs(samples[-1] / samples[-2] - 1.0) if samples[-2] != 0 else math.inf
    increasing = all(b > a for a, b in zip(samples, samples[1:]))
    # linear/unbounded growth keeps a relative step ~1/n at depth n, while a
    # ratio converging to a finite limit decelerates like 1/n^2
    if increasing and agreement * probe_depth > 0.5:
        return RadiusEstimate(math.inf, True, probe_depth, agreement, "monotone growth, treated as unbounded")
    if agreement <= 1e-3:
        return RadiusEstimate(math.sqrt(samples[-1]), True, probe_depth, agreement)
    return RadiusEstimate(math.sqrt(samples[-1]), False, probe_depth, agreement, "ratio probe not settled")
