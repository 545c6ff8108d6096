"""Coherent-state coefficients, normalizations, overlaps, reproducing kernel
and resolution-of-identity densities for the builtin measure r^beta e^{-r} dr.

Conventions.  The unnormalized coefficient of the n-th basis vector in the
fixed-m state at z is

    c_n(z) = conj(H_{n,m}^(beta)(z, zbar)) * sqrt((n^m)! / Gamma(beta+n v m+1)),

and norm_series returns N = sum |c_n|^2, so states divided by sqrt(N) have
unit norm.  At m=0 the total normalization S(t) = sum t^n/(beta+1)_n equals
Gamma(beta+1) * N; both conventions in circulation differ exactly by that
Gamma(beta+1) factor.  The resolution density is reported as
eta_density = N(z zbar) (z zbar)^beta e^{-z zbar}, the Radon-Nikodym factor
against Lebesgue measure with the 1/pi angular normalization left to the
quadrature side.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .poly2d import ModeIndex, h_poly
from .specfun import DEFAULT_CONTROL, SeriesControl, gamma_fn, hyp_pfq, laguerre, pochhammer

__all__ = [
    "CoherentSpec",
    "gnlcs_coeff",
    "norm_series",
    "norm_closed_m0",
    "overlap_closed",
    "overlap_series",
    "kernel_K",
    "eta_density",
]


@dataclass(frozen=True)
class CoherentSpec:
    """Point + parameters of one generalized nonlinear coherent state."""

    z: complex
    idx_m: int = 0
    beta: float = 0.0
    truncation: SeriesControl = field(default_factory=SeriesControl)

    def __post_init__(self):
        if self.idx_m < 0:
            raise ValueError("idx_m must be non-negative")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


def gnlcs_coeff(n: int, spec: CoherentSpec) -> complex:
    """Unnormalized coefficient of basis vector n in the state at spec.z.

    At m=0 this reduces to zbar^n / sqrt((beta+1)_n Gamma(beta+1)).
    """
    m, beta = spec.idx_m, spec.beta
    h = h_poly(ModeIndex(n, m, beta), spec.z)
    scale = math.sqrt(math.factorial(min(n, m)) / gamma_fn(beta + max(n, m) + 1.0))
    return complex(h).conjugate() * scale


def norm_series(spec: CoherentSpec) -> float:
    """Squared norm N of the unnormalized coefficient vector (direct series)."""
    ctl = spec.truncation
    total = 0.0
    comp = 0.0
    prev = math.inf
    for n in range(ctl.max_terms + 1):
        term = abs(gnlcs_coeff(n, spec)) ** 2
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if n >= max(2, spec.idx_m + 2) and term <= ctl.rel_tol * total and prev <= ctl.rel_tol * total:
            return total
        prev = term
    raise ConvergenceError(f"norm_series not converged in {ctl.max_terms} terms")


def norm_closed_m0(beta: float, t: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Total m=0 normalization S(t) = sum_n t^n / (beta+1)_n.

    Equals e^t 1F1(beta; beta+1; -t) and Gamma(beta+1) E_{1,beta+1}(t); the
    state built with coefficients zbar^n/sqrt((beta+1)_n) has norm S(t)^{1/2}.
    """
    total = 0.0
    comp = 0.0
    term = 1.0
    prev = math.inf
    for n in range(ctl.max_terms + 1):
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if n >= 2 and term <= ctl.rel_tol * abs(total) and prev <= ctl.rel_tol * abs(total):
            return total
        prev = term
        term *= t / (beta + 1.0 + n)
    raise ConvergenceError(f"norm_closed_m0 not converged in {ctl.max_terms} terms")


def _bracket(z, w, m: int, beta: float, ctl: SeriesControl = DEFAULT_CONTROL):
    """Closed form of sum_n (n^m)!/Gamma(beta+n v m+1) H_{n,m}(z) conj(H_{n,m}(w)).

    Finite Laguerre product sum over n < m plus the double 2F2 sum over the
    (k, l) parameter grid, summed as one broadcast hypergeometric series.
    ``z`` and ``w`` broadcast against each other; on the diagonal w = z the
    value is the squared norm N_{beta,m}(z zbar).  Returns a complex ndarray.
    """
    z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
    zz = (z * z.conj()).real
    ww = (w * w.conj()).real
    zw = z * w.conj()
    total = np.zeros(z.shape, dtype=complex)
    gm = gamma_fn(beta + m + 1.0)
    for j in range(m):
        a = beta + m - j
        total += math.factorial(j) * (z.conj() * w) ** (m - j) / gm * laguerre(j, a, zz) * laguerre(j, a, ww)
    front = pochhammer(beta + 1.0, m) / (math.factorial(m) * gamma_fn(beta + 1.0))
    # the (k, l) terms cancel down to ~1e-9 of their magnitude at m = 8, |z| = 3,
    # so they are formed and summed in long double, 2F2 values included
    ld = np.longdouble
    coeff = np.ones(m + 1, dtype=ld)  # (-m)_k / (k! (beta+1)_k)
    for j in range(1, m + 1):
        coeff[j] = coeff[j - 1] * ld(j - 1 - m) / (j * (ld(beta) + j))
    k = np.arange(m + 1)
    lead = (slice(None),) + (None,) * z.ndim  # grid index k on a new leading axis
    zk = coeff[lead] * zz.astype(ld) ** k[lead]
    wl = coeff[lead] * ww.astype(ld) ** k[lead]
    b = (ld(beta) + 1 + k)[lead]
    grid = hyp_pfq([1.0, m + beta + 1.0], [b[:, None], b], zw.astype(np.clongdouble), ctl)
    second = np.sum(zk[:, None] * wl[None, :] * grid, axis=(0, 1))
    return total + front * second.astype(complex)


def overlap_closed(z: complex, w: complex, m: int, beta: float, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Normalized overlap of the states at z and w (closed 2F2 form).

    The brackets (z, w), (z, z) and (w, w) are evaluated in one call.  The
    diagonal overlap is exactly 1 by construction of the normalization.
    """
    cross, nz, nw = _bracket([z, z, w], [w, z, w], m, beta, ctl)
    return complex(cross / math.sqrt(nz.real * nw.real))


def overlap_series(z: complex, w: complex, m: int, beta: float, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Normalized overlap by brute coefficient summation (oracle route)."""
    spec_z = CoherentSpec(z=complex(z), idx_m=m, beta=beta, truncation=ctl)
    spec_w = CoherentSpec(z=complex(w), idx_m=m, beta=beta, truncation=ctl)
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    prev = math.inf
    nz = norm_series(spec_z)
    nw = norm_series(spec_w)
    scale = math.sqrt(nz * nw)
    for n in range(ctl.max_terms + 1):
        term = gnlcs_coeff(n, spec_z).conjugate() * gnlcs_coeff(n, spec_w)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        mag = abs(term) / scale
        if n >= max(2, m + 2) and mag <= ctl.rel_tol and prev <= ctl.rel_tol:
            return total / scale
        prev = mag
    raise ConvergenceError(f"overlap_series not converged in {ctl.max_terms} terms")


def kernel_K(z: complex, w: complex, beta: float, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Reproducing kernel K_beta(z, w) = e^{z wbar} 1F1(beta; beta+1; -z wbar) / Gamma(beta+1)."""
    zw = complex(z) * complex(w).conjugate()
    return cmath.exp(zw) * hyp_pfq([beta], [beta + 1.0], -zw, ctl) / gamma_fn(beta + 1.0)


def eta_density(z, m: int, beta: float, ctl: SeriesControl = DEFAULT_CONTROL):
    """Density of the resolution-of-identity measure against Lebesgue dnu / pi.

    eta(z) = N_{beta,m}(z zbar) (z zbar)^beta e^{-z zbar}, evaluated through
    the closed Laguerre + 2F2 bracket (so its positivity is a genuine check,
    not a tautology of the series form).  At m=0 this is exactly
    1F1(beta; beta+1; -z zbar) (z zbar)^beta / Gamma(beta+1).  ``z`` may be a
    scalar (float result) or an array (ndarray result of the same shape).
    """
    z = np.asarray(z, dtype=complex)
    t = (z * z.conj()).real
    out = _bracket(z, z, m, beta, ctl).real * t**beta * np.exp(-t)
    return out if out.ndim else float(out)
