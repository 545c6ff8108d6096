"""Coherent-state normalizations, overlaps, reproducing kernel and
resolution-of-identity densities for the builtin measure r^beta e^{-r} dr.

Conventions.  The unnormalized coefficient of the n-th basis vector in the
fixed-m state at z is

    c_n(z) = conj(H_{n,m}^(beta)(z, zbar)) * sqrt((n^m)! / Gamma(beta+n v m+1)),

that is conj(poly2d.p_norm(ModeIndex(n, m, beta), z)),
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

from .errors import ConvergenceError, NumericError
from .poly2d import _p_rows, _row_sum
from .specfun import DEFAULT_CONTROL, SeriesControl, gamma_fn, hyp_pfq

__all__ = [
    "CoherentSpec",
    "norm_series",
    "norm_closed_m0",
    "overlap_closed",
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


def norm_series(spec: CoherentSpec) -> float:
    """Squared norm N = sum_n |c_n|^2 of the unnormalized coefficient vector,
    the bracket on the diagonal.  Raises NumericError where N overflows float64."""
    return float(_norm(spec.z, spec.idx_m, spec.beta, spec.truncation))


def norm_closed_m0(beta: float, t: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Total m=0 normalization S(t) = sum_n t^n / (beta+1)_n.

    Equals e^t 1F1(beta; beta+1; -t) and Gamma(beta+1) E_{1,beta+1}(t); the
    state built with coefficients zbar^n/sqrt((beta+1)_n) has norm S(t)^{1/2}.
    Raises NumericError where S(t) overflows float64.
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
            if math.isinf(total):  # an infinite total passes the test above trivially
                raise NumericError(f"norm_closed_m0 overflows float64 at beta={beta}, t={t}")
            return total
        prev = term
        term *= t / (beta + 1.0 + n)
    raise ConvergenceError(f"norm_closed_m0 not converged in {ctl.max_terms} terms")


def _norm(z, m: int, beta: float, ctl: SeriesControl = DEFAULT_CONTROL):
    """The squared norm N_{beta,m}(z zbar) = sum_n |c_n(z)|^2, the bracket on
    the diagonal: one poly2d._p_rows generator summed in long double.

    ``z`` may be a scalar or an array; returns real values of its shape.
    Raises NumericError where N overflows float64 (|z| of about 27 and up).
    """
    rows = _p_rows(m, beta, np.asarray(z, dtype=np.clongdouble))
    total = _bracket_sum((r * np.conj(r) for r in rows), m, beta, ctl).real
    if np.any(total > np.finfo(float).max):
        raise NumericError(f"the squared norm overflows float64 at m={m}, beta={beta}")
    return total.astype(float)


def _bracket_sum(terms, m: int, beta: float, ctl: SeriesControl):
    """The row sum of bracket terms row(z) conj(row(w)) = c_n(w) conj(c_n(z)),
    divided by Gamma(beta+1), in long double.  The stopping test compares the
    terms with their own partial sum, which for distant states lies far below
    sqrt(N_z N_w)."""
    total, _ = _row_sum(terms, m, ctl, "coherent bracket")
    return total / np.longdouble(gamma_fn(beta + 1.0))


def overlap_closed(z: complex, w: complex, m: int, beta: float, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Normalized overlap of the states at z and w (row sum of the bracket).

    The brackets (z, w), (z, z) and (w, w) are evaluated in one call and
    divided in long double, so the quotient is rounded once and stays finite
    where N_z N_w overflows float64.  The diagonal overlap is exactly 1 by
    construction of the normalization.
    """
    rows = _p_rows(m, beta, np.array([z, w], dtype=np.clongdouble))  # one generator for both states
    cross, nz, nw = _bracket_sum((r[[0, 0, 1]] * np.conj(r[[1, 0, 1]]) for r in rows), m, beta, ctl)
    return complex(cross / np.sqrt(nz.real * nw.real))


def kernel_K(z: complex, w: complex, beta: float, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Reproducing kernel K_beta(z, w) = e^{z wbar} 1F1(beta; beta+1; -z wbar) / Gamma(beta+1)."""
    zw = complex(z) * complex(w).conjugate()
    return cmath.exp(zw) * hyp_pfq([beta], [beta + 1.0], -zw, ctl) / gamma_fn(beta + 1.0)


def eta_density(z, m: int, beta: float, ctl: SeriesControl = DEFAULT_CONTROL):
    """Density of the resolution-of-identity measure against Lebesgue dnu / pi.

    eta(z) = N_{beta,m}(z zbar) (z zbar)^beta e^{-z zbar}, with N the bracket
    on the diagonal.  At m=0 this is exactly
    1F1(beta; beta+1; -z zbar) (z zbar)^beta / Gamma(beta+1).  ``z`` may be a
    scalar (float result) or an array (ndarray result of the same shape).
    Raises NumericError where N or the product overflows float64, or where
    e^{-z zbar} falls below the normal float64 range and loses digits.
    """
    z = np.asarray(z, dtype=complex)
    t = (z * z.conj()).real
    decay = np.exp(-t)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        out = _norm(z, m, beta, ctl) * t**beta * decay
    if not np.all(np.isfinite(out) & (decay >= np.finfo(float).tiny)):
        raise NumericError(f"eta_density leaves the float64 range at m={m}, beta={beta}")
    return out if out.ndim else float(out)
