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

from dataclasses import dataclass, field

import numpy as np

from .poly2d import _p_rows, _row_sum
from .specfun import (
    _CLD, _EPS_LD, _LD, DEFAULT_CONTROL, SeriesControl, _exit_check, _gamma_ld, _kummer_series, _require_beta,
    _require_finite,
)

__all__ = [
    "CoherentSpec",
    "norm_series",
    "norm_closed_m0",
    "overlap_closed",
    "kernel_K",
    "eta_density",
]

_M0_TARGET = 1e-12  # the relative rounding estimate past which kernel_K and norm_closed_m0 raise
_TINY = np.finfo(float).tiny  # the smallest normal float64


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
        _require_beta(self.beta)
        _require_finite("z", self.z)


def norm_series(spec: CoherentSpec) -> float:
    """Squared norm N = sum_n |c_n|^2 of the unnormalized coefficient vector,
    the bracket on the diagonal.  Leaves through specfun._exit_check: NumericError where N overflows float64."""
    return float(_norm(spec.z, spec.idx_m, spec.beta, spec.truncation))


def norm_closed_m0(beta: float, t: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Total m=0 normalization S(t) = sum_n t^n / (beta+1)_n.

    Equals e^t 1F1(beta; beta+1; -t) and Gamma(beta+1) E_{1,beta+1}(t); the
    state built with coefficients zbar^n/sqrt((beta+1)_n) has norm S(t)^{1/2}.
    Leaves through specfun._exit_check: NumericError past _M0_TARGET or the normal float64 range.
    """
    _require_beta(beta)
    _require_finite("t", t)
    return _m0_series(t, beta, ctl).real


@np.errstate(over="ignore", invalid="ignore")  # the exit check raises there
def _m0_series(t, beta: float, ctl: SeriesControl, scale: float | _LD = 1.0) -> complex:
    """S(t) / scale, S(t) = M(1; beta+1; t), by specfun._kummer_series in long double, as Kummer's
    e^t M(beta; beta+1; -t) (DLMF 13.2.39) where Re t < 0; the exit check raises where eps_ld sum |term|
    is not below _M0_TARGET of the sum or the value leaves the normal float64 range."""
    t, b = _CLD(t), _LD(beta)
    kummer = t.real < 0
    pair, y, ln_factor = ((b, b + 1), -t, t) if kummer else ((1, b + 1), t, 0)  # e^t 2^e in one exponential
    sums, absums, (e,) = _kummer_series((pair,), np.array([y]), ctl.max_terms)
    total, absum = sums[0, 0], absums[0, 0]
    value = total * np.exp(ln_factor + e * np.log(_LD(2))) / _LD(scale)
    value = value if abs(value) >= _TINY else np.nan  # below the normal range digits are lost
    return complex(_exit_check(
        "the m=0 series", value, lambda i: f"beta={beta}, t={complex(t)}", _EPS_LD * absum, _M0_TARGET, abs(total)
    ))


def _norm(z, m: int, beta: float, ctl: SeriesControl = DEFAULT_CONTROL):
    """The squared norm N_{beta,m}(z zbar) = sum_n |c_n(z)|^2, the bracket on
    the diagonal.  |P~_{n,m}(z)| = |P~_{n,m}(|z|)|, so the rows of one poly2d._p_rows
    generator at the radius |z|, formed in long double, are real: their squares are
    summed in long double, a block of rows at a time, and divided by Gamma(beta+1),
    taken in long double past beta = 170.

    ``z`` may be a scalar or an array; returns real values of its shape.
    The exit check raises NumericError where N overflows float64 (|z| of about 27 and up), or falls below
    its normal range (near the origin from beta of about 171, and, no row summed, past Gamma(beta+1)'s range).
    """
    z, gamma = np.asarray(z), _gamma_ld(beta + 1.0)
    x, y = z.real.astype(_LD), z.imag.astype(_LD)
    rows = (r * r for r in _p_rows(m, beta, np.sqrt(x * x + y * y)))
    value = _row_sum(rows, m, ctl, "the squared norm")[0] / gamma if gamma < np.inf else np.nan  # inf / inf warns
    value = np.where(value >= _TINY, value, np.nan)  # N > 0: below the normal range digits are lost
    return _exit_check("the squared norm", value, lambda i: f"m={m}, beta={beta}")


def overlap_closed(z: complex, w: complex, m: int, beta: float, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Normalized overlap of the states at z and w (row sum of the bracket).

    The brackets (z, w), (z, z) and (w, w) are evaluated in one call and
    divided in long double by sqrt(N_z) sqrt(N_w), so the quotient is rounded once and stays
    finite where N_z N_w overflows float64 or long double (|z| of about 75 and up).  The sums
    keep the factor Gamma(beta+1) of the rows, which cancels, so the overlap holds past
    beta = 170 too.  Their stopping test compares the terms with their own partial sums, which
    for distant states lie far below sqrt(N_z N_w).  The diagonal overlap is exactly 1 by
    construction.  Leaves through specfun._exit_check (NumericError).
    """
    _require_beta(beta)
    _require_finite("z", z)
    _require_finite("w", w)
    rows = _p_rows(m, beta, np.array([z, w], dtype=_CLD))  # one generator for both states
    (cross, nz, nw), _ = _row_sum((r[:, [0, 0, 1]] * np.conj(r[:, [1, 0, 1]]) for r in rows), m, ctl, "coherent bracket")
    with np.errstate(over="ignore", invalid="ignore"):  # the exit check raises there
        value = cross / (np.sqrt(nz.real) * np.sqrt(nw.real))
    return complex(_exit_check("overlap_closed", value, lambda i: f"m={m}, beta={beta}, z={z}, w={w}"))


def kernel_K(z: complex, w: complex, beta: float, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Reproducing kernel K_beta(z, w) = sum_n (z wbar)^n / Gamma(beta+n+1) = S(z wbar) / Gamma(beta+1).
    Leaves through specfun._exit_check: NumericError past _M0_TARGET = 1e-12 or the normal float64 range."""
    _require_beta(beta)
    _require_finite("z", z)
    _require_finite("w", w)
    return _m0_series(complex(z) * complex(w).conjugate(), beta, ctl, _gamma_ld(beta + 1.0))


def eta_density(z, m: int, beta: float, ctl: SeriesControl = DEFAULT_CONTROL):
    """Density of the resolution-of-identity measure against Lebesgue dnu / pi.

    eta(z) = N_{beta,m}(z zbar) (z zbar)^beta e^{-z zbar}, with N the bracket
    on the diagonal.  At m=0 this is exactly
    1F1(beta; beta+1; -z zbar) (z zbar)^beta / Gamma(beta+1).  ``z`` may be a
    scalar (float result) or an array (ndarray result of the same shape).
    Leaves through specfun._exit_check: NumericError where N or the product overflows
    float64, or where e^{-z zbar} falls below the normal float64 range and loses digits.
    """
    _require_beta(beta)
    _require_finite("z", z)
    z = np.asarray(z, dtype=complex)
    t = (z * z.conj()).real
    decay = np.exp(-t)
    decay = np.where(decay >= _TINY, decay, np.nan)  # below the normal range digits are lost
    with np.errstate(over="ignore", invalid="ignore"):  # the exit check raises there
        out = _exit_check("eta_density", _norm(z, m, beta, ctl) * t**beta * decay, lambda i: f"m={m}, beta={beta}")
    return out if out.ndim else float(out)
