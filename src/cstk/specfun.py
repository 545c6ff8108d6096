"""Scalar special functions used throughout the toolkit.

Everything here is elementary-series based: Gamma/Pochhammer plumbing,
Laguerre polynomials for every real parameter and pFq up to 2F2.  The
Hermite recurrences, Mittag-Leffler and the Lauricella series that the
checks compare against live in oracles.

Every infinite sum runs under a SeriesControl budget; hitting ``max_terms``
raises ConvergenceError rather than silently truncating.  hyp_pfq carries
its terms and sums in long double, as do the P~-row sums of poly2d and the
Kummer series of transforms.omega_weight.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PoleError

__all__ = [
    "SeriesControl",
    "DEFAULT_CONTROL",
    "gamma_fn",
    "rgamma",
    "pochhammer",
    "laguerre",
    "hyp_pfq",
]

_TINY = 1e-300


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for infinite summations.

    rel_tol / abs_tol bound the acceptable tail estimate, max_terms is the
    budget per summation index.
    """

    rel_tol: float = 1e-13
    abs_tol: float = 0.0
    max_terms: int = 500

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be > 0")
        if self.abs_tol < 0.0:
            raise ValueError("abs_tol must be >= 0")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_CONTROL = SeriesControl()


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and float(x) == math.floor(x)


def gamma_fn(x: float) -> float:
    """Gamma function on the reals, poles excluded.

    Negative non-integer arguments go through the reflection formula inside
    math.gamma; non-positive integers raise PoleError.
    """
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma_fn pole at x={x}")
    return math.gamma(x)


def rgamma(x: float) -> float:
    """Reciprocal Gamma, entire: returns 0 at the poles of Gamma."""
    if _is_nonpositive_integer(x):
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:
        return 0.0
    return 1.0 / g


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1.

    Evaluated as an exact float product; no Gamma ratios, so non-positive
    ``a`` is fine (the result is then an exact zero once a factor vanishes).
    """
    if k < 0:
        raise ValueError("pochhammer order must be non-negative")
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


def _laguerre_rows(alpha, t):
    """Endless generator of L_k^(alpha)(t), k = 0, 1, ..., by the forward recurrence
    (k+1) L_{k+1} = (2k+1+alpha-t) L_k - (k+alpha) L_{k-1}, valid for every real
    alpha.  ``alpha`` is cast to the dtype of ``t`` (an ndarray or numpy scalar) and broadcasts against it."""
    alpha = np.asarray(alpha, dtype=t.real.dtype)[()]  # [()]: numpy scalars compute ~7x faster than 0-d arrays
    prev, cur = 0, np.ones_like(alpha * t)[()]
    for k in itertools.count():
        yield cur
        prev, cur = cur, ((2 * k + 1 + alpha - t) * cur - (k + alpha) * prev) / (k + 1)


def laguerre(n: int, alpha: float, t):
    """Generalized Laguerre polynomial L_n^(alpha)(t) for arbitrary real alpha,
    by the forward recurrence in the precision of ``t`` (a scalar or ndarray).
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    t = np.asarray(t)
    if t.dtype.kind not in "fc":
        t = t.astype(float)
    return next(itertools.islice(_laguerre_rows(alpha, t[()]), n, None))


def hyp_pfq(numer, denom, t, ctl: SeriesControl = DEFAULT_CONTROL):
    """Generalized hypergeometric pFq for p, q <= 2 (covers 1F1 and 2F2).

    Long-double summation of sum_k prod(a_i)_k / prod(b_i)_k * t^k / k!.
    ``t`` and each parameter may be a scalar or an ndarray; they broadcast
    against each other, so one call sums a whole grid of parameter sets as a
    single series that runs until every element meets the tail test a scalar
    call would apply to it.  Elements that meet it early keep adding terms, so
    an element's value can differ from its scalar call below that tail test.
    No denominator entry may be a non-positive integer.  The result is
    complex, or complex long double when ``t`` is long double.
    """
    if len(numer) > 2 or len(denom) > 2:
        raise ValueError("hyp_pfq supports at most 2 numerator and 2 denominator parameters")
    for b in map(np.asarray, denom):
        poles = (b <= 0.0) & (b == np.floor(b))
        if np.any(poles):
            raise PoleError(f"hyp_pfq denominator parameter {b[poles].flat[0]} is a non-positive integer")
    # each parameter is cast once: a float64 (a + k) or 1/(k + 1) would round every term ratio
    numer = [np.asarray(a, dtype=np.clongdouble if np.iscomplexobj(a) else np.longdouble) for a in numer]
    denom = [np.asarray(b, dtype=np.clongdouble if np.iscomplexobj(b) else np.longdouble) for b in denom]
    # extended-precision accumulation: alternating arguments (Kummer-type
    # identities at t ~ -10) cancel through partial sums ~e^{|t|} above the
    # limit, which 64-bit terms cannot certify at 1e-11
    t_in = np.asarray(t)
    tq = np.asarray(t_in, dtype=np.clongdouble)
    total = np.zeros_like(tq)
    term = np.ones_like(tq)
    floor = max(ctl.abs_tol, _TINY)
    prev_mag = math.inf
    for k in range(ctl.max_terms + 1):
        total = total + term
        term_mag = np.abs(term).astype(float)
        # the tail test of a scalar call, element by element
        bound = np.maximum(ctl.rel_tol * np.abs(total).astype(float), floor)
        if k >= 2 and np.all((term_mag <= bound) & (prev_mag <= bound)):
            break
        prev_mag = term_mag
        ratio = 1 / np.longdouble(k + 1)
        for a in numer:
            ratio = ratio * (a + k)
        for b in denom:
            ratio = ratio / (b + k)
        term = term * ratio * tq
    else:
        raise ConvergenceError(f"hyp_pfq not converged in {ctl.max_terms} terms")
    out = total.astype(np.result_type(t_in, complex))
    return out if out.ndim else out[()]

