"""Scalar special functions used throughout the toolkit.

Gamma/Pochhammer plumbing, Laguerre polynomials for every real parameter
and SeriesControl, the budget every infinite sum of the toolkit runs under:
hitting ``max_terms`` raises ConvergenceError rather than silently
truncating.  pFq, the Hermite recurrences, Mittag-Leffler and the Lauricella
series that the checks compare against live in oracles.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError

__all__ = [
    "SeriesControl",
    "DEFAULT_CONTROL",
    "gamma_fn",
    "rgamma",
    "pochhammer",
    "laguerre",
]


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for infinite summations.

    rel_tol bounds the acceptable tail relative to the partial sum, max_terms
    is the budget per summation index.
    """

    rel_tol: float = 1e-13
    max_terms: int = 500

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be > 0")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_CONTROL = SeriesControl()


def _require_beta(beta: float) -> None:
    """The one domain check of the measure parameter: beta >= 0 and finite."""
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError("beta must be non-negative")


def _require_finite(name: str, value) -> None:
    """The one check of a point argument: every value finite, else ValueError naming it.
    cmath on a scalar, so a single evaluation pays no array call."""
    if not (cmath.isfinite(value) if np.isscalar(value) else np.isfinite(value).all()):
        raise ValueError(f"{name} must be finite")


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
    alpha.  The real scalar ``alpha`` is cast to the real dtype of ``t`` (an ndarray or numpy scalar)."""
    alpha = t.real.dtype.type(alpha)
    prev, cur = 0, np.ones_like(t)[()]  # [()]: numpy scalars compute ~7x faster than 0-d arrays
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
