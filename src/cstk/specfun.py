"""Scalar special functions used throughout the toolkit.

Gamma/Pochhammer plumbing, Laguerre polynomials for every real parameter, Kummer's
series 1F1 and SeriesControl, the budget every infinite sum of the toolkit runs
under: hitting ``max_terms`` raises ConvergenceError rather than silently
truncating.  pFq, the Hermite recurrences, Mittag-Leffler and the Lauricella
series that the checks compare against live in oracles.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericError, PoleError

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

    rel_tol bounds the acceptable tail relative to the partial sum, max_terms is the budget per index;
    the m=0 Kummer series stop on a proven tail bound and budget only growing terms (default: |t| < 513).
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


def _exit_check(what: str, value, at, est=None, target: float = math.inf, size=1.0):
    """The one exit of an evaluator: ``value`` rounded to float64 (complex128 if complex), shape kept, 0-d as a
    numpy scalar.  NumericError where an element is not finite, or its error estimate ``est`` is not below
    ``target * size`` (est / size is the relative estimate, compared undivided: est = size = 0 raises), naming
    ``what`` and ``at(i)`` for the first such element, flat index i; the message is formatted only then."""
    out = np.asarray(value)
    dtype = complex if out.dtype.kind == "c" else float
    if out.dtype != dtype:
        with np.errstate(over="ignore", invalid="ignore"):  # a long double past float64 rounds to inf, checked here
            out = out.astype(dtype)
    ok = np.isfinite(out) if est is None else np.isfinite(out) & (est < target * size)
    if ok.all() if ok.ndim else ok:  # the .all() of a numpy bool costs more than the rest of a passing check
        return out if out.ndim else out[()]
    i = int(np.argmin(ok))
    est, size = (np.broadcast_to(v, np.shape(ok)).flat[i] for v in (0.0 if est is None else est, size))
    if est < target * size:
        raise NumericError(f"{what} leaves the float64 range at {at(i)}")
    rel = float(est / size) if size else math.inf
    raise NumericError(f"{what} misses {target:g} at {at(i)}: error estimate {rel:.2g}")


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


def _gamma_ld(x: float) -> np.longdouble:
    """Gamma(x), x > 0, in long double: gamma_fn's float64 value where that is finite (its bits), past
    it gamma_fn(x - k), x - k <= 170, times the long-double product (x-k)(x-k+1)...(x-1), which adds
    k roundings of eps_ld to gamma_fn's error.  inf past x of about 1755.5, with no warning: the callers'
    exit checks raise there."""
    try:
        return np.longdouble(gamma_fn(x))
    except OverflowError:
        if x > 1756.0:  # past the long-double range: inf without a product of x - 170 factors
            return np.longdouble(np.inf)
        k = math.ceil(x - 170.0)
        with np.errstate(over="ignore"):
            return np.longdouble(gamma_fn(x - k)) * np.prod(np.longdouble(x - k) + np.arange(k, dtype=np.longdouble))


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


_KUMMER_BLOCK = 32  # series terms per cumprod step
_KUMMER_RESCALE = 256  # binary exponent above which the sums are divided by a power of two


@functools.lru_cache(maxsize=256)
def _kummer_factors(pairs: tuple, real, k0: int):
    """The factors (a+k) / ((b+k)(k+1)), k = k0 .. k0+31, of the term ratios of each pair (a, b),
    shape (len(pairs), 1, 32), and whether k0 + 32 >= -a, shape (len(pairs), 1)."""
    a, b = (np.array(v, real)[:, None, None] for v in zip(*pairs))
    k = np.arange(_KUMMER_BLOCK, dtype=real)
    factors, settled = (a + k0 + k) / ((b + k0 + k) * (k0 + k + 1)), k0 + _KUMMER_BLOCK >= -a[:, 0]
    factors.flags.writeable = settled.flags.writeable = False  # one copy for every call with these pairs
    return factors, settled


def _kummer_series(pairs, y, max_terms: int | None = None):
    """Kummer's M(a, b, y) = sum_k (a)_k y^k / ((b)_k k!) for each (a, b) of the tuple pairs, 0 <= a+k <= b+k
    past k = -a, at the points of a 1-D array y (real, or complex with Re y >= 0) in its precision: the
    (len(pairs), len(y)) sums and sums of |term|, both divided by 2^e (exact; e > 0 once a |term| reaches
    2^256), and the exponents e.  One cumprod of the ratios (a+k) y / ((b+k)(k+1)) per block; past k = -a
    they are below q = |y|/(k+1) in modulus, so a point stops once |last term| q/(1-q) <= eps sum|term| in
    every series.  A block starting at k > max_terms raises ConvergenceError where |y| >= k + 1 (terms grow)."""
    real, count, size = y.real.dtype.type, len(pairs), len(y)
    sums, absums, expo = np.empty((count, size), y.dtype), np.empty((count, size), real), np.zeros(size, int)
    live, y_live, ay, e, one = np.arange(size), y, np.abs(y), np.zeros(size, int), real(1)
    total = absum = last = one  # the term k = 0; arrays of shape (len(pairs), len(y)) after a block
    for k0 in itertools.count(0, _KUMMER_BLOCK):
        if not live.size:
            return sums, absums, expo
        if max_terms is not None and k0 > max_terms and (ay >= k0 + 1).any():
            raise ConvergenceError(f"the Kummer series not converged in {max_terms} terms at |y|={float(ay.max()):g}")
        factors, settled = _kummer_factors(pairs, real, k0)  # ufunc methods below: the calls are the cost
        terms = np.multiply.accumulate(factors * y_live[:, None], axis=-1) * last[..., None]
        mags = np.abs(terms)
        total, absum = total + np.add.reduce(terms, -1), absum + np.add.reduce(mags, -1)
        last, mags = terms[..., -1], mags[..., -1]
        if np.maximum.reduce(mags, None) >= 2.0**_KUMMER_RESCALE:
            shift = np.frexp(np.maximum.reduce(mags, 0))[1]
            shift[shift <= _KUMMER_RESCALE] = 0
            scale = np.ldexp(one, -shift)
            total, absum, last, mags, e = total * scale, absum * scale, last * scale, mags * scale, e + shift
        q = np.minimum(ay / real(k0 + _KUMMER_BLOCK + 1), one)  # at q = 1 only a zero term passes
        tail_ok = mags * q <= np.finfo(real).eps * absum * (one - q)
        done = np.logical_and.reduce(tail_ok & settled, 0)
        if live.size == size and np.logical_and.reduce(done, None):  # every point at once
            return total, absum, e
        if done.any():
            sums[:, live[done]], absums[:, live[done]], expo[live[done]] = total[:, done], absum[:, done], e[done]
            live, y_live, ay, e, total, absum, last = (v[..., ~done] for v in (live, y_live, ay, e, total, absum, last))
