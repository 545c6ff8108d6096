"""2D complex orthogonal polynomials H_{n,m}^(beta)(z, zbar).

Closed polar form, exact monomial expansions, the measure-normalized family
and the exact differential action of the generalized Landau operator

    D_beta = -d^2/(dz dzbar) + zbar d/dzbar - (beta/z) d/dzbar,

which has eigenvalue m on H_{n,m}^(beta) whenever n >= m.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError
from .measures import GammaMeasure, MomentMeasure, gen_factorial, ortho_poly_phi, zeta
from .specfun import SeriesControl, _laguerre_rows, gamma_fn, laguerre

__all__ = [
    "ModeIndex",
    "PolyExpansion",
    "h_poly",
    "h_poly_expand",
    "p_norm",
    "landau_apply",
]

_EPS_LD = float(np.finfo(np.longdouble).eps)
_LD_DIGITS = np.finfo(np.longdouble).nmant + 1


@dataclass(frozen=True)
class ModeIndex:
    """Index triple (n, m, beta) of a polynomial / coherent-state mode."""

    n: int
    m: int
    beta: float = 0.0

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("mode indices must be non-negative")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


@dataclass(frozen=True)
class PolyExpansion:
    """Finite monomial expansion sum c_{ab} z^a zbar^b of a 2D polynomial.

    Every exponent pair satisfies a - b = n - m for the generating mode, and
    the coefficients of H_{n,m}^(beta) are real (long double from
    h_poly_expand).  Instances are immutable after construction.
    """

    n: int
    m: int
    beta: float
    terms: tuple  # ((a, b), coefficient) pairs

    def coeffs(self) -> dict:
        return dict(self.terms)

    def evaluate(self, z):
        """Value at ``z``: a complex for a scalar, a complex ndarray for an array."""
        # extended-precision accumulation: the monomials overshoot the value
        # by the Laguerre cancellation factor at the larger |z|
        z = np.asarray(z, dtype=np.clongdouble)
        zc = np.conjugate(z)
        total = np.zeros_like(z)
        for (a, b), c in self.terms:
            total += c * z**a * zc**b
        total = total.astype(complex)
        return total if total.ndim else complex(total)


def h_poly(idx: ModeIndex, z):
    """H_{n,m}^(beta)(z, zbar) in the closed polar form.

        (-1)^(n^m) z^{n-m or 0} zbar^{m-n or 0} L_{n^m}^(|n-m|+beta)(z zbar)

    Satisfies h_poly(n, m, z) == conj(h_poly(m, n, z)); for z = 0 with n != m
    the value is the (vanishing) expansion limit.  ``z`` may be an ndarray.
    """
    n, m, beta = idx.n, idx.m, idx.beta
    z = np.asarray(z, dtype=complex)
    s = min(n, m)
    mono = z ** (n - s) * np.conjugate(z) ** (m - s)
    # long double: the float64 Laguerre recurrence is off by up to 1.4e-13 of
    # max(1, |L|); u = |z|^2 and alpha = |n-m| + beta are formed in it too
    x, y = z.real.astype(np.longdouble), z.imag.astype(np.longdouble)
    alpha = np.longdouble(abs(n - m)) + np.longdouble(beta)
    val = (-1.0) ** s * mono * laguerre(s, alpha, x * x + y * y).astype(float)
    return val if val.ndim else val[()]


def h_poly_expand(idx: ModeIndex) -> PolyExpansion:
    """Exact monomial expansion of H_{n,m}^(beta).

    For n >= m the coefficient of z^{n-k} zbar^{m-k} is
        (-1)^k binom(m, k) (beta+1+n-k)_k / m!,   k = 0..m,
    and n < m follows by the conjugation symmetry (swap exponent roles).
    A float beta is an exact rational, so each coefficient is formed exactly
    and rounded once, to long double.
    """
    n, m, beta = idx.n, idx.m, idx.beta
    big, small = max(n, m), min(n, m)
    shifted = Fraction(beta) + 1 + big
    terms = []
    for k in range(small + 1):
        poch = math.prod((shifted - k + i for i in range(k)), start=Fraction(1))
        coeff = (-1) ** k * math.comb(small, k) * poch / math.factorial(small)
        a, b = big - k, small - k
        if n < m:
            a, b = b, a
        terms.append(((a, b), _round_ld(coeff)))
    return PolyExpansion(n=n, m=m, beta=beta, terms=tuple(terms))


def _round_ld(q: Fraction) -> np.longdouble:
    """The rational q rounded once (to nearest, ties to even) to long double."""
    if not q:
        return np.longdouble(0)
    # |q| 2^shift lies in (2^(d-1), 2^(d+1)) for d mantissa digits; at d+1 digits shift one less
    shift = _LD_DIGITS - q.numerator.bit_length() + q.denominator.bit_length()
    mant = round(q * Fraction(2) ** shift)
    if abs(mant) >= 2**_LD_DIGITS:
        shift -= 1
        mant = round(q * Fraction(2) ** shift)
    return np.ldexp(np.longdouble(mant), -shift)


def p_norm(idx: ModeIndex, z, measure: MomentMeasure | None = None):
    """Orthonormal polynomial P~_{n,m}^beta(z, zbar) for the given measure.

    P~ = z-monomial * phi_{n^m}(z zbar; |n-m|+beta) / sqrt(zeta_0(m+beta) x_{n,m}!);
    the builtin measure reduces to h_poly / sqrt(Gamma(beta+m+1) x_{n,m}!)
    = h_poly sqrt(min(n,m)! / Gamma(beta+max(n,m)+1)), evaluated so, with the
    root taken from math.lgamma where Gamma(beta+max(n,m)+1) overflows float64.
    """
    if measure is None:
        measure = GammaMeasure(beta=idx.beta)
    if abs(measure.beta - idx.beta) > 1e-12:
        raise ValueError("measure.beta and ModeIndex.beta disagree")
    n, m, beta = idx.n, idx.m, idx.beta
    s = min(n, m)
    if measure.is_builtin:
        try:
            scale = math.sqrt(math.factorial(s) / gamma_fn(beta + max(n, m) + 1.0))
        except OverflowError:
            scale = math.exp(0.5 * (math.lgamma(s + 1.0) - math.lgamma(beta + max(n, m) + 1.0)))
        return h_poly(idx, z) * scale
    z = np.asarray(z, dtype=complex)
    mono = z ** (n - s) * np.conjugate(z) ** (m - s)
    phi = ortho_poly_phi(measure, s, abs(n - m) + beta, (z * np.conjugate(z)).real)
    norm = math.sqrt(zeta(measure, 0, m + beta) * gen_factorial(measure, n, m))
    val = mono * phi / norm
    return val if val.ndim else val[()]


def _p_rows(m: int, beta: float, w):
    """Endless generator of sqrt(Gamma(beta+1)) P~_{n,m}(w), n = 0, 1, ..., at a
    scalar or array w, in its precision (complex128 or clongdouble):

        n <  m:  (-1)^n wbar^{m-n} L_n^(m-n+beta)(|w|^2) sqrt(n! / Gamma(beta+m+1))
        n >= m:  (-1)^m sqrt(m!) w^{n-m} L_m^(n-m+beta)(|w|^2) / sqrt(Gamma(beta+n+1)),

    with no negative power of |w|.  The degree recurrence of specfun.laguerre
    starts every Laguerre factor; from row to row L_k^(alpha+1) = sum_{j<=k} L_j^(alpha).
    """
    w = np.asarray(w)
    real = w.real.dtype.type
    u = (w * np.conj(w)).real
    alpha = real(beta) + np.arange(m, -1, -1, dtype=real).reshape((m + 1,) + (1,) * u.ndim)
    table = list(itertools.islice(_laguerre_rows(alpha, u), m + 1))  # table[k][i] = L_k^(m-i+beta)(u)
    poch_m = np.prod(real(beta) + np.arange(1, m + 1, dtype=real))  # (beta+1)_m
    for n in range(m):
        yield (-1) ** n * np.sqrt(real(math.factorial(n)) / poch_m) * np.conj(w) ** (m - n) * table[n][n]
    lag = np.array([t[m] for t in table])  # L_k^(beta)(u), k = 0..m
    mono = (-1) ** m * np.sqrt(real(math.factorial(m)) / poch_m) * np.ones_like(w)
    for n in itertools.count(m):
        yield mono * lag[m]
        mono = mono * w * (1 / np.sqrt(real(beta) + n + 1))
        for k in range(1, m + 1):  # in place: np.cumsum over axis 0 is ~10x slower
            lag[k] += lag[k - 1]


def _row_sum(terms, m: int, ctl: SeriesControl, what: str):
    """Sum the long-double terms n = 0, 1, ... of a series over P~_{n,m} rows
    until, past n = m, two successive terms are at most max(ctl.rel_tol
    |partial sum|, eps_ld sum |term|) at every point; past ctl.max_terms it
    raises ConvergenceError naming ``what``.  Returns the sum and its absolute
    error estimate eps_ld sum |term| + the larger of the last two |term|
    (rounding and truncation).
    """
    total = absum = mag = 0
    small = 0
    for n, term in zip(range(ctl.max_terms + 1), terms):
        total = total + term
        mag, prev_mag = np.abs(term), mag
        absum = absum + mag
        small = small + 1 if n > m and np.all(mag <= np.maximum(ctl.rel_tol * np.abs(total), _EPS_LD * absum)) else 0
        if small == 2:
            return total, _EPS_LD * absum + np.maximum(mag, prev_mag)
    raise ConvergenceError(f"{what} not converged in {ctl.max_terms} terms")


def landau_apply(beta: float, expansion: PolyExpansion, z):
    """Exact action of the generalized Landau operator on a monomial expansion.

    On a monomial z^a zbar^b the operator gives
        b z^a zbar^b - b (a + beta) z^{a-1} zbar^{b-1},
    so the value is assembled term-wise in long double with no numerical
    differencing and summed by PolyExpansion.evaluate (the terms keep a - b);
    ``z`` may be a scalar or an array, as there.
    Requires z != 0 when a 1/z term survives (a = 0, b >= 1, beta != 0).
    """
    terms = []
    for (a, b), c in expansion.terms:
        if b == 0:
            continue
        terms.append(((a, b), c * b))
        factor = b * (a + np.longdouble(beta))
        if factor != 0.0:
            if a == 0 and np.any(np.asarray(z) == 0):
                raise ZeroDivisionError("landau_apply at z=0 with a surviving 1/z term")
            terms.append(((a - 1, b - 1), -c * factor))
    return replace(expansion, terms=tuple(terms)).evaluate(z)
