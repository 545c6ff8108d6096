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
from .specfun import _CLD, _EPS_LD, _LD, _LD_DIGITS, SeriesControl, _exit_check, _laguerre_rows, _require_beta, gamma_fn

__all__ = [
    "ModeIndex",
    "PolyExpansion",
    "h_poly",
    "h_poly_expand",
    "p_norm",
    "landau_apply",
]


@dataclass(frozen=True)
class ModeIndex:
    """Index triple (n, m, beta) of a polynomial / coherent-state mode."""

    n: int
    m: int
    beta: float = 0.0

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("mode indices must be non-negative")
        _require_beta(self.beta)


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
        z = np.asarray(z, dtype=_CLD)
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
    Row min(n, m) of _h_rows(|n-m|, beta, z).
    Leaves through specfun._exit_check: NumericError where the value is not finite in float64.
    """
    n, m = idx.n, idx.m
    row = next(itertools.islice(_h_rows(abs(n - m), idx.beta, z), min(n, m), None))
    return row(n >= m)


def _h_rows(d: int, beta: float, z):
    """Generator of the closed form of h_poly at |n-m| = d, all from one Laguerre pass: for
    s = 0, 1, ... a function of the side that forms H_{s+d,s} (True) or H_{s,s+d} (False) at z
    when called, and passes it through specfun._exit_check under its own ModeIndex.  Each side's
    powers of z and zbar are made once per generator; a row not called forms nothing.
    """
    z = np.asarray(z, dtype=complex)
    # long double: the float64 Laguerre recurrence is off by up to 1.4e-13 of
    # max(1, |L|); u = |z|^2 and alpha = |n-m| + beta are formed in it too
    x, y = z.real.astype(_LD), z.imag.astype(_LD)
    alpha = _LD(d) + _LD(beta)
    powers = {}  # side: (z^{n-s}, zbar^{m-s}), made at its first call
    for s, lag in enumerate(_laguerre_rows(alpha, (x * x + y * y)[()])):

        def row(upper, s=s, lag=lag):
            n, m = (s + d, s) if upper else (s, s + d)
            with np.errstate(over="ignore", invalid="ignore"):  # the exit check raises there
                if upper not in powers:
                    powers[upper] = z ** (n - s), np.conjugate(z) ** (m - s)
                zn, zm = powers[upper]
                val = (-1.0) ** s * zn * zm * lag.astype(float)
            return _exit_check("h_poly", val, lambda i: ModeIndex(n, m, beta))

        yield row


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


def _round_ld(q: Fraction) -> _LD:
    """The rational q rounded once (to nearest, ties to even) to long double."""
    if not q:
        return _LD(0)
    # |q| 2^shift lies in (2^(d-1), 2^(d+1)) for d mantissa digits; at d+1 digits shift one less
    shift = _LD_DIGITS - q.numerator.bit_length() + q.denominator.bit_length()
    mant = round(q * Fraction(2) ** shift)
    if abs(mant) >= 2**_LD_DIGITS:
        shift -= 1
        mant = round(q * Fraction(2) ** shift)
    return np.ldexp(_LD(mant), -shift)


def p_norm(idx: ModeIndex, z, measure: MomentMeasure | None = None):
    """Orthonormal polynomial P~_{n,m}^beta(z, zbar) for the given measure.

    P~ = z-monomial * phi_{n^m}(z zbar; |n-m|+beta) / sqrt(zeta_0(m+beta) x_{n,m}!);
    the builtin measure reduces to h_poly / sqrt(Gamma(beta+m+1) x_{n,m}!)
    = h_poly sqrt(min(n,m)! / Gamma(beta+max(n,m)+1)), evaluated so, with the
    root taken from math.lgamma where Gamma(beta+max(n,m)+1) overflows float64.
    Leaves through specfun._exit_check: NumericError where the value is not finite in float64.
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
    phi = ortho_poly_phi(measure, s, abs(n - m) + beta, (z * np.conjugate(z)).real)
    norm = math.sqrt(zeta(measure, 0, m + beta) * gen_factorial(measure, n, m))
    with np.errstate(over="ignore", invalid="ignore"):  # the exit check raises there
        val = z ** (n - s) * np.conjugate(z) ** (m - s) * phi / norm
    return _exit_check("p_norm", val, lambda i: idx)


_FEW_POINTS = 64  # point count up to which 64-row blocks were measured faster than 1-row blocks
_BLOCK = 64  # rows per numpy call there: of 32, 64 and 128 the fastest on one- and two-point sums


def _block_len(points: int) -> int:
    """Rows per block for rows at ``points`` points: _BLOCK = 64 up to _FEW_POINTS = 64
    points, where a block costs mostly its numpy calls (about 2m + 25) whatever its
    length, else 1, where numpy's accumulate along a short axis costs more than the
    rows it saves (13x for 8 rows at 10 000 points).  At 64 points the squared norm
    at the 64 radii of a 64 x 256 polar rule takes 17 ms in 64-row blocks against
    31 ms in 1-row blocks, and ~50-row sums at |z| <= 3 are about even."""
    return _BLOCK if points <= _FEW_POINTS else 1


def _p_rows(m: int, beta: float, w, block: int | None = None):
    """Endless generator of sqrt(Gamma(beta+1)) P~_{n,m}(w), n = 0, 1, ..., at a
    scalar or array w, in its dtype (complex128, clongdouble, or a real dtype
    at radii w >= 0, where the rows are real):

        n <  m:  (-1)^n wbar^{m-n} L_n^(m-n+beta)(|w|^2) sqrt(n! / Gamma(beta+m+1))
        n >= m:  (-1)^m sqrt(m!) w^{n-m} L_m^(n-m+beta)(|w|^2) / sqrt(Gamma(beta+n+1)),

    with no negative power of |w|.  Two O(m) recurrences start the rows: the
    head diagonal D_n = L_n^(m-n+beta) (_head_laguerre) and the column
    L_k^(beta), k = 0..m, of specfun.laguerre's degree recurrence, from which
    row to row L_k^(alpha+1) = sum_{j<=k} L_j^(alpha).  Yields blocks of
    ``block`` consecutive rows, shape (block,) + w.shape (default
    _block_len(w.size): 64 rows at up to 64 points, else 1): one row steps the
    factors in place, a longer block takes the same products and sums in the
    same order (_tail_rows).  The head rows are freed before the tail's factors
    are made, the last head block yielded as a copy.  At one
    point the start's real steps run on numpy scalars, so one point gets the
    rows it gets inside any array, bit for bit.
    """
    w = np.asarray(w)
    size = _block_len(w.size) if block is None else block
    real = w.real.dtype.type
    u = (w * np.conj(w)).real.reshape(-1)
    if w.size == 1:
        u = u[0]  # a numpy scalar: the real steps of the start cost ~7x less and round alike
    poch_m = np.prod(real(beta) + np.arange(1, m + 1, dtype=real))  # (beta+1)_m
    head, whole = _head_rows(m, beta, w, u, poch_m), m - m % size
    for n in range(0, whole, size):  # the last block a copy: a row the consumer holds does not keep the head
        yield head[n : n + size] if n + size < whole else head[n : n + size].copy()
    rest = head[whole:].copy()
    del head  # freed before the tail's factors are made
    # the factors of row m, made once the head is taken: a short sum may not need them
    mono = (-1) ** m * np.sqrt(real(math.factorial(m)) / poch_m) * np.ones_like(w)
    lag = np.empty((m + 1,) + np.shape(u), u.dtype)  # L_k^(beta), filled in place: no list of rows to stack
    for k, row in zip(range(m + 1), _laguerre_rows(beta, u)):
        lag[k] = row
    del row  # copied to lag[m]: not held twice
    lag = lag.reshape((m + 1,) + w.shape)
    if size == 1:  # endless
        for n in itertools.count(m):
            yield (mono * lag[m])[np.newaxis]
            mono = mono * w * (1 / np.sqrt(real(beta) + n + 1))
            for k in range(1, m + 1):  # in place: np.cumsum along a short axis is ~13x slower at 10 000 points
                lag[k] += lag[k - 1]
    n = m + (-m) % size  # the first row of a block that holds no head row
    if n > m:
        rows, mono, lag = _tail_rows(m, beta, w, m, n - m, mono, lag)
        yield np.concatenate((rest, rows))
    for n in itertools.count(n, size):
        rows, mono, lag = _tail_rows(m, beta, w, n, size, mono, lag)
        yield rows


def _head_rows(m: int, beta: float, w, u, poch_m):
    """Rows n < m of _p_rows, (-1)^n sqrt(n! / poch_m) wbar^{m-n} D_n, in one (m,) + w.shape array, built in
    place: wbar^{m-n} as a running product up from row m-1 = wbar, then the scale and D_n(u) of _head_laguerre.
    The rows of head.reshape(m, w.size) are arrays at a scalar w too: numpy's complex scalar multiply rounds apart."""
    head = np.empty((m,) + w.shape, w.dtype)
    rows, real = head.reshape(m, w.size), w.real.dtype.type
    rows[m - 1 :] = np.conj(w).reshape(-1)  # no row at m = 0
    for n in range(m - 2, -1, -1):
        np.multiply(rows[n + 1], rows[-1], out=rows[n])
    for n, lag in zip(range(m), _head_laguerre(m, beta, u)):
        rows[n] *= (-1) ** n * np.sqrt(real(math.factorial(n)) / poch_m) * lag
    return head


def _head_laguerre(m: int, beta: float, u):
    """Generator of the head diagonal D_n = L_n^(m-n+beta)(u), n = 0, 1, ..., in the
    dtype of u: D_0 = 1 and (n+1) D_{n+1} = (m-n+beta-u) D_n - u D_{n-1}, from
    DLMF 18.9.13-14.  Against 50-digit mpmath for m <= 8, beta in {0, 0.5, 2.3}
    and u <= 400 it is within 2.5 eps of sum_j |term_j| in the explicit sum
    sum_j binom(n+a, n-j) (-u)^j / j!, a = m-n+beta.  Of max(1, |D_n|) that is up
    to 8.4e-14 in float64 and 8.4e-17 in long double next to a root (u = 20.75,
    m = 8, beta = 2.3), where the terms exceed |D_n| some 1e5 times."""
    real = u.real.dtype.type
    prev, cur = 0, np.ones_like(u)[()]
    for n in itertools.count():
        yield cur
        prev, cur = cur, ((real(beta) + (m - n) - u) * cur - u * prev) / (n + 1)


def _tail_rows(m: int, beta: float, w, n: int, count: int, mono, lag):
    """Rows n .. n+count-1 >= m of _p_rows, mono * L_m^(n-m+beta)(|w|^2), from the
    monomial factor ``mono`` and the Laguerre factors ``lag`` (k = 0..m) of row n;
    returns them with the mono and lag of row n+count.  The products and sums
    of the one-row step, in its order, from np.cumprod and np.cumsum along n
    (in complex128 numpy's accumulate loop may round a product 1 ulp apart
    from its vector loop; long double rounds alike in both)."""
    real = w.real.dtype.type
    steps = np.empty((2 * count + 1,) + w.shape, w.dtype)  # mono, then (mono w) / sqrt(beta+n+1) per row
    steps[0], steps[1::2] = mono, w
    steps[2::2] = (1 / np.sqrt(real(beta) + np.arange(n, n + count) + 1)).reshape((count,) + (1,) * w.ndim)
    monos = np.cumprod(steps, axis=0)
    lags = np.empty((m + 1, count + 1) + w.shape, lag.dtype)  # lags[k, j] = L_k^(n-m+j+beta)
    lags[:, 0], lags[0, 1:] = lag, lag[0]
    for k in range(1, m + 1):  # lag[k] += lag[k-1], row after row
        lags[k, 1:] = lags[k - 1, 1:]
        np.cumsum(lags[k], axis=0, out=lags[k])
    return monos[: 2 * count : 2] * lags[m, :count], monos[-1], lags[:, count]


@np.errstate(over="ignore", invalid="ignore")  # the caller's exit check raises there
def _row_sum(blocks, m: int, ctl: SeriesControl, what: str):
    """Sum the long-double terms n = 0, 1, ... of a series over P~_{n,m} rows,
    given in blocks of consecutive terms (shape (rows,) + point shape), until,
    past n = m, two successive terms are at most max(ctl.rel_tol |partial sum|,
    eps_ld sum |term|) at every point; past ctl.max_terms it raises
    ConvergenceError naming ``what``.  Returns the sum and its absolute error
    estimate eps_ld sum |term| + the larger of the last two |term| (rounding
    and truncation).  The partial sums of a block come from np.cumsum, which
    adds in the order of a term-by-term loop, so the block length changes no value.
    After the first block that ends with sum |term| not finite at some point it
    returns at once: nan there, with the estimate eps_ld sum |term|, so the
    caller's exit check raises NumericError instead of the budget running out.
    """
    n, small = 0, False
    total = absum = None
    for block in blocks:
        mags = np.abs(block)
        if total is None:
            total, absum = np.zeros_like(block[:1]), np.zeros_like(mags[:1])
        sums, absums = _running(total, block), _running(absum, mags)
        tests = mags <= np.maximum(ctl.rel_tol * np.abs(sums), _EPS_LD * absums)
        for j, passed in enumerate(tests.reshape(len(block), -1).all(axis=1).tolist()):
            if n > ctl.max_terms:
                raise ConvergenceError(f"{what} not converged in {ctl.max_terms} terms")
            passed = passed and n > m
            if passed and small:
                return sums[j], _EPS_LD * absums[j] + np.maximum(mags[j], mag)
            small, mag, n = passed, mags[j], n + 1
        total, absum = sums[-1:], absums[-1:]
        finite = np.isfinite(absum[0])
        if not finite.all():  # the terms left long double
            return np.where(finite, total[0], np.nan), _EPS_LD * absum[0]
    raise ConvergenceError(f"{what} not converged in {ctl.max_terms} terms")


def _running(start, block):
    """The partial sums start[0] + block[0], (start[0] + block[0]) + block[1], ...:
    the additions of a term-by-term loop, in its order."""
    if len(block) == 1:
        return start + block
    return np.cumsum(np.concatenate((start, block)), axis=0)[1:]


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
        factor = b * (a + _LD(beta))
        if factor != 0.0:
            if a == 0 and np.any(np.asarray(z) == 0):
                raise ZeroDivisionError("landau_apply at z=0 with a surviving 1/z term")
            terms.append(((a - 1, b - 1), -c * factor))
    return replace(expansion, terms=tuple(terms)).evaluate(z)
