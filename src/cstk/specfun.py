"""Scalar special functions used throughout the toolkit.

Everything here is elementary-series based: Gamma/Pochhammer plumbing,
Laguerre and (associated) Hermite polynomials, the parabolic cylinder
function D_nu, pFq up to 2F2, the two-parameter Mittag-Leffler function and
the specialized three-variable Lauricella series

    F(u, v, w; c, b) = sum_{n,k,j} (1)_{n+2k+j} (b)_j / (c)_{n+2k+2j}
                       * u^n/n! * v^k/k! * w^j/j!.

Every infinite sum runs under a SeriesControl budget; hitting ``max_terms``
raises ConvergenceError rather than silently truncating.  mittag_leffler and
lauricella_triple accumulate with compensated (Kahan) summation; hyp_pfq and
pcf_D carry their terms and sums in long double, as do the P~-row sums of
poly2d and the Kummer series of transforms.omega_weight.
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
    "hermite",
    "assoc_hermite",
    "pcf_D",
    "hyp_pfq",
    "mittag_leffler",
    "lauricella_triple",
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


def _rgamma_ld(x: float) -> np.longdouble:
    """Reciprocal Gamma in extended range (1/Gamma underflows float64 at x > 171)."""
    if _is_nonpositive_integer(x):
        return np.longdouble(0.0)
    if x > 150.0:
        return np.exp(-np.longdouble(math.lgamma(x)))
    return np.longdouble(1.0) / np.longdouble(math.gamma(x))


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


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x) via the three-term recurrence."""
    return assoc_hermite(n, x, 0.0)


def assoc_hermite(n: int, x, beta: float):
    """Associated Hermite polynomial H_n(x, beta).

    Forward recurrence H_{k+1} = 2x H_k - 2(k+beta) H_{k-1} with H_{-1}=0,
    H_0=1; beta=0 recovers the physicists' Hermite polynomials.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    x = np.asarray(x)
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    h_prev = np.zeros_like(x)
    h = np.ones_like(x)
    for k in range(n):
        h, h_prev = 2.0 * x * h - 2.0 * (k + beta) * h_prev, h
    return h if h.ndim else h[()]


def _tail_done(term_mag: float, prev_mag: float, total_mag: float, ctl: SeriesControl) -> bool:
    bound = max(ctl.rel_tol * total_mag, ctl.abs_tol, _TINY)
    return term_mag <= bound and prev_mag <= bound


def pcf_D(nu: float, z, ctl: SeriesControl = DEFAULT_CONTROL):
    """Parabolic cylinder function D_nu(z), entire in z.

    Summed in the Pochhammer form
        D_nu(z) = e^{-z^2/4} 2^{nu/2} sqrt(pi)
                  sum_k (-1)^k (-nu)_k / (k! Gamma((k-nu+1)/2)) (z/sqrt2)^k
    which is regular for every real nu (the Gamma(-nu) prefactor of the
    classical series form cancels against Gamma(k-nu)).  ``z`` may be a complex
    scalar or ndarray.

    At imaginary argument the O(1) terms cancel down to an e^{-|z|^2/4}-sized
    sum, so accumulation runs in extended precision (transforms.omega_weight
    sums a cancellation-free Kummer form of |D_{-beta}(ix sqrt2)|^2 instead).
    """
    z = np.asarray(z, dtype=complex)
    zq = np.asarray(z, dtype=np.clongdouble)
    zs = zq / np.longdouble(math.sqrt(2.0))
    total = np.zeros_like(zq)
    p = np.ones_like(zq)  # (-1)^k (-nu)_k (z/sqrt2)^k / k!
    # 1/Gamma(a), a = (k-nu+1)/2, by 1/Gamma(a+1) = (1/Gamma(a))/a from one seed per parity of k
    # (at imaginary z the real and the imaginary part, which cancel separately); re-seeded where a <= 0
    nu_ld = np.longdouble(nu)
    rg = [_rgamma_ld((1.0 - nu) / 2.0), _rgamma_ld((2.0 - nu) / 2.0)]
    prev_mag = math.inf
    for k in range(ctl.max_terms + 1):
        a = (k - nu_ld + 1) / 2
        term = p * rg[k % 2]
        total = total + term
        term_mag = float(np.max(np.abs(term)))
        total_mag = float(np.max(np.abs(total)))
        if k >= 2 and _tail_done(term_mag, prev_mag, total_mag, ctl):
            break
        prev_mag = term_mag
        rg[k % 2] = rg[k % 2] / a if a > 0 else _rgamma_ld(float(a + 1))
        p = p * (-(k - nu_ld) / (k + 1)) * zs
    else:
        raise ConvergenceError(f"pcf_D series not converged in {ctl.max_terms} terms")
    front = np.exp(-zq * zq / 4.0) * np.clongdouble(2.0 ** (nu / 2.0) * math.sqrt(math.pi))
    out = (front * total).astype(complex)
    return out if out.ndim else out[()]


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


def mittag_leffler(alpha: float, gamma_par: float, t: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,gamma}(t) = sum t^n / Gamma(alpha n + gamma)."""
    if alpha <= 0 or gamma_par <= 0:
        raise ValueError("mittag_leffler requires alpha > 0 and gamma > 0")
    total = 0.0
    comp = 0.0
    prev_mag = math.inf
    tn = 1.0
    for n in range(ctl.max_terms + 1):
        term = tn * rgamma(alpha * n + gamma_par)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if n >= 2 and _tail_done(abs(term), prev_mag, abs(total), ctl):
            return total
        prev_mag = abs(term)
        tn *= t
    raise ConvergenceError(f"mittag_leffler not converged in {ctl.max_terms} terms")


def lauricella_triple(
    c: float,
    beta: float,
    u: complex,
    v: complex,
    w: complex,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> complex:
    """Specialized generalized Lauricella series in three variables.

        sum_{n,k,j >= 0} (1)_{n+2k+j} (beta)_j / (c)_{n+2k+2j}
                         * u^n/n! * v^k/k! * w^j/j!

    The sum is enumerated by total weight d = n + 2k + 2j, which tracks the
    (c)_{n+2k+2j} denominator growth and yields a sound shell tail test: stop
    once the last two weight shells together contribute less than rel_tol of
    the accumulated magnitude.  Terms are carried by exact neighbour ratios,
    so no large Gamma values are formed.
    """
    if _is_nonpositive_integer(c):
        raise PoleError(f"lauricella_triple pole: c={c} is a non-positive integer")
    u = complex(u)
    v = complex(v)
    w = complex(w)
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    first: dict[tuple[int, int], complex] = {}
    cur: dict[tuple[int, int], complex] = {}
    prev_shell = math.inf
    for d in range(ctl.max_terms + 1):
        shell_mag = 0.0
        for j in range(d // 2 + 1):
            rem = d - 2 * j
            for k in range(rem // 2 + 1):
                n = rem - 2 * k
                if n == 0:
                    if k == 0 and j == 0:
                        term = 1.0 + 0.0j
                    elif k > 0:
                        s0 = 2 * k + j
                        dd = 2 * k + 2 * j
                        term = first[(k - 1, j)] * ((s0 - 1) * s0 * v) / ((c + dd - 2) * (c + dd - 1) * k)
                    else:
                        dd = 2 * j
                        term = first[(0, j - 1)] * ((beta + j - 1) * w) / ((c + dd - 2) * (c + dd - 1))
                    first[(k, j)] = term
                else:
                    s0 = n + 2 * k + j
                    dd = n + 2 * k + 2 * j
                    term = cur[(k, j)] * (s0 * u) / (n * (c + dd - 1))
                cur[(k, j)] = term
                shell_mag += abs(term)
                y = term - comp
                t = total + y
                comp = (t - total) - y
                total = t
        if d >= 2 and shell_mag + prev_shell <= max(ctl.rel_tol * abs(total), ctl.abs_tol, _TINY):
            return total
        prev_shell = shell_mag
    raise ConvergenceError(f"lauricella_triple not converged within weight {ctl.max_terms}")
