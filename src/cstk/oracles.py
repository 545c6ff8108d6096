"""Independent references: the second routes that the checks and tests hold
the evaluators to (README, "Oracles", names the users of each).  No evaluator
module calls them.  mpmath is imported inside kernel_B_mp only, so importing
this module loads neither scipy nor mpmath.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ConvergenceError, PoleError
from .specfun import (
    _CLD,
    _LD,
    DEFAULT_CONTROL,
    SeriesControl,
    _is_nonpositive_integer,
    gamma_fn,
    laguerre,
    pochhammer,
    rgamma,
)

__all__ = [
    "hyp_pfq",
    "hermite",
    "assoc_hermite",
    "assoc_hermite_rows",
    "mittag_leffler",
    "lauricella_triple",
    "kernel_B_true_poly",
    "kernel_B_mp",
    "closed_bracket",
    "ito_hermite",
]

_TINY = 1e-300


def hyp_pfq(numer, denom, t, ctl: SeriesControl = DEFAULT_CONTROL):
    """Generalized hypergeometric pFq for p, q <= 2 (covers 1F1 and 2F2).

    Long-double summation of sum_k prod(a_i)_k / prod(b_i)_k * t^k / k!, in
    real arithmetic when ``t`` and every parameter are real (bit for bit the
    complex sum at t + 0j), in complex otherwise.
    ``t`` and each parameter may be a scalar or an ndarray; they broadcast
    against each other, so one call sums a whole grid of parameter sets as a
    single series that runs until every element meets the tail test a scalar
    call would apply to it.  This stop is shared on purpose: elements that meet
    it early keep adding terms, so an element's value can differ from its
    scalar call below that tail test, and is more accurate for it: freezing
    each element at its own stop made the overlap check's 18-point grids equal
    their scalar calls, and moved the check's max_rel_err from 1.9e-14 to 3.3e-13.
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
    numer = [np.asarray(a, dtype=_CLD if np.iscomplexobj(a) else _LD) for a in numer]
    denom = [np.asarray(b, dtype=_CLD if np.iscomplexobj(b) else _LD) for b in denom]
    # extended-precision accumulation: alternating arguments (Kummer-type
    # identities at t ~ -10) cancel through partial sums ~e^{|t|} above the
    # limit, which 64-bit terms cannot certify at 1e-11
    t_in = np.asarray(t)
    real = not any(np.iscomplexobj(v) for v in (t_in, *numer, *denom))
    tq = np.asarray(t_in, dtype=_LD if real else _CLD)
    total = np.zeros_like(tq)
    term = np.ones_like(tq)
    prev_mag = math.inf
    for k in range(ctl.max_terms + 1):
        total = total + term
        term_mag = np.abs(term).astype(float)
        # the tail test of a scalar call, element by element
        bound = np.maximum(ctl.rel_tol * np.abs(total).astype(float), _TINY)
        if k >= 2 and np.all((term_mag <= bound) & (prev_mag <= bound)):
            break
        prev_mag = term_mag
        ratio = 1 / _LD(k + 1)
        for a in numer:
            ratio = ratio * (a + k)
        for b in denom:
            ratio = ratio / (b + k)
        term = term * ratio * tq
    else:
        raise ConvergenceError(f"hyp_pfq not converged in {ctl.max_terms} terms")
    out = total.astype(np.result_type(t_in, complex))
    return out if out.ndim else out[()]


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x) via the three-term recurrence."""
    return assoc_hermite(n, x, 0.0)


def assoc_hermite(n: int, x, beta: float):
    """Associated Hermite polynomial H_n(x, beta), row n of assoc_hermite_rows."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    return next(itertools.islice(assoc_hermite_rows(x, beta), n, None))


def assoc_hermite_rows(x, beta: float):
    """Endless generator of the associated Hermite polynomials H_n(x, beta), n = 0, 1, ...

    Forward recurrence H_{k+1} = 2x H_k - 2(k+beta) H_{k-1} with H_{-1}=0,
    H_0=1; beta=0 recovers the physicists' Hermite polynomials.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    h_prev = np.zeros_like(x)
    h = np.ones_like(x)
    for k in itertools.count():
        yield h if h.ndim else h[()]
        h, h_prev = 2.0 * x * h - 2.0 * (k + beta) * h_prev, h


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
        if n >= 2 and max(abs(term), prev_mag) <= max(ctl.rel_tol * abs(total), _TINY):
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
    first: list[list[complex]] = []  # first[j][k]: the term at n = 0
    cur: list[list[complex]] = []  # cur[j][k]: the term at the largest n so far
    prev_shell = math.inf
    for d in range(ctl.max_terms + 1):
        shell_mag = 0.0
        for j in range(d // 2 + 1):
            rem = d - 2 * j
            if j == len(cur):
                first.append([])
                cur.append([])
            first_j, cur_j = first[j], cur[j]
            for k in range(rem // 2 + 1):
                n = rem - 2 * k
                if n == 0:  # k is new for this j
                    if k == 0 and j == 0:
                        term = 1.0 + 0.0j
                    elif k > 0:
                        s0 = 2 * k + j
                        dd = 2 * k + 2 * j
                        term = first_j[k - 1] * ((s0 - 1) * s0 * v) / ((c + dd - 2) * (c + dd - 1) * k)
                    else:
                        dd = 2 * j
                        term = first[j - 1][0] * ((beta + j - 1) * w) / ((c + dd - 2) * (c + dd - 1))
                    first_j.append(term)
                    cur_j.append(term)
                else:
                    s0 = n + 2 * k + j
                    dd = n + 2 * k + 2 * j
                    term = cur_j[k] * (s0 * u) / (n * (c + dd - 1))
                    cur_j[k] = term
                shell_mag += abs(term)
                y = term - comp
                t = total + y
                comp = (t - total) - y
                total = t
        if d >= 2 and shell_mag + prev_shell <= max(ctl.rel_tol * abs(total), _TINY):
            return total
        prev_shell = shell_mag
    raise ConvergenceError(f"lauricella_triple not converged within weight {ctl.max_terms}")


def kernel_B_true_poly(m: int, z: complex, x):
    """True-polyanalytic Bargmann kernel (closed form, beta = 0):

        (-1)^m (2^m m!)^{-1/2} e^{sqrt2 x zbar - zbar^2/2} H_m(x - (z+zbar)/sqrt2).
    """
    z = complex(z)
    zc = z.conjugate()
    x = np.asarray(x, dtype=float)
    shift = (z + zc).real / math.sqrt(2.0)
    val = (
        (-1.0) ** m
        / math.sqrt(2.0**m * math.factorial(m))
        * np.exp(math.sqrt(2.0) * x * zc - zc * zc / 2.0)
        * hermite(m, x - shift)
    )
    return val if val.ndim else val[()]


def kernel_B_mp(m: int, beta: float, z: complex, x: float, dps: int = 40) -> complex:
    """Arbitrary-precision kernel by the paper's route: the finite
    Hermite-Laguerre sum over n < m plus the z^m Lauricella part, whose
    (z zbar)^{-k} terms cancel for small |z| (raise dps by about
    2m log10(1/|z|)).  A slow scalar oracle, independent of kernel_B.
    """
    import mpmath as mp

    with mp.workdps(dps):
        zq = mp.mpc(complex(z))
        xq = mp.mpf(float(x))
        b = mp.mpf(beta)
        zc = mp.conj(zq)
        u = (zq * zc).real
        t = zc / mp.sqrt(2)

        def lag(n, alpha, arg):
            return mp.fsum(
                (-1) ** k * mp.rf(alpha + k + 1, n - k) / (mp.factorial(n - k) * mp.factorial(k)) * arg**k
                for k in range(n + 1)
            )

        hs = [mp.mpf(1)]
        for i in range(m - 1):
            hs.append(2 * xq * hs[i] - 2 * (i + b) * (hs[i - 1] if i >= 1 else mp.mpf(0)))
        total = mp.mpc(0)
        for n in range(m):
            ca = (-1) ** n * zq ** (m - n) * mp.sqrt(mp.factorial(n) / (mp.rf(b + 1, m) * mp.rf(b + 1, n))) * lag(
                n, m - n + b, u
            )
            cb = (-1) ** m * zc ** (n - m) * mp.sqrt(mp.factorial(m)) / mp.rf(b + 1, n) * lag(m, n - m + b, u)
            total += mp.mpf(2) ** (mp.mpf(-n) / 2) * (ca - cb) * hs[n]
        zm = zq**m / mp.sqrt(mp.factorial(m))
        tol = mp.mpf(10) ** (-dps + 5)
        for k in range(m + 1):
            g = mp.mpc(0)
            h_prev, h = mp.mpf(0), mp.mpf(1)
            tj = mp.mpc(1)
            gmax = mp.mpf(0)
            j = 0
            small = 0
            while small < 2:
                rho = 1 / mp.rf(b + 1, j - k) if j >= k else mp.rf(b + 1 - k + j, k - j)
                term = rho * tj * h
                g += term
                gmax = max(gmax, abs(g))
                small = small + 1 if (j >= k + 4 and abs(term) <= tol * max(gmax, mp.mpf(1e-300))) else 0
                h, h_prev = 2 * xq * h - 2 * (j + b) * h_prev, h
                tj *= t
                j += 1
                if j > 4000:
                    raise ConvergenceError("kernel_B_mp series not converged")
            total += zm * mp.rf(-m, k) / (mp.factorial(k) * u**k) * g
        return complex(total)


def closed_bracket(z, w, m: int, beta: float, ctl: SeriesControl = DEFAULT_CONTROL):
    """The paper's closed form of sum_n (n^m)!/Gamma(beta+n v m+1) H_{n,m}(z) conj(H_{n,m}(w)),
    the oracle of the overlap and density-positivity checks (coherent sums the
    same series row by row).

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
    coeff = np.ones(m + 1, dtype=_LD)  # (-m)_k / (k! (beta+1)_k)
    for j in range(1, m + 1):
        coeff[j] = coeff[j - 1] * _LD(j - 1 - m) / (j * (_LD(beta) + j))
    k = np.arange(m + 1)
    lead = (slice(None),) + (None,) * z.ndim  # grid index k on a new leading axis
    zk = coeff[lead] * zz.astype(_LD) ** k[lead]
    wl = coeff[lead] * ww.astype(_LD) ** k[lead]
    b = (_LD(beta) + 1 + k)[lead]
    arg = zw.astype(_CLD) if zw.imag.any() else zw.real.astype(_LD)  # real on the diagonal: a real sum
    grid = hyp_pfq([1.0, m + beta + 1.0], [b[:, None], b], arg, ctl)
    second = np.sum(zk[:, None] * wl[None, :] * grid, axis=(0, 1))
    return total + front * second.astype(complex)


def ito_hermite(m: int, n: int, z) -> complex:
    """Ito's complex Hermite polynomial H_{m,n}(z, zbar) = (m^n)! H_{m,n}^(0).

    Direct double-binomial sum with (z zbar)^min(m,n) factored out of every
    monomial, so that the sum is real and ito_hermite(m, n, z) is exactly
    conj(ito_hermite(n, m, z)); orthogonal for the Gaussian weight on C.
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    z = complex(z)
    zc = z.conjugate()
    s = min(m, n)
    return z ** (m - s) * zc ** (n - s) * sum(
        math.comb(m, k) * math.comb(n, k) * (-1.0) ** k * math.factorial(k) * (z * zc).real ** (s - k)
        for k in range(s + 1)
    )
