"""Arbitrary-precision reference values for the benchmark, written from the
paper's definitions with mpmath and sharing no code path with cstk.

    H_{n,m}(z)   = (-1)^s z^{n-s} zbar^{m-s} L_s^{(|n-m|+beta)}(z zbar),  s = min(n, m)
    P~_{n,m}(z)  = H_{n,m}(z) sqrt(s! / Gamma(beta + max(n, m) + 1))
    phi_n(x)     = 2^{-n/2} H_n(x, beta) / sqrt((beta+1)_n)      (associated Hermite)
    B_m(z, x)    = sqrt(Gamma(beta+1)) sum_n P~_{n,m}(zbar) phi_n(x)   (generating form)
    N_m(z)       = sum_n |P~_{n,m}(z)|^2                          (coefficient series)
    <z|w>_m      = sum_n P~_{n,m}(z) conj(P~_{n,m}(w)) / sqrt(N_m(z) N_m(w))
    K(z, w)      = e^{z wbar} 1F1(beta; beta+1; -z wbar) / Gamma(beta+1)
    omega(x)     = |D_{-beta}(i x sqrt2)|^{-2} / (sqrt(pi) Gamma(beta+1))

Every scalar function returns a Python complex or float.  ``python3 perfbench/oracle.py``
runs the self-tests against properties the definitions must have.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

DPS = 40
_TAIL = mp.mpf(10) ** -30  # series terms below this share of the running peak stop a sum
_MAX_TERMS = 2000


def _p_tilde(n, m, beta, z):
    s = min(n, m)
    t = (z * mp.conj(z)).real
    mono = z ** (n - s) * mp.conj(z) ** (m - s)
    h = (-1) ** s * mono * mp.laguerre(s, abs(n - m) + beta, t)
    return h * mp.sqrt(mp.factorial(s) / mp.gamma(beta + max(n, m) + 1))


def _series(term, start_min):
    """Sum term(n) for n = 0, 1, ... until two successive terms are negligible
    against the running peak of the partial sums (the terms are not monotone
    in n, so a fixed count would be unsafe)."""
    total = mp.mpc(0)
    peak = mp.mpf(0)
    small = 0
    for n in range(_MAX_TERMS):
        t = term(n)
        total += t
        peak = max(peak, abs(total), abs(t))
        small = small + 1 if (n >= start_min and abs(t) <= _TAIL * peak) else 0
        if small >= 2:
            return total
    raise ArithmeticError("oracle series did not converge")


def h_poly(n, m, beta, z):
    with mp.workdps(DPS):
        z = mp.mpc(z)
        s = min(n, m)
        t = (z * mp.conj(z)).real
        val = (-1) ** s * z ** (n - s) * mp.conj(z) ** (m - s) * mp.laguerre(s, abs(n - m) + beta, t)
        return complex(val)


def p_norm(n, m, beta, z):
    with mp.workdps(DPS):
        return complex(_p_tilde(n, m, mp.mpf(beta), mp.mpc(z)))


def norm_series(m, beta, z):
    """N_m(z) = sum_n |P~_{n,m}(z)|^2, the squared norm of the coefficient vector."""
    with mp.workdps(DPS):
        b, zq = mp.mpf(beta), mp.mpc(z)
        return float(_series(lambda n: abs(_p_tilde(n, m, b, zq)) ** 2, m + 2).real)


def norm_closed_m0(beta, t):
    """S(t) = sum_n t^n / (beta+1)_n by its coefficient series."""
    with mp.workdps(DPS):
        b, tq = mp.mpf(beta), mp.mpf(t)
        return float(_series(lambda n: tq**n / mp.rf(b + 1, n), 2).real)


def overlap(z, w, m, beta):
    with mp.workdps(DPS):
        b, zq, wq = mp.mpf(beta), mp.mpc(z), mp.mpc(w)
        num = _series(lambda n: _p_tilde(n, m, b, zq) * mp.conj(_p_tilde(n, m, b, wq)), m + 2)
        nz = _series(lambda n: abs(_p_tilde(n, m, b, zq)) ** 2, m + 2).real
        nw = _series(lambda n: abs(_p_tilde(n, m, b, wq)) ** 2, m + 2).real
        return complex(num / mp.sqrt(nz * nw))


def eta_density(z, m, beta):
    """N_m(z) t^beta e^{-t}, t = z zbar."""
    with mp.workdps(DPS):
        b, zq = mp.mpf(beta), mp.mpc(z)
        t = (zq * mp.conj(zq)).real
        n = _series(lambda k: abs(_p_tilde(k, m, b, zq)) ** 2, m + 2).real
        return float(n * t**b * mp.exp(-t))


def kernel_K(z, w, beta):
    with mp.workdps(DPS):
        b = mp.mpf(beta)
        zw = mp.mpc(z) * mp.conj(mp.mpc(w))
        return complex(mp.exp(zw) * mp.hyp1f1(b, b + 1, -zw) / mp.gamma(b + 1))


def kernel_B(m, beta, z, x):
    """sqrt(Gamma(beta+1)) sum_n P~_{n,m}(zbar) phi_n(x); m = 0 is the analytic kernel."""
    with mp.workdps(DPS):
        b, zc, xq = mp.mpf(beta), mp.conj(mp.mpc(z)), mp.mpf(x)
        # phi_{k+1} = (sqrt2 x phi_k - sqrt(k+beta) phi_{k-1}) / sqrt(k+1+beta)
        phis = [mp.mpf(1), mp.sqrt(2) * xq / mp.sqrt(b + 1)]

        def phi(n):
            while len(phis) <= n:
                k = len(phis) - 1
                phis.append((mp.sqrt(2) * xq * phis[k] - mp.sqrt(k + b) * phis[k - 1]) / mp.sqrt(k + 1 + b))
            return phis[n]

        total = _series(lambda n: _p_tilde(n, m, b, zc) * phi(n), m + 2)
        return complex(mp.sqrt(mp.gamma(b + 1)) * total)


def kernel_B_true_poly(m, z, x):
    """beta = 0 closed form (-1)^m (2^m m!)^{-1/2} e^{sqrt2 x zbar - zbar^2/2} H_m(x - (z+zbar)/sqrt2)."""
    with mp.workdps(DPS):
        zq, xq = mp.mpc(z), mp.mpf(x)
        zc = mp.conj(zq)
        shift = (zq + zc).real / mp.sqrt(2)
        val = (-1) ** m / mp.sqrt(2**m * mp.factorial(m)) * mp.exp(mp.sqrt(2) * xq * zc - zc * zc / 2)
        return complex(val * mp.hermite(m, xq - shift))


def omega_weight(x, beta):
    with mp.workdps(DPS):
        b = mp.mpf(beta)
        d = mp.pcfd(-b, 1j * mp.sqrt(2) * mp.mpf(x))
        return float(1 / (mp.sqrt(mp.pi) * mp.gamma(b + 1) * abs(d) ** 2))


def transform_coeffs(coeffs, m, beta, z):
    """Image of f = sum_n a_n phi_n: the transform sends phi_n to P~_{n,m}(z)."""
    with mp.workdps(DPS):
        b, zq = mp.mpf(beta), mp.mpc(z)
        return complex(mp.fsum(mp.mpc(a) * _p_tilde(n, m, b, zq) for n, a in enumerate(coeffs) if a != 0))


def p_tilde_many(nmax, m, beta, z):
    """P~_{n,m}(z) for n = 0..nmax at an array of points, shape (nmax+1, len(z)).

    Vectorized extended-precision route for target sets too large for the
    mpmath path: the Laguerre factor by its three-term recurrence in long
    double.  ``self_test`` holds it to the mpmath route.
    """
    zq = np.asarray(z, dtype=np.clongdouble)
    zc = np.conj(zq)
    t = (zq * zc).real
    out = np.empty((nmax + 1, len(zq)), dtype=np.clongdouble)
    for n in range(nmax + 1):
        s, alpha = min(n, m), abs(n - m) + beta
        lag_prev, lag = np.zeros_like(t), np.ones_like(t)
        for k in range(s):
            lag_prev, lag = lag, ((2 * k + 1 + alpha - t) * lag - (k + alpha) * lag_prev) / (k + 1)
        with mp.workdps(DPS):
            norm = np.longdouble(float(mp.sqrt(mp.factorial(s) / mp.gamma(mp.mpf(beta) + max(n, m) + 1))))
        out[n] = (-1) ** s * zq ** (n - s) * zc ** (m - s) * lag * norm
    return out


def phi_values(n, beta, xs):
    """phi_n(x) by its normalized three-term recurrence, vectorized in float64."""
    x = np.asarray(xs, dtype=float)
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    for k in range(n):
        p_prev, p = p, (math.sqrt(2.0) * x * p - math.sqrt(k + beta) * p_prev) / math.sqrt(k + 1 + beta)
    return p


def self_test() -> list[str]:
    """Check the oracle against properties its definitions must have; returns failures."""
    failures = []

    def expect(name, err, tol):
        if not err <= tol:
            failures.append(f"{name}: {err:.3e} > {tol:.1e}")

    for m, z, x in [(0, 0.7 + 0.2j, 0.4), (3, -1.1 + 0.8j, -1.3), (8, 0.01 + 0.003j, 0.7), (5, 2.5 - 1.0j, 2.2)]:
        ref = kernel_B_true_poly(m, z, x)
        expect(f"kernel beta=0 closed form m={m}", abs(kernel_B(m, 0.0, z, x) - ref) / abs(ref), 1e-15)
    for x in [0.0, 1.3, 3.5, 7.9]:
        with mp.workdps(DPS):
            ref = float(mp.exp(-mp.mpf(x) ** 2) / mp.sqrt(mp.pi))
        expect(f"weight beta=0 x={x}", abs(omega_weight(x, 0.0) - ref) / ref, 1e-15)
    for m, beta, z in [(0, 0.5, 1.2 - 0.3j), (4, 2.3, -0.4 + 2.1j), (8, 1.7, 2.9 + 0.2j)]:
        expect(f"diagonal overlap m={m} beta={beta}", abs(overlap(z, z, m, beta) - 1.0), 1e-15)
    for beta, t in [(0.0, 2.0), (1.7, 6.5)]:
        with mp.workdps(DPS):
            ref = float(mp.e**t * mp.hyp1f1(beta, beta + 1, -t))
        expect(f"Kummer form of S(t) beta={beta}", abs(norm_closed_m0(beta, t) - ref) / ref, 1e-15)
    zs = np.array([0.2 + 0.1j, -1.3 + 2.2j, 2.9j, -0.7 - 0.4j])
    for m, beta in [(0, 2.3), (4, 1.0), (8, 0.5)]:
        fast = p_tilde_many(6, m, beta, zs)
        for n in range(7):
            for i, z in enumerate(zs):
                ref = p_norm(n, m, beta, z)
                expect(f"vectorized P~_{n},{m} beta={beta}", abs(complex(fast[n, i]) - ref) / abs(ref), 1e-15)
    return failures


if __name__ == "__main__":
    import sys

    problems = self_test()
    for line in problems:
        print("FAIL", line)
    print("oracle self-test:", "ok" if not problems else f"{len(problems)} failure(s)")
    sys.exit(1 if problems else 0)
