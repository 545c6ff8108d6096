"""Real-line side of the construction: the orthogonality weight of the
associated Hermite basis (one Kummer form for every x), the basis itself, the
generalized Bargmann kernels and the transform, an exact finite sum for an input
given by its phi-coefficients and a quadrature projection for a sampled grid.

Kernel conventions.  kernel_B(m, beta, z, x) is the fixed-m kernel in its
generating form B_{beta,m}(z, x) = sqrt(Gamma(beta+1)) sum_n P~_{n,m}(zbar) phi_n(x),
normalized so that kernel_B(0, beta, .) is the analytic kernel
(kernel_B_analytic) and kernel_B(m, 0, .) equals the true-polyanalytic
closed form (oracles.kernel_B_true_poly).  The transform
itself evaluates

    B[f](z) = Gamma(beta+1)^{-1/2} int kernel_B(m, beta, conj(z), x) f(x) domega_beta(x),

the composition that sends the basis function phi_n to the orthonormal
polynomial P~_{n,m}(z, zbar) with proportionality constant 1 (the kernel
is a function of zbar, so the evaluation point enters conjugated).  So the
image of sum_n a_n phi_n is the finite sum sum_n a_n P~_{n,m}(z): a
coefficient input needs no integral and no quadrature rule, and only a grid
input is projected on one.  Both sum the same closed-form rows P~_{n,m}
(poly2d._p_rows); the paper's Hermite-Laguerre plus Lauricella form of the
kernel is kept as the oracle oracles.kernel_B_mp.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericError
from .formats import parse_complex, read_data
from .poly2d import _block_len, _p_rows, _row_sum
from .quadrature import QuadratureRule
from .specfun import (
    DEFAULT_CONTROL, SeriesControl, _exit_check, _kummer_series, _require_beta, _require_finite, gamma_fn, rgamma
)

__all__ = [
    "SampledFunction",
    "load_sampled",
    "omega_weight",
    "basis_phi",
    "kernel_B",
    "kernel_B_analytic",
    "apply_transform",
]


@dataclass(frozen=True)
class SampledFunction:
    """A function on the line, either grid-sampled or as phi-basis coefficients.

    A grid function holds read-only copies of its x and values, so that the
    spline it builds once (``_spline``) cannot go stale."""

    kind: str  # 'grid' | 'coeffs'
    beta: float
    x: np.ndarray | None = None
    values: np.ndarray | None = None
    coeffs: np.ndarray | None = None

    def __post_init__(self):
        _require_beta(self.beta)
        if self.kind == "grid":
            if self.x is None or self.values is None:
                raise ValueError("grid function needs x and values")
            x, values = np.asarray(self.x), np.asarray(self.values)
            if x.ndim != 1 or values.ndim != 1:
                raise ValueError("grid x and values must be 1-D")
            if len(x) != len(values):
                raise ValueError(f"grid has {len(x)} x but {len(values)} values")
            if len(x) < 2:
                raise ValueError("grid needs at least 2 points")
            _require_finite("grid x", x)
            _require_finite("grid values", values)
            if np.any(np.diff(x) <= 0):
                raise ValueError("grid must be strictly increasing")
            object.__setattr__(self, "x", _read_only(x))
            object.__setattr__(self, "values", _read_only(values))
        elif self.kind == "coeffs":
            if self.coeffs is None:
                raise ValueError("coefficient function needs a coefficient vector")
            _require_finite("coefficients", self.coeffs)
        else:
            raise ValueError("kind must be 'grid' or 'coeffs'")

    @functools.cached_property
    def _spline(self) -> tuple[np.ndarray, np.ndarray]:
        """The knots and the (4, len(x) - 1) coefficients of the grid's not-a-knot cubic spline."""
        x = np.asarray(self.x, dtype=float)
        return x, _not_a_knot(x, self.values)

    def sample(self, x: np.ndarray) -> np.ndarray:
        """Values at arbitrary abscissae (cubic spline for grids, zero outside)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "coeffs":
            phis = itertools.chain.from_iterable(_phi_rows(self.beta, x, min(_block_len(x.size), len(self.coeffs))))
            return sum((a * phi for a, phi in zip(self.coeffs, phis)), np.zeros(len(x), complex))
        knots, c = self._spline
        i = np.searchsorted(knots[1:-1], x, side="right")  # the piece of x; the end pieces reach outward
        t = (x - knots[i]).astype(c.real.dtype)  # cast once, not at each long-double step
        out = (((c[0, i] * t + c[1, i]) * t + c[2, i]) * t + c[3, i]).astype(complex)
        out[(x < knots[0]) | (x > knots[-1])] = 0.0  # zero outside the grid
        return out


def _read_only(a) -> np.ndarray:
    """A copy of ``a`` that cannot be written to, so that neither its holder nor
    the caller who passed ``a`` can change what was computed from it."""
    out = np.array(a)
    out.setflags(write=False)
    return out


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients c, shape (4, len(x) - 1), of the not-a-knot cubic spline
    through (x, y), in long double: on [x_i, x_{i+1}] it is
    ((c_0 t + c_1) t + c_2) t + c_3, t = x - x_i.  The slopes s_i at the knots
    solve the C^2 conditions

        dx_i s_{i-1} + 2 (dx_{i-1} + dx_i) s_i + dx_{i-1} s_{i+1} = 3 (dx_i m_{i-1} + dx_{i-1} m_i)

    (dx_i = x_{i+1} - x_i, m_i the chord slopes) closed by a continuous third
    derivative at x_1 and x_{n-2}: a tridiagonal system, solved by the Thomas
    algorithm.  As in scipy.interpolate.CubicSpline, 2 knots give the line and
    3 the parabola through them.  Long double keeps the rounding of the solve
    and of the cubic terms, which can exceed the values many times over
    between noisy samples, below that of the float64 result.  ``y`` may be
    complex."""
    x = np.asarray(x, dtype=np.longdouble)
    y = np.asarray(y, dtype=np.clongdouble if np.iscomplexobj(y) else np.longdouble)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    n = len(x)
    if n == 2:
        s = np.array([slope[0], slope[0]])
    elif n == 3:
        curv = (slope[1] - slope[0]) / (x[2] - x[0])  # the parabola's second divided difference
        s = slope[0] + curv * np.array([-dx[0], dx[0], dx[0] + 2 * dx[1]])
    else:
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        lower = np.concatenate([[0], dx[1:], [d1]])
        diag = np.concatenate([[dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]])
        upper = np.concatenate([[d0], dx[:-1], [0]])
        rhs = np.concatenate([
            [((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0],
            3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
            [(dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1],
        ])
        s = np.array(_thomas(list(lower), list(diag), list(upper), list(rhs)))
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.array([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])


def _thomas(lower: list, diag: list, upper: list, rhs: list) -> list:
    """Solution u of lower_i u_{i-1} + diag_i u_i + upper_i u_{i+1} = rhs_i
    (lower_0 = upper_{n-1} = 0), by elimination without pivoting, one scalar
    at a time."""
    ratio, u = [], []
    up = cur = 0
    for a, b, c, r in zip(lower, diag, upper, rhs):
        den = b - a * up
        up, cur = c / den, (r - a * cur) / den
        ratio.append(up)
        u.append(cur)
    for i in range(len(u) - 2, -1, -1):
        u[i] = u[i] - ratio[i] * u[i + 1]
    return u


def load_sampled(path) -> SampledFunction:
    """Read a function file (formats.read_data): header `# kind=grid|coeffs beta=<float>`, then `x value`
    pairs (grid) or one coefficient per line (coeffs); values may be complex in `a+bi` form."""

    def fields(header: dict) -> int:
        if header.get("kind") not in ("grid", "coeffs"):
            raise ValueError("file must declare `# kind=grid|coeffs beta=...` before data")
        return 2 if header["kind"] == "grid" else 1

    header, rows = read_data(path, fields)
    beta = float(header.get("beta", 0.0))
    if fields(header) == 1:  # checks the kind also where no data line asked for it
        return SampledFunction("coeffs", beta, coeffs=np.array([parse_complex(a) for (a,) in rows]))
    x, values = np.array([float(x) for x, _ in rows]), np.array([parse_complex(v) for _, v in rows])
    return SampledFunction("grid", beta, x=x, values=values)


def omega_weight(x, beta: float):
    """Orthogonality weight of the associated Hermite basis,

        w_beta(x) = (sqrt(pi) Gamma(beta+1))^{-1} |D_{-beta}(i x sqrt2)|^{-2},

    an even positive function of total mass 1; beta = 0 gives pi^{-1/2} e^{-x^2}.
    D through 1F1 (DLMF 12.7.14) and Kummer's transformation (DLMF 13.2.39) give
    w_beta = 2^beta e^{x^2} / (sqrt(pi) Gamma(beta+1) (A^2 + B^2)) with
    A = sqrt(pi) M((1-beta)/2, 1/2, x^2) / Gamma((1+beta)/2) and
    B = 2 sqrt(pi) x M(1-beta/2, 3/2, x^2) / Gamma(beta/2), series whose terms
    have one sign after the first ceil(beta/2): one route for every x, summed in
    long double to its precision (0.0, unsummed, where a bound puts the weight far
    below the smallest double).  ``x`` may be an ndarray of finite values.
    Leaves through specfun._exit_check: NumericError where the rounding estimate
    2 eps (|A| sum|A terms| + |B| sum|B terms|) / (A^2 + B^2) is not below 1e-12
    at any x, as the cancelling early terms of A and B make it from beta = 30 on.
    Past beta = 170, where Gamma(beta+1) overflows float64, the Gamma factors come
    from lgamma, and eps times the lgamma values joins the estimate.
    """
    _require_beta(beta)
    x = np.abs(np.asarray(x, dtype=float))  # even function
    _require_finite("x", x)
    if beta == 0.0:
        out = np.exp(-x * x) / math.sqrt(math.pi)  # the series terminate: exact
    else:
        xs, where = np.unique(x.ravel(), return_inverse=True)  # a symmetric grid needs half the sums
        out = _omega_kummer(xs.astype(np.longdouble), beta)[where].reshape(x.shape)
    return float(out) if out.ndim == 0 else out


_WEIGHT_TARGET = 1e-12  # relative: the rounding estimate of A^2 + B^2 past which omega_weight raises


def _omega_kummer(x: np.ndarray, beta: float) -> np.ndarray:
    """The Kummer form of omega_weight at the points x >= 0 of a 1-D array, summed in its dtype, as float64;
    exactly 0, with no sum started, where x^2 >= beta and the leading term
    (2x^2)^beta e^{-x^2} / (sqrt(pi) Gamma(beta+1)) of the large-x expansion
    (the positive correction of |D|^2 only lowers the weight) is below 1e-340.
    The exit check raises NumericError where the rounding estimate of A^2 + B^2 misses _WEIGHT_TARGET."""
    x2 = np.minimum(x, 1e150) ** 2  # the bound falls past x^2 = beta, so clipping keeps it above
    ln_bound = beta * np.log(2.0 * np.maximum(x2, beta)) - x2 - math.log(math.sqrt(math.pi)) - math.lgamma(beta + 1.0)
    live = (x2 < beta) | (ln_bound >= -340.0 * math.log(10.0))  # weights below 1e-340 round to 0.0
    out, x = np.zeros(x.shape), x[live]
    sqrt_pi, at = math.sqrt(math.pi), lambda i: f"beta={beta}, x={float(x[i])}"
    if beta <= 170:
        c_a, c_b = sqrt_pi * rgamma((1.0 + beta) / 2.0), 2.0 * sqrt_pi * rgamma(beta / 2.0) * x
        lead = 2.0**beta / (sqrt_pi * gamma_fn(beta + 1.0))
    else:  # Gamma(beta+1) overflows, and 1/Gamma((1+beta)/2) is 0 from 342.25: A and B times Gamma((1+beta)/2),
        # so by the duplication formula lead = 2 r / beta, r = Gamma((1+beta)/2) / Gamma(beta/2) from lgamma
        lg_a, lg_b = math.lgamma((1.0 + beta) / 2.0), math.lgamma(beta / 2.0)
        r, r_err = math.exp(lg_a - lg_b), np.finfo(float).eps * (lg_a + lg_b)  # r_err: the rounding of the lgammas
        c_a, c_b, lead = sqrt_pi, 2.0 * sqrt_pi * r * x, 2.0 * r / beta
        if r_err >= _WEIGHT_TARGET:  # every x misses from beta ~ 880 on: no sum started (it takes ~beta/64 blocks)
            out[live] = _exit_check("omega_weight", np.ones(x.shape), at, np.full(x.shape, r_err), _WEIGHT_TARGET)
            return out  # no x is live
    (m_a, m_b), (abs_a, abs_b), e = _kummer_series((((1 - beta) / 2, 0.5), (1 - beta / 2, 1.5)), x * x)
    a, b = c_a * m_a, c_b * m_b
    norm2 = a * a + b * b
    # rounding of A^2 + B^2, 2 (|A| dA + |B| dB) with dA = eps |c_a| sum|M_a terms|: the early
    # alternating terms cancel past beta ~ 30
    err = 2 * np.finfo(x.dtype).eps * (np.abs(a) * abs(c_a) * abs_a + np.abs(b * c_b) * abs_b)
    if beta > 170:  # r_err on the lead, twice r_err on c_b^2
        err = err + r_err * (norm2 + 2 * b * b)
    scale = np.exp(x * x - 2 * e * np.log(x.dtype.type(2.0)))  # e^{x^2} / 2^{2e}
    with np.errstate(divide="ignore"):  # A = B = 0 fails the exit check: err = 0 is not below 0
        weight = lead * scale / norm2
    out[live] = _exit_check("omega_weight", weight, at, err, _WEIGHT_TARGET, norm2)
    return out


def basis_phi(n: int, x, beta: float):
    """Orthonormal basis function phi_n(x) = 2^{-n/2} H_n(x, beta) / sqrt((beta+1)_n),
    by the normalized recurrence, which does not overflow at large n; where phi_n(x), of size about
    e^{x^2/2}, leaves float64, specfun._exit_check raises NumericError."""
    _require_beta(beta)
    _require_finite("x", x)
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # the exit check raises there
        rows = _phi_rows(beta, x, min(_block_len(x.size), n + 1))  # no rows past n
        out = next(itertools.islice(itertools.chain.from_iterable(rows), n, None))
    return _exit_check("basis_phi", out, lambda i: f"n={n}, beta={beta}, x={x.flat[i]}")


def kernel_B_analytic(beta: float, z: complex, x: float, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Analytic (m = 0) Bargmann kernel B_beta(z, x) = sum_n (zbar/sqrt2)^n H_n(x,beta)/(beta+1)_n,
    an entire function of zbar: kernel_B(0, beta, z, x).  The paper writes it as
    the specialized Lauricella series F(sqrt2 x zbar, -zbar^2/2, -zbar^2; c=beta+1, beta)
    (oracles.lauricella_triple, the subject of the generating-function check).
    """
    return kernel_B(0, beta, z, x, ctl)


def _phi_rows(beta: float, x: np.ndarray, block: int | None = None):
    """Endless generator of phi_n(x), n = 0, 1, ..., in the precision of x, by
    phi_{k+1} = (sqrt2 x phi_k - sqrt(k+beta) phi_{k-1}) / sqrt(k+1+beta), in
    blocks of ``block`` rows, shape (block,) + x.shape (default
    poly2d._block_len(x.size)).  A longer block takes its square roots in one
    call, and a one-point x steps as a numpy scalar, a quarter of the cost of a
    1-element array; both round as the one-row step does."""
    size = _block_len(x.size) if block is None else block
    real = x.dtype.type
    if size == 1:  # endless
        sqrt2x = np.sqrt(real(2.0)) * x
        prev, cur = np.zeros_like(x), np.ones_like(x)
        for k in itertools.count():
            yield cur[np.newaxis]
            prev, cur = cur, (sqrt2x * cur - np.sqrt(real(beta) + k) * prev) / np.sqrt(real(beta) + k + 1)
    point = x.reshape(())[()] if x.size == 1 else x
    sqrt2x = np.sqrt(real(2.0)) * point
    prev, cur = np.zeros_like(point)[()], np.ones_like(point)[()]
    for k in itertools.count(0, size):
        ks = real(beta) + np.arange(k, k + size)
        lo, hi = np.sqrt(ks), np.sqrt(ks + 1)
        rows = []
        for j in range(size):
            rows.append(cur)
            prev, cur = cur, (sqrt2x * cur - lo[j] * prev) / hi[j]
        yield np.reshape(rows, (size,) + x.shape)


_KERNEL_B_TARGET = 1e-10  # relative: a long-double sum rounded to complex128


def kernel_B(
    m: int,
    beta: float,
    z: complex,
    x,
    ctl: SeriesControl = DEFAULT_CONTROL,
    return_error_estimate: bool = False,
):
    """Fixed-m generalized Bargmann kernel B_{beta,m}(z, x) in its generating
    form (module docstring), summed in long double by poly2d._row_sum, 64 rows
    per block at up to 64 points x: until two successive terms are below
    ctl.rel_tol of the partial sum (or its rounding error) at every x; past
    ctl.max_terms it raises ConvergenceError.  ``x`` may be an ndarray.
    The relative error estimate (eps sum|term| + last terms) / |value| + eps
    per point counts rounding, truncation and the final rounding to
    complex128; specfun._exit_check raises NumericError where it is not below
    _KERNEL_B_TARGET = 1e-10, or the value leaves complex128, at any x.  The terms exceed the
    value by about e^{(x/sqrt2 - Re z)^2}, so the estimate grows where x and Re z are large
    with opposite signs.  return_error_estimate=True also returns it.
    """
    _require_beta(beta)
    _require_finite("z", z)
    _require_finite("x", x)
    x_arr = np.atleast_1d(np.asarray(x, dtype=np.longdouble))
    block = _block_len(x_arr.size)
    rows = _p_rows(m, beta, np.clongdouble(complex(z).conjugate()), block)
    terms = (row[:, np.newaxis] * phi for row, phi in zip(rows, _phi_rows(beta, x_arr, block)))
    total, est = _row_sum(terms, m, ctl, "kernel_B series")
    err = (est / np.maximum(np.abs(total), 1e-300)).astype(float) + np.finfo(float).eps
    values = _exit_check(
        "kernel_B", total, lambda i: f"m={m}, beta={beta}, z={complex(z)}, x={float(x_arr[i])}", err, _KERNEL_B_TARGET
    )
    if return_error_estimate:
        return (values, err) if np.ndim(x) else (complex(values[0]), float(err[0]))
    return values if np.ndim(x) else complex(values[0])


@np.errstate(over="ignore", invalid="ignore")  # the exit check raises where the rows overflow
def apply_transform(
    f: SampledFunction,
    m: int,
    beta: float,
    targets,
    rule: QuadratureRule | None = None,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> list[complex]:
    """Generalized Bargmann transform of f at the given complex targets.

    The image of phi_n is P~_{n,m}(z, zbar), so a coefficient input
    f = sum_n a_n phi_n maps to the finite sum sum_n a_n P~_{n,m}(z): exactly
    len(a) rows at all targets, and ``rule`` is not read.  A vector longer
    than ctl.max_terms raises ConvergenceError.

    A grid input needs ``rule`` (ValueError without one), which must
    integrate against domega_beta (weights folded in, as produced by
    adaptive_line on omega_weight).  The quadrature sum of f against the
    kernel is reassociated: projections d_n = sum_i w_i phi_n(x_i) f(x_i),
    then sum_n d_n P~_{n,m}(z) at all targets, row by row, until at every
    target two successive n > m have min(||f||, ||rest_{n-1}||) ||phi_n||
    |P~_{n,m}| <= ctl.rel_tol ||f|| peak, peak the largest ||phi_k|| |P~_{k,m}|
    so far (rule norms; rest_{n-1} = f - sum_{k<n} d_k phi_k on the nodes, over
    max|f|: scale-free).  This is Cauchy-Schwarz, |d_n| <= ||rest_{n-1}|| ||phi_n||,
    where the rule keeps phi_n orthogonal to the phi_k already projected; the
    min never takes more rows than the f-free bound ||f|| ||phi_n||.  Leaves through specfun._exit_check.
    """
    _require_beta(beta)
    if abs(f.beta - beta) > 1e-12:
        raise ValueError("function beta and transform beta disagree")
    try:
        norm = math.sqrt(gamma_fn(beta + 1.0))
    except OverflowError:  # the values, of the size of 1/sqrt(Gamma(beta+1)), can underflow unchecked: refused
        raise NumericError(f"apply_transform leaves the float64 range at beta={beta}: past beta = 170") from None
    zs = np.asarray(targets, dtype=complex).ravel()
    _require_finite("targets", zs)
    out = np.zeros(len(zs), dtype=complex)
    # 1-row blocks at any target count: at one target the default 64-row block costs as much
    # as it saves over the 7 to 11 rows of a short coefficient or projected phi_n input (the
    # first 7 and 11 rows at m = 0, 4, 5, 8 take 0.55 ms in all against 0.51 ms in 1-row blocks)
    rows = (block[0] for block in _p_rows(m, beta, zs, 1))
    if f.kind == "coeffs":
        if len(f.coeffs) > ctl.max_terms:
            raise ConvergenceError(f"transform of {len(f.coeffs)} coefficients exceeds {ctl.max_terms} terms")
        for a, row in zip(f.coeffs, rows):
            out += a * row
    elif rule is None:
        raise ValueError("a grid input needs a quadrature rule against domega_beta")
    else:
        x = np.asarray(rule.nodes, dtype=float)
        fv = f.sample(x)
        f_parts = np.array([fv.real, fv.imag])
        scale = np.max(np.abs(fv)) or 1.0
        rest = f_parts / scale  # the part of f not yet projected, over max|f|
        f_norm = rest_norm = math.sqrt(np.einsum("ij,ij,j->", rest, rest, rule.weights))
        peak = np.zeros(len(zs))
        small = 0
        phis = (block[0] for block in _phi_rows(beta, x, 1))
        for n, row, phi in zip(range(ctl.max_terms + 1), rows, phis):
            # einsum, not np.dot or @: a threaded BLAS call costs milliseconds at these lengths
            wphi = rule.weights * phi
            d_re, d_im = np.einsum("ij,j->i", f_parts, wphi)
            out += complex(d_re, d_im) * row
            bound = math.sqrt(abs(np.einsum("i,i->", wphi, phi))) * np.abs(row)
            peak = np.maximum(peak, bound)
            shrink = min(1.0, rest_norm / f_norm) if f_norm > 0 else 0.0  # ||rest_{n-1}|| / ||f||, at most 1
            small = small + 1 if n > m and np.all(shrink * bound <= ctl.rel_tol * peak) else 0
            if small == 2:
                break
            rest -= np.array([[d_re], [d_im]]) / scale * phi
            rest_norm = math.sqrt(np.einsum("ij,ij,j->", rest, rest, rule.weights))
        else:
            raise ConvergenceError(f"transform series not converged in {ctl.max_terms} terms")
    out /= norm
    out = _exit_check("apply_transform", out, lambda i: f"m={m}, beta={beta}, z={zs[i]}")
    return out.tolist()  # Python complexes; complex() per element costs as much as the sum
