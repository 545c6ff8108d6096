"""Quadrature rules: generalized Gauss-Laguerre and Gauss-Hermite via
Golub-Welsch, the polar product rule on C for the weight (z zbar)^beta
e^{-z zbar}, and the truncated trapezoid rule, refined by doubling, for
line weights that decay at least Gaussian-fast."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .specfun import gamma_fn

__all__ = ["QuadratureRule", "gauss_laguerre", "gauss_hermite", "polar_rule", "adaptive_line"]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights with a domain descriptor.

    kind is one of 'half_line', 'real_line', 'polar', 'truncated_line'.
    For 'polar' the nodes are (r, theta) pairs of shape (N, 2); otherwise a
    flat array of abscissae.  Weights are strictly positive and sum to the
    total mass of the underlying weight function.
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    def complex_points(self) -> np.ndarray:
        """Polar nodes as complex numbers r e^{i theta}."""
        if self.kind != "polar":
            raise ValueError("complex_points only defined for polar rules")
        r = self.nodes[:, 0]
        th = self.nodes[:, 1]
        return r * np.exp(1j * th)

    def integrate(self, f) -> complex:
        """Apply the rule to a callable (vectorized over node arrays)."""
        pts = self.complex_points() if self.kind == "polar" else self.nodes
        vals = np.asarray(f(pts))
        return complex(np.sum(self.weights * vals))


def gauss_laguerre(n: int, alpha: float) -> QuadratureRule:
    """Generalized Gauss-Laguerre rule for the weight u^alpha e^{-u} on (0, inf).

    Golub-Welsch on the Jacobi matrix of the known three-term recurrence:
    diagonal 2k+alpha+1, off-diagonal sqrt(k(k+alpha)).  Exact for
    polynomials of degree <= 2n-1.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")
    diag = 2.0 * np.arange(n) + alpha + 1.0
    k = np.arange(1, n)
    off = np.sqrt(k * (k + alpha))
    nodes, weights = _golub_welsch(diag, off, gamma_fn(alpha + 1.0))
    return QuadratureRule("half_line", nodes, weights)


def _golub_welsch(diag: np.ndarray, off: np.ndarray, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes, the eigenvalues of the dense Jacobi matrix (n is small), and
    weights 1 / sum_k p_k(x_i)^2 from the orthonormal recurrence.

    Strictly positive by construction, unlike squared eigenvector components
    which can underflow to exact zero at the extreme nodes of large rules.
    """
    n = len(diag)
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p_prev = np.zeros_like(nodes)
    p = np.full_like(nodes, 1.0 / math.sqrt(mass))
    total = p * p
    for k in range(n - 1):
        p, p_prev = ((nodes - diag[k]) * p - (off[k - 1] if k >= 1 else 0.0) * p_prev) / off[k], p
        total += p * p
    return nodes, 1.0 / total


def gauss_hermite(n: int) -> QuadratureRule:
    """Gauss-Hermite rule for e^{-x^2} on the real line (mass sqrt(pi))."""
    if n < 1:
        raise ValueError("need at least one node")
    diag = np.zeros(n)
    off = np.sqrt(np.arange(1, n) / 2.0)
    nodes, weights = _golub_welsch(diag, off, math.sqrt(math.pi))
    # enforce the exact +/- symmetry the eigensolver only approximates
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return QuadratureRule("real_line", nodes, weights)


def polar_rule(n_r: int, n_theta: int, beta: float) -> QuadratureRule:
    """Product rule on C for integrals of f(z, zbar) (z zbar)^beta e^{-z zbar} r dr dtheta.

    Radial part substitutes u = r^2, turning the weight into (1/2) u^beta e^{-u} du
    so generalized Gauss-Laguerre is exact; angular part is the uniform
    trapezoid, exact for trigonometric polynomials of degree < n_theta.
    Total mass is pi Gamma(beta+1).
    """
    radial = gauss_laguerre(n_r, beta)
    r = np.sqrt(radial.nodes)
    wr = 0.5 * radial.weights
    th = 2.0 * math.pi * np.arange(n_theta) / n_theta
    wth = 2.0 * math.pi / n_theta
    rr, tt = np.meshgrid(r, th, indexing="ij")
    nodes = np.column_stack([rr.ravel(), tt.ravel()])
    weights = np.repeat(wr * wth, n_theta)
    return QuadratureRule("polar", nodes, weights)


_MAX_DOUBLINGS = 12


def adaptive_line(weight, rel_tol: float, degree_hint: int) -> QuadratureRule:
    """Truncated trapezoid rule for integrals of poly(x) * weight(x) over R.

    [-X, X] has the first X in 3, 3.5, ..., 30 where weight(X) (1+X)^{2 degree_hint}
    drops below 1e-16 (the weight is evaluated past 12 only if no X <= 12 does).
    The trapezoid rule on it, weights h weight(x_i) with the end weights
    halved, starts at 65 nodes and doubles until the moments x^0, x^2,
    x^{2 degree_hint} agree to rel_tol between two successive levels, then
    refines once more.  Every other node of a doubled np.linspace level is a
    node of the level before, bit for bit, so each level evaluates the weight
    at its new nodes only.  For an analytic weight that decays at least
    Gaussian-fast the rule converges geometrically (Trefethen & Weideman,
    SIAM Review 56, 2014), so it needs no higher-order end corrections.
    """
    ladder = np.arange(3.0, 30.5, 0.5)
    for part in (ladder[ladder <= 12.0], ladder[ladder > 12.0]):  # the weight costs most past 12
        below = np.flatnonzero(np.asarray(weight(part), dtype=float) * (1.0 + part) ** (2 * degree_hint) < 1e-16)
        if below.size:
            half = float(part[below[0]])
            break
    else:
        raise ConvergenceError("could not truncate: weight decays too slowly")

    def refine(values):
        """The next level's nodes and weight values, from the values of this level."""
        x = np.linspace(-half, half, 2 * len(values) - 1)
        out = np.empty(len(x))
        out[::2], out[1::2] = values, weight(x[1::2])
        return x, out

    def rule(x, values):
        w = values * (2.0 * half / (len(x) - 1))
        w[[0, -1]] *= 0.5
        return w, np.array([np.sum(w), np.sum(w * x**2), np.sum(w * x ** (2 * degree_hint))])

    x = np.linspace(-half, half, 65)
    values = np.asarray(weight(x), dtype=float)
    _, probes = rule(x, values)
    for _ in range(_MAX_DOUBLINGS):
        x, values = refine(values)
        _, new_probes = rule(x, values)
        if np.all(np.abs(new_probes - probes) <= rel_tol * np.abs(new_probes)):
            x, values = refine(values)  # one safety refinement beyond the agreement level
            return QuadratureRule("truncated_line", x, rule(x, values)[0])
        probes = new_probes
    raise ConvergenceError(f"adaptive_line: no convergence after {_MAX_DOUBLINGS} doublings")
