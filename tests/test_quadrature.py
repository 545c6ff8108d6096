import math

import numpy as np
import pytest
from scipy.special import roots_genlaguerre

import cstk.quadrature
from cstk import verify
from cstk.errors import ConvergenceError
from cstk.quadrature import QuadratureRule, adaptive_line, gauss_hermite, gauss_laguerre, polar_rule
from cstk.specfun import gamma_fn
from cstk.transforms import basis_phi, omega_weight

# (beta, m) of the line rules that cstk transform builds for perfbench's transform workload
WORKLOAD_CASES = ((0.0, 5), (0.5, 8), (1.0, 4), (2.3, 0))


@pytest.fixture(scope="module")
def workload_rules():
    return {
        (beta, m): adaptive_line(lambda x, b=beta: omega_weight(x, b), 1e-11, m + 8) for beta, m in WORKLOAD_CASES
    }


class TestGaussLaguerre:
    def test_two_point_closed_form(self):
        rule = gauss_laguerre(2, 0.0)
        np.testing.assert_allclose(sorted(rule.nodes), [2 - math.sqrt(2), 2 + math.sqrt(2)], rtol=1e-14)
        ref_w = sorted([(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4], reverse=True)
        np.testing.assert_allclose(sorted(rule.weights, reverse=True), ref_w, rtol=1e-14)

    def test_degree_one_exactness(self):
        rule = gauss_laguerre(1, 0.0)
        assert float(np.sum(rule.weights * rule.nodes)) == pytest.approx(1.0, rel=1e-14)

    def test_fractional_alpha_moment(self):
        rule = gauss_laguerre(4, 0.5)
        val = float(np.sum(rule.weights * rule.nodes**3))
        assert val == pytest.approx(gamma_fn(4.5), rel=1e-13)

    @pytest.mark.parametrize("n,alpha", [(2, 0.0), (8, 0.5), (16, 2.3), (24, 1.0)])
    def test_polynomial_exactness(self, n, alpha):
        rule = gauss_laguerre(n, alpha)
        for k in range(2 * n):
            val = float(np.sum(rule.weights * rule.nodes**k))
            assert val == pytest.approx(gamma_fn(k + alpha + 1.0), rel=1e-13)

    def test_polynomial_exactness_large_rule(self):
        # node rounding enters as ~k eps (u_max/u), so the top degrees of a
        # big rule sit slightly above the 1e-13 line
        rule = gauss_laguerre(32, 1.0)
        for k in range(2 * 32):
            val = float(np.sum(rule.weights * rule.nodes**k))
            assert val == pytest.approx(gamma_fn(k + 2.0), rel=1e-12)

    def test_against_scipy(self):
        nodes, weights = roots_genlaguerre(12, 1.7)
        rule = gauss_laguerre(12, 1.7)
        np.testing.assert_allclose(rule.nodes, nodes, rtol=1e-12)
        np.testing.assert_allclose(rule.weights, weights, rtol=1e-10)

    def test_positive_weights_and_mass(self):
        rule = gauss_laguerre(40, 2.3)
        assert np.all(rule.weights > 0)
        assert rule.mass == pytest.approx(gamma_fn(3.3), rel=1e-12)


class TestGaussHermite:
    def test_single_node(self):
        rule = gauss_hermite(1)
        assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert rule.weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_second_moment(self):
        rule = gauss_hermite(6)
        val = float(np.sum(rule.weights * rule.nodes**2))
        assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)

    def test_odd_moments_vanish(self):
        rule = gauss_hermite(9)
        for k in [1, 3, 5]:
            assert abs(float(np.sum(rule.weights * rule.nodes**k))) <= 1e-15 * rule.mass


class TestPolarRule:
    def test_mass(self):
        for beta in [0.0, 1.0, 2.3]:
            rule = polar_rule(16, 32, beta)
            assert rule.mass == pytest.approx(math.pi * gamma_fn(beta + 1.0), rel=1e-13)

    def test_gaussian_moments(self):
        rule = polar_rule(16, 32, 0.0)
        z = rule.complex_points()
        assert complex(np.sum(rule.weights * z * np.conjugate(z))).real == pytest.approx(math.pi, rel=1e-13)
        assert abs(complex(np.sum(rule.weights * z))) <= 1e-15 * rule.mass

    def test_angular_exactness(self):
        rule = polar_rule(8, 64, 0.5)
        th = rule.nodes[:, 1]
        for k in range(1, 32):
            assert abs(np.sum(rule.weights * np.exp(1j * k * th))) <= 1e-14 * rule.mass

    def test_complex_points_requires_polar(self):
        rule = gauss_hermite(3)
        with pytest.raises(ValueError):
            rule.complex_points()


class TestAdaptiveLine:
    def test_gaussian_mass(self):
        rule = adaptive_line(lambda x: np.exp(-(x**2)), 1e-10, 4)
        assert rule.mass == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_pcf_weight_beta_zero(self):
        # |D_0(ix sqrt2)|^{-2} = e^{-x^2}
        rule = adaptive_line(lambda x: omega_weight(x, 0.0) * math.sqrt(math.pi), 1e-10, 4)
        assert rule.mass == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_omega_unit_mass(self):
        rule = adaptive_line(lambda x: omega_weight(x, 1.0), 1e-9, 4)
        assert rule.mass == pytest.approx(1.0, rel=1e-8)

    def test_positive_weights(self):
        rule = adaptive_line(lambda x: np.exp(-(x**2)), 1e-9, 3)
        assert np.all(rule.weights > 0)

    def test_slow_decay_rejected(self):
        with pytest.raises(ConvergenceError):
            adaptive_line(lambda x: 1.0 / (1.0 + x**2), 1e-9, 4)

    def test_integrate_callable(self):
        rule = adaptive_line(lambda x: np.exp(-(x**2)), 1e-10, 4)
        val = rule.integrate(lambda x: x * x)
        assert complex(val).real == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-9)

    @pytest.mark.parametrize("degree", [4, 8, 16])
    def test_even_moments_exact(self, degree):
        rule = adaptive_line(lambda x: np.exp(-(x**2)), 1e-11, degree)
        for k in range(degree + 1):
            val = float(np.sum(rule.weights * rule.nodes ** (2 * k)))
            assert val == pytest.approx(math.gamma(k + 0.5), rel=1e-15, abs=0.0)
        assert abs(float(np.sum(rule.weights * rule.nodes**3))) <= 1e-16 * rule.mass

    @staticmethod
    def _direct_rule(weight, half, npts):
        """The trapezoid rule on npts nodes of [-half, half], each weight evaluated afresh."""
        x = np.linspace(-half, half, npts)
        w = np.asarray(weight(x), dtype=float) * (2.0 * half / (npts - 1))
        w[[0, -1]] *= 0.5
        return x, w

    @pytest.mark.parametrize("beta,degree", [(0.0, 4), (0.5, 16), (1.0, 12), (1.7, 6), (2.3, 8), (3.5, 2)])
    def test_levels_reuse_values_bitwise(self, beta, degree):
        # each level evaluates only its new nodes; the rule equals the direct construction bit for bit
        calls = []

        def counting(x):
            calls.append(np.array(x, dtype=float))
            return omega_weight(x, beta)

        rule = adaptive_line(counting, 1e-11, degree)
        ladder = np.arange(3.0, 30.5, 0.5)
        levels = [c for c in calls if not np.isin(c, ladder).all()]
        assert np.array_equal(np.sort(np.concatenate(levels)), rule.nodes)  # each node evaluated once
        x, w = self._direct_rule(lambda x: omega_weight(x, beta), float(rule.nodes[-1]), len(rule.nodes))
        assert np.array_equal(rule.nodes, x) and np.array_equal(rule.weights, w)

    def test_ladder_past_twelve_only_when_needed(self):
        # a Gaussian truncates at x <= 12, so no ladder point past 12 is evaluated
        seen = []

        def counting(x):
            seen.extend(np.abs(np.asarray(x)).tolist())
            return np.exp(-(x**2))

        adaptive_line(counting, 1e-10, 4)
        assert max(seen) <= 12.0
        slow = adaptive_line(lambda x: np.exp(-0.05 * x**2), 1e-6, 0)  # weight(12) = 7.5e-4
        assert 12.0 < slow.nodes[-1] <= 30.0

    def test_workload_rules_are_small(self, workload_rules, monkeypatch):
        assert all(len(rule.nodes) <= 513 for rule in workload_rules.values())
        built = []

        def recording(*args, **kwargs):
            built.append(adaptive_line(*args, **kwargs))
            return built[-1]

        # the assoc-hermite check builds one rule per beta
        monkeypatch.setattr(cstk.quadrature, "adaptive_line", recording)
        assert verify.check_assoc_hermite().passed
        assert len(built) == 3 and all(len(rule.nodes) <= 257 for rule in built)

    @pytest.mark.parametrize("beta,m", WORKLOAD_CASES)
    def test_workload_rules_keep_phi_orthonormal(self, workload_rules, beta, m):
        # the grid projection of apply_transform stops on the unprojected rest,
        # which holds only while the rule keeps phi_n orthogonal to the phi_k already projected
        rule = workload_rules[(beta, m)]
        phi = np.array([basis_phi(n, rule.nodes, beta) for n in range(81)])
        dev = np.abs((phi * rule.weights) @ phi.T - np.eye(81))
        assert np.max(dev[:7, :]) <= 5e-14  # degrees <= 6 into degrees <= 80
        top = 2 * (m + 8) + 1
        assert np.max(dev[:top, :top]) <= 5e-13


def test_rule_is_frozen():
    rule = gauss_hermite(2)
    with pytest.raises(Exception):
        rule.kind = "other"
    assert isinstance(rule, QuadratureRule)
