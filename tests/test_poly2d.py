import cmath
import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstk.measures import CallableMeasure, GammaMeasure, gen_factorial, x_gen
from cstk.oracles import ito_hermite
from cstk.poly2d import ModeIndex, h_poly, h_poly_expand, landau_apply, p_norm
from cstk.quadrature import polar_rule
from cstk.specfun import gamma_fn, laguerre

modes = st.tuples(st.integers(0, 8), st.integers(0, 8), st.floats(0.0, 2.5, allow_nan=False))
points = st.complex_numbers(min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False)


class TestHPoly:
    def test_constant(self):
        assert h_poly(ModeIndex(0, 0, 1.7), 2.0 + 1.0j) == 1.0

    def test_diagonal_root(self):
        beta = 0.4
        z = math.sqrt(beta + 1.0)  # z zbar = beta + 1 is the L_1 root
        assert abs(h_poly(ModeIndex(1, 1, beta), complex(z))) < 1e-14

    def test_off_diagonal_example(self):
        # (2,1) at beta=0: z (z zbar - 2)
        assert h_poly(ModeIndex(2, 1, 0.0), 1.0 + 0.0j) == pytest.approx(-1.0)

    def test_zero_argument(self):
        assert h_poly(ModeIndex(3, 1, 0.5), 0.0) == 0.0
        assert h_poly(ModeIndex(2, 2, 0.5), 0.0) == pytest.approx(laguerre(2, 0.5, 0.0), rel=1e-14)

    @given(modes, points)
    @settings(max_examples=60, deadline=None)
    def test_conjugation_symmetry(self, mode, z):
        n, m, beta = mode
        a = h_poly(ModeIndex(n, m, beta), z)
        b = h_poly(ModeIndex(m, n, beta), z)
        assert abs(a - np.conjugate(b)) <= 1e-13 * max(1.0, abs(a))


class TestExpansion:
    def test_one_one(self):
        beta = 0.7
        coeffs = h_poly_expand(ModeIndex(1, 1, beta)).coeffs()
        assert coeffs[(1, 1)] == pytest.approx(1.0)
        assert coeffs[(0, 0)] == pytest.approx(-(beta + 1.0))

    def test_pure_monomial(self):
        coeffs = h_poly_expand(ModeIndex(4, 0, 1.1)).coeffs()
        assert coeffs == {(4, 0): pytest.approx(1.0)}

    def test_two_two_matches_laguerre(self):
        # L_2(t) = 1 - 2t + t^2/2 and H_{2,2}^(0) = L_2(z zbar)
        coeffs = h_poly_expand(ModeIndex(2, 2, 0.0)).coeffs()
        assert coeffs[(2, 2)] == pytest.approx(0.5)
        assert coeffs[(1, 1)] == pytest.approx(-2.0)
        assert coeffs[(0, 0)] == pytest.approx(1.0)

    def test_exponent_lattice_invariants(self):
        exp = h_poly_expand(ModeIndex(5, 3, 0.2))
        for (a, b), c in exp.terms:
            assert a - b == 5 - 3
            assert a <= 5 and b <= 3
            assert isinstance(c, np.longdouble)

    @given(modes, points)
    @settings(max_examples=60, deadline=None)
    def test_matches_closed_form(self, mode, z):
        n, m, beta = mode
        idx = ModeIndex(n, m, beta)
        a = h_poly_expand(idx).evaluate(z)
        b = h_poly(idx, z)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    @pytest.mark.parametrize(
        "n,m,beta,z",
        [
            (8, 5, 1.0589, 2.7625 - 0.2045j),  # the worst point of the closed-form comparison
            (8, 8, 1.5026102296070878, 1.875 + 1.5j),  # drawn by --hypothesis-seed=7
        ],
    )
    def test_recorded_points_against_mpmath(self, n, m, beta, z):
        with mp.workdps(40):
            zz = mp.mpc(z)
            s = min(n, m)
            lag = mp.laguerre(s, abs(n - m) + mp.mpf(beta), abs(zz) ** 2)
            ref = complex((-1) ** s * zz ** (n - s) * mp.conj(zz) ** (m - s) * lag)
        idx = ModeIndex(n, m, beta)
        for val in (h_poly_expand(idx).evaluate(z), h_poly(idx, z)):
            assert abs(val - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_exact_coefficients(self):
        # (3,2) at beta = 0.1: the coefficient of z is (beta+2)_2 / 2 for the
        # double 0.1 = 3602879701896397 / 2^55, formed exactly and rounded
        # once (the denominator is a power of two, so only the numerator rounds)
        coeffs = h_poly_expand(ModeIndex(3, 2, 0.1)).coeffs()
        b = Fraction(0.1)
        exact = (b + 2) * (b + 3) / 2
        assert exact.denominator == 2 ** (exact.denominator.bit_length() - 1)
        assert coeffs[(1, 0)] == np.longdouble(exact.numerator) / np.longdouble(exact.denominator)

    def test_array_matches_scalar_calls(self):
        zs = np.array([[0.3 + 0.2j, -1.9 + 2.4j], [2.5j, 1.1 - 0.3j]])
        exp = h_poly_expand(ModeIndex(6, 4, 0.7))
        vals, lvals = exp.evaluate(zs), landau_apply(0.7, exp, zs)
        assert vals.shape == lvals.shape == zs.shape
        for i, j in itertools.product(range(2), repeat=2):
            assert vals[i, j] == exp.evaluate(complex(zs[i, j]))
            assert lvals[i, j] == landau_apply(0.7, exp, complex(zs[i, j]))


class TestPNorm:
    def test_ground_state(self):
        beta = 1.4
        val = p_norm(ModeIndex(0, 0, beta), 5.0 + 2.0j)
        assert val == pytest.approx(1.0 / math.sqrt(gamma_fn(beta + 1.0)), rel=1e-14)

    def test_holomorphic_column(self):
        for n in range(5):
            z = 0.8 + 0.3j
            assert p_norm(ModeIndex(n, 0, 0.0), z) == pytest.approx(z**n / math.sqrt(math.factorial(n)), rel=1e-13)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_unit_norm_under_polar_quadrature(self, beta):
        rule = polar_rule(32, 64, beta)
        zpts = rule.complex_points()
        for n in range(6):
            for m in range(6):
                vals = p_norm(ModeIndex(n, m, beta), zpts)
                norm = float(np.sum(rule.weights * np.abs(vals) ** 2).real) / math.pi
                assert norm == pytest.approx(1.0, rel=1e-9)

    def test_measure_mismatch(self):
        with pytest.raises(ValueError):
            p_norm(ModeIndex(1, 1, 0.5), 1.0, GammaMeasure(0.0))

    def test_recorded_worst_point_against_mpmath(self):
        # the float64 route through ortho_poly_phi was 6.2e-14 off here
        n, m, beta, z = 8, 3, 1.1066, 2.4323 - 1.5899j
        with mp.workdps(40):
            zz, b = mp.mpc(z), mp.mpf(beta)
            h = (-1) ** m * zz ** (n - m) * mp.laguerre(m, n - m + b, abs(zz) ** 2)
            norm = mp.sqrt(mp.factorial(m) / mp.gamma(b + n + 1))
            ref, scale = complex(h * norm), float(norm * max(1, abs(h)))
        assert abs(p_norm(ModeIndex(n, m, beta), z) - ref) <= 1e-15 * scale

    def test_past_float64_gamma(self):
        # Gamma(beta + n + 1) overflows float64: this raised OverflowError
        n, m, beta, z = 200, 5, 0.5, 2.0
        with mp.workdps(40):
            b = mp.mpf(beta)
            h = (-1) ** m * mp.mpf(z) ** (n - m) * mp.laguerre(m, n - m + b, z * z)
            ref = float(h * mp.sqrt(mp.factorial(m) / mp.gamma(b + n + 1)))
        assert ref == pytest.approx(-1.2056717317652298e-119, rel=1e-15)
        assert abs(p_norm(ModeIndex(n, m, beta), z) - ref) <= 1e-13 * abs(ref)

    def test_generic_measure_with_gamma_moments(self):
        # the generic route (ortho_poly_phi on the Cholesky basis) agrees with the builtin one
        beta = 0.5
        generic = CallableMeasure(moment_fn=lambda s: math.gamma(s + 1.0), beta=beta)
        zs = np.array([0.0, 0.7 - 0.2j, -1.3 + 1.1j])
        for n, m in itertools.product(range(4), repeat=2):
            idx = ModeIndex(n, m, beta)
            np.testing.assert_allclose(p_norm(idx, zs, generic), p_norm(idx, zs), rtol=1e-12, atol=1e-14)


class TestIto:
    def test_examples(self):
        assert ito_hermite(0, 0, 1.0 + 2.0j) == 1.0
        z = 0.5 + 0.2j
        assert ito_hermite(1, 1, z) == pytest.approx(z * z.conjugate() - 1.0)

    @given(st.integers(0, 6), st.integers(0, 6), points)
    @settings(max_examples=40, deadline=None)
    def test_conjugation(self, m, n, z):
        assert ito_hermite(m, n, z) == pytest.approx(np.conjugate(ito_hermite(n, m, z)), abs=1e-10)

    def test_conjugation_exact_on_grid(self):
        # (z zbar)^min(m,n) is factored out, so the symmetry holds to the last bit
        for r, phase in itertools.product([0.1, 0.7, 1.3, 2.2, 3.0], [0.0, 0.4, 1.9, 2.8, 4.4, 5.9]):
            z = cmath.rect(r, phase)
            for m, n in itertools.product(range(9), repeat=2):
                assert ito_hermite(m, n, z) == ito_hermite(n, m, z).conjugate(), (m, n, z)
            for m in range(9):
                assert ito_hermite(m, m, z).imag == 0.0, (m, z)

    @given(st.integers(0, 6), st.integers(0, 6), points)
    @settings(max_examples=40, deadline=None)
    def test_rescaled_h_poly(self, m, n, z):
        ref = math.factorial(min(m, n)) * h_poly(ModeIndex(m, n, 0.0), z)
        assert ito_hermite(m, n, z) == pytest.approx(ref, rel=1e-11, abs=1e-11)


class TestLadder:
    @pytest.mark.parametrize("n,m", [(3, 2), (1, 4), (0, 0), (5, 5)])
    def test_operator_representation_coefficient(self, n, m):
        # raising from (0,0) m times in the second slot, by sqrt(x_{k+1,0}),
        # then n times in the first, by sqrt(x_{k+1,m}), accumulates exactly
        # sqrt(x_{n,m}! x_{m,0}!)
        meas = GammaMeasure(0.7)
        acc = 1.0
        for k in range(m):
            acc *= math.sqrt(x_gen(meas, k + 1, 0))
        for k in range(n):
            acc *= math.sqrt(x_gen(meas, k + 1, m))
        ref = math.sqrt(gen_factorial(meas, n, m) * gen_factorial(meas, m, 0))
        assert acc == pytest.approx(ref, rel=1e-12)


class TestLandau:
    def test_constant_killed(self):
        exp = h_poly_expand(ModeIndex(0, 0, 1.3))
        assert landau_apply(1.3, exp, 0.7 + 0.1j) == 0.0

    def test_zbar_eigenvalue_one(self):
        exp = h_poly_expand(ModeIndex(0, 1, 0.0))
        z = 0.6 - 0.8j
        assert landau_apply(0.0, exp, z) == pytest.approx(z.conjugate(), rel=1e-14)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.3])
    def test_eigen_identity(self, beta):
        rng = np.random.default_rng(5)
        for n in range(9):
            for m in range(n + 1):
                idx = ModeIndex(n, m, beta)
                exp = h_poly_expand(idx)
                for _ in range(5):
                    r = rng.uniform(0.2, 3.0)
                    z = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
                    lhs = landau_apply(beta, exp, complex(z))
                    rhs = m * h_poly(idx, complex(z))
                    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))

    def test_singular_origin(self):
        exp = h_poly_expand(ModeIndex(0, 2, 1.5))
        with pytest.raises(ZeroDivisionError):
            landau_apply(1.5, exp, 0.0)


def test_mode_index_validation():
    with pytest.raises(ValueError):
        ModeIndex(-1, 0, 0.0)
    with pytest.raises(ValueError):
        ModeIndex(0, 0, -0.5)
