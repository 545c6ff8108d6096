import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cstk.errors import ConvergenceError, PoleError
from cstk.oracles import assoc_hermite, assoc_hermite_rows, hermite, hyp_pfq, lauricella_triple, mittag_leffler
from cstk.specfun import SeriesControl, _gamma_ld, _kummer_series, gamma_fn, laguerre, pochhammer

EPS_LD = float(np.finfo(np.longdouble).eps)


class TestGamma:
    def test_at_one(self):
        assert gamma_fn(1.0) == 1.0

    def test_half_against_integral_oracle(self):
        # independent oracle: Gamma(1/2) = int_0^inf t^{-1/2} e^{-t} dt
        ref, _ = quad(lambda t: t**-0.5 * math.exp(-t), 0, np.inf)
        assert gamma_fn(0.5) == pytest.approx(ref, rel=1e-12)

    def test_recursion_from_sqrt_pi(self):
        ref = 3.5 * 2.5 * 1.5 * gamma_fn(1.5)
        assert gamma_fn(4.5) == pytest.approx(ref, rel=1e-14)

    def test_negative_non_integer(self):
        # reflection: Gamma(-0.5) = -2 sqrt(pi)
        assert gamma_fn(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_pole(self, x):
        with pytest.raises(PoleError):
            gamma_fn(x)

    def test_accuracy_sweep(self):
        with mp.workdps(30):
            for x in np.linspace(0.1, 50.0, 37):
                assert gamma_fn(float(x)) == pytest.approx(float(mp.gamma(float(x))), rel=1e-13)

    def test_long_double_past_float64(self):
        # gamma_fn's bits where it is finite, a long-double product past it, inf past the long-double range
        assert _gamma_ld(170.5) == np.longdouble(gamma_fn(170.5))
        with mp.workdps(30):
            for x in (171.0, 172.3, 500.0, 1755.5):
                value = _gamma_ld(x)
                assert isinstance(value, np.longdouble)
                assert abs(mp.mpf(np.format_float_scientific(value, unique=True)) / mp.gamma(x) - 1) < 1e-15
        for x in (1756.5, 1e10, 1e300):  # at once: no product of x - 170 factors
            assert _gamma_ld(x) == np.inf


class TestPochhammer:
    def test_order_zero(self):
        assert pochhammer(3.7, 0) == 1.0

    def test_product(self):
        assert pochhammer(3.0, 4) == 360.0

    def test_zero_factor(self):
        assert pochhammer(-2.0, 3) == 0.0

    @given(st.floats(-10, 10, allow_nan=False), st.integers(0, 20))
    def test_recurrence_exact(self, a, k):
        assert pochhammer(a, k + 1) == pochhammer(a, k) * (a + k)


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre(0, 1.3, 4.2) == 1.0

    def test_linear(self):
        assert laguerre(1, 0.0, 2.0) == pytest.approx(-1.0, abs=1e-15)

    def test_negative_parameter_value(self):
        assert laguerre(2, -1.0, 1.0) == pytest.approx(-0.5, abs=1e-14)

    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_negative_parameter_identity(self, m, t):
        # L_m^(-k)(t) = (-t)^k (m-k)!/m! L_{m-k}^(k)(t) for 1 <= k <= m
        for k in range(1, m + 1):
            lhs = laguerre(m, -k, t)
            rhs = (-t) ** k * math.factorial(m - k) / math.factorial(m) * laguerre(m - k, k, t)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_generating_identity(self, alpha, x):
        for s in [0.5, -0.4, 0.25]:
            total = sum(laguerre(m, alpha - m, x) * s**m for m in range(60))
            ref = (1.0 + s) ** alpha * math.exp(-x * s)
            assert total == pytest.approx(ref, rel=1e-10)

    def test_array_input(self):
        t = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(laguerre(1, 0.5, t), 1.5 - t)

    def test_against_mpmath_on_box(self):
        # n <= 12, alpha in [0, 4], t in [0, 12], error scaled by max(1, |L|),
        # against the explicit power sum at 40 digits.  The recurrence runs in
        # the dtype of t: long double input to 1e-15; float64 input to 2e-13,
        # its own rounding (1.4e-13 at n = 12, alpha = 3.25, t = 0.8).
        rng = np.random.default_rng(7)
        alphas = np.concatenate([np.linspace(0.0, 4.0, 17), rng.uniform(0.0, 4.0, 8)])
        ts = np.concatenate([np.linspace(0.0, 12.0, 61), rng.uniform(0.0, 12.0, 20)])
        worst64 = worst_ld = 0.0
        with mp.workdps(40):
            tq = [mp.mpf(float(t)) for t in ts]
            for alpha in alphas:
                aq = mp.mpf(float(alpha))
                for n in range(13):
                    coeffs = [(-1) ** k * mp.rf(aq + k + 1, n - k) / (mp.factorial(n - k) * mp.factorial(k)) for k in range(n + 1)]
                    ref = np.array([float(mp.polyval(coeffs[::-1], t)) for t in tq])
                    scale = np.maximum(1.0, np.abs(ref))
                    worst64 = max(worst64, float(np.max(np.abs(laguerre(n, alpha, ts) - ref) / scale)))
                    val_ld = laguerre(n, alpha, ts.astype(np.longdouble))
                    assert val_ld.dtype == np.longdouble
                    worst_ld = max(worst_ld, float(np.max(np.abs(val_ld - ref) / scale)))
        assert worst_ld <= 1e-15
        assert worst64 <= 2e-13


class TestHermite:
    def test_examples(self):
        assert hermite(0, 0.3) == 1.0
        assert hermite(1, 1.5) == 3.0
        assert hermite(2, 1.0) == 2.0

    @given(st.integers(0, 10), st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=40)
    def test_assoc_reduces_at_beta_zero(self, n, x):
        assert assoc_hermite(n, x, 0.0) == hermite(n, x)

    @pytest.mark.parametrize("x", [0.3, -1.7, np.array([0.0, 0.3, -2.5]), np.array([1, 2])])
    def test_assoc_is_a_row_of_the_generator(self, x):
        for beta in (0.0, 1.2, 3.5):
            rows = list(itertools.islice(assoc_hermite_rows(x, beta), 12))
            for n, row in enumerate(rows):
                value = assoc_hermite(n, x, beta)
                assert type(value) is type(row) and np.array_equal(value, row)
                ref, prev = np.ones_like(np.asarray(x, float)), 0.0  # the forward recurrence, restarted per degree
                for k in range(n):
                    ref, prev = 2.0 * np.asarray(x, float) * ref - 2.0 * (k + beta) * prev, ref
                assert np.array_equal(value, ref)

    def test_assoc_examples(self):
        assert assoc_hermite(0, 0.7, 1.9) == 1.0
        assert assoc_hermite(1, 0.7, 1.9) == pytest.approx(1.4)
        assert assoc_hermite(2, 1.0, 0.5) == pytest.approx(1.0)


class TestHypPFQ:
    def test_at_zero(self):
        assert hyp_pfq([1.3, 0.4], [2.2, 0.9], 0.0) == 1.0

    def test_exponential(self):
        assert hyp_pfq([1.0], [1.0], 1.0) == pytest.approx(math.e, rel=1e-14)

    def test_kummer_example(self):
        lhs = math.exp(-2.0) * hyp_pfq([1.0], [2.0], 2.0)
        rhs = hyp_pfq([1.0], [2.0], -2.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.3])
    def test_kummer_identity_sweep(self, beta):
        for t in np.linspace(0.0, 10.0, 21):
            lhs = math.exp(t) * hyp_pfq([beta], [beta + 1.0], -t)
            rhs = hyp_pfq([1.0], [beta + 1.0], t)
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs)

    def test_2f2_against_mpmath(self):
        val = hyp_pfq([1.0, 3.1], [2.2, 1.4], 0.8 + 0.3j)
        with mp.workdps(30):
            ref = complex(mp.hyper([1.0, 3.1], [2.2, 1.4], 0.8 + 0.3j))
        assert val == pytest.approx(ref, rel=1e-13)

    def test_denominator_pole(self):
        with pytest.raises(PoleError):
            hyp_pfq([1.0], [-2.0], 0.5)

    def test_too_many_parameters(self):
        with pytest.raises(ValueError):
            hyp_pfq([1, 1, 1], [2], 0.5)

    def test_array_argument(self):
        t = np.array([0.0, 1.0, 2.0], dtype=complex)
        np.testing.assert_allclose(hyp_pfq([1.0], [1.0], t), np.exp(t), rtol=1e-13)

    @pytest.mark.parametrize("beta", [0.0, 0.7, 2.3])
    def test_parameter_grid_matches_scalar_calls(self, beta):
        # a tight tail test, so that neither route stops a term earlier than
        # the other and only rounding can separate them
        ctl = SeriesControl(rel_tol=1e-17)
        m = 4
        b = np.arange(m + 1) + beta + 1.0
        t = np.array([0.0, 0.5, -1.2 + 0.7j, 2.5j, -4.0, 4.0])
        grid = hyp_pfq([1.0, m + beta + 1.0], [b[:, None, None], b[None, :, None]], t, ctl)
        assert grid.shape == (m + 1, m + 1, len(t))
        for i in range(m + 1):
            for j in range(m + 1):
                for k, tk in enumerate(t):
                    ref = hyp_pfq([1.0, m + beta + 1.0], [b[i], b[j]], tk, ctl)
                    assert abs(grid[i, j, k] - ref) <= 1e-15 * abs(ref)

    def test_mixed_scale_elements_each_converge(self):
        # F(-6) is 1e5-1e7 times smaller than F(6) at the same term sizes; each
        # element must still meet its own tail test, as a scalar call does
        t = np.array([-6.0, 6.0])
        vals = hyp_pfq([1.0, 5.7], [np.array([[1.7], [3.7]]), 1.2], t)
        for i, b in enumerate([1.7, 3.7]):
            for k, tk in enumerate(t):
                with mp.workdps(30):
                    ref = complex(mp.hyper([1.0, 5.7], [b, 1.2], tk))
                assert vals[i, k] == pytest.approx(ref, rel=1e-12)

    def test_array_denominator_pole(self):
        with pytest.raises(PoleError):
            hyp_pfq([1.0], [np.array([0.5, 1.5, -3.0])], 0.5)
        with pytest.raises(PoleError):
            hyp_pfq([1.0, 2.0], [np.array([[1.5], [2.5]]), np.array([0.0, 4.0])], np.array([0.1, 0.2]))

    def test_long_double_argument_keeps_precision(self):
        t = np.array([1.0, 2.0], dtype=np.longdouble)
        assert hyp_pfq([1.0], [1.0], t).dtype == np.clongdouble
        assert hyp_pfq([1.0], [1.0], t.astype(float)).dtype == np.complex128

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_real_argument_sums_as_complex_bitwise(self, dtype):
        # a real t and real parameters are summed in real long double: bit for bit the sum at t + 0j
        t = np.linspace(-10.0, 10.0, 41).astype(dtype)
        for beta in (0.0, 0.5, 2.3):
            real = hyp_pfq([beta], [beta + 1.0], t)
            assert real.dtype == np.result_type(t, complex)
            assert np.array_equal(real, hyp_pfq([beta], [beta + 1.0], t + 0j))
            for tk in t:  # and so does a scalar call
                assert hyp_pfq([beta], [beta + 1.0], tk) == hyp_pfq([beta], [beta + 1.0], tk + 0j)
        # the (k, l) grid of oracles.closed_bracket on the squared radii of the density check
        m, beta = 4, 0.5
        b = (np.longdouble(beta) + 1 + np.arange(m + 1))[:, None]
        u = (np.geomspace(1e-2, 6.0, 48) ** 2).astype(dtype)
        grid = hyp_pfq([1.0, m + beta + 1.0], [b[:, None], b], u)
        assert grid.shape == (m + 1, m + 1, 48)
        assert np.array_equal(grid, hyp_pfq([1.0, m + beta + 1.0], [b[:, None], b], u + 0j))

    def test_batched_kummer_leg_near_scalar_calls(self):
        # the kummer-normalization check sums e^t 1F1(beta; beta+1; -t) at its 41 t in one call: the
        # batch sums on past the scalar 1e-13 tail test of the points that meet it first
        ts = np.linspace(0.0, 10.0, 41)
        for beta in (0.0, 0.5, 1.0, 2.3):
            batch = hyp_pfq([beta], [beta + 1.0], -ts).real
            scalar = np.array([hyp_pfq([beta], [beta + 1.0], -float(t)).real for t in ts])
            assert np.all(np.abs(batch - scalar) <= 1e-14 * np.abs(scalar))

    SCALAR_CASES = [((0.5,), (1.5,), -3.25), ((2.3,), (3.3,), -10.0), ((1.0,), (2.0,), -7.5)]

    def test_scalar_callers_unchanged(self):
        # pinned values: array parameters must leave the scalar route bit-for-bit
        pinned = [0.4862872445787076, 0.013437207878553398, 0.13325958875064686]
        for (numer, denom, t), ref in zip(self.SCALAR_CASES, pinned):
            assert hyp_pfq(numer, denom, t) == pytest.approx(ref, rel=1e-15, abs=0.0)

    def test_scalar_callers_against_mpmath(self):
        # at t = -10 the partial sums pass e^10 times the value: a term ratio
        # rounded to float64 costs 1e-12 there
        for numer, denom, t in self.SCALAR_CASES:
            with mp.workdps(30):
                ref = float(mp.hyper(numer, denom, t))
            assert abs(hyp_pfq(numer, denom, t) - ref) <= 1e-14 * abs(ref)


class TestMittagLeffler:
    def test_exponential_case(self):
        for t in [0.0, 0.7, 3.0]:
            assert mittag_leffler(1.0, 1.0, t) == pytest.approx(math.exp(t), rel=1e-13)

    def test_shifted(self):
        assert mittag_leffler(1.0, 2.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_confluent_relation(self):
        beta, t = 1.3, 2.0
        lhs = gamma_fn(beta + 1.0) * mittag_leffler(1.0, beta + 1.0, t)
        rhs = hyp_pfq([1.0], [beta + 1.0], t).real
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0, 1.0)


class TestLauricellaTriple:
    def test_at_origin(self):
        assert lauricella_triple(2.2, 1.2, 0.0, 0.0, 0.0) == 1.0

    @given(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_exponential_degeneration(self, u, v, w):
        # c=1, beta=0: the j-direction dies and (1)_{n+2k} cancels, e^{u+v} remains
        val = lauricella_triple(1.0, 0.0, u, v, w)
        assert val == pytest.approx(np.exp(u + v), rel=1e-12, abs=1e-12)

    def test_generating_example(self):
        c, beta, x, t = 2.2, 1.2, 0.3, 0.4
        val = lauricella_triple(c, beta, 2 * x * t, -t * t, -2 * t * t)
        direct = sum(t**n * assoc_hermite(n, x, beta) / pochhammer(c, n) for n in range(80))
        assert val == pytest.approx(direct, rel=1e-9)

    def test_pole_parameter(self):
        with pytest.raises(PoleError):
            lauricella_triple(-1.0, 0.5, 0.1, 0.1, 0.1)

    def test_budget_error(self):
        with pytest.raises(ConvergenceError):
            lauricella_triple(1.5, 0.5, 3.0, -2.0, 1.0, SeriesControl(max_terms=3))


class TestSeriesControl:
    def test_defaults(self):
        ctl = SeriesControl()
        assert ctl.rel_tol == 1e-13 and ctl.max_terms == 500

    @pytest.mark.parametrize(
        "kwargs", [{"rel_tol": 0.0}, {"rel_tol": -1.0}, {"max_terms": 0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SeriesControl(**kwargs)


def _mp_exact(x):
    """A long double, real or complex, as the exact mpmath number: float64 head plus float64 rest."""
    x = np.clongdouble(x)
    parts = []
    for v in (x.real, x.imag):
        head = float(v)
        parts.append(mp.mpf(head) + float(v - np.longdouble(head)))
    return mp.mpc(*parts)


class TestKummerSeries:
    """specfun._kummer_series, the one 1F1 engine: S(t) = M(1; beta+1; t), its Kummer side
    M(beta; beta+1; -t) and the two series of omega_beta."""

    @staticmethod
    def _error(a, b, y):
        """The engine's M(a, b, y) against 60-digit mpmath at one point: its error and
        sum (k+1) |t_k|, both over sum |t_k| of the exact terms, which its sum of |term| matches."""
        sums, absums, e = _kummer_series(((a, b),), np.array([y]))
        with mp.workdps(60):
            a, b, y = (_mp_exact(v) for v in (a, b, y))
            scale = mp.ldexp(1, int(e[0]))
            err = abs(_mp_exact(sums[0, 0]) * scale - mp.hyp1f1(a, b, y))
            term, k, plain, weighted = mp.mpf(1), 0, mp.mpf(0), mp.mpf(0)
            while k <= abs(y) + 10 or abs(term) > 1e-40 * plain:
                plain, weighted = plain + abs(term), weighted + (k + 1) * abs(term)
                term, k = term * (a + k) * y / ((b + k) * (k + 1)), k + 1
            assert abs(_mp_exact(absums[0, 0]).real * scale - plain) <= 1e-15 * plain
            return float(err / plain), float(weighted / plain)

    def _assert_within_rounding(self, a, b, y):
        # term k carries the roundings of k ratio steps, a few eps each: eps sum|t_k| alone is
        # not a bound (the error reaches 25 times it at y = 700), 5 eps sum (k+1)|t_k| is
        err, weighted = self._error(a, b, y)
        assert err <= 5 * EPS_LD * weighted, (a, b, y, err / EPS_LD, weighted)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.3])
    @pytest.mark.parametrize("t", [0.5, 9.0, 60.0, 400.0, 700.0, 3 + 4j, 20j, 15 - 25j, 30 + 10j])
    def test_m0_series_within_rounding(self, beta, t):
        b = np.longdouble(beta)
        y = np.clongdouble(t) if isinstance(t, complex) else np.longdouble(t)
        self._assert_within_rounding(np.longdouble(1), b + 1, y)  # S(t) as it stands
        if beta and not isinstance(t, complex):
            self._assert_within_rounding(b, b + 1, y)  # Kummer's side at -y

    @pytest.mark.parametrize("beta", [0.5, 1.7, 3.5, 10.0])
    @pytest.mark.parametrize("x", [0.5, 3.5, 8.0, 12.0])
    def test_omega_pairs_within_rounding(self, beta, x):
        y = np.longdouble(x) * np.longdouble(x)
        for a, b in (((1 - beta) / 2, 0.5), (1 - beta / 2, 1.5)):
            self._assert_within_rounding(np.longdouble(a), np.longdouble(b), y)

    def test_points_are_independent(self):
        # an array call stops each point where its own call stops
        ys = np.array([0.0, 0.5, 40.0, 3.0, 700.0], dtype=np.longdouble)
        sums, absums, e = _kummer_series(((0.25, 0.5), (0.75, 1.5)), ys)
        for i, y in enumerate(ys):
            one = _kummer_series(((0.25, 0.5), (0.75, 1.5)), ys[i : i + 1])
            assert (one[0][:, 0].tolist(), one[1][:, 0].tolist(), one[2][0]) == (
                sums[:, i].tolist(), absums[:, i].tolist(), e[i]), y

    def test_budget_counts_growing_terms(self):
        # past max_terms a block raises only while |y| >= k + 1; after that the tail is geometric
        y = np.array([20.0, 40.0], dtype=np.longdouble)
        with pytest.raises(ConvergenceError):
            _kummer_series(((1, 2),), y, max_terms=5)
        sums, _, e = _kummer_series(((1, 2),), y[:1], max_terms=5)
        assert sums[0, 0] * 2.0 ** e[0] == pytest.approx(math.expm1(20.0) / 20.0, rel=1e-15)
