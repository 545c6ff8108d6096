import cmath
import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstk.errors import ConvergenceError
from cstk.measures import CallableMeasure, GammaMeasure, gen_factorial, x_gen
from cstk.oracles import ito_hermite
from cstk.poly2d import (
    _EPS_LD,
    ModeIndex,
    _block_len,
    _head_laguerre,
    _p_rows,
    _row_sum,
    _tail_rows,
    h_poly,
    h_poly_expand,
    landau_apply,
    p_norm,
)
from cstk.quadrature import polar_rule
from cstk.specfun import SeriesControl, gamma_fn, laguerre

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


def _reference_row_sum(terms, m, ctl):
    """The term-by-term loop that poly2d._row_sum replaces: (sum, estimate, terms taken)."""
    total = absum = mag = 0
    small = 0
    for n, term in zip(range(ctl.max_terms + 1), terms):
        total = total + term
        mag, prev_mag = np.abs(term), mag
        absum = absum + mag
        small = small + 1 if n > m and np.all(mag <= np.maximum(ctl.rel_tol * np.abs(total), _EPS_LD * absum)) else 0
        if small == 2:
            return total, _EPS_LD * absum + np.maximum(mag, prev_mag), n + 1
    raise ConvergenceError("reference loop not converged")


# 0 or |w| >= 1e-6, so that 48 rows stay in the normal float64 range, where an ulp is relative
row_points = st.one_of(
    st.just(0j), st.complex_numbers(min_magnitude=1e-6, max_magnitude=3.0, allow_nan=False, allow_infinity=False)
)
row_cases = st.tuples(
    st.integers(0, 8),
    st.sampled_from([0.0, 0.5, 2.3]),
    st.sampled_from([(), (2,), (64,)]),  # a scalar, a pair and a point set past the block length
    st.lists(row_points, min_size=64, max_size=64),
)


BLOCKS = sorted({16, _block_len(1)})  # the lengths of a block of rows under test besides one row


class TestRowBlocks:
    """_p_rows and _row_sum a block of rows at a time against one row at a time,
    at 16 rows and at the default length of a few points."""

    @staticmethod
    def _points(shape, pts, dtype):
        return np.array(pts[: int(np.prod(shape))], dtype=dtype).reshape(shape)

    @given(row_cases, st.sampled_from([np.complex128, np.clongdouble]))
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_single_rows(self, case, dtype):
        m, beta, shape, pts = case
        w = self._points(shape, pts, dtype)
        single = np.concatenate(list(itertools.islice(_p_rows(m, beta, w, 1), 3 * max(BLOCKS))))
        for block in BLOCKS:
            blocks = list(itertools.islice(_p_rows(m, beta, w, block), 3))
            assert all(b.shape == (block,) + shape for b in blocks)
            rows = np.concatenate(blocks)
            if dtype == np.clongdouble:
                assert np.array_equal(rows, single[: 3 * block])
            else:
                # numpy's complex128 multiply may round a product differently in its
                # vector and its accumulate loops: at most one ulp per monomial step,
                # over the first 48 rows, which stay in the normal float64 range
                steps = np.maximum(np.arange(48) - m, 0).reshape((48,) + (1,) * len(shape))
                assert np.all(np.abs(rows[:48] - single[:48]) <= steps * np.finfo(float).eps * np.abs(single[:48]))

    @given(row_cases, st.sampled_from([np.complex128, np.clongdouble]))
    @settings(max_examples=60, deadline=None)
    def test_laguerre_factors_bitwise(self, case, dtype):
        m, beta, shape, pts = case
        w = self._points(shape, pts, dtype)
        u = (w * np.conj(w)).real
        start = np.array([laguerre(k, beta, u) for k in range(m + 1)])
        for block in BLOCKS:
            lag, ref, mono = start, start.copy(), np.ones_like(w)
            for n in range(m, m + 3 * block, block):
                _, mono, lag = _tail_rows(m, beta, w, n, block, mono, lag)
                for _ in range(block):  # the one-row step
                    for k in range(1, m + 1):
                        ref[k] += ref[k - 1]
                assert np.array_equal(lag, ref)

    @given(row_cases)
    @settings(max_examples=60, deadline=None)
    def test_row_sum_matches_term_loop(self, case):
        m, beta, shape, pts = case
        w = self._points(shape, pts, np.clongdouble)

        def terms(block):  # cross terms, which cancel, on a point set; |row|^2 on a scalar
            return block * np.conj(block[:, ::-1] if block.ndim > 1 else block)

        ctl = SeriesControl()
        ref, ref_est, taken = _reference_row_sum((t[0] for t in map(terms, _p_rows(m, beta, w, 1))), m, ctl)
        for block in [1] + BLOCKS:
            total, est = _row_sum(map(terms, _p_rows(m, beta, w, block)), m, ctl, "test series")
            assert np.array_equal(total, ref) and np.array_equal(est, ref_est)
        # the budget: a stop at n = max_terms succeeds, one row more raises
        for block in [1] + BLOCKS:
            total, _ = _row_sum(map(terms, _p_rows(m, beta, w, block)), m, SeriesControl(max_terms=taken - 1), "s")
            assert np.array_equal(total, ref)
            with pytest.raises(ConvergenceError, match="s not converged in"):
                _row_sum(map(terms, _p_rows(m, beta, w, block)), m, SeriesControl(max_terms=taken - 2), "s")


def _laguerre_mp(n: int, a, u):
    """L_n^(a)(u) and the sum of its |terms| in the explicit sum
    sum_j binom(n+a, n-j) (-u)^j / j!, in mpmath at its working precision."""
    term = mp.fprod((a + i) / i for i in range(1, n + 1))  # binom(n+a, n)
    total = absum = term
    for j in range(n):
        term *= -u * (n - j) / ((j + 1) * (a + j + 1))
        total, absum = total + term, absum + abs(term)
    return total, absum


def _mp_value(v):
    """A float64 or long double value, exactly, as an mpmath number."""
    num, den = v.as_integer_ratio()
    return mp.mpf(num) / den


def _table_start(m: int, beta: float, w):
    """The start of _p_rows before its O(m) recurrences, kept as a reference: the
    (m+1) x (m+1) table L_k^(m-i+beta)(|w|^2) of the degree recurrence at a vector
    of alpha, the head rows read off its diagonal with powers of wbar by `**`.
    Returns the head rows and the factors (mono, lag) of row m."""
    w = np.asarray(w)
    real = w.real.dtype.type
    u = (w * np.conj(w)).real
    alpha = real(beta) + np.arange(m, -1, -1, dtype=real).reshape((m + 1,) + (1,) * u.ndim)
    prev, cur, table = 0, np.ones_like(alpha * u), []
    for k in range(m + 1):
        table.append(cur)
        prev, cur = cur, ((2 * k + 1 + alpha - u) * cur - (k + alpha) * prev) / (k + 1)
    poch_m = np.prod(real(beta) + np.arange(1, m + 1, dtype=real))
    head = [(-1) ** n * np.sqrt(real(math.factorial(n)) / poch_m) * np.conj(w) ** (m - n) * table[n][n] for n in range(m)]
    mono = (-1) ** m * np.sqrt(real(math.factorial(m)) / poch_m) * np.ones_like(w)
    return head, mono, np.array([t[m] for t in table])


start_cases = st.tuples(
    st.integers(0, 8),
    st.sampled_from([0.0, 0.5, 2.3]),
    st.sampled_from([(), (1,), (64,)]),  # a scalar, one point (started on numpy scalars) and a point set
    st.lists(row_points, min_size=64, max_size=64),
    st.sampled_from([np.complex128, np.clongdouble]),
)


class TestRowStart:
    """The O(m) start of _p_rows: the head diagonal against mpmath, and every row
    against the (m+1) x (m+1) table start it replaced."""

    BETAS = (0.0, 0.5, 2.3)

    @pytest.mark.parametrize(
        "real, us, tol",
        [
            (np.float64, (0.0, 1e-12, 1.0, 9.0, 36.0), 2e-14),
            (np.longdouble, (0.0, 1e-12, 1.0, 9.0, 36.0, 100.0, 225.0), 1e-17),  # |z| = 15: the coherent range
        ],
    )
    def test_head_factors_against_mpmath(self, real, us, tol):
        with mp.workdps(40):
            for m in range(1, 9):
                for beta in self.BETAS:
                    for u in us:
                        heads = itertools.islice(_head_laguerre(m, beta, real(u)), m)
                        for n, d in enumerate(heads):
                            ref, _ = _laguerre_mp(n, m - n + mp.mpf(beta), mp.mpf(u))
                            assert abs(_mp_value(d) - ref) <= tol * max(1, abs(ref)), (m, beta, u, n)

    def test_head_factors_within_their_condition(self):
        """Over u <= 400, denser where the roots lie, within 4 eps of the sum of
        |terms| (2.4 at worst measured), in float64 and long double: near a root,
        where that sum exceeds |L| some 1e5 times, no bound relative to
        max(1, |L|) can hold at eps."""
        us = 400.0 * (np.arange(81) / 80) ** 2
        with mp.workdps(40):
            for m in range(1, 9):
                for beta in self.BETAS:
                    heads = {
                        real: list(itertools.islice(_head_laguerre(m, beta, us.astype(real)), m))
                        for real in (np.float64, np.longdouble)
                    }
                    for n in range(m):
                        for i, u in enumerate(us):
                            ref, absum = _laguerre_mp(n, m - n + mp.mpf(beta), mp.mpf(u))
                            for real, d in heads.items():
                                assert abs(_mp_value(d[n][i]) - ref) <= 4 * np.finfo(real).eps * absum, (m, beta, u, n)

    @given(start_cases)
    @settings(max_examples=50, deadline=None)
    def test_rows_against_table_start(self, case):
        m, beta, shape, pts, dtype = case
        w = np.array(pts[: int(np.prod(shape))], dtype=dtype).reshape(shape)
        if not shape:
            w = w[()]  # a numpy scalar, as kernel_B passes it
        head, mono, lag = _table_start(m, beta, w)
        # rows n >= m: bit for bit, one row at a time (the step copied) and in blocks (_tail_rows)
        single, ref_mono, ref_lag, w_arr = [], mono, lag.copy(), np.asarray(w)
        for n in range(m, m + 40):
            single.append(ref_mono * ref_lag[m])
            ref_mono = ref_mono * w_arr * (1 / np.sqrt(w.real.dtype.type(beta) + n + 1))
            for k in range(1, m + 1):
                ref_lag[k] += ref_lag[k - 1]
        rows = np.concatenate(list(itertools.islice(_p_rows(m, beta, w, 1), m + 40)))
        assert rows.dtype == dtype and rows.shape == (m + 40,) + np.shape(w)
        assert np.array_equal(rows[m:], np.array(single))
        in_blocks = []
        for block in BLOCKS:
            first = m + (-m) % block
            blocks = [_tail_rows(m, beta, w_arr, m, first - m, mono, lag)[0]] if first > m else []
            ref_mono, ref_lag = (mono, lag) if first == m else _tail_rows(m, beta, w_arr, m, first - m, mono, lag)[1:]
            for n in range(first, first + 2 * block, block):
                rows_n, ref_mono, ref_lag = _tail_rows(m, beta, w_arr, n, block, ref_mono, ref_lag)
                blocks.append(rows_n)
            in_blocks.append(np.concatenate(list(itertools.islice(_p_rows(m, beta, w, block), first // block + 2))))
            assert np.array_equal(in_blocks[-1][m:], np.concatenate(blocks))
        # rows n < m: the same values to within a few ulp of their condition,
        # sqrt(n! / (beta+1)_m) |w|^{m-n} sum_j |term_j| (10.6 ulp at worst measured)
        real = w.real.dtype.type
        u = (w * np.conj(w)).real
        poch_m = np.prod(real(beta) + np.arange(1, m + 1, dtype=real))
        for n in range(m):
            cond = np.sqrt(real(math.factorial(n)) / poch_m) * np.abs(w) ** (m - n) * laguerre(n, m - n + beta, -u)
            eps = np.finfo(real).eps
            for got in [rows] + in_blocks:
                assert np.all(np.abs(got[n] - head[n]) <= 16 * eps * cond)


    @given(start_cases, st.sampled_from([1, 16]))
    @settings(max_examples=30, deadline=None)
    def test_one_point_rows_as_in_an_array(self, case, block):
        """At one point the start runs on numpy scalars: a scalar and a 1-point
        array get the rows the point gets inside a 64-point array, bit for bit,
        in blocks of ``block`` rows and of the default length at one point."""
        m, beta, _, pts, dtype = case
        w = np.array(pts, dtype=dtype)
        for size in (block, _block_len(1)):
            rows = np.concatenate(list(itertools.islice(_p_rows(m, beta, w, size), 2 + 32 // size)))
            for i in (0, 17, 63):
                for one in (w[i], w[i : i + 1]):
                    got = np.concatenate(list(itertools.islice(_p_rows(m, beta, one, size), 2 + 32 // size)))
                    assert np.array_equal(got.reshape(len(rows)), rows[:, i])

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
