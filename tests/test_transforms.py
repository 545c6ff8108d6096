import cmath
import itertools
import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from cstk.coherent import CoherentSpec, eta_density, kernel_K, norm_closed_m0, norm_series, overlap_closed
from cstk.measures import GammaMeasure
from cstk.poly2d import ModeIndex, p_norm
from cstk.quadrature import QuadratureRule, adaptive_line
from cstk import poly2d as poly2d_module
from cstk import transforms as transforms_module
from cstk.errors import ConvergenceError, NumericError
from cstk.oracles import assoc_hermite, kernel_B_mp, kernel_B_true_poly, lauricella_triple
from cstk.specfun import DEFAULT_CONTROL, SeriesControl, gamma_fn, pochhammer
from cstk.transforms import (
    SampledFunction,
    apply_transform,
    basis_phi,
    kernel_B,
    kernel_B_analytic,
    _omega_kummer,
    load_sampled,
    omega_weight,
)

DATA = Path(__file__).resolve().parent / "data"
# the regression sweep; z = 0 is added to the radii and checked against its closed limit
SWEEP_GRID = {"m": list(range(9)), "beta": [0.0, 0.5, 2.3], "r": [1e-6, 1e-4, 1e-2, 0.1, 1.0, 3.0],
              "phase": [0.3, 2.5], "x": [-3.0, 0.7, 3.0]}
# small-|z| points where the Hermite-Laguerre + Lauricella form of the kernel
# cancels; the same four points are kept by the benchmark's eval workload
KERNEL_B_FAULT_POINTS = (
    (8, 0.5, 0.01 + 0.003j, 0.7),
    (8, 0.5, 0.1 + 0.0j, 0.7),
    (4, 0.5, 1.01e-4 + 0.0j, 0.3),
    (4, 0.5, 5e-5 + 0.0j, 0.3),
)


def _zero_limit(m, beta, x):
    """kernel_B at z = 0: sqrt(Gamma(beta+1)) P~_{m,m}(0) phi_m(x)."""
    return math.sqrt(gamma_fn(beta + 1.0)) * p_norm(ModeIndex(m, m, beta), 0.0) * basis_phi(m, x, beta)


@pytest.fixture(scope="module")
def rules():
    return {
        beta: adaptive_line(lambda x, b=beta: omega_weight(x, b), 1e-9, 8)
        for beta in (0.0, 1.0, 2.3)
    }


class TestOmegaWeight:
    def test_beta_zero_closed_form(self):
        for x in [0.0, 0.7, 2.5, 5.0]:
            assert omega_weight(x, 0.0) == pytest.approx(math.exp(-x * x) / math.sqrt(math.pi), rel=1e-14)

    def test_even(self):
        x = np.linspace(0.1, 8.0, 23)
        w_plus = omega_weight(x, 1.7)
        w_minus = omega_weight(-x, 1.7)
        assert np.all(np.abs(w_plus - w_minus) <= 1e-14 * w_plus)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.7])
    def test_unit_mass(self, beta):
        rule = adaptive_line(lambda x: omega_weight(x, beta), 1e-9, 3)
        assert rule.mass == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("beta", [0.5, 1.7, 2.3])
    def test_against_reference(self, beta):
        for x in [0.5, 3.2, 4.5, 6.0, 8.0]:
            with mp.workdps(50):
                d2 = abs(mp.pcfd(-beta, 1j * mp.sqrt(2) * x)) ** 2
                ref = float(1.0 / (mp.sqrt(mp.pi) * mp.gamma(beta + 1) * d2))
            assert omega_weight(x, beta) == pytest.approx(ref, rel=3e-9)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.7, 2.3, 3.5])
    def test_kummer_form_against_mpmath(self, beta):
        # the weight pieced together from the D series, a per-beta Chebyshev fit
        # and an asymptotic tail was up to 5.5e-12 off on this sweep
        xs = np.concatenate([np.linspace(0.0, 12.0, 49), [3.5, 7.0, 20.0, 26.0, 27.0]])
        vals = omega_weight(xs, beta)
        with mp.workdps(50):
            b = mp.mpf(beta)
            for x, val in zip(xs, vals):
                d2 = abs(mp.pcfd(-b, 1j * mp.sqrt(2) * mp.mpf(float(x)))) ** 2
                ref = float(1 / (mp.sqrt(mp.pi) * mp.gamma(b + 1) * d2))
                assert abs(val - ref) <= 1e-14 * ref, (x, val, ref)  # exactly 0 where ref underflows

    def test_cancelling_sums_raise(self):
        # the rounding estimate of A^2 + B^2 over x in [0, 30]: at most 5.8e-15 at beta = 20,
        # first past 1e-12 at beta = 30; omega_weight(5, 100) returned 0.007235 (mp.pcfd: 0.04199)
        xs = np.linspace(0.0, 30.0, 301)
        for beta in (20.0, 25.0):
            assert np.all(np.isfinite(omega_weight(xs, beta)))
        for beta in (30.0, 50.0, 100.0):
            with pytest.raises(NumericError, match="omega_weight misses 1e-12"):
                omega_weight(xs, beta)
        with pytest.raises(NumericError, match="x=5.0"):
            omega_weight(5.0, 100.0)

    def test_past_the_gamma_overflow(self):
        # Gamma(beta + 1) overflows float64 past beta = 170.6: omega_weight raised OverflowError,
        # and 2^beta / Gamma(beta + 1) in float64 is subnormal at beta = 200 (2.4e-9 off) and 0 at 300;
        # 1 / Gamma((1+beta)/2) is 0 in float64 past beta = 342.25 (A dropped: 0.3628 for 0.02429 at
        # x = 0.01) and 1 / Gamma(beta/2) past 343.25
        with mp.workdps(60):
            for x, beta in [(0.5, 171.0), (0.5, 200.0), (0.25, 300.0), (0.01, 343.0), (0.5, 343.0),
                            (0.01, 400.0), (0.25, 400.0)]:
                b = mp.mpf(beta)
                ref = float(1 / (mp.sqrt(mp.pi) * mp.gamma(b + 1) * abs(mp.pcfd(-b, 1j * mp.sqrt(2) * mp.mpf(x))) ** 2))
                assert abs(omega_weight(x, beta) - ref) <= 1e-12 * ref, (x, beta)

    def test_lgamma_rounding_in_the_estimate(self):
        # at beta = 800 eps (lgamma((1+beta)/2) + lgamma(beta/2)) is 8.9e-13: it passes at x = 0, where B = 0,
        # and misses 1e-12 at x = 0.3, where it counts twice on B^2 (the estimate of the sums alone passes there)
        with mp.workdps(60):
            ref = float(1 / (mp.sqrt(mp.pi) * mp.gamma(801) * abs(mp.pcfd(-800, 0)) ** 2))
        assert abs(omega_weight(0.0, 800.0) - ref) <= 1e-12 * ref
        with pytest.raises(NumericError, match="omega_weight misses 1e-12 at beta=800.0, x=0.3"):
            omega_weight(0.3, 800.0)

    def test_lgamma_rounding_raises_without_a_sum(self, monkeypatch):
        # from beta of about 880 on, eps times the lgamma values alone misses 1e-12 at every x; the
        # series would take beta/64 blocks, without end at beta = 1e300, so none is started
        def no_sum(*args, **kwargs):
            raise AssertionError("summed")

        monkeypatch.setattr(transforms_module, "_kummer_series", no_sum)
        for beta in (900.0, 1e300):
            with pytest.raises(NumericError, match="omega_weight misses 1e-12 at beta="):
                omega_weight(np.array([0.0, 0.5]), beta)
        assert omega_weight(np.array([]), 1e300).shape == (0,)

    @pytest.mark.parametrize("beta", [30.0, 50.0, 100.0])
    def test_large_beta_values_it_returns(self, beta):
        # where the estimate passes, the value is within 1e-10 of 60-digit mpmath
        returned = 0
        with mp.workdps(60):
            b = mp.mpf(beta)
            for x in np.linspace(0.0, 30.0, 31):
                try:
                    val = omega_weight(x, beta)
                except NumericError:
                    continue
                returned += 1
                d2 = abs(mp.pcfd(-b, 1j * mp.sqrt(2) * mp.mpf(float(x)))) ** 2
                ref = float(1 / (mp.sqrt(mp.pi) * mp.gamma(b + 1) * d2))
                assert abs(val - ref) <= 1e-10 * ref, (x, val, ref)  # exactly 0 where ref underflows
        assert returned > 0

    def test_scalar_calls_match_array_call(self):
        xs = np.array([-7.5, -3.2, 0.0, 1e-9, 0.8, 3.2, 3.5, 5.0, 7.0, 7.5, 12.0, 27.0])
        for beta in (0.5, 1.0, 2.3, 3.5):
            vals = omega_weight(xs, beta)
            assert [omega_weight(float(x), beta) for x in xs] == list(vals)
            assert omega_weight(xs.reshape(3, 4), beta).tolist() == vals.reshape(3, 4).tolist()
        assert isinstance(omega_weight(1.0, 1.7), float)
        for beta in (0.0, 1.7):
            assert omega_weight(np.array([]), beta).shape == (0,)

    @pytest.mark.parametrize("beta", [0.5, 1.7, 3.5])
    def test_far_tail_underflows_to_zero(self, beta, monkeypatch):
        # the sums would need about x^2 terms; past the underflow bound they are never started
        started, kummer_series = [], transforms_module._kummer_series

        def recording(pairs, y, *args):
            started.extend(y.tolist())
            return kummer_series(pairs, y, *args)

        monkeypatch.setattr(transforms_module, "_kummer_series", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert omega_weight(np.array([30.0, -40.0, 1e6, 1e20, 1e300]), beta).tolist() == [0.0] * 5
            assert omega_weight(np.array([26.0, 30.0]), beta)[0] > 0.0
            assert _omega_kummer(np.array([4000.0, 1e200]), beta).tolist() == [0.0, 0.0]  # float64 sums too
        assert started == [26.0**2]

    def test_double_working_precision(self):
        # where np.longdouble is float64, e^{x^2} overflows past |x| ~ 26.6 and
        # A^2 + B^2 past |x| ~ 18.8; the rescaled sums stay finite and accurate
        xs = np.array([0.0, 0.5, 5.0, 12.0, 18.8, 20.0, 26.0, 26.7, 27.0, 30.0, 40.0, 100.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for beta in (0.5, 1.7, 3.5):
                vals = _omega_kummer(xs, beta)
                assert vals.dtype == np.float64
                assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
                np.testing.assert_allclose(vals, omega_weight(xs, beta), rtol=1e-12, atol=1e-300)

    def test_rejects_non_finite_x(self):
        for x in (math.inf, math.nan, np.array([0.5, -math.inf])):
            with pytest.raises(ValueError, match="finite"):
                omega_weight(x, 1.7)


@pytest.mark.parametrize("beta", [-1.5, -0.5, math.nan, math.inf])
def test_real_line_rejects_invalid_beta(beta):
    # omega_weight returned -0.0142365 at beta = -1.5, x = 1; kernel_B took sqrt of a negative number;
    # overlap_closed returned a value at beta = -0.5, and ModeIndex and CoherentSpec let nan and inf through
    rule = QuadratureRule("truncated_line", np.array([0.0]), np.array([1.0]))
    calls = [
        lambda: omega_weight(1.0, beta),
        lambda: basis_phi(2, 0.3, beta),
        lambda: kernel_B(1, beta, 0.5 + 0.1j, 0.3),
        lambda: apply_transform(SampledFunction(kind="coeffs", beta=beta, coeffs=np.ones(2)), 1, beta, [0.5], rule),
        lambda: overlap_closed(1.0, 0.5, 0, beta),
        lambda: kernel_K(1.0, 0.5, beta),
        lambda: eta_density(0.5, 2, beta),
        lambda: norm_closed_m0(beta, 1.0),
        lambda: ModeIndex(2, 1, beta),
        lambda: CoherentSpec(z=1.0, idx_m=1, beta=beta),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="beta must be non-negative"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, -math.inf), complex(math.nan, 1.0)])
def test_rejects_non_finite_points(bad):
    # each ran its whole 500-term budget, printed RuntimeWarnings and raised
    # ConvergenceError; apply_transform returned nan+nanj
    rule = QuadratureRule("truncated_line", np.array([0.0]), np.array([1.0]))
    f = SampledFunction(kind="coeffs", beta=0.5, coeffs=np.ones(3))
    calls = {
        "z": [
            lambda: kernel_B(2, 0.5, bad, 0.3),
            lambda: overlap_closed(bad, 1.0, 2, 0.5),
            lambda: kernel_K(bad, 1.0, 0.5),
            lambda: eta_density(np.array([1.0, bad]), 2, 0.5),
            lambda: eta_density(bad, 2, 0.5),
            lambda: CoherentSpec(z=bad, idx_m=2, beta=0.5),
        ],
        "w": [lambda: overlap_closed(1.0, bad, 2, 0.5), lambda: kernel_K(1.0, bad, 0.5)],
        "targets": [lambda: apply_transform(f, 2, 0.5, [0.5, bad], rule)],
    }
    if isinstance(bad, float):
        calls["x"] = [
            lambda: kernel_B(2, 0.5, 0.5 + 0.1j, bad),
            lambda: kernel_B(2, 0.5, 0.5, np.array([0.0, bad])),
            lambda: basis_phi(3, bad, 0.5),  # NumericError, "leaves the float64 range", before
            lambda: basis_phi(3, np.array([0.0, bad]), 0.5),
        ]
        calls["t"] = [lambda: norm_closed_m0(0.5, bad)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, group in calls.items():
            for call in group:
                with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                    call()


class TestBasisPhi:
    def test_ground(self):
        assert basis_phi(0, 1.3, 0.8) == 1.0

    def test_first(self):
        assert basis_phi(1, 1.0, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            basis_phi(-1, 0.3, 0.5)

    @pytest.mark.parametrize("beta", [0.7, 2.3])
    @pytest.mark.parametrize("n", [170, 400])
    def test_high_degree_against_mpmath(self, n, beta):
        # 2^{-n/2} H_n(x, beta) / sqrt((beta+1)_n) in floating point gave 0.0 at
        # n = 170 and nan at n = 400 (x = 1.3, beta = 0.7): (beta+1)_n overflows
        x = np.array([1.3, -2.1, 4.0])
        with mp.workdps(40):
            b = mp.mpf(beta)
            refs = []
            for xv in x:
                h_prev, h = mp.mpf(0), mp.mpf(1)
                for k in range(n):
                    h, h_prev = 2 * mp.mpf(xv) * h - 2 * (k + b) * h_prev, h
                refs.append(float(mp.mpf(2) ** (-mp.mpf(n) / 2) * h / mp.sqrt(mp.rf(b + 1, n))))
        vals = basis_phi(n, x, beta)
        np.testing.assert_allclose(vals, refs, rtol=1e-12)
        assert basis_phi(n, 1.3, beta) == vals[0]

    @pytest.mark.parametrize("size", [1, 10, 40, 100])
    def test_rows_of_the_one_row_step(self, size):
        """basis_phi and a coefficient sample, in the blocks they choose (no longer than the
        rows they use), get the one-row step's values bit for bit at every point count."""
        x = np.linspace(-3.0, 3.0, size)
        rows = np.concatenate(list(itertools.islice(transforms_module._phi_rows(0.5, x, 1), 101)))
        for n in (0, 3, 63, 64, 100):
            assert np.array_equal(basis_phi(n, x, 0.5), rows[n])
        coeffs = np.array([1.0, 0.25 - 0.5j, 0.0, -0.75 + 0.125j])
        f = SampledFunction(kind="coeffs", beta=0.5, coeffs=coeffs)
        assert np.array_equal(f.sample(x), sum((a * r for a, r in zip(coeffs, rows)), np.zeros(size, complex)))

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.7])
    def test_orthonormal(self, beta):
        rule = adaptive_line(lambda x: omega_weight(x, beta), 1e-9, 6)
        vals = np.array([basis_phi(n, rule.nodes, beta) for n in range(6)])
        gram = (vals * rule.weights) @ vals.T
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-6


class TestKernels:
    def test_analytic_beta_zero(self):
        for z, x in [(1.0 + 0.0j, 0.0), (0.4 - 0.9j, 1.2)]:
            zc = np.conjugate(z)
            ref = cmath.exp(-zc * zc / 2.0 + math.sqrt(2.0) * x * zc)
            assert kernel_B_analytic(0.0, z, x) == pytest.approx(ref, rel=1e-13)

    def test_analytic_at_origin(self):
        assert kernel_B_analytic(1.7, 0.0, 0.9) == 1.0

    def test_analytic_direct_sum_oracle(self):
        beta, z, x = 1.2, 0.5 + 0.2j, 0.3
        t = np.conjugate(z) / math.sqrt(2.0)
        direct = sum(t**n * assoc_hermite(n, x, beta) / pochhammer(beta + 1.0, n) for n in range(60))
        assert kernel_B_analytic(beta, z, x) == pytest.approx(direct, rel=1e-9)

    def test_true_poly_examples(self):
        z, x = 0.3 + 0.8j, 0.5
        zc = np.conjugate(z)
        e = cmath.exp(math.sqrt(2.0) * x * zc - zc * zc / 2.0)
        assert kernel_B_true_poly(0, z, x) == pytest.approx(e, rel=1e-14)
        h1 = 2.0 * (x - (z + zc).real / math.sqrt(2.0))
        assert kernel_B_true_poly(1, z, x) == pytest.approx(-e * h1 / math.sqrt(2.0), rel=1e-13)
        assert kernel_B_true_poly(2, 0.0, 0.0) == pytest.approx(-2.0 / math.sqrt(8.0), rel=1e-14)

    def test_kernel_m0_is_analytic(self):
        # the paper's Lauricella form F(sqrt2 x zbar, -zbar^2/2, -zbar^2; beta+1, beta)
        for beta in [0.0, 0.7, 2.3]:
            for z, x in [(0.9 + 0.3j, 0.6), (-0.8 + 0.5j, -1.2), (1.1 - 0.2j, 1.4)]:
                zc = np.conjugate(z)
                a = kernel_B(0, beta, z, x)
                b = lauricella_triple(beta + 1.0, beta, math.sqrt(2.0) * x * zc, -zc * zc / 2.0, -zc * zc)
                assert abs(a - b) <= 1e-12 * abs(b)

    def test_analytic_at_large_z_and_x(self, monkeypatch):
        # the complex128 Lauricella series was 7.3e-4 and 3.2e-4 off here; the
        # long-double sum is within 1e-8, but its estimates (1.6e-8 and 6.3e-8)
        # miss the 1e-10 target, so the call raises
        points = [(3.0 * cmath.exp(0.3j), -3.0), (-3.0 + 0.0j, 3.0)]
        for z, x in points:
            with pytest.raises(NumericError, match="misses 1e-10"):
                kernel_B_analytic(0.0, z, x)
        monkeypatch.setattr(transforms_module, "_KERNEL_B_TARGET", math.inf)
        for z, x in points:
            ref = kernel_B_true_poly(0, z, x)
            assert abs(kernel_B_analytic(0.0, z, x) - ref) <= 1e-8 * abs(ref)

    @pytest.mark.parametrize("m", range(9))
    def test_kernel_beta0_reduction(self, m):
        rng = np.random.default_rng(77)
        for _ in range(10):
            z = rng.uniform(0.2, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            x = rng.uniform(-3.0, 3.0)
            a = kernel_B(m, 0.0, complex(z), float(x))
            b = kernel_B_true_poly(m, complex(z), float(x))
            assert abs(a - b) <= 1e-8 * abs(b)

    def test_lemma_specialization(self):
        # at beta=0 the analytic kernel is the Hermite generating function
        for z, x in [(0.8 + 0.4j, 0.7), (1.2 - 0.9j, -0.5)]:
            t = np.conjugate(z) / math.sqrt(2.0)
            ref = cmath.exp(2.0 * x * t - t * t)
            assert kernel_B_analytic(0.0, z, x) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("m,beta", [(1, 0.0), (2, 1.2), (3, 0.5), (5, 2.3)])
    def test_kernel_matches_coefficient_series(self, m, beta):
        # B(z, x) = sqrt(Gamma(beta+1)) sum_j conj(Ptilde_{j,m}(z)) phi_j(x)
        z, x = 0.9 + 0.4j, 0.7
        total = 0.0 + 0.0j
        for j in range(120):
            total += np.conjugate(p_norm(ModeIndex(j, m, beta), z)) * basis_phi(j, x, beta)
        ref = math.sqrt(gamma_fn(beta + 1.0)) * total
        assert kernel_B(m, beta, z, x) == pytest.approx(ref, rel=1e-12)

    def test_kernel_mp_agreement(self):
        for m, beta, z, x in [(2, 1.2, 0.7 + 0.3j, 0.4), (4, 0.5, 1.1 - 0.8j, -1.2)]:
            a = kernel_B(m, beta, z, x)
            b = kernel_B_mp(m, beta, z, x)
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_error_estimate_reporting(self):
        val, err = kernel_B(3, 0.0, 1.0 + 0.5j, 0.8, return_error_estimate=True)
        ref = kernel_B_true_poly(3, 1.0 + 0.5j, 0.8)
        assert abs(val - ref) <= max(10.0 * err, 1e-11) * abs(ref)

    def test_zero_limit_without_warning(self):
        m, beta = 2, 0.8
        x = np.array([0.4, 1.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = kernel_B(m, beta, 0.0, x)
        np.testing.assert_allclose(vals, _zero_limit(m, beta, x), rtol=1e-12)

    def test_sweep_against_oracle(self, monkeypatch):
        # |z| from 0 to 3 at two phases, every m <= 8: kernel_B_mp (the paper's
        # Hermite-Laguerre + Lauricella form, stored by
        # scripts/kernel_sweep_reference.py) for z != 0, the closed limit at z = 0
        data = json.loads((DATA / "kernel_B_sweep.json").read_text())
        refs = {tuple(row[:5]): complex(row[5], row[6]) for row in data["values"]}
        assert data["grid"] == SWEEP_GRID
        g = SWEEP_GRID
        cancelling, raised = [], []
        for m, beta, r, phase, x in itertools.product(g["m"], g["beta"], [0.0] + g["r"], g["phase"], g["x"]):
            z = complex(r * np.exp(1j * phase))
            try:
                val, est = kernel_B(m, beta, z, x, return_error_estimate=True)
            except NumericError:
                raised.append((m, beta, r, phase, x))
                with monkeypatch.context() as patch:  # the value it would print, and its estimate
                    patch.setattr(transforms_module, "_KERNEL_B_TARGET", math.inf)
                    val, est = kernel_B(m, beta, z, x, return_error_estimate=True)
                assert est > 1e-10, (m, beta, r, phase, x, est)
            ref = _zero_limit(m, beta, x) if r == 0.0 else refs[(m, beta, r, phase, x)]
            err = abs(val - ref) / abs(ref)
            if r == 0.0:
                assert err <= 1e-12, (m, beta, x, err)
                continue
            assert err <= est, (m, beta, r, phase, x, err, est)  # the estimate bounds the error
            if err > 1e-12:
                cancelling.append((m, beta, r, phase, x, err))
        # The only points above 1e-12: |z| = 3 and |x| = 3 with x and Re z of
        # opposite signs, where the terms exceed the value by ~e^{(x/sqrt2 - Re z)^2}
        # ~ 1e10 and long-double rounding is left at up to 1e-9 (estimate above).
        assert all(r == 3.0 and x * math.cos(phase) < 0 and abs(x) == 3.0 and err <= 1e-8
                   for m, beta, r, phase, x, err in cancelling), cancelling
        assert len(cancelling) <= 12, cancelling  # 6 of the 54 corner points today
        # the points whose estimate misses 1e-10 raise NumericError
        assert raised == [(0, 0.0, 3.0, 0.3, -3.0), (0, 0.0, 3.0, 2.5, 3.0), (1, 0.0, 3.0, 0.3, -3.0),
                          (2, 0.0, 3.0, 0.3, -3.0)], raised

    # wrong answers that exited 0: (m, beta, z, x), value printed, 60-digit kernel_B_mp
    KERNEL_B_WRONG = [
        (2, 1.0, 3.0, -12.0, 3.919, 4.653),
        (2, 1.0, 3.0, -20.0, -3.17e15, 8.491),
        (0, 0.0, 6.0, -5.0, -1.96e-8, 5.7e-27),
        (0, 0.0, 3.0, -8.0, -9.1e-10, 2.0e-17),
        (2, 0.0, 1.5, -12.0, -6.0e-8, 8.0e-10),
    ]

    @pytest.mark.parametrize("m,beta,z,x,printed,ref", KERNEL_B_WRONG)
    def test_wrong_answers_raise(self, m, beta, z, x, printed, ref, monkeypatch):
        with pytest.raises(NumericError, match="misses 1e-10"):
            kernel_B(m, beta, z, x)
        with pytest.raises(NumericError):  # one such x in an array is enough
            kernel_B(m, beta, z, np.array([0.5, x]))
        if m == 0:
            with pytest.raises(NumericError):
                kernel_B_analytic(beta, z, x)
        monkeypatch.setattr(transforms_module, "_KERNEL_B_TARGET", math.inf)
        val, est = kernel_B(m, beta, z, x, return_error_estimate=True)
        assert abs(val.real - printed) <= 0.01 * abs(printed) and est >= 1.0  # no correct digit
        assert abs(val - ref) >= 0.1 * abs(ref)

    @pytest.mark.parametrize("m,beta,z,x", KERNEL_B_FAULT_POINTS)
    def test_small_z_fault_points(self, m, beta, z, x):
        ref = kernel_B_mp(m, beta, z, x, dps=40 + math.ceil(2 * m * math.log10(1.0 / abs(z))))
        assert abs(kernel_B(m, beta, z, x) - ref) <= 1e-12 * abs(ref)


class TestBlockLength:
    """The public row sums with the rows made and summed 1, 16 or the default
    number (poly2d._block_len) at a time: in long double the block length moves
    no value, no stopping row and no raise."""

    SUMS = [  # calls taking a SeriesControl, at one point and at two
        lambda ctl: norm_series(CoherentSpec(1.3 - 0.7j, 4, 0.5, ctl)),
        lambda ctl: norm_series(CoherentSpec(2.6 + 1.9j, 8, 2.3, ctl)),
        lambda ctl: eta_density(2.1 + 0.4j, 8, 2.3, ctl),
        lambda ctl: eta_density(np.array([2.1 + 0.4j, -0.3 + 1.1j]), 0, 1.7, ctl),
        lambda ctl: overlap_closed(1.2 + 0.5j, -0.8 + 1.0j, 3, 1.7, ctl),
        lambda ctl: overlap_closed(3.0, -2.9 + 0.2j, 0, 0.0, ctl),
        lambda ctl: overlap_closed(6.0, -5.5 + 2.0j, 8, 2.3, ctl),  # past one block of 64 rows
        lambda ctl: kernel_B(2, 0.5, 0.9 - 1.4j, 0.7, ctl),
        lambda ctl: kernel_B(5, 1.0, -1.1 + 0.2j, np.array([-1.3, 2.2]), ctl),
    ]

    @staticmethod
    def _outcome(call):
        try:
            return np.asarray(call())
        except (ConvergenceError, NumericError) as exc:
            return type(exc), str(exc)

    def test_same_values_stops_and_raises(self, monkeypatch):
        """Per block length (1, 16, the default), the outcome of every call: each sum at max_terms =
        its stop and one short of it and at the default control, and the five points where kernel_B
        misses its target at one x and two."""
        assert poly2d_module._block_len(1) > 16
        stops = []
        for call in self.SUMS:  # the smallest max_terms that returns, by bisection
            lo, hi = 0, DEFAULT_CONTROL.max_terms
            while lo < hi:
                mid = (lo + hi) // 2
                returned = not isinstance(self._outcome(lambda: call(SeriesControl(max_terms=mid))), tuple)
                lo, hi = (lo, mid) if returned else (mid + 1, hi)
            stops.append(lo)
        calls = [(call, SeriesControl(max_terms=n)) for call, stop in zip(self.SUMS, stops) for n in (stop, stop - 1)]
        calls += [(call, DEFAULT_CONTROL) for call in self.SUMS]
        for m, beta, z, x, _, _ in TestKernels.KERNEL_B_WRONG:
            for xs in (x, np.array([0.5, x])):
                calls.append((lambda ctl, m=m, beta=beta, z=z, xs=xs: kernel_B(m, beta, z, xs, ctl), DEFAULT_CONTROL))
        outcomes = []
        for length in (1, 16, None):
            with monkeypatch.context() as patch:
                if length is not None:
                    for module in (poly2d_module, transforms_module):
                        patch.setattr(module, "_block_len", lambda points, length=length: length)
                outcomes.append([self._outcome(lambda: call(ctl)) for call, ctl in calls])
        single, sixteen, default = outcomes
        count = len(self.SUMS)
        for got in (sixteen, default):
            for ref, out in zip(single, got):
                if isinstance(ref, tuple):
                    assert out == ref
                else:
                    assert not isinstance(out, tuple) and out.dtype == ref.dtype and np.array_equal(out, ref)
        kinds = [out[0] if isinstance(out, tuple) else None for out in single]
        assert kinds[: 2 * count] == [None, ConvergenceError] * count  # the stop returns, one short raises
        assert kinds[2 * count : 3 * count] == [None] * count
        assert kinds[3 * count :] == [NumericError] * 2 * len(TestKernels.KERNEL_B_WRONG)
        assert all(np.array_equal(a, b) for a, b in zip(single[: 2 * count : 2], single[2 * count : 3 * count]))


class TestApplyTransform:
    def test_ground_state_is_constant_one(self, rules):
        f = SampledFunction(kind="coeffs", beta=0.0, coeffs=np.array([1.0]))
        targets = [0.0j, 0.7 + 0.2j, 1.5 - 1.0j]
        vals = apply_transform(f, 0, 0.0, targets, rules[0.0])
        for v in vals:
            assert v == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_basis_maps_to_orthonormal_polynomials(self, rules, beta, m):
        targets = [0.9 + 0.4j, -0.6 + 1.1j, 1.5 - 0.2j]
        for n in [0, 2]:
            co = np.zeros(n + 1)
            co[n] = 1.0
            f = SampledFunction(kind="coeffs", beta=beta, coeffs=co)
            vals = apply_transform(f, m, beta, targets, rules[beta])
            for v, z in zip(vals, targets):
                ref = p_norm(ModeIndex(n, m, beta), z)
                assert abs(v - ref) <= 1e-7 * max(abs(ref), 1.0)

    def test_head_rows_freed_before_the_tail(self):
        # 12 coefficients at m = 8 and 10 000 targets: the head rows (1.28 MB) were kept
        # while the tail's factors were made, a 3.20 MB peak against 2.00 MB with no tail row
        m, beta, count = 8, 0.5, 12
        rng = np.random.default_rng(3)
        targets = 3.0 * np.sqrt(rng.uniform(0.0, 1.0, 10_000)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 10_000))
        coeffs = (0.8 - 0.6j) ** np.arange(count) / np.sqrt(np.arange(1, count + 1))
        f = SampledFunction(kind="coeffs", beta=beta, coeffs=coeffs)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            vals = apply_transform(f, m, beta, targets)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 2.2e6, peak
        # the rows, all held at once, give the same sum bit for bit
        rows = list(itertools.islice(transforms_module._p_rows(m, beta, targets, 1), count))
        ref = np.zeros(len(targets), dtype=complex)
        for a, row in zip(f.coeffs, rows):
            ref += a * row[0]
        assert vals == (ref / math.sqrt(gamma_fn(beta + 1.0))).tolist()

    def test_zero_function(self, rules):
        f = SampledFunction(kind="coeffs", beta=0.0, coeffs=np.array([0.0, 0.0]))
        vals = apply_transform(f, 1, 0.0, [0.4 + 0.1j], rules[0.0])
        assert vals[0] == 0.0
        grid = np.linspace(-3.0, 3.0, 61)
        f = SampledFunction(kind="grid", beta=1.0, x=grid, values=np.zeros(61))
        for m in (0, 4, 8):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no 0/0 in the norms of the rest
                vals = apply_transform(f, m, 1.0, [0.0, 0.4 + 0.1j, -2.0 + 1.0j], rules[1.0])
            assert vals == [0.0, 0.0, 0.0]

    def test_batch_matches_scalar_kernel_sum(self, rules):
        beta, m = 1.0, 2
        rule = rules[beta]
        co = np.array([0.0, 1.0])
        f = SampledFunction(kind="coeffs", beta=beta, coeffs=co)
        targets = [0.8 + 0.3j, -0.4 - 0.9j]
        vals = apply_transform(f, m, beta, targets, rule)
        fv = f.sample(rule.nodes)
        for v, z in zip(vals, targets):
            kv = kernel_B(m, beta, np.conjugate(complex(z)), rule.nodes)
            ref = complex(np.sum(rule.weights * fv * kv)) / math.sqrt(gamma_fn(beta + 1.0))
            assert v == pytest.approx(ref, rel=1e-11)

    def test_small_z_targets(self):
        # the Hermite-Laguerre form of the kernel cancelled by up to 4e8 here
        beta = 0.5
        rule = adaptive_line(lambda x: omega_weight(x, beta), 1e-11, 16)
        targets = [0.0, 1e-6, 0.01]
        for n in (0, 2, 5):
            f = SampledFunction(kind="coeffs", beta=beta, coeffs=np.eye(n + 1)[n])
            for m in (4, 8):
                vals = apply_transform(f, m, beta, targets, rule)
                for v, z in zip(vals, targets):
                    assert abs(v - p_norm(ModeIndex(n, m, beta), z)) <= 1e-8, (n, m, z)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.3])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [1, 4])
    def test_grid_and_coefficient_paths_agree(self, rules, beta, n, m):
        # the spline reproduces phi_n (degree <= 3) exactly, so this holds the
        # grid path's rule projection to the exact coefficient map
        grid = np.linspace(-9.0, 9.0, 1601)
        f_grid = SampledFunction(kind="grid", beta=beta, x=grid, values=basis_phi(n, grid, beta))
        f_co = SampledFunction(kind="coeffs", beta=beta, coeffs=np.eye(n + 1)[n])
        targets = [0.5 + 0.5j, 1.2 - 0.3j]
        a = apply_transform(f_grid, m, beta, targets, rules[beta])
        b = apply_transform(f_co, m, beta, targets)
        for va, vb in zip(a, b):
            assert abs(va - vb) <= 1e-12 * max(abs(vb), 1.0)

    @staticmethod
    def _count_rows(monkeypatch):
        """Replace transforms._p_rows by a wrapper that hands on its blocks one row
        at a time; returns the list of rows taken per call."""
        calls, p_rows = [], transforms_module._p_rows

        def counting(*args):
            calls.append(0)
            for row in itertools.chain.from_iterable(p_rows(*args)):
                calls[-1] += 1
                yield row[np.newaxis]

        monkeypatch.setattr(transforms_module, "_p_rows", counting)
        return calls

    SMOOTH_GRID = np.linspace(-12.0, 12.0, 2401)
    SMOOTH_INPUTS = {
        "gauss": np.exp(-SMOOTH_GRID**2 / 2) * (1 + 0.3j * SMOOTH_GRID),
        "sech": 1 / np.cosh(SMOOTH_GRID),
    }

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.3])
    @pytest.mark.parametrize("m", [0, 4, 8])
    def test_grid_basis_input_stops_once_projected(self, rules, beta, m, monkeypatch):
        # the f-free stop took 58-79 rows here; once phi_n is projected the rest
        # of f is rounding, and two rows past max(m, n) end the sum
        calls = self._count_rows(monkeypatch)
        grid = np.linspace(-9.0, 9.0, 1601)
        for n in range(4):
            f = SampledFunction(kind="grid", beta=beta, x=grid, values=basis_phi(n, grid, beta))
            apply_transform(f, m, beta, [0.0, 0.5 + 0.5j, 1.2 - 0.3j, -3.0j], rules[beta])
            assert calls[-1] <= max(m, n) + 3, (n, calls[-1])

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.3])
    @pytest.mark.parametrize("m", [0, 4, 8])
    def test_grid_stop_is_scale_free(self, rules, beta, m, monkeypatch):
        # powers of two next to 1e200 and 1e-300: the scaled samples, spline and
        # projections are then exact scalings (decimal scales round the samples,
        # which alone moves the values by up to 1.6e-15), so only the stop can differ
        calls = self._count_rows(monkeypatch)
        targets = [0.0, 0.9 + 0.4j, -0.6 + 1.1j, 1.5j, -1.2 - 0.7j]
        values = self.SMOOTH_INPUTS["gauss"]
        f = SampledFunction(kind="grid", beta=beta, x=self.SMOOTH_GRID, values=values)
        ref = np.array(apply_transform(f, m, beta, targets, rules[beta]))
        for scale in (math.ldexp(1.0, 664), math.ldexp(1.0, -997)):
            f = SampledFunction(kind="grid", beta=beta, x=self.SMOOTH_GRID, values=scale * values)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vals = np.array(apply_transform(f, m, beta, targets, rules[beta]))
            assert calls[-1] == calls[0], (scale, calls)
            assert np.all(np.abs(vals - scale * ref) <= 1e-15 * np.abs(scale * ref)), scale

    @staticmethod
    def _f_free_transform(f, m, beta, targets, rule):
        """The grid projection stopped by the f-free bound ||f|| ||phi_n|| |P~_{n,m}(z)|
        alone: (values, rows taken)."""
        x = np.asarray(rule.nodes, dtype=float)
        fv = f.sample(x)
        f_parts = np.array([fv.real, fv.imag])
        out, peak, small = np.zeros(len(targets), complex), np.zeros(len(targets)), 0
        p_rows = itertools.chain.from_iterable(transforms_module._p_rows(m, beta, np.asarray(targets, complex), 1))
        phis = itertools.chain.from_iterable(transforms_module._phi_rows(beta, x))
        for n, (row, phi) in enumerate(zip(p_rows, phis)):
            wphi = rule.weights * phi
            d_re, d_im = np.einsum("ij,j->i", f_parts, wphi)
            out += complex(d_re, d_im) * row
            bound = math.sqrt(abs(np.einsum("i,i->", wphi, phi))) * np.abs(row)
            peak = np.maximum(peak, bound)
            small = small + 1 if n > m and np.all(bound <= 1e-13 * peak) else 0  # the default rel_tol
            if small == 2:
                return (out / math.sqrt(gamma_fn(beta + 1.0))).tolist(), n + 1

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.3])
    @pytest.mark.parametrize("m", [0, 4, 8])
    def test_grid_stop_never_takes_more_rows(self, rules, beta, m, monkeypatch):
        # the rest-based test fires no later than the f-free one, and seeded
        # noise, whose rest does not shrink, gets the f-free rows and values;
        # on 15 nodes the phi_n alias past degree 14 and the rest of the noise
        # grows to about twice ||f||
        calls = self._count_rows(monkeypatch)
        targets = [0.0, 0.9 + 0.4j, -1.5j, 2.0 - 2.0j, 3.0]
        coarse = np.linspace(-5.0, 5.0, 15)
        coarse_rule = QuadratureRule("truncated_line", coarse, omega_weight(coarse, beta) * (coarse[1] - coarse[0]))
        noise = np.array([1.0, 1j]) @ np.random.default_rng(19).normal(size=(2, len(self.SMOOTH_GRID)))
        inputs = {**self.SMOOTH_INPUTS, "noise": noise, "step": (np.abs(self.SMOOTH_GRID) < 1.0) + 0.0}
        for rule, (name, values) in itertools.product((rules[beta], coarse_rule), inputs.items()):
            f = SampledFunction(kind="grid", beta=beta, x=self.SMOOTH_GRID, values=values)
            vals = apply_transform(f, m, beta, targets, rule)
            ref, ref_rows = self._f_free_transform(f, m, beta, targets, rule)
            assert calls[-1] <= ref_rows, (name, len(rule.nodes), calls[-1], ref_rows)
            if name == "noise":
                assert calls[-1] == ref_rows and vals == ref, len(rule.nodes)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.3])
    @pytest.mark.parametrize("m", [0, 4, 8])
    @pytest.mark.parametrize("name", sorted(SMOOTH_INPUTS))
    def test_smooth_grid_input_against_kernel_quadrature(self, rules, beta, m, name, monkeypatch):
        # inputs that no spline reproduces, so the stop rests on the decay of
        # the unprojected rest; the reference is the rule quadrature of the kernel
        # (at the outer nodes of the beta = 0 rule, |x| near 9, the kernel's estimate
        # passes 1e-10 where the weight is below 1e-35, so the reference lifts the target)
        monkeypatch.setattr(transforms_module, "_KERNEL_B_TARGET", math.inf)
        rule = rules[beta]
        f = SampledFunction(kind="grid", beta=beta, x=self.SMOOTH_GRID, values=self.SMOOTH_INPUTS[name])
        targets = np.array([0.0, 0.9 + 0.4j, -0.6 + 1.1j, 1.5j, -1.2 - 0.7j])
        vals = np.array(apply_transform(f, m, beta, targets, rule))
        fv = f.sample(rule.nodes)
        gamma = gamma_fn(beta + 1.0)
        refs = np.array([np.sum(rule.weights * fv * kernel_B(m, beta, np.conj(z), rule.nodes)) for z in targets])
        refs /= math.sqrt(gamma)
        # ||f|| (sum_n |P~_{n,m}(z)|^2)^{1/2} / sqrt(Gamma(beta+1)); the rows carry sqrt(Gamma(beta+1))
        rows = np.concatenate(list(itertools.islice(transforms_module._p_rows(m, beta, targets, 1), 120)))
        scale = math.sqrt(np.sum(rule.weights * np.abs(fv) ** 2)) * np.sqrt(np.sum(np.abs(rows) ** 2, axis=0)) / gamma
        err = np.abs(vals - refs)
        assert np.all(err <= 1e-11 * np.abs(refs)), err / np.abs(refs)
        assert np.all(err <= 1e-13 * scale), err / scale

    # bound on |value - sum_n a_n p_norm_n| / (||a|| (sum_n |p_norm_n|^2)^{1/2}) by
    # |z|: the rows are complex128, and their Laguerre recurrence loses digits with |z|
    COEFF_TOL = {0.0: 1e-14, 1e-6: 1e-14, 3.0: 2e-13, 6.0: 2e-12}

    @pytest.mark.parametrize("r", sorted(COEFF_TOL))
    def test_coefficients_map_exactly_without_rule(self, r):
        rng = np.random.default_rng(20)
        zs = r * np.exp(1j * np.array([0.3, 2.5, -1.2, math.pi]))
        for beta, m, length in itertools.product((0.0, 0.5, 2.3), range(9), (1, 7, 25)):
            a = rng.normal(size=length) + 1j * rng.normal(size=length)
            p = np.array([p_norm(ModeIndex(n, m, beta), zs) for n in range(length)])
            scale = np.linalg.norm(a) * np.sqrt(np.sum(np.abs(p) ** 2, axis=0))
            vals = np.array(apply_transform(SampledFunction(kind="coeffs", beta=beta, coeffs=a), m, beta, zs))
            assert np.all(np.abs(vals - a @ p) <= self.COEFF_TOL[r] * scale), (beta, m, length)

    @pytest.mark.parametrize("m", [0, 3, 8])
    def test_coefficient_vector_with_a_gap(self, m):
        beta = 0.5
        zs = np.array([0.0, 0.4 + 0.9j, -2.0 + 1.5j])
        co = np.zeros(21)
        co[[0, 20]] = 1.0
        vals = np.array(apply_transform(SampledFunction(kind="coeffs", beta=beta, coeffs=co), m, beta, zs))
        p = np.array([p_norm(ModeIndex(n, m, beta), zs) for n in (0, 20)])
        scale = math.sqrt(2.0) * np.sqrt(np.sum(np.abs(p) ** 2, axis=0))
        assert np.all(np.abs(vals - p.sum(axis=0)) <= 1e-13 * scale)

    def test_grid_input_needs_a_rule(self):
        grid = np.linspace(-3.0, 3.0, 61)
        f = SampledFunction(kind="grid", beta=0.0, x=grid, values=np.exp(-grid**2))
        with pytest.raises(ValueError, match="quadrature rule"):
            apply_transform(f, 0, 0.0, [0.5j])

    def test_coefficients_past_max_terms(self):
        f = SampledFunction(kind="coeffs", beta=0.0, coeffs=np.ones(7))
        with pytest.raises(ConvergenceError):
            apply_transform(f, 1, 0.0, [0.5j], ctl=SeriesControl(max_terms=3))
        assert len(apply_transform(f, 1, 0.0, [0.5j], ctl=SeriesControl(max_terms=7))) == 1

    def test_beta_mismatch(self, rules):
        f = SampledFunction(kind="coeffs", beta=0.5, coeffs=np.array([1.0]))
        with pytest.raises(ValueError):
            apply_transform(f, 0, 0.0, [0j], rules[0.0])


class TestSampledFunctionIO:
    def test_coeff_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# kind=coeffs beta=0.5\n1\n0\n0.25-0.5i\n")
        f = load_sampled(path)
        assert f.kind == "coeffs" and f.beta == 0.5
        np.testing.assert_allclose(f.coeffs, [1.0, 0.0, 0.25 - 0.5j])

    def test_grid_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# kind=grid beta=0\n-1.0 0.5\n0.0 1.0\n1.0 0.5\n")
        f = load_sampled(path)
        assert f.kind == "grid"
        np.testing.assert_allclose(f.x, [-1.0, 0.0, 1.0])

    def test_grid_requires_increasing(self):
        with pytest.raises(ValueError):
            SampledFunction(kind="grid", beta=0.0, x=np.array([0.0, 0.0]), values=np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "x, values, message",
        [
            ([0.0, np.nan, 1.0], [1.0, 1.0, 1.0], "grid x must be finite"),  # np.diff(x) <= 0 is False on nan
            ([0.0, 1.0, np.inf], [1.0, 1.0, 1.0], "grid x must be finite"),
            ([0.0, 1.0, 2.0], [1.0, np.nan, 1.0], "grid values must be finite"),
            ([0.0, 1.0, 2.0], [1.0, complex(0.0, np.inf), 1.0], "grid values must be finite"),
            ([0.0, 1.0, 2.0], [1.0, 1.0], "grid has 3 x but 2 values"),
            ([0.0], [1.0], "grid needs at least 2 points"),
            ([[0.0, 1.0], [2.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]], "grid x and values must be 1-D"),
            ([0.0, 1.0], [[1.0], [1.0]], "grid x and values must be 1-D"),
        ],
    )
    def test_grid_rejected_at_construction(self, x, values, message):
        """Each bad grid raises here, with this message, not later from the spline."""
        with pytest.raises(ValueError, match=message):
            SampledFunction(kind="grid", beta=0.0, x=np.array(x), values=np.array(values))

    def test_footer_sets_nothing(self, tmp_path):
        # a `#` line after the data set the kind and beta of the file
        path = tmp_path / "f.txt"
        x = np.linspace(-2.0, 2.0, 5)
        np.savetxt(path, np.c_[x, np.exp(-x * x)], header="kind=grid beta=1", footer="kind=coeffs beta=2")
        f = load_sampled(path)
        assert f.kind == "grid" and f.beta == 1.0
        np.testing.assert_array_equal(f.x, x)

    def test_bad_line_quoted(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# kind=grid beta=0\n-1.0 0.5\n0.0 1.0 2.0\n")
        with pytest.raises(ValueError, match="'0.0 1.0 2.0'"):
            load_sampled(path)
        path.write_text("# kind=coeffs beta=0\n1\n0.5 0.5\n")
        with pytest.raises(ValueError, match="'0.5 0.5'"):
            load_sampled(path)

    @pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf])
    def test_beta_checked(self, beta):
        # sample() returned nan at beta = -1
        with pytest.raises(ValueError, match="beta must be non-negative"):
            SampledFunction(kind="coeffs", beta=beta, coeffs=np.ones(3))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1.0\n")
        with pytest.raises(ValueError):
            load_sampled(path)

    def test_sample_outside_grid_is_zero(self):
        f = SampledFunction(kind="grid", beta=0.0, x=np.array([-1.0, 0.0, 1.0]), values=np.array([1.0, 1.0, 1.0]))
        out = f.sample(np.array([-5.0, 0.0, 5.0]))
        assert out[0] == 0.0 and out[2] == 0.0 and out[1] == pytest.approx(1.0)


def _exact_spline(x, y, xs):
    """The not-a-knot cubic spline through the real samples (x, y), at the points
    xs, in exact rational arithmetic and rounded once: second derivatives M_i
    from the C^2 conditions h_{i-1} M_{i-1} + 2 (h_{i-1} + h_i) M_i + h_i M_{i+1}
    = 6 (m_i - m_{i-1}) with a continuous third derivative at x_1 and x_{n-2}
    (constant M on 3 knots, M = 0 on 2), solved by banded elimination; zero outside."""
    X, Y = [Fraction(float(v)) for v in x], [Fraction(float(v)) for v in y]
    n = len(X)
    h = [b - a for a, b in zip(X, X[1:])]
    chord = [(b - a) / d for a, b, d in zip(Y, Y[1:], h)]
    rows = []
    if n == 2:
        rows = [[1, 0, 0], [0, 1, 0]]
    elif n == 3:
        rows = [[1, -1, 0, 0], [0, 1, -1, 0], [h[0], 2 * (h[0] + h[1]), h[1], 6 * (chord[1] - chord[0])]]
    else:
        first = [-1 / h[0], 1 / h[0] + 1 / h[1], -1 / h[1]] + [0] * (n - 3)
        rows.append(first + [0])
        for i in range(1, n - 1):
            row = [0] * (n + 1)
            row[i - 1 : i + 2] = [h[i - 1], 2 * (h[i - 1] + h[i]), h[i]]
            row[n] = 6 * (chord[i] - chord[i - 1])
            rows.append(row)
        rows.append([0] * (n - 3) + [-1 / h[-2], 1 / h[-2] + 1 / h[-1], -1 / h[-1], 0])
    rows = [[Fraction(v) for v in row] for row in rows]
    for k in range(n):  # exact, so any nonzero pivot will do; nothing lies 3 rows below one
        assert rows[k][k] != 0
        for i in range(k + 1, min(n, k + 3)):
            if rows[i][k] != 0:
                q = rows[i][k] / rows[k][k]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[k])]
    M = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        M[k] = (rows[k][n] - sum(rows[k][j] * M[j] for j in range(k + 1, min(n, k + 4)))) / rows[k][k]
    out = []
    for v in xs:
        v = Fraction(float(v))
        if not X[0] <= v <= X[-1]:
            out.append(0.0)
            continue
        i = min(max(j for j in range(n) if X[j] <= v), n - 2)
        a, b, d = X[i + 1] - v, v - X[i], h[i]
        s = (M[i] * a**3 + M[i + 1] * b**3) / (6 * d) + (Y[i] / d - M[i] * d / 6) * a + (Y[i + 1] / d - M[i + 1] * d / 6) * b
        out.append(float(s))
    return np.array(out)


class TestGridSpline:
    """SampledFunction's not-a-knot spline against scipy's CubicSpline and an exact solve."""

    GRID_X = np.linspace(-12.0, 12.0, 1201)  # the grid of the benchmark's transform workload

    @staticmethod
    def _scipy(x, values, xs):
        out = CubicSpline(x, values)(xs).astype(complex)
        out[(xs < x[0]) | (xs > x[-1])] = 0.0
        return out

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 61, 1201])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_scipy(self, n, kind):
        x = np.linspace(-12.0, 12.0, n)
        values = np.cos(x) if kind == "real" else np.exp(-x * x / 2) * (1 + 0.3j * x)
        xs = np.concatenate([np.linspace(-12.5, 12.5, 2001), x])
        f = SampledFunction(kind="grid", beta=0.0, x=x, values=values)
        out = f.sample(xs)
        assert out.dtype == complex
        assert np.max(np.abs(out - self._scipy(x, values, xs))) <= 1e-15 * np.max(np.abs(values))
        assert np.all(out[np.abs(xs) > 12.0] == 0.0)

    @pytest.mark.parametrize("grid", ["uniform-2", "uniform-3", "uniform-4", "uniform-5", "uniform-61",
                                      "random-41-0", "random-41-1", "random-61-2"])
    def test_noise_against_exact_spline(self, grid):
        # noise makes the spline swing well past the samples between close knots,
        # where float64 cubic terms cancel: on these grids scipy is up to 3.1e-14
        # of max|y| off the exact spline (random-41-0), this spline 2.1e-17
        spacing, n, *seed = grid.split("-")
        n = int(n)
        rng = np.random.default_rng(int(seed[0]) if seed else n)
        x = np.sort(rng.uniform(-12.0, 12.0, n)) if spacing == "random" else np.linspace(-12.0, 12.0, n)
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        xs = np.sort(np.concatenate([x, rng.uniform(-12.5, 12.5, 300)]))
        exact = _exact_spline(x, values.real, xs) + 1j * _exact_spline(x, values.imag, xs)
        ours = SampledFunction(kind="grid", beta=0.0, x=x, values=values).sample(xs)
        err, scipy_err = np.max(np.abs(ours - exact)), np.max(np.abs(self._scipy(x, values, xs) - exact))
        assert err <= scipy_err, (err, scipy_err)
        assert err <= 1e-15 * np.max(np.abs(exact)), err

    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.3])
    def test_reproduces_phi3(self, beta):
        # a cubic is its own not-a-knot spline: what is left is the rounding of the samples
        values = basis_phi(3, self.GRID_X, beta)
        f = SampledFunction(kind="grid", beta=beta, x=self.GRID_X, values=values)
        xs = np.linspace(-12.0, 12.0, 24001)
        assert np.max(np.abs(f.sample(xs) - basis_phi(3, xs, beta))) <= 2e-15 * np.max(np.abs(values))

    def test_built_once(self):
        f = SampledFunction(kind="grid", beta=0.0, x=self.GRID_X, values=np.cos(self.GRID_X))
        first = f.sample(np.array([0.3]))
        assert f._spline is f._spline
        assert f.sample(np.array([0.3])) == first

    def test_repeated_transform_is_bitwise_equal(self, rules):
        f = SampledFunction(kind="grid", beta=1.0, x=self.GRID_X, values=np.exp(-self.GRID_X**2 / 2) * (1 + 0.3j))
        targets = [0.0, 0.9 + 0.4j, -1.5j]
        first = apply_transform(f, 2, 1.0, targets, rules[1.0])
        assert apply_transform(f, 2, 1.0, targets, rules[1.0]) == first
        fresh = SampledFunction(kind="grid", beta=1.0, x=self.GRID_X, values=f.values)
        assert apply_transform(fresh, 2, 1.0, targets, rules[1.0]) == first

    def test_grid_arrays_are_read_only(self):
        x, values = np.linspace(-1.0, 1.0, 5), np.ones(5)
        f = SampledFunction(kind="grid", beta=0.0, x=x, values=values)
        for arr in (f.x, f.values):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 2.0
        before = f.sample(np.array([0.1]))
        values[:] = 5.0  # the caller's own array stays writable, and the function keeps its copy
        assert f.sample(np.array([0.1])) == before
