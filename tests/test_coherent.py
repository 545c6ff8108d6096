import cmath
import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstk.coherent import (
    CoherentSpec,
    _norm,
    eta_density,
    kernel_K,
    norm_closed_m0,
    norm_series,
    overlap_closed,
)
from cstk.errors import ConvergenceError, NumericError
from cstk.oracles import closed_bracket, hyp_pfq, mittag_leffler
from cstk.poly2d import ModeIndex, _p_rows, _row_sum, p_norm
from cstk.specfun import SeriesControl, gamma_fn, pochhammer

WIDE = SeriesControl(max_terms=5000)  # budget enough for |z| = 20
disk = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
# mpmath sums of the coefficient series, written by scripts/coherent_reference.py
REFERENCE = json.loads((Path(__file__).resolve().parent / "data" / "coherent_reference.json").read_text())


def _closed_overlap(z, w, m, beta):
    """The overlap from the paper's closed Laguerre + 2F2 bracket (the check-7 oracle)."""
    cross, nz, nw = closed_bracket([z, z, w], [w, z, w], m, beta)
    return complex(cross / math.sqrt(nz.real * nw.real))


def _overlap_cases(key):
    return [(m, beta, complex(zr, zi), complex(wr, wi), complex(vr, vi))
            for m, beta, zr, zi, wr, wi, vr, vi in REFERENCE[key]]


class TestCoefficients:
    """The state's coefficient c_n(z) is conj(P~_{n,m}(z)) (module docstring)."""

    @staticmethod
    def coeff(n, m, beta, z):
        return complex(np.conjugate(p_norm(ModeIndex(n, m, beta), z)))

    def test_ground(self):
        assert self.coeff(0, 0, 0.0, 0.5 + 0.1j) == pytest.approx(1.0)

    def test_m0_reduction_formula(self):
        z = 0.8 - 0.3j
        beta = 1.3
        for n in range(8):
            ref = np.conjugate(z) ** n / math.sqrt(pochhammer(beta + 1.0, n) * gamma_fn(beta + 1.0))
            assert self.coeff(n, 0, beta, z) == pytest.approx(ref, rel=1e-14)

    def test_m0_ratio(self):
        z = 1.1 + 0.6j
        beta = 0.4
        for n in range(6):
            ratio = self.coeff(n + 1, 0, beta, z) / self.coeff(n, 0, beta, z)
            assert ratio == pytest.approx(np.conjugate(z) / math.sqrt(n + 1 + beta), rel=1e-13)

    def test_m1_n0(self):
        z = 0.7 + 0.2j
        assert self.coeff(0, 1, 0.0, z) == pytest.approx(z, rel=1e-14)  # conj(H_{0,1}) = z

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CoherentSpec(z=0j, idx_m=-1)
        with pytest.raises(ValueError):
            CoherentSpec(z=0j, beta=-0.1)


class TestNormalization:
    def test_vacuum(self):
        assert norm_series(CoherentSpec(z=0j, idx_m=0, beta=0.0)) == pytest.approx(1.0)

    def test_m0_equals_scaled_closed_form(self):
        beta = 0.9
        for t in [0.3, 1.0, 4.0]:
            spec = CoherentSpec(z=complex(math.sqrt(t)), idx_m=0, beta=beta)
            assert norm_series(spec) * gamma_fn(beta + 1.0) == pytest.approx(norm_closed_m0(beta, t), rel=1e-12)

    def test_closed_m0_beta_zero_is_exp(self):
        for t in [0.0, 1.0, 7.5]:
            assert norm_closed_m0(0.0, t) == pytest.approx(math.exp(t), rel=1e-13)

    def test_closed_m0_at_zero(self):
        assert norm_closed_m0(2.3, 0.0) == 1.0

    def test_triple_agreement(self):
        beta, t = 1.3, 2.0
        direct = norm_closed_m0(beta, t)
        kummer = math.exp(t) * hyp_pfq([beta], [beta + 1.0], -t).real
        ml = gamma_fn(beta + 1.0) * mittag_leffler(1.0, beta + 1.0, t)
        assert direct == pytest.approx(kummer, rel=1e-12)
        assert direct == pytest.approx(ml, rel=1e-12)

    @pytest.mark.parametrize("m", range(5))
    def test_series_matches_closed_bracket(self, m):
        beta = 0.6
        for z in [0.5 + 0.5j, 1.4 - 0.3j]:
            spec = CoherentSpec(z=z, idx_m=m, beta=beta)
            ref = closed_bracket(z, z, m, beta)
            assert norm_series(spec) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.3])
    def test_closed_m0_against_mpmath(self, beta):
        # the two-term stop it replaced was 1.4-1.8e-13 off at t = 400 and 2.2-2.5e-13 at t = 700
        for t in [1.0, 9.0, 100.0, 400.0, 700.0]:
            ctl = SeriesControl(max_terms=2000) if t > 500 else SeriesControl()
            with mp.workdps(60):
                ref = mp.exp(t) if beta == 0 else mp.exp(t) * mp.hyp1f1(beta, beta + 1, -t)
                assert abs(norm_closed_m0(beta, t, ctl) - ref) <= 2e-14 * ref, (beta, t)

    def test_closed_m0_ignores_rel_tol(self):
        # the sum stops on its proven tail bound, not on rel_tol
        loose = SeriesControl(rel_tol=1e-3)
        for t in [0.0, 0.7, 9.0, -40.0, 300.0]:
            assert norm_closed_m0(0.5, t, loose) == norm_closed_m0(0.5, t)
        assert kernel_K(2 + 1j, 1 - 3j, 1.3, loose) == kernel_K(2 + 1j, 1 - 3j, 1.3)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.3])
    def test_closed_m0_reach(self, beta):
        # max_terms bounds the terms summed while they grow: at the default 500, t < 513
        # returns (the two-term stop raised past t = 355-357), and t >= 513 raises
        for t in [355.0, 512.0, -512.0]:
            assert math.isfinite(norm_closed_m0(beta, t))
        for t in [513.0, 800.0]:
            with pytest.raises(ConvergenceError):
                norm_closed_m0(beta, t)
        with pytest.raises(ConvergenceError):
            kernel_K(9.0, 9.0, beta, SeriesControl(max_terms=50))  # t = 81 >= 64 + 1
        assert math.isfinite(kernel_K(8.0, 8.0, beta, SeriesControl(max_terms=50)).real)  # t = 64

    def test_budget_error(self):
        spec = CoherentSpec(z=2.0 + 0j, idx_m=0, beta=0.0, truncation=SeriesControl(max_terms=2))
        with pytest.raises(ConvergenceError):
            norm_series(spec)

    def test_overflow_raises(self):
        # both returned inf: an infinite total passes a relative stopping test
        with pytest.raises(NumericError):
            norm_closed_m0(0.5, 800.0)
        with pytest.raises(NumericError):
            norm_closed_m0(0.5, 800.0, SeriesControl(max_terms=20000))
        with pytest.raises(NumericError):
            norm_series(CoherentSpec(z=30 + 0j, idx_m=4, beta=0.5, truncation=SeriesControl(max_terms=20000)))


class TestOverlap:
    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.3])
    def test_normalized_diagonal(self, m, beta):
        for z in [0.3 + 0.1j, 1.9 - 0.4j]:
            assert overlap_closed(z, z, m, beta) == pytest.approx(1.0, abs=1e-9)

    def test_m0_beta0_is_canonical(self):
        z, w = 0.7 + 0.4j, -0.5 + 1.1j
        ref = cmath.exp(z * w.conjugate() - abs(z) ** 2 / 2 - abs(w) ** 2 / 2)
        assert overlap_closed(z, w, 0, 0.0) == pytest.approx(ref, rel=1e-12)

    @given(disk, disk, st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_closed_vs_series(self, z, w, m):
        beta = 0.5
        a = overlap_closed(z, w, m, beta)
        b = _closed_overlap(z, w, m, beta)
        assert abs(a - b) <= 1e-8 * max(abs(b), 1e-12)

    def test_hermitian(self):
        z, w, m, beta = 0.9 + 0.2j, -0.4 + 0.8j, 2, 1.1
        assert overlap_closed(z, w, m, beta) == pytest.approx(np.conjugate(overlap_closed(w, z, m, beta)), rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.7, 2.3])
    def test_closed_vs_series_m8_large_z(self, beta):
        # |z|, |w| in [1.5, 3]: the paper's closed form cancels to ~1e-9 of its terms here
        cases = [case for case in _overlap_cases("overlap_m8_large_z") if case[1] == beta]
        assert len(cases) == 8
        for m, _, z, w, ref in cases:
            assert abs(overlap_closed(z, w, m, beta) - ref) <= 1e-12 * abs(ref)

    def test_m8_wide_against_mpmath(self):
        # |z|, |w| in [1.5, 6]: the closed form was 3.3e-8 off here
        for m, beta, z, w, ref in _overlap_cases("overlap_m8_wide"):
            assert abs(overlap_closed(z, w, m, beta) - ref) <= 1e-12

    def test_norms_past_float64_against_mpmath(self):
        # N_z N_w overflows float64 here, and the quotient rounded from float64 brackets was 0
        ref = 0.6079839903663026 + 0.18188367616479442j  # 60-digit sum of scripts/coherent_reference.py
        val = overlap_closed(20 + 0j, 20 + 0.3j, 4, 0.5, SeriesControl(max_terms=20000))
        assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_norms_past_long_double_against_mpmath(self):
        # sqrt(N_z N_w) overflows long double from |z| of about 75: the overlap was 0-0i
        z, w, beta = 76 + 0j, 76 + 0.1j, 0.5
        with mp.workdps(40):  # the m = 0 overlap S(z wbar) / sqrt(S(|z|^2) S(|w|^2)), S(t) = M(1; beta+1; t)
            cross, nz, nw = (mp.hyp1f1(1, beta + 1, t) for t in (mp.mpc(z) * mp.conj(w), abs(z) ** 2, abs(w) ** 2))
            ref = complex(cross / mp.sqrt(nz * nw))
        assert abs(overlap_closed(z, w, 0, beta, SeriesControl(max_terms=40000)) - ref) <= 1e-12

    def test_past_gamma_overflow_against_mpmath(self):
        # Gamma(beta + 1) overflows float64 from beta = 171, and it cancels in the quotient: OverflowError before
        for m, beta, z, w, ref in _overlap_cases("overlap_large_beta"):
            assert abs(overlap_closed(z, w, m, beta) - ref) <= 1e-13

    def test_distant_against_mpmath(self):
        # w ~ -z: the overlap lies far below the norms; the closed form was 6.7e-11
        # off (relative) at m = 0, beta = 0, |z| = 3, where float64 rows give 8.1e-10
        for m, beta, z, w, ref in _overlap_cases("overlap_distant"):
            err = abs(overlap_closed(z, w, m, beta) - ref)
            if abs(ref) >= 1e-10:
                assert err <= 1e-12 * abs(ref)
            else:
                assert err <= 1e-18


def _complex_row_norm(z, m, beta, ctl):
    """The squared norm as summed from complex rows, kept as a reference: poly2d._p_rows at z
    in complex long double, each row times its conjugate, divided by Gamma(beta+1)."""
    rows = _p_rows(m, beta, np.asarray(z, dtype=np.clongdouble))
    total, _ = _row_sum((r * np.conj(r) for r in rows), m, ctl, "reference")
    return (total.real / np.longdouble(gamma_fn(beta + 1.0))).astype(float)


class TestBracket:
    def test_real_rows_match_complex_rows(self):
        # |P~_{n,m}(z)| = |P~_{n,m}(|z|)|: the rows at the radius give N within 1 ulp of the
        # complex rows' sum, and eta within 2 eps, at 1 080 points with |z| <= 20
        rng = np.random.default_rng(13)
        eps = np.finfo(float).eps
        for m in range(9):
            for beta in (0.0, 0.5, 1.0, 2.3, 3.5):
                r = np.concatenate(([0.0, 1e-6], rng.uniform(0.0, 20.0, 22)))
                z = r * np.exp(2j * np.pi * rng.uniform(size=r.size))
                ref = _complex_row_norm(z, m, beta, WIDE)
                assert np.all(np.abs(_norm(z, m, beta, WIDE) - ref) <= np.spacing(ref))
                t = (z * z.conj()).real
                ref_eta = ref * t**beta * np.exp(-t)
                assert np.all(np.abs(eta_density(z, m, beta, WIDE) - ref_eta) <= 2 * eps * ref_eta)

    @pytest.mark.parametrize("m", [0, 3, 8])
    def test_arrays_match_pointwise(self, m):
        # the diagonal bracket _norm on an array against its scalar calls
        beta = 1.7
        z = np.array([[0.3 + 0.2j, 1.9 - 0.4j, 0.0], [2.5j, -1.1 + 0.3j, 0.05]])
        vals = _norm(z, m, beta)
        assert vals.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert abs(vals[i, j] - _norm(z[i, j], m, beta)) <= 1e-14 * vals[i, j]


class TestKernel:
    def test_beta_zero(self):
        z, w = 0.6 + 0.3j, -0.2 + 0.9j
        assert kernel_K(z, w, 0.0) == pytest.approx(cmath.exp(z * w.conjugate()), rel=1e-13)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            z, w = (complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            a = kernel_K(z, w, 1.3)
            b = kernel_K(w, z, 1.3)
            assert a == pytest.approx(np.conjugate(b), rel=1e-12)

    def test_series_representation(self):
        z, w, beta = 0.8 + 0.1j, 0.3 - 0.6j, 0.7
        zw = z * np.conjugate(w)
        direct = sum(zw**n / (pochhammer(beta + 1.0, n) * gamma_fn(beta + 1.0)) for n in range(80))
        assert kernel_K(z, w, beta) == pytest.approx(direct, rel=1e-12)

    def test_against_mpmath(self):
        # the Kummer-only route was 1.2e-3 off at z = w = 6, beta = 2.3, and 2.8e25 off at z = w = 10
        for beta, zr, zi, wr, wi, kr, ki in REFERENCE["kernel_K"]:
            ref = complex(kr, ki)
            assert abs(kernel_K(complex(zr, zi), complex(wr, wi), beta) - ref) <= 1e-12 * abs(ref)

    def test_raises_where_the_two_term_stop_did(self):
        # the same 1e-12 gate on eps sum|term|: raised points (index lists) as before the shared engine
        for radius, expected in [(3.0, []), (6.0, [16, 24, 34, 37, 41, 71, 76, 82, 100, 109, 126, 142, 144, 179,
                                                   180, 210, 217, 218, 227, 230, 233, 234, 246, 273, 286, 288])]:
            rng = np.random.default_rng(27)
            pts = radius * np.sqrt(rng.uniform(size=(2, 300))) * np.exp(2j * np.pi * rng.uniform(size=(2, 300)))
            raised = []
            for i, (z, w, beta) in enumerate(zip(*pts, rng.choice([0.0, 0.5, 1.3, 2.3], size=300))):
                try:
                    kernel_K(complex(z), complex(w), float(beta))
                except NumericError:
                    raised.append(i)
            assert raised == expected, radius

    def test_cancellation_raises(self):
        # z wbar = 32i: |term| sums to 8e13 times the value; the Kummer route was 9e-8 off with no error
        with pytest.raises(NumericError):
            kernel_K(4 + 4j, 4 - 4j, 0.5)

    @pytest.mark.parametrize("beta", [0.0, 1.2])
    def test_positive_semidefinite(self, beta):
        rng = np.random.default_rng(3)
        pts = [complex(*rng.normal(scale=0.8, size=2)) for _ in range(6)]
        gram = np.array([[kernel_K(zi, zj, beta) for zj in pts] for zi in pts])
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-10 * np.trace(gram).real


class TestEtaDensity:
    def test_m0_closed_form(self):
        for beta in [0.0, 1.0, 2.3]:
            for r in [0.3, 1.0, 2.5]:
                t = r * r
                ref = hyp_pfq([beta], [beta + 1.0], -t).real * t**beta / gamma_fn(beta + 1.0)
                assert eta_density(complex(r), 0, beta) == pytest.approx(ref, rel=1e-11)

    def test_m0_beta0_unit(self):
        # N(t) e^{-t} = 1 for the canonical case: the resolution measure is
        # Lebesgue/pi against normalized states
        for r in [0.2, 1.0, 3.0]:
            assert eta_density(complex(r), 0, 0.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_positive_on_grid(self, m):
        radii = np.geomspace(1e-2, 6.0, 25)
        for beta in [0.0, 0.5, 2.3]:
            for r in radii:
                assert eta_density(complex(r), m, beta) >= -1e-12
            vals = eta_density(radii, m, beta)
            assert vals.shape == radii.shape
            assert np.all(vals >= -1e-12)
            # the scalar and the array route differ in how many rows the shared
            # stopping test runs, which a tight test takes out
            tight = SeriesControl(rel_tol=1e-17)
            vals = eta_density(radii, m, beta, tight)
            for r, val in zip(radii, vals):
                assert val == pytest.approx(eta_density(complex(r), m, beta, tight), rel=1e-11, abs=1e-300)

    def test_m8_large_z_against_mpmath(self):
        # |z| = 6: the closed form was 7.4e-7 off here
        for m, beta, zr, zi, ref in REFERENCE["eta"]:
            assert eta_density(complex(zr, zi), m, beta) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("r, beta", [(26.8, 3.5), (27.0, 3.5), (30.0, 0.5)])
    def test_past_float64_raises(self, r, beta):
        # the product N t^beta e^{-t} overflowed to inf, or N did and made it nan
        with pytest.raises(NumericError):
            eta_density(complex(r), 4, beta, SeriesControl(max_terms=20000))

    def test_scalar_input_gives_float(self):
        assert isinstance(eta_density(0.7 + 0.2j, 2, 0.5), float)

    def test_matches_norm_times_weight(self):
        z, m, beta = 1.1 + 0.7j, 2, 0.8
        t = (z * z.conjugate()).real
        spec = CoherentSpec(z=z, idx_m=m, beta=beta)
        ref = norm_series(spec) * t**beta * math.exp(-t)
        assert eta_density(z, m, beta) == pytest.approx(ref, rel=1e-9)


class TestPastGammaOverflow:
    """Past beta = 170 Gamma(beta+1) overflows float64 and is taken in long double (OverflowError
    before); each value that returns is held to the 50-digit sums of scripts/coherent_reference.py.
    Where the value itself is below the normal float64 range the evaluator raises (tests/test_exit.py)."""

    WIDER = SeriesControl(max_terms=20000)  # t = |z|^2 up to 2500

    def test_norm_series(self):
        for m, beta, zr, zi, ref in REFERENCE["norm_large_beta"]:
            spec = CoherentSpec(z=complex(zr, zi), idx_m=m, beta=beta, truncation=self.WIDER)
            assert norm_series(spec) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_eta_density(self):
        for m, beta, zr, zi, ref in REFERENCE["eta_large_beta"]:
            assert eta_density(complex(zr, zi), m, beta) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_kernel_K(self):
        for beta, zr, zi, wr, wi, kr, ki in REFERENCE["kernel_K_large_beta"]:
            val = kernel_K(complex(zr, zi), complex(wr, wi), beta, self.WIDER)
            assert abs(val - complex(kr, ki)) <= 1e-12 * abs(complex(kr, ki))

    def test_float64_route_kept_to_beta_170(self):
        # Gamma(beta+1) is finite in float64 up to beta of about 170.6: the same division as before
        for beta in (0.5, 170.0, 170.5):
            spec = CoherentSpec(z=0.7 + 0.2j, idx_m=2, beta=beta)
            x, y = np.longdouble(0.7), np.longdouble(0.2)
            rows = _p_rows(2, beta, np.sqrt(x * x + y * y))
            total, _ = _row_sum((r * r for r in rows), 2, spec.truncation, "reference")
            assert norm_series(spec) == float(total / np.longdouble(gamma_fn(beta + 1.0)))
