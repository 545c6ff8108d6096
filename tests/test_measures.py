import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstk.errors import IllConditionedError, NumericError
from cstk.measures import (
    CallableMeasure,
    GammaMeasure,
    TabulatedMeasure,
    gen_factorial,
    hamiltonian_eigen,
    load_moments,
    ortho_poly_coeffs,
    ortho_poly_phi,
    radius,
    x_gen,
    x_seq,
    zeta,
)
from cstk.quadrature import gauss_laguerre
from cstk.specfun import gamma_fn, laguerre


def gamma_like(beta=0.0):
    """The builtin moments exposed through the generic-measure interface."""
    return CallableMeasure(moment_fn=lambda s: gamma_fn(s + 1.0), beta=beta, description="gamma moments")


class TestSequences:
    def test_x_seq_examples(self):
        assert x_seq(GammaMeasure(0.5), 2) == pytest.approx(2.5, rel=1e-14)
        assert x_seq(GammaMeasure(0.0), 1) == pytest.approx(1.0, rel=1e-14)

    @given(st.floats(0.0, 3.0, allow_nan=False))
    @settings(max_examples=20)
    def test_telescoping(self, beta):
        meas = GammaMeasure(beta)
        prod = 1.0
        for n in range(1, 21):
            prod *= x_seq(meas, n)
            ref = meas.moment(n + beta) / meas.moment(beta)
            assert prod == pytest.approx(ref, rel=1e-13)

    def test_hamiltonian_eigen(self):
        assert hamiltonian_eigen(GammaMeasure(2.0), 0) == 0.0
        assert hamiltonian_eigen(GammaMeasure(2.0), 5) == pytest.approx(7.0, rel=1e-14)
        assert hamiltonian_eigen(GammaMeasure(0.0), 1) == pytest.approx(1.0, rel=1e-14)


class TestGenFactorial:
    def test_base(self):
        assert gen_factorial(GammaMeasure(1.3), 0, 5) == 1.0

    def test_examples(self):
        assert gen_factorial(GammaMeasure(0.0), 3, 1) == pytest.approx(6.0, rel=1e-14)
        assert gen_factorial(GammaMeasure(0.0), 1, 3) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.3])
    def test_closed_form(self, beta):
        meas = GammaMeasure(beta)
        for n in range(11):
            for m in range(11):
                ref = gamma_fn(beta + max(n, m) + 1.0) / (gamma_fn(beta + m + 1.0) * math.factorial(min(n, m)))
                assert gen_factorial(meas, n, m) == pytest.approx(ref, rel=1e-13)

    def test_sweep_against_mpmath(self):
        # the builtin value is the long-double product (beta+m+1)_{max(n,m)-m} / min(n,m)!, correctly
        # rounded but for about one long-double rounding: the float64 zeta ratio was 6.8e-14 off (beta = 30.3,
        # n = 140, m = 8), and three float64 lgamma values 3.3e-13 (beta = 150.3, n = 132, m = 2)
        checked = 0
        with mp.workdps(40):
            for beta in (0.0, 0.5, 1.7, 30.3, 100.0, 150.3, 165.2, 170.0):
                meas = GammaMeasure(beta)
                for m in range(9):
                    poch = mp.mpf(1)  # (beta+m+1)_{n-m}, multiplied up along n
                    for n in range(400):
                        if n > m:
                            poch *= mp.mpf(beta) + n
                        ref = poch / mp.factorial(min(n, m))
                        if ref > np.finfo(float).max:
                            with pytest.raises(OverflowError):
                                gen_factorial(meas, n, m)
                            continue
                        assert abs(gen_factorial(meas, n, m) - ref) <= 2.5e-16 * ref, (beta, n, m)
                        checked += 1
        assert checked > 11000

    def test_past_the_long_double_product(self):
        # min(n, m)! past float64, or a product past long double: lgamma differences, and no
        # product of max(n, m) - m factors (n = 10**9 would have asked for 16 GB)
        meas = GammaMeasure(0.5)
        with mp.workdps(40):
            for n, m in ((1800, 1800), (1800, 2000), (3250, 1800), (3260, 1800)):
                b = mp.mpf(0.5)
                ref = mp.gamma(b + max(n, m) + 1) / (mp.factorial(min(n, m)) * mp.gamma(b + m + 1))
                assert gen_factorial(meas, n, m) == pytest.approx(float(ref), rel=1e-9, abs=0.0)
        with pytest.raises(OverflowError):
            gen_factorial(meas, 10**9, 0)

    def test_single_step_ratio(self):
        meas = GammaMeasure(0.7)
        for n in range(1, 9):
            for m in range(9):
                ratio = gen_factorial(meas, n, m) / gen_factorial(meas, n - 1, m)
                assert ratio == pytest.approx(x_gen(meas, n, m), rel=1e-13)


class TestZetaAndPolynomials:
    def test_zeta_closed_forms(self):
        assert zeta(GammaMeasure(0.0), 0, 1.3) == pytest.approx(gamma_fn(2.3), rel=1e-14)
        assert zeta(GammaMeasure(0.0), 2, 0.5) == pytest.approx(gamma_fn(3.5) / 2.0, rel=1e-14)

    def test_phi_base(self):
        assert ortho_poly_phi(GammaMeasure(0.0), 0, 0.8, 2.5) == 1.0

    def test_phi_is_signed_laguerre(self):
        for n in range(5):
            for r in [0.5, 1.0, 4.0]:
                val = ortho_poly_phi(GammaMeasure(1.2), n, 1.2, r)
                assert val == pytest.approx((-1.0) ** n * laguerre(n, 1.2, r), rel=1e-14)

    def test_generic_zeta_matches_builtin(self):
        meas = gamma_like(0.5)
        for n in range(9):
            ref = zeta(GammaMeasure(0.5), n, 0.5)
            assert zeta(meas, n, 0.5) == pytest.approx(ref, rel=1e-9)

    def test_generic_phi_matches_builtin(self):
        meas = gamma_like(0.0)
        for n in range(7):
            for r in [0.5, 1.0, 4.0]:
                ref = ortho_poly_phi(GammaMeasure(0.0), n, 0.7, r)
                assert ortho_poly_phi(meas, n, 0.7, r) == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_phi_orthogonality_under_quadrature(self):
        alpha = 0.6
        rule = gauss_laguerre(32, alpha)
        meas = GammaMeasure(0.0)
        vals = np.array([ortho_poly_phi(meas, n, alpha, rule.nodes) for n in range(7)])
        gram = (vals * rule.weights) @ vals.T
        for n in range(7):
            assert gram[n, n] == pytest.approx(zeta(meas, n, alpha), rel=1e-9)
            for k in range(n):
                scale = math.sqrt(gram[n, n] * gram[k, k])
                assert abs(gram[n, k]) <= 1e-9 * scale

    def test_degree_cap_enforced(self):
        with pytest.raises(IllConditionedError):
            zeta(gamma_like(0.0), 13, 0.0)

    def test_conditioning_guard_fires_for_float_moments(self):
        noisy = CallableMeasure(moment_fn=lambda s: gamma_fn(s + 1.0), beta=0.0)
        with pytest.raises(IllConditionedError):
            zeta(noisy, 12, 0.0)

    def test_degree_two_reads_only_five_moments(self):
        # zeta_2 needs mu_0 .. mu_4 and nothing beyond
        meas = TabulatedMeasure(table=tuple((float(s), gamma_fn(s + 1.0)) for s in range(5)))
        assert zeta(meas, 2, 0.0) == pytest.approx(zeta(GammaMeasure(0.0), 2, 0.0), rel=1e-15)

    @pytest.mark.parametrize(
        "meas",
        [
            CallableMeasure(moment_fn=lambda s: 1.0),  # singular
            TabulatedMeasure(table=tuple((float(s), mu) for s, mu in enumerate((1.0, 2.0, 1.0, 5.0, 30.0)))),
        ],
        ids=["constant", "indefinite"],
    )
    def test_hankel_matrix_not_positive_definite(self, meas):
        with pytest.raises(IllConditionedError):
            zeta(meas, 2, 0.0)

    def test_coeffs_layout(self):
        # descending powers, leading coefficient 1/n! as for (-1)^n L_n
        c = ortho_poly_coeffs(GammaMeasure(0.0), 3, 0.5)
        assert c[0] == pytest.approx(1.0 / 6.0, rel=1e-14)
        gen = ortho_poly_coeffs(gamma_like(0.0), 3, 0.5)
        np.testing.assert_allclose(gen, c, rtol=1e-10, atol=1e-12)


class TestRadius:
    def test_builtin_infinite(self):
        est = radius(GammaMeasure(0.0), 0)
        assert est.value == math.inf and est.converged

    def test_generic_gamma_unbounded(self):
        for m in [0, 3]:
            est = radius(gamma_like(0.5), m)
            assert est.value == math.inf
            assert est.converged

    def test_uniform_measure_unit_radius(self):
        # dmu = dr on (0,1): mu_s = 1/(s+1), so R = L = 1
        uni = CallableMeasure(moment_fn=lambda s: 1.0 / (s + 1.0), beta=0.0, support_bound=1.0)
        est = radius(uni, 0)
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=0.02)

    def test_probe_metadata(self):
        est = radius(gamma_like(0.0), 1, probe_depth=40)
        assert est.probe_depth == 40
        assert est.agreement >= 0.0


class TestValidationAndLoader:
    def test_validate_accepts_gamma(self):
        GammaMeasure(0.7).validate(nmax=12)

    def test_validate_rejects_nonconvex(self):
        bad = CallableMeasure(moment_fn=lambda s: 1.0 / (1.0 + s * s), beta=0.0)
        with pytest.raises(NumericError):
            bad.validate(nmax=6)

    def test_loader_roundtrip(self, tmp_path):
        path = tmp_path / "moments.txt"
        lines = ["# beta=0.5 L=inf"]
        for n in range(10):
            lines.append(f"{n + 0.5} {gamma_fn(n + 1.5):.17g}")
        path.write_text("\n".join(lines) + "\n")
        meas = load_moments(path)
        assert meas.beta == 0.5
        assert meas.support_bound == math.inf
        assert meas.moment(2.5) == pytest.approx(gamma_fn(3.5), rel=1e-15)

    def test_loader_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 extra\n")
        with pytest.raises(ValueError):
            load_moments(path)

    def test_loader_rejects_nonmonotone(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n2 2\n1 1.5\n")
        with pytest.raises(ValueError):
            load_moments(path)

    def test_loader_rejects_negative(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 -2\n")
        with pytest.raises(ValueError):
            load_moments(path)

    def test_loader_rejects_hankel_violation(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 10\n2 1\n")
        with pytest.raises(ValueError):
            load_moments(path)

    def test_tabulated_missing_order(self):
        meas = TabulatedMeasure(table=((0.0, 1.0), (1.0, 1.0)))
        with pytest.raises(NumericError):
            meas.moment(5.0)
