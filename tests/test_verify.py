import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from cstk import coherent, poly2d, quadrature, transforms, verify
from cstk.errors import NumericError
from cstk.oracles import assoc_hermite
from cstk.poly2d import ModeIndex, h_poly
from cstk.specfun import pochhammer

# the named (error, tolerance) pairs of each report, in order
PAIRS = {
    "orthogonality-2d": ["diagonal", "off-diagonal"],
    "assoc-hermite": ["gram", "beta0-hermite"],
    "kummer-normalization": ["three-way"],
    "generating-function": ["lauricella"],
    "kernel-reduction": ["true-polyanalytic"],
    "overlap": ["closed-form", "diagonal"],
    "pde-eigen": ["landau-residual"],
    "transform": ["pointwise-and-gram"],
    "resolution-identity": ["gram"],
    "density-positivity": ["negative-part"],
    "quadrature": ["invariants"],
}


@pytest.fixture(scope="module")
def all_reports():
    return verify.run_suite("all") + [verify.check_quadrature()]


class TestReports:
    def test_json_schema(self, all_reports):
        assert [rep.check_name for rep in all_reports] == list(PAIRS)
        for rep in all_reports:
            payload = json.loads(rep.to_json())
            keys = ["check", "params", "max_abs_err", "max_rel_err", "tolerance", "pass", "runtime_seconds", "seed"]
            assert all(key in payload for key in keys)
            ratios = rep.details["err_over_tol"]
            assert list(ratios) == PAIRS[rep.check_name]
            assert payload["details"]["err_over_tol"] == ratios
            assert rep.passed == all(v <= 1 for v in ratios.values())
            first = ratios[PAIRS[rep.check_name][0]]
            err = rep.max_abs_err if rep.mode == "abs" else rep.max_rel_err
            assert first == err / rep.tolerance

    def test_summary_line(self):
        rep = verify.check_quadrature()
        line = rep.summary_line()
        assert line.startswith("[PASS]") and "quadrature" in line

    def test_determinism(self):
        a = verify.check_kernel_reduction(mmax=2, samples=12, seed=7)
        b = verify.check_kernel_reduction(mmax=2, samples=12, seed=7)
        assert a.max_rel_err == b.max_rel_err
        assert a.max_abs_err == b.max_abs_err
        c = verify.check_kernel_reduction(mmax=2, samples=12, seed=8)
        assert c.max_rel_err != a.max_rel_err

    def test_seed_recorded(self):
        rep = verify.check_kummer_normalization(betas=(0.5,), ts=[0.0, 1.0], seed=99)
        assert rep.seed == 99


class TestReducedChecks:
    """Small-parameter versions of each suite; full-size runs live in the
    acceptance module."""

    def test_orthogonality(self):
        rep = verify.check_orthogonality_2d(betas=(0.5,), nmax=3, n_r=24, n_theta=48)
        assert rep.passed

    def test_assoc_hermite(self):
        rep = verify.check_assoc_hermite(betas=(0.0, 1.0), nmax=3)
        assert rep.passed and rep.details["beta0_max_rel"] <= 1e-10

    def test_kummer(self):
        rep = verify.check_kummer_normalization(betas=(0.0, 1.0), ts=[0.0, 2.0, 10.0])
        assert rep.passed

    def test_generating(self):
        rep = verify.check_generating_function(betas=(1.2,), cs=(2.2,), xs=(0.3,), samples=4)
        assert rep.passed

    def test_kernel_reduction(self):
        rep = verify.check_kernel_reduction(mmax=3, samples=20)
        assert rep.passed

    @pytest.mark.parametrize("seed", [26, 30])
    def test_kernel_reduction_counts_expected_raises(self, seed):
        # these seeds draw one point in the opposite-sign corner of |z|, |x| <= 3
        # where kernel_B's estimate passes 1e-10 and the call raises
        rep = verify.check_kernel_reduction(seed=seed)
        assert rep.passed
        assert len(rep.details["expected_raises"]) == 1
        m, re_z, im_z, x = rep.details["expected_raises"][0]
        with pytest.raises(NumericError, match="misses 1e-10"):
            transforms.kernel_B(m, 0.0, complex(re_z, im_z), x)
        assert re_z * x < 0
        json.dumps(rep.to_dict())

    def test_overlap(self):
        rep = verify.check_overlap(mmax=2, samples=3, betas=(0.5,))
        assert rep.passed and rep.details["max_diag_deviation"] <= 1e-9

    def test_pde(self):
        rep = verify.check_pde_eigen(betas=(0.5,), nmax=4, samples=10)
        assert rep.passed

    def test_transform(self):
        rep = verify.check_transform(mmax=1, betas=(0.0,), nmax=2)
        assert rep.passed

    def test_resolution(self):
        rep = verify.check_resolution_identity(mmax=1, betas=(0.0,), nmax=2)
        assert rep.passed

    def test_density(self):
        rep = verify.check_density_positivity(mmax=2, betas=(0.5,), grid_points=16)
        assert rep.passed and rep.details["min_density"] >= 0.0


class TestSharedRows:
    """The checks that walk shared rows get the values of the per-index calls, bit for bit."""

    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.3])
    def test_orthogonality_rows_are_h_poly(self, beta):
        nodes = quadrature.polar_rule(6, 8, beta).complex_points()
        nodes = np.concatenate([nodes, [0j, -1.5, 2j, complex(-0.0, -0.7)]])  # zero, and real and imaginary points
        rows = verify._h_table(6, beta, nodes, np.empty((49, nodes.size), complex))
        for i, (j, n) in enumerate(itertools.product(range(7), repeat=2)):
            assert rows[i].tobytes() == h_poly(ModeIndex(j, n, beta), nodes).tobytes(), (j, n)

    def test_generating_terms_are_the_per_degree_formula(self):
        for beta, c, x, t in itertools.product((0.0, 1.2), (1.0, 2.2), (0.0, 0.3, 1.0), (0.4 + 0j, -0.31 + 0.27j)):
            terms = itertools.islice(verify._generating_terms(np.complex128(t), x, beta, c), 60)
            for n, term in enumerate(terms):
                ref = np.complex128(t) ** n * assoc_hermite(n, x, beta) / pochhammer(c, n)
                assert type(term) is np.complex128 and term.tobytes() == ref.tobytes(), (beta, c, x, t, n)


def _nan(*args):
    return math.nan


def _nan_like(z, *args):
    return np.full(np.shape(z), math.nan)


# per check: a reduced run, and the evaluator or oracle it calls, made to return nan
NAN_CASES = {
    "kernel-reduction": (lambda: verify.check_kernel_reduction(mmax=2, samples=6), transforms, "kernel_B", _nan),
    "overlap": (lambda: verify.check_overlap(mmax=1, samples=2, betas=(0.5,)), coherent, "overlap_closed", _nan),
    "kummer-normalization": (
        lambda: verify.check_kummer_normalization(betas=(0.5,), ts=[0.0, 2.0]), coherent, "norm_closed_m0", _nan
    ),
    "pde-eigen": (
        lambda: verify.check_pde_eigen(betas=(0.5,), nmax=2, samples=4), poly2d, "landau_apply",
        lambda beta, expansion, z: _nan_like(z),
    ),
    "density-positivity": (
        lambda: verify.check_density_positivity(mmax=1, betas=(0.5,), grid_points=8), verify, "closed_bracket",
        _nan_like,
    ),
    "orthogonality-2d": (
        lambda: verify.check_orthogonality_2d(betas=(0.5,), nmax=2, n_r=8, n_theta=16), poly2d, "_h_rows",
        lambda d, beta, z: itertools.repeat(lambda upper: _nan_like(z)),
    ),
    "assoc-hermite": (
        lambda: verify.check_assoc_hermite(betas=(0.0,), nmax=2), verify, "assoc_hermite",
        lambda n, x, beta: _nan_like(x),
    ),
    "generating-function": (
        lambda: verify.check_generating_function(betas=(1.2,), cs=(2.2,), xs=(0.3,), samples=2), verify,
        "lauricella_triple", _nan,
    ),
    "transform": (
        lambda: verify.check_transform(mmax=0, betas=(0.0,), nmax=1), transforms, "apply_transform",
        lambda f, m, beta, z: _nan_like(z),
    ),
    "resolution-identity": (
        lambda: verify.check_resolution_identity(mmax=0, betas=(0.0,), nmax=1), coherent, "_norm", _nan_like
    ),
    "quadrature": (verify.check_quadrature, verify, "gamma_fn", _nan),
}


class TestNanFails:
    """A nan from the evaluator or oracle under test fails the check:
    max(0.0, nan) is 0.0, and each check once reduced its errors so."""

    def test_every_check_covered(self):
        assert set(NAN_CASES) == set(PAIRS)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", list(NAN_CASES))
    def test_nan_fails(self, monkeypatch, name):
        check, target, attr, fake = NAN_CASES[name]
        monkeypatch.setattr(target, attr, fake)
        rep = check()
        assert rep.passed is False
        assert any(math.isnan(v) for v in rep.details["err_over_tol"].values())


class TestPeakMemory:
    """The two largest polar-rule checks at full size, under tracemalloc: the
    (49, 16384) orthogonality rows and the resolution-identity Gram need no
    full-size temporaries (they peaked at 37.5 MiB and 21.0 MiB)."""

    @staticmethod
    def peak_mib(check):
        tracemalloc.start()
        try:
            assert check().passed
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_orthogonality_2d(self):
        assert self.peak_mib(verify.check_orthogonality_2d) <= 30.0

    def test_resolution_identity(self):
        assert self.peak_mib(verify.check_resolution_identity) <= 10.0


class TestSuiteRunner:
    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            verify.run_suite(["definitely-not-a-suite"])

    def test_named_subset(self):
        reports = verify.run_suite(["quadrature", "kummer-normalization"])
        assert [r.check_name for r in reports] == ["quadrature", "kummer-normalization"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_overrides_reach_the_checks_that_take_them(self, jobs):
        reports = verify.run_suite(["overlap", "quadrature"], jobs=jobs, mmax=1)
        assert [r.check_name for r in reports] == ["overlap", "quadrature"]
        assert reports[0].parameters["mmax"] == 1
        assert all(r.passed for r in reports)

    def test_override_no_check_takes(self):
        with pytest.raises(ValueError, match="mmax"):
            verify.run_suite(["quadrature"], mmax=1)

    def test_registry_has_ten_default_suites(self):
        assert len(verify.SUITES) == 10


class TestLadderComparison:
    def test_three_way_disagreement_surfaces(self):
        table = verify.ladder_eigenvalue_comparison(beta=0.0, nmax=3)
        assert table["informational"] is True
        rows = {(r["n"], r["m"]): r for r in table["rows"]}
        r = rows[(3, 1)]
        # composed: (x_{4,1} + x_{3,1})/2 = (4 + 3)/2; differential: m + 1/2
        assert r["composed_lambda"] == pytest.approx(3.5)
        assert r["differential_lambda"] == pytest.approx(1.5)
        # swapped index order: (x_{2,3} + x_{1,3})/2 = (1/2 + 1)/2
        assert r["swapped_index_lambda"] == pytest.approx(0.75)
        assert r["swapped_index_lambda"] != pytest.approx(r["composed_lambda"])
