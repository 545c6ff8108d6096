"""The one exit check of the evaluators (specfun._exit_check): every value that
leaves the float64 range, or whose error estimate misses its target, raises
NumericError, with or without warnings turned into errors."""

import math
import warnings

import numpy as np
import pytest

from cstk.coherent import CoherentSpec, eta_density, kernel_K, norm_closed_m0, norm_series, overlap_closed
from cstk.errors import NumericError
from cstk.measures import CallableMeasure
from cstk.poly2d import ModeIndex, h_poly, p_norm
from cstk.specfun import SeriesControl, _exit_check
from cstk.transforms import SampledFunction, apply_transform, basis_phi, kernel_B, omega_weight

WIDE = SeriesControl(max_terms=20000)
PAST_LD = SeriesControl(max_terms=60000)  # budget enough for |z| = 160, where the rows leave long double
GAMMA = CallableMeasure(moment_fn=lambda s: math.gamma(s + 1), beta=0.5)  # p_norm's generic route

# (call, the start of the message); "misses" where the estimate fails, else the range
PAST_FLOAT64 = {
    # the monomial and the Laguerre factor overflow
    "h_poly": (lambda: h_poly(ModeIndex(1000, 5, 0.5), 2.0), "h_poly leaves the float64 range"),
    "p_norm": (lambda: p_norm(ModeIndex(1000, 5, 0.5), 2.0), "h_poly leaves the float64 range"),
    "p_norm_generic": (lambda: p_norm(ModeIndex(150, 2, 0.5), 1e3, GAMMA), "p_norm leaves the float64 range"),
    "norm_series": (
        lambda: norm_series(CoherentSpec(z=30 + 0j, idx_m=4, beta=0.5, truncation=WIDE)),
        "the squared norm leaves the float64 range",
    ),
    "norm_closed_m0": (lambda: norm_closed_m0(0.5, 800.0, WIDE), "the m=0 series leaves the float64 range"),
    "kernel_K": (lambda: kernel_K(30, 30, 0.5, WIDE), "the m=0 series leaves the float64 range"),
    # 1 / Gamma(171.6) is below the normal float64 range
    "kernel_K_subnormal": (lambda: kernel_K(0j, 0j, 170.6), "the m=0 series leaves the float64 range"),
    "kernel_K_cancels": (lambda: kernel_K(4 + 4j, 4 - 4j, 0.5), "the m=0 series misses 1e-12"),
    "eta_density_overflow": (
        lambda: eta_density(complex(26.8), 4, 3.5, WIDE),
        "eta_density leaves the float64 range",
    ),
    # N t^beta is finite, but e^{-t} is subnormal: the product reads 1 - 2.5e-13 for 1 - 1e-306
    "eta_density_decay": (lambda: eta_density(complex(26.63), 0, 3.5, WIDE), "eta_density leaves the float64 range"),
    "omega_weight": (lambda: omega_weight(5.0, 100.0), "omega_weight misses 1e-12"),
    "omega_weight_zero_norm": (lambda: omega_weight(6.19, 100.0), "omega_weight misses 1e-12"),
    "kernel_B_estimate": (lambda: kernel_B(0, 0.0, 6.0, -5.0), "kernel_B misses 1e-10"),
    # returned nan, nan, nan+nanj, inf (estimate 7.9e-14) and nan before
    "basis_phi_500": (lambda: basis_phi(500, 1000.0, 0.5), "basis_phi leaves the float64 range"),
    "basis_phi_300": (lambda: basis_phi(300, 200.0, 0.0), "basis_phi leaves the float64 range"),
    "overlap_closed": (
        lambda: overlap_closed(110, 110 + 1j, 0, 0.5, SeriesControl(max_terms=40000)),
        "overlap_closed leaves the float64 range",
    ),
    "kernel_B_cast": (lambda: kernel_B(0, 0.0, 30, 40, WIDE), "kernel_B leaves the float64 range"),
    "apply_transform": (
        lambda: apply_transform(SampledFunction(kind="coeffs", beta=0.5, coeffs=np.ones(400)), 2, 0.5, [100]),
        "apply_transform leaves the float64 range",
    ),
    # the rows or the exponential leave long double: numpy warned there, an error under -W error; the
    # kernel_B sum ran its whole budget on nan terms (0.3 s), then raised ConvergenceError
    "norm_series_long_double": (
        lambda: norm_series(CoherentSpec(z=160 + 0j, idx_m=2, beta=0.5, truncation=PAST_LD)),
        "the squared norm leaves the float64 range",
    ),
    "norm_series_long_double_m0": (
        lambda: norm_series(CoherentSpec(z=160 + 0j, idx_m=0, beta=0.5, truncation=PAST_LD)),
        "the squared norm leaves the float64 range",
    ),
    "kernel_K_long_double": (lambda: kernel_K(160, 150, 0.5, PAST_LD), "the m=0 series leaves the float64 range"),
    "kernel_B_long_double": (lambda: kernel_B(0, 0.0, 160, 0.0, PAST_LD), "kernel_B misses 1e-10 at m=0, beta=0.0"),
}


@pytest.mark.parametrize("warning_filter", ["default", "error"])
@pytest.mark.parametrize("name", list(PAST_FLOAT64))
def test_past_float64_raises(name, warning_filter):
    call, message = PAST_FLOAT64[name]
    with warnings.catch_warnings():
        warnings.simplefilter(warning_filter)
        with pytest.raises(NumericError) as info:
            call()
    assert type(info.value) is NumericError  # not a ConvergenceError from the budget
    assert str(info.value).startswith(message)


class TestExitCheck:
    def test_rounds_and_keeps_shape(self):
        value = np.array([[1, 2], [3, 4]], dtype=np.clongdouble) / 3
        out = _exit_check("f", value, lambda i: i)
        assert out.dtype == np.complex128 and out.shape == (2, 2)
        assert np.array_equal(out, value.astype(complex))
        scalar = _exit_check("f", np.longdouble(1) / 3, lambda i: i)
        assert isinstance(scalar, np.float64) and scalar == np.float64(np.longdouble(1) / 3)

    def test_message_formatted_only_when_it_raises(self):
        def at(i):
            raise AssertionError("formatted on a passing value")

        assert _exit_check("f", np.array([1.0, 2.0]), at, np.array([1e-13, 0.0]), 1e-12, np.array([1.0, 2.0]))[1] == 2.0

    def test_names_the_first_failing_element(self):
        value = np.array([1.0, 2.0, np.longdouble("1e400"), 4.0], dtype=np.longdouble)  # finite in long double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="f leaves the float64 range at x=2$"):
                _exit_check("f", value, lambda i: f"x={i}")
            with pytest.raises(NumericError, match="f misses 1e-12 at x=1: error estimate 0.5"):
                _exit_check("f", value, lambda i: f"x={i}", np.array([0.0, 1.0, 0.0, 0.0]), 1e-12, 2.0)
            # a zero estimate of a zero size is not below the target either
            with pytest.raises(NumericError, match="error estimate inf"):
                _exit_check("f", 1.0, lambda i: "x=0", 0.0, 1e-12, 0.0)
