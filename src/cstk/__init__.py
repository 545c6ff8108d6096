"""Numerical toolkit for measure-driven nonlinear coherent states.

Layers: scalar special functions (specfun), quadrature rules (quadrature),
moment machinery over a half-line measure (measures), 2D complex orthogonal
polynomials (poly2d), coherent-state objects (coherent), Bargmann-type
kernels and transforms (transforms), the independent references the checks
compare against (oracles), and the certification suites (verify).
"""

from . import coherent, measures, poly2d, quadrature, specfun, transforms, verify
from .errors import ConvergenceError, IllConditionedError, NumericError, PoleError
from .specfun import SeriesControl

__version__ = "0.1.0"

__all__ = [
    "coherent",
    "measures",
    "poly2d",
    "quadrature",
    "specfun",
    "transforms",
    "verify",
    "SeriesControl",
    "NumericError",
    "PoleError",
    "ConvergenceError",
    "IllConditionedError",
    "__version__",
]
