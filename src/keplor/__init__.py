"""keplor: effect-size bounds for 2x2 tables and the Laplace limit constant.

The standardized log odds ratio of a case-control design is capped by a
closed-form curve of the odds ratio alone; the cap's peak value is the
Laplace limit constant, the convergence radius of the classical Kepler
power series in the eccentricity.  This package computes the estimators,
the bounds, the constants, the Kepler solvers, and the Bayesian
prior-specification helpers that tie the story together, plus a brute-force
verifier for the bound.
"""

from . import bayes_prior, contingency, effect_bounds, errors, kepler, numerics
from .bayes_prior import *
from .contingency import *
from .effect_bounds import *
from .errors import *
from .kepler import *
from .numerics import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += numerics.__all__
__all__ += contingency.__all__
__all__ += effect_bounds.__all__
__all__ += kepler.__all__
__all__ += bayes_prior.__all__
