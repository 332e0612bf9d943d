"""keplor: effect-size bounds for 2x2 tables and the Laplace limit constant.

The standardized log odds ratio of a case-control design is capped by a
closed-form curve of the odds ratio alone; the cap's peak value is the
Laplace limit constant, the convergence radius of the classical Kepler
power series in the eccentricity.  This package computes the estimators,
the bounds, the constants, the Kepler solvers, and the Bayesian
prior-specification helpers that tie the story together, plus a brute-force
verifier for the bound.

The namespace is lazy (PEP 562): ``import keplor`` loads no submodule.  A
submodule attribute loads that submodule and its own imports; the first
access to any other name, ``__all__`` included, loads the six library
modules and binds the public names each declares in its own ``__all__``.
"""

import importlib

__version__ = "0.1.0"

_LIBRARY = ("errors", "numerics", "contingency", "effect_bounds", "kepler", "bayes_prior")
_SUBMODULES = frozenset(_LIBRARY) | {"cli"}


def _bind_library() -> None:
    """Bind each library module's ``__all__`` names into the package, once."""
    if "__all__" in globals():
        return
    public = ["__version__"]
    for name in _LIBRARY:
        module = importlib.import_module(f"{__name__}.{name}")
        for attr in module.__all__:
            globals()[attr] = getattr(module, attr)
        public += module.__all__
    globals()["__all__"] = public


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    _bind_library()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list:
    _bind_library()
    return sorted(set(globals()) | _SUBMODULES)
