"""Limit distributions of Wald statistics at singular hypothesis points.

When the gradient of a tested constraint vanishes at the true parameter,
the Wald statistic no longer converges to chi-square-1 but to a rational
function of a normal vector, determined by a homogeneous polynomial and a
covariance matrix.  This package computes, samples, classifies, and
empirically verifies those limit laws, and applies them as a
singularity-aware tetrad test for covariance matrices.

The public names below are loaded on first use (PEP 562), so importing the
package, or one command of ``wald``, compiles only the modules it runs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# suite name -> the verification tiers it runs.  Declared here, not in
# ``verify``, so that the ``wald`` parser lists the suites without loading
# the checks.
SUITES = {
    "all": ("theorem", "conjecture"),
    "theorems": ("theorem",),
    "conjectures": ("conjecture",),
}

# module -> the public names it defines
_PUBLIC = {
    "classify": ("QuadraticClassification", "classify", "k_alpha", "sample_canonical"),
    "empirical": ("EmpiricalDistribution",),
    "errors": ("DegenerateSamplingError", "ParseError", "WaldError"),
    "gaussian": (
        "CovarianceMatrix",
        "eigenvalues_of_product",
        "factor",
        "make_generator",
        "validate_covariance",
    ),
    "laws": (
        "FoldedBetaProduct",
        "LimitLaw",
        "ScaledChiSquare",
        "TetradSingular",
        "TwoChiSquareMix",
        "monomial_law",
        "parse_law",
        "stable_cdf",
    ),
    "poly": (
        "HomogeneousPolynomial",
        "MonomialForm",
        "QuadraticForm",
        "load_polynomial",
        "parse_polynomial",
    ),
    "sampler": (
        "WaldSampleConfig",
        "dominance_check",
        "ks_distance",
        "sample_wald",
        "two_sample_ks",
    ),
    "special": ("tetrad_singular_cdf",),
    "tetrad": (
        "DataMatrix",
        "TetradIndex",
        "TetradWald",
        "asymptotic_v_normal",
        "empirical_covariance",
        "tetrad_wald",
        "wald_tetrad_test",
    ),
    "verify": ("VerificationResult", "run_suite"),
}

__all__ = ["__version__", *(name for names in _PUBLIC.values() for name in names)]


def _importer(namespace: dict, public: dict):
    """A module ``__getattr__`` (PEP 562) that imports each name of
    ``public`` (module -> names) from its module of this package on first
    use and keeps it in ``namespace``, the calling module's globals."""
    module_of = {name: module for module, names in public.items() for name in names}

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        return value

    return __getattr__


__getattr__ = _importer(globals(), _PUBLIC)


class _Package(types.ModuleType):
    """The import system binds every loaded submodule as an attribute of
    its package.  A submodule named like a public name (``classify``) is
    not bound, so that name stays the function, whatever loaded first."""

    def __setattr__(self, name, value):
        if not (name in __all__ and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
