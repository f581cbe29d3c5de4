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

# Rows, points or values per block of every blocked loop: the polynomial
# kernel and the row quadratic form of ``poly``, the distribution functions
# of ``special``, the tetrad kernel, the text of ``textout`` and the row
# chunks of ``gaussian._chunks``.  Declared here, which every command
# loads, so that ``special`` and ``textout`` load without ``poly``.
# 2^14 keeps a block's temporaries in a 2 MB cache and amortises numpy's
# per-call cost well enough that two sampler threads still scale: at 2^12
# rows the threads serialised on the interpreter lock, and 2^16 rows saved
# about a tenth at two threads for four times the temporaries, which are
# then mapped and faulted in anew.  On 2^18 rows at one BLAS thread
# (medians of 15 interleaved runs, 2-core Xeon) the row quadratic form
# took 1.9 / 4.9 / 8.7 / 18.1 ms for k = 2 / 3 / 4 / 6 in blocks of 2^14,
# against 2.3 / 5.0 / 8.7 / 17.8 ms at 2^13, 2.1 / 6.3 / 11.1 / 24.7 ms at
# 2^16, and 13.4 / 20.0 / 27.1 / 46.5 ms for the einsum it replaces.  On a
# sorted sample, text took 1.2 times the time per value of 2^14 in blocks
# of 2^13 and 1.25 times in blocks of 2^15.
_BLOCK = 1 << 14

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
