"""Limit distributions of Wald statistics at singular hypothesis points.

When the gradient of a tested constraint vanishes at the true parameter,
the Wald statistic no longer converges to chi-square-1 but to a rational
function of a normal vector, determined by a homogeneous polynomial and a
covariance matrix.  This package computes, samples, classifies, and
empirically verifies those limit laws, and applies them as a
singularity-aware tetrad test for covariance matrices.
"""

from .classify import QuadraticClassification, classify, k_alpha, sample_canonical
from .errors import DegenerateSamplingError, ParseError, WaldError
from .gaussian import (
    CovarianceMatrix,
    eigenvalues_of_product,
    factor,
    make_generator,
    validate_covariance,
)
from .laws import (
    EmpiricalDistribution,
    FoldedBetaProduct,
    LimitLaw,
    ScaledChiSquare,
    TetradSingular,
    TwoChiSquareMix,
    monomial_law,
    parse_law,
    stable_cdf,
    tetrad_singular_cdf,
)
from .poly import (
    HomogeneousPolynomial,
    MonomialForm,
    QuadraticForm,
    load_polynomial,
    parse_polynomial,
)
from .sampler import (
    WaldSampleConfig,
    dominance_check,
    ks_distance,
    sample_wald,
    two_sample_ks,
)
from .tetrad import (
    DataMatrix,
    TetradIndex,
    TetradWald,
    asymptotic_v_normal,
    empirical_covariance,
    tetrad_wald,
    wald_tetrad_test,
)
from .verify import VerificationResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CovarianceMatrix",
    "DataMatrix",
    "DegenerateSamplingError",
    "EmpiricalDistribution",
    "FoldedBetaProduct",
    "HomogeneousPolynomial",
    "LimitLaw",
    "MonomialForm",
    "ParseError",
    "QuadraticClassification",
    "QuadraticForm",
    "ScaledChiSquare",
    "TetradIndex",
    "TetradWald",
    "TetradSingular",
    "TwoChiSquareMix",
    "VerificationResult",
    "WaldError",
    "WaldSampleConfig",
    "asymptotic_v_normal",
    "classify",
    "dominance_check",
    "eigenvalues_of_product",
    "empirical_covariance",
    "factor",
    "k_alpha",
    "ks_distance",
    "load_polynomial",
    "make_generator",
    "monomial_law",
    "parse_law",
    "parse_polynomial",
    "run_suite",
    "sample_canonical",
    "sample_wald",
    "stable_cdf",
    "tetrad_singular_cdf",
    "tetrad_wald",
    "two_sample_ks",
    "validate_covariance",
    "wald_tetrad_test",
]
