"""Classification of quadratic-form Wald limits by canonical eigenvalues.

For a quadratic form f(x) = x^T A x the Wald ratio under N(0, Sigma) is
distributed like

    (sum_i lam_i Z_i^2)^2 / (4 sum_i lam_i^2 Z_i^2)

where lam are the eigenvalues of A*Sigma; only the nonzero ones matter.  A
closed-form law exists when

* at most two eigenvalues are nonzero (quarter chi-square-1 for one, or two
  of opposite signs; a two-component chi-square mixture for two of one
  sign), or
* all eigenvalues share one magnitude (quarter chi-square when they also
  share the sign, folded-Beta product otherwise).

Everything else is Monte Carlo territory, but two envelope bounds are
always available: a quarter chi-square upper bound in the effective
dimension, and a quarter chi-square-1 lower bound whenever the spectrum has
one sign or splits into equal-magnitude halves.  For mixed-sign unequal
spectra the same lower bound is conjectured, never guaranteed, and the
report says so.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import _Record
from .gaussian import CovarianceMatrix, _chunks, eigenvalues_of_product, make_generator
from .laws import (
    EmpiricalDistribution,
    FoldedBetaProduct,
    LimitLaw,
    ScaledChiSquare,
    TwoChiSquareMix,
)

if TYPE_CHECKING:
    from .poly import QuadraticForm

__all__ = [
    "QuadraticClassification",
    "classify",
    "sample_canonical",
    "k_alpha",
]

# Eigenvalues count as equal in magnitude at this relative tolerance, and as
# zero below this fraction of the largest magnitude.
_EQUAL_RTOL = 1e-8
_ZERO_RTOL = 1e-10

# The reference laws, each declared once: chi-square-1, the regular limit,
# and its quarter, the limit for one eigenvalue or two of opposite signs and
# the lower envelope, proved or conjectured.
_CHI1 = ScaledChiSquare(scale=1.0, df=1)
_QUARTER_CHI1 = ScaledChiSquare(scale=0.25, df=1)


class QuadraticClassification(_Record):
    """Eigenvalues of A*Sigma plus the emitted law and envelope bounds.

    ``law`` is None when no closed form applies (Monte Carlo only).
    ``lower_bound`` is set only when it is a proved bound; when None, the
    quarter chi-square-1 bound is still conjectured to hold and
    :meth:`describe` reports it as such.  ``upper_bound`` always holds.
    """

    eigenvalues: tuple[float, ...]
    law: LimitLaw | None
    lower_bound: LimitLaw | None
    upper_bound: LimitLaw

    def machine_line(self) -> str:
        law = self.law.spec_string() if self.law is not None else "monte-carlo"
        lower = self.lower_bound.spec_string() if self.lower_bound else "none"
        eig = ",".join(format(v, ".12g") for v in self.eigenvalues)
        return (
            f"law={law} eigenvalues={eig} lower={lower} "
            f"upper={self.upper_bound.spec_string()}"
        )

    def describe(self) -> str:
        lines = []
        eig = ", ".join(format(v, ".6g") for v in self.eigenvalues)
        lines.append(f"canonical eigenvalues of A*Sigma: {eig}")
        if self.law is None:
            lines.append(
                "limit law: no closed form for this spectrum; use Monte Carlo"
            )
        else:
            lines.append(f"limit law: {self.law.spec_string()}")
        if self.lower_bound is not None:
            lines.append(f"stochastic lower bound: {self.lower_bound.spec_string()}")
        else:
            lines.append(
                f"stochastic lower bound: {_QUARTER_CHI1.spec_string()} (conjectured only; "
                "mixed-sign spectrum with unequal magnitudes)"
            )
        lines.append(f"stochastic upper bound: {self.upper_bound.spec_string()}")
        return "\n".join(lines)


def classify(a: QuadraticForm, sigma: CovarianceMatrix) -> QuadraticClassification:
    """Reduce (A, Sigma) to its eigenvalue spectrum and emit the limit law.

    Only the effective spectrum decides, i.e. the eigenvalues of A*Sigma
    above ``_ZERO_RTOL`` of the largest magnitude.  One eigenvalue, or two
    of opposite signs, give the quarter chi-square-1 law; two of one sign
    and unequal magnitudes give the two-component mixture with weights
    (1/4, lam1*lam2/(lam1 + lam2)^2).  Otherwise the law is closed-form
    exactly on the equal-magnitude strata.
    """
    lams_all = eigenvalues_of_product(a, sigma)
    top = np.abs(lams_all).max()
    if top == 0.0:
        raise ValueError("A*Sigma vanishes: the form is zero on the support of Sigma")
    lams = lams_all[np.abs(lams_all) > _ZERO_RTOL * top]
    k_eff = lams.size
    n_pos = int(np.sum(lams > 0))
    n_neg = k_eff - n_pos
    same_sign = n_pos == 0 or n_neg == 0
    equal_magnitude = (np.abs(lams).max() - np.abs(lams).min()) <= _EQUAL_RTOL * top

    law: LimitLaw | None
    lower: LimitLaw | None = _QUARTER_CHI1
    if k_eff == 1 or (k_eff == 2 and not same_sign):
        law = _QUARTER_CHI1
    elif k_eff == 2 and not equal_magnitude:
        w2 = lams[0] * lams[1] / (lams[0] + lams[1]) ** 2
        law = TwoChiSquareMix(w1=0.25, w2=float(w2))
    elif same_sign:
        law = ScaledChiSquare(scale=0.25, df=k_eff) if equal_magnitude else None
    elif equal_magnitude:
        law = FoldedBetaProduct(k1=n_pos, k2=n_neg)
    else:
        law = None
        lower = None

    return QuadraticClassification(
        eigenvalues=tuple(float(v) for v in lams_all),
        law=law,
        lower_bound=lower,
        upper_bound=ScaledChiSquare(scale=0.25, df=k_eff),
    )


def sample_canonical(lams, n: int, seed: int) -> EmpiricalDistribution:
    """Draws of (sum lam_i Z_i^2)^2 / (4 sum lam_i^2 Z_i^2).

    The spectrum is normalized by its largest magnitude first; the ratio is
    scale invariant, and the normalization keeps sign flips and power-of-two
    rescalings bitwise reproducible.  The normals are drawn and reduced in
    the row chunks of ``gaussian._chunks``.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.size == 0 or np.all(lams == 0.0):
        raise ValueError("spectrum must contain a nonzero eigenvalue")
    lams = lams / np.abs(lams).max()
    lams2 = lams**2
    rng = make_generator(seed)
    out = np.empty(n)
    for start, stop in _chunks(n):
        z2 = rng.standard_normal((stop - start, lams.size)) ** 2
        np.divide((z2 @ lams) ** 2, 4.0 * (z2 @ lams2), out=out[start:stop])
    return EmpiricalDistribution.from_samples(out)


def k_alpha(alpha: float) -> int:
    """Largest degrees of freedom k whose quarter chi-square stays below the
    level-alpha chi-square-1 critical value with small exceedance.

    The exceedance cap is ``max(alpha, 0.05)``, which reproduces the
    conventional conservativeness table (7, 11, 16, 20, 29) at
    alpha = (0.05, 0.025, 0.01, 0.005, 0.001).

    Computed by exact CDF evaluation and an integer search.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must be in (0, 0.5)")
    cap = max(alpha, 0.05)
    # c_alpha: (1 - alpha) quantile of chi-square-1
    c_alpha = _CHI1.quantile(1.0 - alpha)
    k = 0
    while ScaledChiSquare(0.25, k + 1).sf(c_alpha) <= cap:
        k += 1
        if k > 10_000:
            raise RuntimeError("k_alpha search failed to terminate")
    if k == 0:
        raise ValueError(f"no positive k satisfies the exceedance cap at alpha={alpha}")
    return k
