"""Monte Carlo engine for the Wald-ratio laws and comparison utilities.

The target random variable is

    W = f(X)^2 / (grad f(X)^T Sigma grad f(X)),    X ~ N(0, Sigma),

for a homogeneous polynomial f, or the equivalent reciprocal quadratic form
when f is a power product with real exponents, with X = BZ for the
covariance's own square root B.  Work is split into batches of ``_BATCH``
draws, each with its own Philox stream and its own slice of one result
buffer, so output is deterministic in ``(seed, n)`` no matter how many
threads run the batches.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSamplingError
from .gaussian import CovarianceMatrix, factor, make_generator
from .laws import EmpiricalDistribution
from .poly import HomogeneousPolynomial, MonomialForm

__all__ = [
    "WaldSampleConfig",
    "sample_wald",
    "ks_distance",
    "two_sample_ks",
    "dominance_check",
]

# Underflow guard only: the denominator vanishes on a null set for any
# nonzero f and positive-diagonal Sigma, so any positive guard is
# statistically invisible.  Draws that hit it are redrawn from the same
# stream.
_DENOMINATOR_GUARD = 1e-300
# Draws per batch; batch i draws from the Philox stream (seed, i).
_BATCH = 1 << 18


@dataclass(frozen=True)
class WaldSampleConfig:
    """Sampling run parameters."""

    n: int
    seed: int
    threads: int = 1

    def __post_init__(self):
        if self.n < 100:
            raise ValueError("n must be at least 100")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


def _wald_terms(f: HomogeneousPolynomial | MonomialForm, sigma: np.ndarray, x: np.ndarray):
    """Numerator and denominator of W at the rows of ``x``: f^2 and
    grad^T Sigma grad for a polynomial, 1 and the reciprocal form
    (a/x)^T Sigma (a/x) for a power product."""
    if isinstance(f, MonomialForm):
        return 1.0, f.reciprocal_wald(x, sigma)
    num = np.square(f.evaluate(x))
    grads = f.gradient(x)
    return num, np.einsum("ij,jk,ik->i", grads, sigma, grads)


def sample_wald(
    f: HomogeneousPolynomial | MonomialForm,
    sigma: CovarianceMatrix,
    cfg: WaldSampleConfig,
    sampler: np.ndarray | None = None,
    stats_out: dict | None = None,
) -> EmpiricalDistribution:
    """Draw ``cfg.n`` values of the Wald ratio under N(0, Sigma).

    ``sampler`` overrides the square-root factor, a (k, m) matrix, used to
    generate the normal draws; passing a coupled factor reproduces the
    pathwise change-of-variables identities exactly.  ``stats_out``, if
    given, is filled with the proposal and rejection counts.
    """
    if f.k != sigma.k:
        raise ValueError(f"dimension mismatch: f has k={f.k}, Sigma is {sigma.k}x{sigma.k}")
    root = factor(sigma) if sampler is None else np.asarray(sampler, dtype=float)
    if root.ndim != 2 or root.shape[0] != sigma.k:
        raise ValueError(f"factor must have shape ({sigma.k}, m), got {root.shape}")
    smat = sigma.sigma
    out = np.empty(cfg.n)

    def run_batch(i: int) -> int:
        """Fill batch i's slice of ``out``; returns its proposal count."""
        rng = make_generator(cfg.seed, i)
        part = out[i * _BATCH : (i + 1) * _BATCH]
        filled = proposed = rounds = 0
        while filled < part.size:
            rounds += 1
            if rounds > 100:
                raise DegenerateSamplingError(
                    "denominator guard rejected draws for 100 consecutive rounds; "
                    "the polynomial is degenerate on the support of Sigma"
                )
            need = part.size - filled
            x = rng.standard_normal((need, root.shape[1])) @ root.T
            num, den = _wald_terms(f, smat, x)
            good = np.isfinite(den) & (den >= _DENOMINATOR_GUARD)
            den = den[good]
            np.divide(num[good] if np.ndim(num) else num, den, out=part[filled : filled + den.size])
            proposed += need
            filled += den.size
        return proposed

    n_batches = -(-cfg.n // _BATCH)
    # One batch or one thread stays on the calling thread: a pool thread
    # takes its own malloc arena, which costs peak memory for no speedup.
    if cfg.threads > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            proposed = sum(pool.map(run_batch, range(n_batches)))
    else:
        proposed = sum(map(run_batch, range(n_batches)))
    rejected = proposed - cfg.n
    if stats_out is not None:
        stats_out.update({"proposed": proposed, "rejected": rejected})
    if rejected > 0.01 * proposed:
        raise DegenerateSamplingError(
            f"rejection rate {rejected / proposed:.2%} exceeds 1%; "
            "f and Sigma form a degenerate pairing"
        )
    return EmpiricalDistribution.from_samples(out)


def ks_distance(emp: EmpiricalDistribution, law) -> float:
    """Exact sup distance between the empirical CDF and a reference.

    Against a law with a computable CDF this is the one-sample statistic
    with both one-sided gaps at every jump; against another empirical
    sample it is the exact two-sample statistic.
    """
    if isinstance(law, EmpiricalDistribution):
        return two_sample_ks(emp, law)
    x = emp.values
    n = emp.n
    fvals = np.asarray(law.cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = float((i / n - fvals).max())
    d_minus = float((fvals - (i - 1) / n).max())
    return max(d_plus, d_minus)


def two_sample_ks(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    pooled = np.concatenate([a.values, b.values])
    fa = np.searchsorted(a.values, pooled, side="right") / a.n
    fb = np.searchsorted(b.values, pooled, side="right") / b.n
    return float(np.abs(fa - fb).max())


def dominance_check(lower, upper, grid) -> float:
    """Worst gap max over the grid of F_upper - F_lower.

    ``lower <=_st upper`` means F_lower(t) >= F_upper(t) everywhere, so a
    gap at or below zero confirms the ordering on the grid.  Both sides may
    be laws or empirical distributions; anything with a vectorized ``cdf``
    works.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    gap = np.asarray(upper.cdf(grid), dtype=float) - np.asarray(
        lower.cdf(grid), dtype=float
    )
    return float(gap.max())
