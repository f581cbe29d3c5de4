"""Monte Carlo engine for the Wald-ratio laws and comparison utilities.

The target random variable is

    W = f(X)^2 / (grad f(X)^T Sigma grad f(X)),    X ~ N(0, Sigma),

for a homogeneous polynomial f, or the equivalent reciprocal quadratic form
when f is a power product with real exponents, with X = BZ for the
covariance's own square root B.  Work is split into batches of ``_BATCH``
draws, each with its own Philox stream and its own slice of one result
buffer, so output is deterministic in ``(seed, n)`` no matter how many
threads run the batches.  A batch is drawn and evaluated one row chunk of
``gaussian._normal_rows`` at a time, so its intermediates stay cache-sized.
``ks_distance`` refines one sorted set of the draws it has evaluated.
"""

from __future__ import annotations

import numpy as np

from . import _BLOCK, _Record
from . import _ThreadPool as ThreadPoolExecutor
from .empirical import EmpiricalDistribution
from .errors import DegenerateSamplingError
from .gaussian import CovarianceMatrix, _normal_rows, factor, make_generator
from .poly import HomogeneousPolynomial, MonomialForm, _euler_value, _row_quadratic

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
# ks_distance evaluates the CDF every _KS_STRIDE draws, then refines each
# segment that can still hold the supremum at 1/_KS_SPLIT of its stride.
# _KS_MARGIN absorbs rounding in the segment bounds and ulp-sized
# downward steps of a floating-point CDF.
_KS_STRIDE = 64
_KS_SPLIT = 8
_KS_MARGIN = 1e-12


class WaldSampleConfig(_Record):
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
    grad^T Sigma grad for a polynomial, both from one gradient (f by
    Euler's identity, as ``evaluate`` takes it), and 1 and the reciprocal
    form (a/x)^T Sigma (a/x) for a power product."""
    if isinstance(f, MonomialForm):
        return 1.0, f.reciprocal_wald(x, sigma)
    g = f.gradient(x)
    return np.square(_euler_value(x, g, f.d)), _row_quadratic(g, sigma)


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
            for x in _normal_rows(rng, root, need):
                num, den = _wald_terms(f, smat, x)
                good = np.isfinite(den) & (den >= _DENOMINATOR_GUARD)
                # Compact only a chunk the guard touched: in practice none is.
                if not good.all():
                    den = den[good]
                    num = num[good] if np.ndim(num) else num
                np.divide(num, den, out=part[filled : filled + den.size])
                filled += den.size
            proposed += need
        return proposed

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        proposed = sum(pool.map(run_batch, range(-(-cfg.n // _BATCH))))
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

    Against a law with a computable CDF this is the one-sample statistic:
    the largest of ``(i+1)/n - F(x_i)`` and ``F(x_i) - i/n`` over the sorted
    draws.  ``law.cdf`` must be nondecreasing, and its value at a point must
    not depend on the other points of the call.  Then for evaluated
    indices a < b every i between them has ``(i+1)/n - F(x_i) <= b/n -
    F(x_a)`` and ``F(x_i) - i/n <= F(x_b) - (a+1)/n``.  So F is evaluated
    on a coarse stride, then at each finer stride only between neighbours
    of the sorted evaluated draws whose bounds can reach the running
    maximum.  The result is the same float maximum as the evaluation at
    every draw.  An evaluated F that is NaN or steps down by more than the
    margin sends the call to that full evaluation.

    Against another empirical sample it is the exact two-sample statistic.
    """
    if isinstance(law, EmpiricalDistribution):
        return two_sample_ks(emp, law)
    x = emp.values
    n = emp.n
    idx = np.arange(0, n + _KS_STRIDE - 1, _KS_STRIDE)
    idx[-1] = n - 1
    f = np.asarray(law.cdf(x[idx]), dtype=float)
    stride = _KS_STRIDE
    while True:
        if not _nondecreasing(f):
            return _ks_every_point(x, law)
        d_plus, d_minus = _ks_gaps(idx, f, n)
        floor = max(d_plus, d_minus) - _KS_MARGIN
        a, b, fa, fb = idx[:-1], idx[1:], f[:-1], f[1:]
        keep = (b - a > 1) & ((b / n - fa >= floor) | (fb - (a + 1) / n >= floor))
        if stride == 1 or not keep.any():
            return max(d_plus, d_minus)
        stride //= _KS_SPLIT
        new = a[keep][:, None] + stride * np.arange(1, _KS_SPLIT)
        new = new[new < b[keep][:, None]]
        if new.size:
            at = np.searchsorted(idx, new)
            idx, f = np.insert(idx, at, new), np.insert(f, at, law.cdf(x[new]))


def _ks_gaps(idx: np.ndarray, f: np.ndarray, n: int) -> tuple[float, float]:
    """The two one-sided KS gaps at 0-based draw indices ``idx``."""
    return float(((idx + 1) / n - f).max()), float((f - idx / n).max())


def _nondecreasing(f: np.ndarray) -> bool:
    """True when no value is NaN and none steps down by more than the
    pruning margin."""
    return not np.isnan(f).any() and bool((np.diff(f) >= -_KS_MARGIN).all())


def _ks_every_point(x: np.ndarray, law) -> float:
    """The one-sample statistic from F at every draw."""
    return max(_ks_gaps(np.arange(x.size), np.asarray(law.cdf(x), dtype=float), x.size))


def two_sample_ks(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """Exact two-sample KS statistic: the largest ``|F_a - F_b|`` over the
    pooled draws, both step CDFs counted at every pooled draw."""
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
