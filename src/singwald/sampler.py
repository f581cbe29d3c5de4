"""Monte Carlo engine for the Wald-ratio laws and comparison utilities.

The target random variable is

    W = f(X)^2 / (grad f(X)^T Sigma grad f(X)),    X ~ N(0, Sigma),

for a homogeneous polynomial f, or the equivalent reciprocal quadratic form
when f is a power product with real exponents.  Work is split into batches
with independently keyed Philox streams, so output is deterministic in
``(seed, n, batch_size)`` no matter how many threads run the batches, and
merging batches in any order yields the same sorted sample.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSamplingError
from .gaussian import CovarianceMatrix, MvnSampler, factor, make_generator
from .laws import EmpiricalDistribution
from .poly import HomogeneousPolynomial, MonomialForm

__all__ = [
    "WaldSampleConfig",
    "sample_wald",
    "ks_distance",
    "two_sample_ks",
    "dominance_check",
    "DominanceReport",
]


@dataclass(frozen=True)
class WaldSampleConfig:
    """Sampling run parameters.

    denominator_guard is an underflow guard only: the denominator vanishes
    on a null set for any nonzero f and positive-diagonal Sigma, so any
    positive guard is statistically invisible.  Draws that hit it are
    redrawn from the same stream.
    """

    n: int
    seed: int
    batch_size: int = 1 << 18
    denominator_guard: float = 1e-300
    threads: int = 1

    def __post_init__(self):
        if self.n < 100:
            raise ValueError("n must be at least 100")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.denominator_guard <= 0:
            raise ValueError("denominator_guard must be positive")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


def _wald_values_poly(
    f: HomogeneousPolynomial, sigma: np.ndarray, x: np.ndarray, guard: float
):
    vals = f.evaluate(x)
    grads = f.gradient(x)
    den = np.einsum("ij,jk,ik->i", grads, sigma, grads)
    good = np.isfinite(den) & (den >= guard)
    w = np.empty(x.shape[0])
    w[good] = vals[good] ** 2 / den[good]
    return w, good


def _wald_values_monomial(
    m: MonomialForm, sigma: np.ndarray, x: np.ndarray, guard: float
):
    inv = m.reciprocal_wald(x, sigma)
    good = np.isfinite(inv) & (inv >= guard)
    w = np.empty(x.shape[0])
    w[good] = 1.0 / inv[good]
    return w, good


def sample_wald(
    f: HomogeneousPolynomial | MonomialForm,
    sigma: CovarianceMatrix,
    cfg: WaldSampleConfig,
    sampler: MvnSampler | None = None,
    stats_out: dict | None = None,
) -> EmpiricalDistribution:
    """Draw ``cfg.n`` values of the Wald ratio under N(0, Sigma).

    ``sampler`` overrides the square-root factor used to generate the
    normal draws; passing a coupled factor reproduces the pathwise
    change-of-variables identities exactly.  ``stats_out``, if given, is
    filled with the proposal and rejection counts.
    """
    if f.k != sigma.k:
        raise ValueError(f"dimension mismatch: f has k={f.k}, Sigma is {sigma.k}x{sigma.k}")
    if sampler is None:
        sampler = factor(sigma)
    smat = sigma.sigma
    if isinstance(f, MonomialForm):
        values_of = lambda x: _wald_values_monomial(f, smat, x, cfg.denominator_guard)
    else:
        values_of = lambda x: _wald_values_poly(f, smat, x, cfg.denominator_guard)

    n_batches = (cfg.n + cfg.batch_size - 1) // cfg.batch_size
    sizes = [
        min(cfg.batch_size, cfg.n - b * cfg.batch_size) for b in range(n_batches)
    ]

    def run_batch(b: int) -> tuple[np.ndarray, int, int]:
        rng = make_generator(cfg.seed, b)
        want = sizes[b]
        out = np.empty(want)
        filled = 0
        proposed = 0
        rounds = 0
        while filled < want:
            rounds += 1
            if rounds > 100:
                raise DegenerateSamplingError(
                    "denominator guard rejected draws for 100 consecutive rounds; "
                    "the polynomial is degenerate on the support of Sigma"
                )
            need = want - filled
            z = rng.standard_normal((need, sampler.m))
            x = z @ sampler.factor_b.T
            w, good = values_of(x)
            proposed += need
            kept = w[good]
            out[filled : filled + kept.size] = kept
            filled += kept.size
        return out, proposed, proposed - want

    if cfg.threads > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(run_batch, range(n_batches)))
    else:
        results = [run_batch(b) for b in range(n_batches)]

    parts = [r[0] for r in results]
    proposed = sum(r[1] for r in results)
    rejected = sum(r[2] for r in results)
    if stats_out is not None:
        stats_out.update({"proposed": proposed, "rejected": rejected})
    if rejected > 0.01 * proposed:
        raise DegenerateSamplingError(
            f"rejection rate {rejected / proposed:.2%} exceeds 1%; "
            "f and Sigma form a degenerate pairing"
        )
    return EmpiricalDistribution.from_samples(np.concatenate(parts))


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


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of a stochastic-dominance grid check.

    ``lower <=_st upper`` means F_lower(t) >= F_upper(t) everywhere, so the
    recorded violation is max over the grid of F_upper - F_lower, and the
    check passes when it stays within the slack.
    """

    passed: bool
    worst_violation: float
    worst_t: float
    slack: float
    n_grid: int


def dominance_check(lower, upper, grid, slack: float = 0.0) -> DominanceReport:
    """Verify F_lower(t) >= F_upper(t) - slack on every grid point.

    Both sides may be laws or empirical distributions; anything with a
    vectorized ``cdf`` works.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    gap = np.asarray(upper.cdf(grid), dtype=float) - np.asarray(
        lower.cdf(grid), dtype=float
    )
    worst = int(np.argmax(gap))
    return DominanceReport(
        passed=bool(gap[worst] <= slack),
        worst_violation=float(gap[worst]),
        worst_t=float(grid[worst]),
        slack=slack,
        n_grid=grid.size,
    )
