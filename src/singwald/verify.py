"""Numerical verification suite.

Every closed-form claim the package relies on is paired here with a
reproducible check: Kolmogorov-Smirnov agreement between a Monte Carlo
sample and a claimed law, a stochastic-dominance grid, a moment-constancy
quadrature, or a pathwise identity.  Checks come in two tiers.  Theorem-tier
checks gate the build and the CLI exit code; conjecture-tier checks are
evidence for open claims in dimension three and above and are reported
without gating.

Each registry entry owns a deterministically derived seed, so the whole
suite is reproducible byte for byte from a single seed and can run its
checks concurrently without changing any result.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classify import classify, sample_canonical
from .gaussian import MvnSampler, factor, make_generator, validate_covariance
from .laws import (
    EmpiricalDistribution,
    FoldedBetaProduct,
    ScaledChiSquare,
    TetradSingular,
    TwoChiSquareMix,
    monomial_law,
    sample_stable,
    stable_cdf,
)
from .poly import HomogeneousPolynomial, MonomialForm, QuadraticForm
from .sampler import (
    WaldSampleConfig,
    dominance_check,
    ks_distance,
    sample_wald,
    two_sample_ks,
)
from .tetrad import tetrad_wald

__all__ = [
    "VerificationResult",
    "verify_monomial_theorem",
    "verify_conjecture_monomial",
    "verify_cauchy",
    "verify_reciprocal",
    "counterexample_negative_weights",
    "moment_invariance_check",
    "verify_trig_lemma",
    "verify_beta_representation",
    "verify_bounds_suite",
    "verify_pathwise_invariance",
    "verify_tetrad_kronecker",
    "verify_tetrad_convergence",
    "run_suite",
    "coverage_manifest",
    "REQUIRED_CLAIMS",
    "format_report",
]


@dataclass(frozen=True)
class VerificationResult:
    """One check outcome; passes exactly when statistic <= threshold."""

    name: str
    tier: str  # "theorem" or "conjecture"
    statistic: float
    threshold: float
    n_used: int
    seed: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.statistic <= self.threshold

    def __post_init__(self):
        if self.tier not in ("theorem", "conjecture"):
            raise ValueError(f"unknown tier {self.tier!r}")


def ks_threshold(n: int) -> float:
    """Default pass threshold for a seeded KS check: 3/sqrt(n).

    This is about 1.8 times the asymptotic 1% critical value, i.e. 0.003 at
    the default n of one million.  Tighten by raising n.
    """
    return 3.0 / np.sqrt(n)


def _evidence_threshold(n: int) -> float:
    # 0.005 at n = 1e6; conjecture-tier reporting threshold.
    return 5.0 / np.sqrt(n)


_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(seed: int, index: int) -> int:
    """Distinct 64-bit seed per check so suite streams never collide."""
    return (seed * _GOLDEN + 0x1234567 + index * 0x2545F4914F6CDD1D) & _MASK


def _mvn_draws(sigma: np.ndarray, n: int, seed: int, stream: int = 0) -> np.ndarray:
    cov = validate_covariance(sigma)
    return factor(cov).sample(n, seed, stream)


# ---------------------------------------------------------------------------
# Individual checks.
# ---------------------------------------------------------------------------

def verify_monomial_theorem(
    m: MonomialForm, sigma, n: int, seed: int, name: str = "bivariate-monomial-law"
) -> VerificationResult:
    """Bivariate power product: Wald ratio is chi-square-1 over degree^2."""
    if m.k != 2:
        raise ValueError("theorem check requires exactly two variables")
    cov = validate_covariance(sigma)
    emp = sample_wald(m, cov, WaldSampleConfig(n=n, seed=seed))
    stat = ks_distance(emp, monomial_law(m))
    return VerificationResult(
        name=name,
        tier="theorem",
        statistic=stat,
        threshold=ks_threshold(n),
        n_used=n,
        seed=seed,
        detail=f"exponents={m.exponents}",
    )


def verify_conjecture_monomial(
    m: MonomialForm, sigma, n: int, seed: int, name: str = "monomial-law-evidence"
) -> VerificationResult:
    """Same law in dimension >= 3: open conjecture, evidence only."""
    if m.k < 3:
        raise ValueError("conjecture regime starts at three variables")
    cov = validate_covariance(sigma)
    emp = sample_wald(m, cov, WaldSampleConfig(n=n, seed=seed))
    stat = ks_distance(emp, monomial_law(m))
    return VerificationResult(
        name=name,
        tier="conjecture",
        statistic=stat,
        threshold=_evidence_threshold(n),
        n_used=n,
        seed=seed,
        detail=f"k={m.k} evidence, not a theorem",
    )


def verify_cauchy(
    p, sigma, n: int, seed: int, name: str | None = None
) -> VerificationResult:
    """Convex combination sum p_i * Y_i / X_i is standard Cauchy."""
    p = np.asarray(p, dtype=float)
    if abs(p.sum() - 1.0) > 1e-12 or np.any(p < 0):
        raise ValueError("weights must be nonnegative and sum to one")
    k = p.size
    x = _mvn_draws(sigma, n, seed, stream=0) if k > 1 else None
    if k == 1:
        rng = make_generator(seed, 0)
        draws = rng.standard_normal(n) / rng.standard_normal(n)
    else:
        y = _mvn_draws(sigma, n, seed, stream=1)
        draws = (p[None, :] * y / x).sum(axis=1)
    draws = draws[np.isfinite(draws)]
    emp = EmpiricalDistribution.from_samples(draws)
    fvals = 0.5 + np.arctan(emp.values) / np.pi
    i = np.arange(1, emp.n + 1)
    stat = max(
        float((i / emp.n - fvals).max()), float((fvals - (i - 1) / emp.n).max())
    )
    tier = "theorem" if k <= 2 else "conjecture"
    thresh = ks_threshold(n) if tier == "theorem" else _evidence_threshold(n)
    return VerificationResult(
        name=name or ("weighted-cauchy-ratio" if k <= 2 else "cauchy-ratio-evidence"),
        tier=tier,
        statistic=stat,
        threshold=thresh,
        n_used=n,
        seed=seed,
        detail=f"k={k} weights={tuple(p)}",
    )


def verify_reciprocal(
    p, sigma, n: int, seed: int, name: str | None = None
) -> VerificationResult:
    """Quadratic form in reciprocal coordinates matches 1/chi-square-1."""
    p = np.asarray(p, dtype=float)
    if abs(p.sum() - 1.0) > 1e-12 or np.any(p < 0):
        raise ValueError("weights must be nonnegative and sum to one")
    sigma = np.asarray(sigma, dtype=float)
    x = _mvn_draws(sigma, n, seed)
    v = p[None, :] / x
    q = np.einsum("ij,jk,ik->i", v, sigma, v)
    q = q[np.isfinite(q) & (q > 0)]
    emp = EmpiricalDistribution.from_samples(q)
    fvals = stable_cdf(1.0, emp.values)
    i = np.arange(1, emp.n + 1)
    stat = max(
        float((i / emp.n - fvals).max()), float((fvals - (i - 1) / emp.n).max())
    )
    diagonal = np.abs(sigma - np.diag(np.diag(sigma))).max() == 0.0
    tier = "theorem" if (p.size <= 2 or diagonal) else "conjecture"
    thresh = ks_threshold(n) if tier == "theorem" else _evidence_threshold(n)
    return VerificationResult(
        name=name or ("reciprocal-form-law" if tier == "theorem" else "reciprocal-form-evidence"),
        tier=tier,
        statistic=stat,
        threshold=thresh,
        n_used=n,
        seed=seed,
        detail=f"k={p.size}",
    )


def counterexample_negative_weights(
    rho: float, n: int, seed: int
) -> list[VerificationResult]:
    """Negative weights break the reciprocal law: the mean follows
    (1 + 2 rho^2)/(1 - rho^2) and, at rho = 0.8, the law visibly departs
    from chi-square-1."""
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must be in (-1, 1)")
    sigma = np.array([[1.0, rho], [rho, 1.0]])
    x = _mvn_draws(sigma, n, seed)
    q = 4.0 / (1.0 / x[:, 0] ** 2 - 2.0 * rho / (x[:, 0] * x[:, 1]) + 1.0 / x[:, 1] ** 2)
    q = q[np.isfinite(q)]
    expected = (1.0 + 2.0 * rho**2) / (1.0 - rho**2)
    rel_dev = abs(float(q.mean()) / expected - 1.0)
    results = [
        VerificationResult(
            name=f"negative-weight-mean-rho{rho:g}",
            tier="theorem",
            statistic=rel_dev,
            threshold=0.02,
            n_used=n,
            seed=seed,
            detail=f"target mean {expected:.6g}",
        )
    ]
    if rho == 0.8:
        emp = EmpiricalDistribution.from_samples(q)
        gap = ks_distance(emp, ScaledChiSquare(scale=1.0, df=1))
        results.append(
            VerificationResult(
                name="negative-weight-law-gap",
                tier="theorem",
                statistic=-gap,
                threshold=-0.01,
                n_used=n,
                seed=seed,
                detail="distance to chi-square-1 must exceed 0.01; statistic is its negation",
            )
        )
    return results


def _moment_integrand(psi, phi: float, sigma: float):
    num = (
        2.0
        - np.cos(2.0 * phi)
        + 2.0 * np.cos(psi - phi)
        - np.cos(2.0 * psi)
        - 2.0 * np.cos(psi + phi)
    )
    den = 1.0 - sigma * np.cos(2.0 * phi) + (1.0 + sigma) * (
        sigma + np.cos(psi - phi) - sigma * np.cos(psi + phi)
    )
    return num / den


def _angle_moment(sigma: float, phi: float, m: int, tol: float = 1e-10) -> float:
    """E of the m-th power of the angular ratio, by adaptive quadrature.

    The integrand develops a sharp but integrable spike where its
    denominator is smallest, which a single adaptive pass can silently step
    over as phi approaches pi/2.  The spike sits at the extremum of the
    cosine combination in the denominator, so panel edges are forced there
    before the per-panel adaptive rule runs.
    """
    fn = lambda psi: _moment_integrand(psi, phi, sigma) ** m
    a = (1.0 + sigma) * (1.0 - sigma) * np.cos(phi)
    b = (1.0 + sigma) * (1.0 + sigma) * np.sin(phi)
    psi_star = float(np.arctan2(-b, -a) % (2.0 * np.pi))
    edges = set(np.linspace(0.0, 2.0 * np.pi, 17))
    for off in (-0.3, -0.1, -0.03, -0.01, 0.0, 0.01, 0.03, 0.1, 0.3):
        e = psi_star + off
        if 0.0 < e < 2.0 * np.pi:
            edges.add(e)
    panels = sorted(edges)
    from scipy import integrate  # here, not at import: start-up skips it

    val = 0.0
    err = 0.0
    for lo, hi in zip(panels[:-1], panels[1:]):
        v, e = integrate.quad(
            fn, lo, hi, epsabs=tol / len(panels), epsrel=1e-12, limit=300
        )
        val += v
        err += e
    if err > 100 * tol:
        raise RuntimeError(
            f"moment quadrature failed to converge (err={err:g}) at "
            f"sigma={sigma}, phi={phi}, m={m}"
        )
    return val / (2.0 * np.pi)


def moment_invariance_check(
    sigma_param: float, phis, ms, tol: float = 1e-10
) -> np.ndarray:
    """Table of angular moments E[T^m], one row per m and column per phi.

    The distribution of the angular ratio should not depend on phi, so each
    row must be constant; callers assert the row spread.
    """
    if sigma_param <= 0:
        raise ValueError("sigma_param must be positive")
    phis = list(phis)
    if any(not 0 <= phi < np.pi / 2 for phi in phis):
        raise ValueError("phi values must lie in [0, pi/2)")
    ms = list(ms)
    if any(m < 1 for m in ms):
        raise ValueError("moment orders must be positive integers")
    table = np.empty((len(ms), len(phis)))
    for r, m in enumerate(ms):
        for c, phi in enumerate(phis):
            table[r, c] = _angle_moment(sigma_param, phi, m, tol)
    return table


def _moment_invariance_results(n: int, seed: int) -> list[VerificationResult]:
    phis = [0.0, 0.3, 0.7, 1.2, 1.5]
    ms = [1, 2, 3, 4]
    worst = 0.0
    for sig in (0.4, 1.0, 2.5):
        table = moment_invariance_check(sig, phis, ms)
        dev = np.abs(table - table[:, :1]).max()
        worst = max(worst, float(dev))
    results = [
        VerificationResult(
            name="moment-invariance",
            tier="theorem",
            statistic=worst,
            threshold=1e-8,
            n_used=len(phis) * len(ms) * 3,
            seed=seed,
            detail="max moment spread across phi",
        )
    ]
    # Cross-check the quadrature against the sampler through the doubled
    # angle relation: E[W] = (sigma^2/2) * E[T].
    sig, phi = 0.7, 0.6
    m = MonomialForm(exponents=(1.0, 1.0 / sig))
    rho = float(np.sin(phi))
    cov = validate_covariance(np.array([[1.0, rho], [rho, 1.0]]))
    emp = sample_wald(m, cov, WaldSampleConfig(n=n, seed=seed))
    mean_quad = (sig**2 / 2.0) * _angle_moment(sig, phi, 1)
    rel = abs(emp.mean() / mean_quad - 1.0)
    results.append(
        VerificationResult(
            name="moment-sampler-agreement",
            tier="theorem",
            statistic=rel,
            threshold=max(0.01, 8.0 / np.sqrt(n)),
            n_used=n,
            seed=seed,
            detail=f"sampler mean vs quadrature mean {mean_quad:.8g}",
        )
    )
    return results


def verify_trig_lemma(c: float, n: int, seed: int) -> VerificationResult:
    """For c >= 0 the weighted angular product matches cos^2 of a uniform
    angle in distribution; for c < 0 it must not."""
    rng = make_generator(seed, 0)
    psi = rng.uniform(0.0, 2.0 * np.pi, n)
    ref_angle = rng.uniform(0.0, 2.0 * np.pi, n)
    s = (1.0 + c) ** 2 * np.cos(psi) ** 2 * np.sin(psi) ** 2 / (
        np.cos(psi) ** 2 + c * c * np.sin(psi) ** 2
    )
    gap = two_sample_ks(
        EmpiricalDistribution.from_samples(s),
        EmpiricalDistribution.from_samples(np.cos(ref_angle) ** 2),
    )
    if c >= 0:
        return VerificationResult(
            name=f"trig-equidistribution-c{c:g}",
            tier="theorem",
            statistic=gap,
            threshold=ks_threshold(n),
            n_used=n,
            seed=seed,
        )
    return VerificationResult(
        name="trig-negative-weight-gap",
        tier="theorem",
        statistic=-gap,
        threshold=-0.01,
        n_used=n,
        seed=seed,
        detail=f"c={c}: distance must exceed 0.01; statistic is its negation",
    )


def verify_beta_representation(
    k1: int, k2: int, n: int, seed: int
) -> VerificationResult:
    """Canonical signed-unit spectrum draws match the folded-Beta product."""
    lams = np.concatenate([np.ones(k1), -np.ones(k2)])
    canonical = sample_canonical(lams, n, derive_seed(seed, 11), stream=0)
    law_sample = FoldedBetaProduct(k1=k1, k2=k2).sample(n, derive_seed(seed, 12))
    stat = two_sample_ks(canonical, law_sample)
    return VerificationResult(
        name=f"folded-beta-representation-{k1}-{k2}",
        tier="theorem",
        statistic=stat,
        threshold=ks_threshold(n),
        n_used=n,
        seed=seed,
    )


def verify_pathwise_invariance(n: int, seed: int) -> list[VerificationResult]:
    """Pathwise identities under coefficient scaling and invertible
    re-parameterization of the tetrad form."""
    f = HomogeneousPolynomial.from_terms(
        [(1.0, (1, 0, 0, 1)), (-1.0, (0, 1, 1, 0))]
    )
    sigma = validate_covariance(
        np.array(
            [
                [2.0, 0.3, 0.1, 0.0],
                [0.3, 1.5, 0.2, 0.1],
                [0.1, 0.2, 1.0, 0.4],
                [0.0, 0.1, 0.4, 2.5],
            ]
        )
    )
    cfg = WaldSampleConfig(n=max(n // 10, 100), seed=seed)
    base = sample_wald(f, sigma, cfg)
    scaled = sample_wald(f.scale(2.0), sigma, cfg)
    stat_scale = float(np.abs(base.values - scaled.values).max())
    results = [
        VerificationResult(
            name="scale-invariance-pathwise",
            tier="theorem",
            statistic=stat_scale,
            threshold=0.0,
            n_used=cfg.n,
            seed=seed,
            detail="power-of-two coefficient scaling, bitwise identical draws",
        )
    ]
    rng = make_generator(derive_seed(seed, 13), 0)
    b = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    b_inv = np.linalg.inv(b)
    base_factor = factor(sigma).factor_b
    coupled = MvnSampler.from_factor(b_inv @ base_factor)
    sigma_t = validate_covariance(b_inv @ sigma.sigma @ b_inv.T)
    transformed = sample_wald(f.compose_linear(b), sigma_t, cfg, sampler=coupled)
    rel = np.abs(transformed.values - base.values) / np.maximum(base.values, 1e-30)
    results.append(
        VerificationResult(
            name="reparam-invariance-pathwise",
            tier="theorem",
            statistic=float(rel.max()),
            threshold=1e-8,
            n_used=cfg.n,
            seed=seed,
            detail="factor-coupled change of variables",
        )
    )
    return results


def _random_pd_2x2(rng: np.random.Generator) -> np.ndarray:
    v1, v2 = rng.uniform(0.3, 3.0, 2)
    rho = rng.uniform(-0.95, 0.95)
    c = rho * np.sqrt(v1 * v2)
    return np.array([[v1, c], [c, v2]])


def verify_tetrad_kronecker(n: int, seed: int, n_pairs: int = 20) -> list[VerificationResult]:
    """Kronecker-structured covariances put the tetrad form on the
    equal-magnitude split spectrum, so the limit is the tetrad singular law
    for every block pair."""
    f = HomogeneousPolynomial.from_terms(
        [(1.0, (1, 0, 0, 1)), (-1.0, (0, 1, 1, 0))]
    )
    a = f.to_quadratic_form()
    rng = make_generator(derive_seed(seed, 17), 0)
    mismatches = 0
    for _ in range(n_pairs):
        s1 = _random_pd_2x2(rng)
        s2 = _random_pd_2x2(rng)
        cov = validate_covariance(np.kron(s1, s2))
        cls = classify(QuadraticForm(a.a), cov)
        law = cls.law
        if not (
            isinstance(law, FoldedBetaProduct) and {law.k1, law.k2} == {2}
        ):
            mismatches += 1
    results = [
        VerificationResult(
            name="tetrad-kronecker-classification",
            tier="theorem",
            statistic=float(mismatches),
            threshold=0.0,
            n_used=n_pairs,
            seed=seed,
            detail=f"{n_pairs} random positive definite block pairs",
        )
    ]
    s1 = _random_pd_2x2(rng)
    s2 = _random_pd_2x2(rng)
    cov = validate_covariance(np.kron(s1, s2))
    emp = sample_wald(f, cov, WaldSampleConfig(n=n, seed=derive_seed(seed, 18)))
    stat = ks_distance(emp, TetradSingular())
    results.append(
        VerificationResult(
            name="tetrad-kronecker-law",
            tier="theorem",
            statistic=stat,
            threshold=ks_threshold(n),
            n_used=n,
            seed=seed,
        )
    )
    return results


def verify_bounds_suite(n: int, seed: int, n_spectra: int = 20) -> list[VerificationResult]:
    """Stochastic envelope checks for the canonical quadratic family.

    Empirical dominance grids use slack 0.005 at the default sample size;
    below that the slack widens with the Monte Carlo noise floor, since the
    envelopes hold with equality on parts of their strata.
    """
    results = []
    rng = make_generator(derive_seed(seed, 19), 0)
    quarter_chi1 = ScaledChiSquare(scale=0.25, df=1)
    m_emp = max(n // 4, 10_000)
    slack = max(0.005, 3.0 / np.sqrt(m_emp))

    worst_upper = -np.inf
    for i in range(n_spectra):
        k = int(rng.integers(1, 7))
        lams = rng.uniform(-1.0, 1.0, k)
        if np.all(np.abs(lams) < 1e-3):
            lams[0] = 1.0
        emp = sample_canonical(lams, m_emp, derive_seed(seed, 100 + i))
        upper = ScaledChiSquare(scale=0.25, df=k)
        grid = np.linspace(0.0, upper.quantile(0.9995), 400)
        rep = dominance_check(emp, upper, grid, slack=slack)
        worst_upper = max(worst_upper, rep.worst_violation)
    results.append(
        VerificationResult(
            name="upper-envelope-quarter-chisq",
            tier="theorem",
            statistic=float(worst_upper),
            threshold=slack,
            n_used=m_emp,
            seed=seed,
            detail=f"{n_spectra} random spectra, k <= 6",
        )
    )

    emp = sample_canonical(np.ones(3), n, derive_seed(seed, 20))
    results.append(
        VerificationResult(
            name="upper-envelope-equality-case",
            tier="theorem",
            statistic=ks_distance(emp, ScaledChiSquare(scale=0.25, df=3)),
            threshold=ks_threshold(n),
            n_used=n,
            seed=seed,
            detail="constant spectrum attains the quarter chi-square envelope",
        )
    )

    worst_lower = -np.inf
    spectra = [np.array([1.0, 0.5, 0.1]), np.array([1.0, 1.0, 0.25, 0.02])]
    for i, lams in enumerate(spectra):
        emp = sample_canonical(lams, m_emp, derive_seed(seed, 200 + i))
        grid = np.linspace(0.0, 12.0, 400)
        rep = dominance_check(quarter_chi1, emp, grid, slack=slack)
        worst_lower = max(worst_lower, rep.worst_violation)
    results.append(
        VerificationResult(
            name="lower-envelope-one-signed",
            tier="theorem",
            statistic=float(worst_lower),
            threshold=slack,
            n_used=m_emp,
            seed=seed,
            detail="nonnegative spectra dominate quarter chi-square-1",
        )
    )

    worst_split = -np.inf
    for i, (k1, k2) in enumerate(((1, 1), (2, 2), (3, 1), (4, 2))):
        lams = np.concatenate([np.ones(k1), -np.ones(k2)])
        emp = sample_canonical(lams, m_emp, derive_seed(seed, 300 + i))
        grid = np.linspace(0.0, 12.0, 400)
        rep = dominance_check(quarter_chi1, emp, grid, slack=slack)
        worst_split = max(worst_split, rep.worst_violation)
    results.append(
        VerificationResult(
            name="lower-envelope-balanced",
            tier="theorem",
            statistic=float(worst_split),
            threshold=slack,
            n_used=m_emp,
            seed=seed,
            detail="signed unit spectra dominate quarter chi-square-1",
        )
    )

    grid = np.linspace(0.0, 50.0, 2001)
    rep = dominance_check(
        TetradSingular(), ScaledChiSquare(scale=1.0, df=1), grid, slack=1e-9
    )
    results.append(
        VerificationResult(
            name="tetrad-cdf-dominance",
            tier="theorem",
            statistic=rep.worst_violation,
            threshold=1e-9,
            n_used=grid.size,
            seed=seed,
            detail="closed-form CDF comparison on [0, 50]",
        )
    )
    return results


def _simulate_tetrad_stats(
    theta: np.ndarray, n_data: int, replicates: int, seed: int
) -> np.ndarray:
    """Wald statistics of the leading tetrad over simulated Gaussian data."""
    theta = np.asarray(theta, dtype=float)
    chol = np.linalg.cholesky(theta)
    stats = np.empty(replicates)
    chunk = max(1, int(2e6 // max(n_data, 1)))
    done = 0
    stream = 0
    while done < replicates:
        r = min(chunk, replicates - done)
        rng = make_generator(seed, stream)
        stream += 1
        z = rng.standard_normal((r, n_data, 4))
        x = z @ chol.T
        xc = x - x.mean(axis=1, keepdims=True)
        covs = np.einsum("rni,rnj->rij", xc, xc) / n_data
        stats[done : done + r] = tetrad_wald(covs, n_data, [(0, 1, 2, 3)]).t_stat[:, 0]
        done += r
    return stats


def verify_tetrad_convergence(
    theta_true,
    n_data: int,
    replicates: int,
    seed: int,
    singular: bool = True,
    name: str = "tetrad-statistic-convergence",
) -> VerificationResult:
    """Finite-sample tetrad Wald statistics against their claimed limit.

    At a block-diagonal truth the limit is the tetrad singular law; at a
    regular null point it is chi-square-1.  The threshold is loose (0.03)
    because the limit is asymptotic and n_data leaves O(n^-1/2) law error.
    """
    theta_true = np.asarray(theta_true, dtype=float)
    if singular:
        off = np.abs(theta_true[:2, 2:]).max()
        if off != 0.0:
            raise ValueError("singular case requires a block-diagonal truth")
    t_stats = _simulate_tetrad_stats(theta_true, n_data, replicates, derive_seed(seed, 23))
    emp = EmpiricalDistribution.from_samples(t_stats)
    if singular:
        reference = TetradSingular().sample(max(replicates, 10**6), derive_seed(seed, 24))
        stat = two_sample_ks(emp, reference)
        detail = f"block-diagonal truth, n_data={n_data}, replicates={replicates}"
    else:
        stat = ks_distance(emp, ScaledChiSquare(scale=1.0, df=1))
        detail = f"regular truth, n_data={n_data}, replicates={replicates}"
    # 0.03 is calibrated for 5000 replicates; widen with the noise floor below.
    threshold = 0.03 * max(1.0, np.sqrt(5000.0 / replicates))
    return VerificationResult(
        name=name,
        tier="theorem",
        statistic=stat,
        threshold=threshold,
        n_used=replicates,
        seed=seed,
        detail=detail,
    )


def _stable_results(n: int, seed: int) -> list[VerificationResult]:
    draws = sample_stable(1.3, n, derive_seed(seed, 25))
    emp = EmpiricalDistribution.from_samples(draws)
    fvals = stable_cdf(1.3, emp.values)
    i = np.arange(1, emp.n + 1)
    stat_law = max(
        float((i / emp.n - fvals).max()), float((fvals - (i - 1) / emp.n).max())
    )
    a, b = 0.7, 1.3
    total = sample_stable(a, n, derive_seed(seed, 26)) + sample_stable(
        b, n, derive_seed(seed, 27)
    )
    emp2 = EmpiricalDistribution.from_samples(total)
    fvals2 = stable_cdf(a + b, emp2.values)
    stat_conv = max(
        float((i / emp2.n - fvals2).max()), float((fvals2 - (i - 1) / emp2.n).max())
    )
    return [
        VerificationResult(
            name="stable-first-passage-law",
            tier="theorem",
            statistic=stat_law,
            threshold=ks_threshold(n),
            n_used=n,
            seed=seed,
        ),
        VerificationResult(
            name="stable-convolution",
            tier="theorem",
            statistic=stat_conv,
            threshold=ks_threshold(n),
            n_used=n,
            seed=seed,
            detail="index-half parameters add under convolution",
        ),
    ]


def _random_quadratic(rng: np.random.Generator, want_split: bool) -> np.ndarray:
    while True:
        a = rng.uniform(-1.5, 1.5)
        b = rng.uniform(-1.5, 1.5)
        c = rng.uniform(-1.5, 1.5)
        disc = b * b - a * c
        if want_split and disc >= 0.05:
            return np.array([[a, b], [b, c]])
        if not want_split and disc <= -0.05:
            return np.array([[a, b], [b, c]])


def _bivariate_quadratic_results(n: int, seed: int, pairs: int = 3) -> list[VerificationResult]:
    rng = make_generator(derive_seed(seed, 29), 0)
    worst_split = 0.0
    worst_mix = 0.0
    for i in range(pairs):
        sigma = validate_covariance(_random_pd_2x2(rng))
        a_split = QuadraticForm(_random_quadratic(rng, want_split=True))
        cls = classify(a_split, sigma)
        emp = sample_wald(
            a_split.to_polynomial(), sigma, WaldSampleConfig(n=n, seed=derive_seed(seed, 400 + i))
        )
        worst_split = max(worst_split, ks_distance(emp, cls.law))

        a_def = QuadraticForm(_random_quadratic(rng, want_split=False))
        cls = classify(a_def, sigma)
        assert isinstance(cls.law, TwoChiSquareMix)
        emp = sample_wald(
            a_def.to_polynomial(), sigma, WaldSampleConfig(n=n, seed=derive_seed(seed, 500 + i))
        )
        worst_mix = max(worst_mix, ks_distance(emp, cls.law))
    return [
        VerificationResult(
            name="bivariate-quadratic-split",
            tier="theorem",
            statistic=worst_split,
            threshold=ks_threshold(n),
            n_used=n,
            seed=seed,
            detail=f"{pairs} random factorable forms emit quarter chi-square-1",
        ),
        VerificationResult(
            name="bivariate-quadratic-mixture",
            tier="theorem",
            statistic=worst_mix,
            threshold=ks_threshold(n),
            n_used=n,
            seed=seed,
            detail=f"{pairs} random definite forms emit the two-component mixture",
        ),
    ]


def _random_pd(rng: np.random.Generator, k: int) -> np.ndarray:
    m = rng.standard_normal((k, k))
    s = m @ m.T + 0.5 * np.eye(k)
    d = 1.0 / np.sqrt(np.diag(s))
    s = s * np.outer(d, d)
    scale = np.sqrt(rng.uniform(0.5, 2.0, k))
    return s * np.outer(scale, scale)


# ---------------------------------------------------------------------------
# Registry and suite runner.
# ---------------------------------------------------------------------------

def _check_monomials(n, seed):
    return [
        verify_monomial_theorem(
            MonomialForm((1.0, 1.0)),
            np.array([[1.0, 0.9], [0.9, 1.0]]),
            n,
            derive_seed(seed, 1),
            name="product-monomial-law",
        ),
        verify_monomial_theorem(
            MonomialForm((2.0, 3.0)),
            np.array([[1.0, -0.6], [-0.6, 1.0]]),
            n,
            derive_seed(seed, 2),
            name="bivariate-monomial-law",
        ),
        verify_monomial_theorem(
            MonomialForm((1.0, 1.0)),
            np.diag([2.0, 5.0]),
            n,
            derive_seed(seed, 3),
            name="monomial-independence-law",
        ),
    ]


def _check_cauchy(n, seed):
    return [
        verify_cauchy(
            (0.3, 0.7), np.array([[1.0, 0.5], [0.5, 1.0]]), n, derive_seed(seed, 4)
        )
    ]


def _check_monomial_evidence(n, seed):
    rng = make_generator(derive_seed(seed, 5), 0)
    return [
        verify_conjecture_monomial(
            MonomialForm((1.0, 1.0, 1.0)), _random_pd(rng, 3), n, derive_seed(seed, 6)
        ),
        verify_conjecture_monomial(
            MonomialForm((0.5, 1.0, 2.0, 1.5)),
            _random_pd(rng, 4),
            n,
            derive_seed(seed, 7),
        ),
    ]


def _check_cauchy_evidence(n, seed):
    rng = make_generator(derive_seed(seed, 8), 0)
    return [
        verify_cauchy(
            (1 / 3, 1 / 3, 1 / 3), _random_pd(rng, 3), n, derive_seed(seed, 9)
        )
    ]


def _check_reciprocal_theorem(n, seed):
    return [
        verify_reciprocal(
            (0.5, 0.5), np.array([[1.0, 0.8], [0.8, 1.0]]), n, derive_seed(seed, 30)
        )
    ]


def _check_reciprocal_evidence(n, seed):
    rng = make_generator(derive_seed(seed, 10), 0)
    return [
        verify_reciprocal(
            (0.2, 0.3, 0.5), _random_pd(rng, 3), n, derive_seed(seed, 31)
        )
    ]


def _check_counterexample(n, seed):
    out = []
    for i, rho in enumerate((0.0, 0.5, 0.8)):
        out.extend(counterexample_negative_weights(rho, n, derive_seed(seed, 32 + i)))
    return out


def _check_trig(n, seed):
    return [
        verify_trig_lemma(0.3, n, derive_seed(seed, 35)),
        verify_trig_lemma(1.0, n, derive_seed(seed, 36)),
        verify_trig_lemma(-0.5, n, derive_seed(seed, 37)),
    ]


def _check_beta_repr(n, seed):
    return [
        verify_beta_representation(2, 2, n, derive_seed(seed, 38)),
        verify_beta_representation(1, 1, n, derive_seed(seed, 39)),
        verify_beta_representation(3, 1, n, derive_seed(seed, 40)),
    ]


def _check_tetrad_convergence(n, seed):
    replicates = int(min(5000, max(500, n // 200)))
    theta = np.block(
        [
            [np.array([[1.0, 0.7], [0.7, 1.0]]), np.zeros((2, 2))],
            [np.zeros((2, 2)), np.array([[1.0, -0.4], [-0.4, 1.0]])],
        ]
    )
    regular = np.eye(4)
    regular[0, 2] = regular[2, 0] = 0.5
    return [
        verify_tetrad_convergence(
            theta, 5000, replicates, derive_seed(seed, 41), singular=True
        ),
        verify_tetrad_convergence(
            regular,
            5000,
            replicates,
            derive_seed(seed, 42),
            singular=False,
            name="tetrad-regular-convergence",
        ),
    ]


# (claims covered, tier, runner) in canonical report order.
_REGISTRY = (
    (
        ("product-monomial-law", "bivariate-monomial-law", "monomial-independence-law"),
        "theorem",
        _check_monomials,
    ),
    (("weighted-cauchy-ratio",), "theorem", _check_cauchy),
    (
        ("scale-invariance-pathwise", "reparam-invariance-pathwise"),
        "theorem",
        lambda n, s: verify_pathwise_invariance(n, derive_seed(s, 43)),
    ),
    (("folded-beta-representation",), "theorem", _check_beta_repr),
    (("trig-equidistribution", "trig-negative-weight-gap"), "theorem", _check_trig),
    (
        ("bivariate-quadratic-split", "bivariate-quadratic-mixture"),
        "theorem",
        lambda n, s: _bivariate_quadratic_results(n, derive_seed(s, 44)),
    ),
    (
        (
            "upper-envelope-quarter-chisq",
            "lower-envelope-one-signed",
            "lower-envelope-balanced",
            "tetrad-cdf-dominance",
        ),
        "theorem",
        lambda n, s: verify_bounds_suite(n, derive_seed(s, 45)),
    ),
    (
        ("tetrad-kronecker-law",),
        "theorem",
        lambda n, s: verify_tetrad_kronecker(n, derive_seed(s, 46)),
    ),
    (("tetrad-statistic-convergence",), "theorem", _check_tetrad_convergence),
    (("stable-convolution",), "theorem", lambda n, s: _stable_results(n, derive_seed(s, 47))),
    (
        ("moment-invariance",),
        "theorem",
        lambda n, s: _moment_invariance_results(n, derive_seed(s, 48)),
    ),
    (("negative-weight-counterexample",), "theorem", _check_counterexample),
    (("reciprocal-form-law",), "theorem", _check_reciprocal_theorem),
    (("monomial-law-evidence",), "conjecture", _check_monomial_evidence),
    (("cauchy-ratio-evidence",), "conjecture", _check_cauchy_evidence),
    (("reciprocal-form-evidence",), "conjecture", _check_reciprocal_evidence),
)

# Claims the suite must keep covered; the manifest test pins this list.
REQUIRED_CLAIMS = frozenset(
    {
        "product-monomial-law",
        "bivariate-monomial-law",
        "monomial-independence-law",
        "weighted-cauchy-ratio",
        "scale-invariance-pathwise",
        "reparam-invariance-pathwise",
        "folded-beta-representation",
        "trig-equidistribution",
        "trig-negative-weight-gap",
        "bivariate-quadratic-split",
        "bivariate-quadratic-mixture",
        "upper-envelope-quarter-chisq",
        "lower-envelope-one-signed",
        "lower-envelope-balanced",
        "tetrad-kronecker-law",
        "tetrad-cdf-dominance",
        "tetrad-statistic-convergence",
        "stable-convolution",
        "moment-invariance",
        "negative-weight-counterexample",
        "reciprocal-form-law",
        "monomial-law-evidence",
        "cauchy-ratio-evidence",
        "reciprocal-form-evidence",
    }
)


def coverage_manifest(suite: str = "all") -> frozenset[str]:
    """Union of claims the registered checks cover."""
    return frozenset(
        claim
        for claims, tier, _ in _REGISTRY
        if suite == "all"
        or (suite == "theorems" and tier == "theorem")
        or (suite == "conjectures" and tier == "conjecture")
        for claim in claims
    )


def run_suite(
    suite: str = "all", n: int = 10**6, seed: int = 42, threads: int = 1
) -> list[VerificationResult]:
    """Run the registered checks and return results in registry order."""
    if suite not in ("all", "theorems", "conjectures"):
        raise ValueError(f"unknown suite {suite!r}")
    entries = [
        entry
        for entry in _REGISTRY
        if suite == "all"
        or (suite == "theorems" and entry[1] == "theorem")
        or (suite == "conjectures" and entry[1] == "conjecture")
    ]

    def run_entry(entry):
        _, _, fn = entry
        out = fn(n, seed)
        return out if isinstance(out, list) else [out]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(run_entry, entries))
    else:
        blocks = [run_entry(e) for e in entries]
    return [r for block in blocks for r in block]


def format_report(results: list[VerificationResult]) -> str:
    """TSV report, one verification result per line."""
    lines = ["name\ttier\tstatistic\tthreshold\tpass\tn\tseed"]
    for r in results:
        lines.append(
            f"{r.name}\t{r.tier}\t{r.statistic:.6e}\t{r.threshold:.6e}\t"
            f"{'pass' if r.passed else 'FAIL'}\t{r.n_used}\t{r.seed}"
        )
    return "\n".join(lines) + "\n"
