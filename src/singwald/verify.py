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
checks concurrently without changing any result.  The registry is the one
list of the suite's claims: the golden reports of the theorem and the
conjecture suites pin every row it yields, in order.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from . import SUITES, _Record
from . import _ThreadPool as ThreadPoolExecutor
from .classify import _CHI1, _QUARTER_CHI1, classify, sample_canonical
from .gaussian import _chunks, factor, make_generator, validate_covariance
from .laws import (
    EmpiricalDistribution,
    FoldedBetaProduct,
    ScaledChiSquare,
    TetradSingular,
    TwoChiSquareMix,
    _leggauss,
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
    two_sample_ks,  # no row calls it; bench/tracer.py patches it by this name
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
    "format_report",
]


class VerificationResult(_Record):
    """One check outcome; passes exactly when statistic <= threshold."""

    name: str
    tier: str  # "theorem" or "conjecture"
    statistic: float
    threshold: float
    n_used: int
    seed: int

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


def _ks_result(name: str, tier: str, stat: float, n: int, seed: int) -> VerificationResult:
    """A KS row: theorem rows gate at ks_threshold, evidence rows at
    _evidence_threshold."""
    thresh = ks_threshold(n) if tier == "theorem" else _evidence_threshold(n)
    return VerificationResult(name, tier, stat, thresh, n, seed)


def _gap_result(name: str, gap: float, n: int, seed: int) -> VerificationResult:
    """A row that passes when a KS distance exceeds 0.01; the statistic and
    threshold are negated so that passing stays statistic <= threshold."""
    return VerificationResult(name, "theorem", -gap, -0.01, n, seed)


_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(seed: int, index: int) -> int:
    """Distinct 64-bit seed per check so suite streams never collide."""
    return (seed * _GOLDEN + 0x1234567 + index * 0x2545F4914F6CDD1D) & _MASK


def _mvn_chunks(sigma: np.ndarray, n: int, seed: int, stream: int = 0):
    """n rows of N(0, sigma) from the Philox stream (seed, stream), one row
    chunk of ``gaussian._chunks`` at a time; stacked, the chunks are the
    bytes of the whole draw."""
    b = factor(validate_covariance(sigma))
    rng = make_generator(seed, stream)
    for start, stop in _chunks(n):
        yield rng.standard_normal((stop - start, b.shape[1])) @ b.T


def _finite(chunks, n: int) -> np.ndarray:
    """The finite values of the 1-d ``chunks``, in order, in one buffer of
    n values."""
    out = np.empty(n)
    filled = 0
    for values in chunks:
        values = values[np.isfinite(values)]
        out[filled : filled + values.size] = values
        filled += values.size
    return out[:filled]


def _ks_draws(draws: np.ndarray, cdf) -> float:
    """One-sample KS distance of the draws, whose buffer it sorts in place,
    to the distribution function ``cdf``."""
    return ks_distance(EmpiricalDistribution.from_samples(draws), SimpleNamespace(cdf=cdf))


# The tetrad form x1*x4 - x2*x3.
_TETRAD_FORM = HomogeneousPolynomial.from_terms([(1.0, (1, 0, 0, 1)), (-1.0, (0, 1, 1, 0))])


def _weights(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if abs(p.sum() - 1.0) > 1e-12 or np.any(p < 0):
        raise ValueError("weights must be nonnegative and sum to one")
    return p


# ---------------------------------------------------------------------------
# Individual checks.
# ---------------------------------------------------------------------------

def verify_monomial_theorem(
    m: MonomialForm, sigma, n: int, seed: int, name: str = "bivariate-monomial-law"
) -> VerificationResult:
    """Bivariate power product: Wald ratio is chi-square-1 over degree^2."""
    if m.k != 2:
        raise ValueError("theorem check requires exactly two variables")
    return _monomial_result(m, sigma, n, seed, name, "theorem")


def verify_conjecture_monomial(m: MonomialForm, sigma, n: int, seed: int) -> VerificationResult:
    """Same law in dimension >= 3: open conjecture, evidence only."""
    if m.k < 3:
        raise ValueError("conjecture regime starts at three variables")
    return _monomial_result(m, sigma, n, seed, "monomial-law-evidence", "conjecture")


def _monomial_result(m, sigma, n, seed, name, tier) -> VerificationResult:
    emp = sample_wald(m, validate_covariance(sigma), WaldSampleConfig(n=n, seed=seed))
    return _ks_result(name, tier, ks_distance(emp, monomial_law(m)), n, seed)


def verify_cauchy(p, sigma, n: int, seed: int) -> VerificationResult:
    """Convex combination sum p_i * Y_i / X_i is standard Cauchy."""
    p = _weights(p)
    k = p.size
    draws = _finite(
        (
            (p[None, :] * y / x).sum(axis=1)
            for x, y in zip(_mvn_chunks(sigma, n, seed, 0), _mvn_chunks(sigma, n, seed, 1))
        ),
        n,
    )
    stat = _ks_draws(draws, lambda t: 0.5 + np.arctan(t) / np.pi)
    return _ks_result(
        "weighted-cauchy-ratio" if k <= 2 else "cauchy-ratio-evidence",
        "theorem" if k <= 2 else "conjecture",
        stat, n, seed,
    )


def verify_reciprocal(p, sigma, n: int, seed: int) -> VerificationResult:
    """Quadratic form in reciprocal coordinates matches 1/chi-square-1.

    The form is the reciprocal Wald ratio of the power product with
    exponents p, so this is the power-product law at degree sum(p) = 1."""
    p = _weights(p)
    sigma = np.asarray(sigma, dtype=float)
    diagonal = np.abs(sigma - np.diag(np.diag(sigma))).max() == 0.0
    tier = "theorem" if (p.size <= 2 or diagonal) else "conjecture"
    name = "reciprocal-form-law" if tier == "theorem" else "reciprocal-form-evidence"
    return _monomial_result(MonomialForm(p), sigma, n, seed, name, tier)


# Midpoint nodes of the angle rule for the negative-weight moments: 16 reach
# rounding for |rho| <= 0.95.
_RING_NODES = 16


def counterexample_negative_weights(
    rho: float, n: int, seed: int
) -> list[VerificationResult]:
    """Negative weights break the reciprocal law: the mean follows
    (1 + 2 rho^2)/(1 - rho^2) and, at rho = 0.8, the law visibly departs
    from chi-square-1.

    q = 4W is homogeneous of degree 2 in x = R * B u_theta, where R^2 ~
    chi2_2 and the angle theta is uniform, so E[q] = 2 mean_theta q(B u_theta)
    and E[q^2] = 8 mean_theta q(B u_theta)^2.  The integrand is analytic and
    periodic, so a midpoint rule in theta gives both to rounding: the exact
    row checks the mean formula itself, and the Monte Carlo row gates its
    sample mean at six exact standard errors."""
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must be in (-1, 1)")
    sigma = np.array([[1.0, rho], [rho, 1.0]])
    q_of = lambda x: 4.0 / MonomialForm((1, 1)).reciprocal_wald(x * [1, -1], sigma)
    theta = (np.arange(_RING_NODES) + 0.5) * (2.0 * np.pi / _RING_NODES)
    b = factor(validate_covariance(sigma))
    ring = q_of(np.column_stack([np.cos(theta), np.sin(theta)]) @ b.T)
    mean, second = 2.0 * float(ring.mean()), 8.0 * float((ring**2).mean())
    rel_sd = math.sqrt(second - mean**2) / mean
    q = _finite(map(q_of, _mvn_chunks(sigma, n, seed)), n)
    expected = (1.0 + 2.0 * rho**2) / (1.0 - rho**2)
    results = [
        VerificationResult(
            name=f"negative-weight-mean-rho{rho:g}",
            tier="theorem",
            statistic=abs(float(q.mean()) / expected - 1.0),
            threshold=6.0 * rel_sd / math.sqrt(n),
            n_used=n,
            seed=seed,
        ),
        VerificationResult(
            name=f"negative-weight-exact-mean-rho{rho:g}",
            tier="theorem",
            statistic=abs(mean / expected - 1.0),
            threshold=1e-12,
            n_used=_RING_NODES,
            seed=seed,
        ),
    ]
    if rho == 0.8:
        # the gap row passes when the distance exceeds 0.01: its statistic is negated
        gap = _ks_draws(q, _CHI1.cdf)
        results.append(_gap_result("negative-weight-law-gap", gap, n, seed))
    return results


def _moment_geometry(phi: float, sigma: float):
    """Where and how deep the denominator of the angular ratio dips.

    The denominator is ``base - amp * cos(psi - psi_star)``, so it equals
    ``floor + 2 * amp * sin^2((psi - psi_star) / 2)``.  Its minimum
    ``floor = base - amp`` is written as ``4 sigma^2 cos^4(phi) / (base + amp)``,
    which keeps full relative accuracy as phi approaches pi/2, where both
    terms of the difference tend to ``(1 + sigma)^2``.
    """
    c, s = np.cos(phi), np.sin(phi)
    base = 1.0 + sigma * sigma + 2.0 * sigma * s * s
    amp = (1.0 + sigma) * np.hypot((1.0 - sigma) * c, (1.0 + sigma) * s)
    psi_star = float(np.arctan2(-(1.0 + sigma) * s, -(1.0 - sigma) * c) % (2.0 * np.pi))
    floor = 4.0 * (sigma * c * c) ** 2 / (base + amp)
    return psi_star, amp, floor


def _moment_integrand(psi, phi: float, sigma: float):
    """The angular ratio, with numerator ``2 (sin(phi) + sin(psi))^2`` and the
    denominator of :func:`_moment_geometry`; both forms are free of the
    cancellation of the expanded cosine sums near phi = pi/2."""
    psi_star, amp, floor = _moment_geometry(phi, sigma)
    num = 2.0 * (np.sin(phi) + np.sin(psi)) ** 2
    den = floor + 2.0 * amp * np.sin((psi - psi_star) / 2.0) ** 2
    return num / den


def _angle_integrand(sigma: float, phi: float, m: int):
    """Panel half-widths and the angular ratio at the nodes of a 32- and a
    64-node Gauss-Legendre rule on each panel, with the rules' weights.

    As phi approaches pi/2 the ratio changes over a width of about
    ``sqrt(2 * floor / amp)`` around psi_star, which shrinks like
    ``cos^2(phi)``.  On top of 16 equal panels, edges sit at psi_star and at
    offsets 0.3, 0.1, 0.03, 0.01, 0.003, ... on either side, down past that
    width.  A denominator whose minimum underflows to zero or whose maximum
    overflows raises; m only names the moment order in the message.
    """
    where = f"sigma={sigma}, phi={phi}, m={m}"
    with np.errstate(over="ignore", invalid="ignore"):
        psi_star, amp, floor = _moment_geometry(phi, sigma)
        top = floor + 2.0 * amp
    if not np.isfinite(top):
        raise RuntimeError(
            f"moment quadrature at {where}: the maximum of the denominator "
            "overflows the float range"
        )
    if not floor > 0.0:
        raise RuntimeError(
            f"moment quadrature at {where}: the minimum of the denominator "
            "underflows to zero"
        )
    offsets = [0.3, 0.1, 0.03, 0.01]
    while offsets[-1] ** 2 * amp > 2.0 * floor:
        offsets.append(offsets[-2] / 10.0)
    edges = set(np.linspace(0.0, 2.0 * np.pi, 17))
    for off in [0.0] + offsets + [-off for off in offsets]:
        e = psi_star + off
        if 0.0 < e < 2.0 * np.pi:
            edges.add(e)
    panels = np.array(sorted(edges))
    mid = (panels[1:] + panels[:-1]) / 2.0
    half = (panels[1:] - panels[:-1]) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        return half, [
            (_moment_integrand(mid[:, None] + half[:, None] * x, phi, sigma), w)
            for x, w in (_leggauss(32), _leggauss(64))
        ]


def _angle_moment(sigma: float, phi: float, m: int, integrand) -> float:
    """E of the m-th power of the angular ratio from ``integrand``, the
    values of :func:`_angle_integrand` at (sigma, phi), which serve every m.

    The sum of the per-panel differences of the 32- and 64-node rules is
    the error estimate, and the 64-node value is returned.  An integrand
    that overflows, or an error estimate above ``1e-8 * max(1, |moment|)``,
    raises.
    """
    where = f"sigma={sigma}, phi={phi}, m={m}"
    half, rules = integrand
    with np.errstate(over="ignore", invalid="ignore"):
        coarse, fine = (half * ((values**m) @ w) for values, w in rules)
    if not (np.isfinite(coarse).all() and np.isfinite(fine).all()):
        raise RuntimeError(
            f"moment quadrature at {where}: the integrand overflows the float range"
        )
    err = float(np.abs(fine - coarse).sum())
    moment = float(fine.sum()) / (2.0 * np.pi)
    if not err <= 1e-8 * max(1.0, abs(moment)):
        raise RuntimeError(
            f"moment quadrature failed to converge (err={err:g}) at {where}"
        )
    return moment


def moment_invariance_check(sigma_param: float, phis, ms) -> np.ndarray:
    """Table of angular moments E[T^m], one row per m and column per phi.

    The distribution of the angular ratio should not depend on phi, so each
    row must be constant; callers assert the row spread.  The integrand is
    evaluated once per phi, during the first row, for every m.
    """
    if not math.isfinite(sigma_param):
        raise ValueError(f"sigma_param must be finite, got {sigma_param}")
    if sigma_param <= 0:
        raise ValueError("sigma_param must be positive")
    phis = list(phis)
    if any(not 0 <= phi < np.pi / 2 for phi in phis):
        raise ValueError("phi values must lie in [0, pi/2)")
    ms = list(ms)
    if any(m < 1 for m in ms):
        raise ValueError("moment orders must be positive integers")
    table = np.empty((len(ms), len(phis)))
    integrands = [None] * len(phis)
    for r, m in enumerate(ms):
        for c, phi in enumerate(phis):
            if integrands[c] is None:
                integrands[c] = _angle_integrand(sigma_param, phi, m)
            table[r, c] = _angle_moment(sigma_param, phi, m, integrands[c])
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
        )
    ]
    # Cross-check the quadrature against the sampler through the doubled
    # angle relation: E[W] = (sigma^2/2) * E[T].
    sig, phi = 0.7, 0.6
    m = MonomialForm(exponents=(1.0, 1.0 / sig))
    rho = float(np.sin(phi))
    cov = validate_covariance(np.array([[1.0, rho], [rho, 1.0]]))
    emp = sample_wald(m, cov, WaldSampleConfig(n=n, seed=seed))
    mean_quad = (sig**2 / 2.0) * moment_invariance_check(sig, [phi], [1])[0, 0]
    rel = abs(emp.mean() / mean_quad - 1.0)
    results.append(
        VerificationResult(
            name="moment-sampler-agreement",
            tier="theorem",
            statistic=rel,
            threshold=max(0.01, 8.0 / np.sqrt(n)),
            n_used=n,
            seed=seed,
        )
    )
    return results


def verify_trig_lemma(c: float, n: int, seed: int) -> VerificationResult:
    """For c >= 0 the weighted angular product matches cos^2 of a uniform
    angle in distribution; for c < 0 it must not."""
    rng = make_generator(seed, 0)
    s = np.empty(n)
    for start, stop in _chunks(n):
        psi = rng.uniform(0.0, 2.0 * np.pi, stop - start)
        cos2, sin2 = np.cos(psi) ** 2, np.sin(psi) ** 2
        s[start:stop] = (1.0 + c) ** 2 * cos2 * sin2 / (cos2 + c * c * sin2)
    # cos^2 of a uniform angle has the arcsine law (2/pi) * arcsin(sqrt(s))
    gap = _ks_draws(s, lambda t: 2.0 / np.pi * np.arcsin(np.sqrt(np.clip(t, 0.0, 1.0))))
    if c >= 0:
        return _ks_result(f"trig-equidistribution-c{c:g}", "theorem", gap, n, seed)
    # the gap row passes when the distance exceeds 0.01: its statistic is negated
    return _gap_result("trig-negative-weight-gap", gap, n, seed)


def verify_beta_representation(
    k1: int, k2: int, n: int, seed: int
) -> VerificationResult:
    """Canonical signed-unit spectrum draws match the folded-Beta product.

    The statistic is the one-sample KS distance of n canonical draws to the
    law's CDF, the angle rule of ``FoldedBetaProduct.cdf`` (within 2e-9 for
    k1 + k2 <= 8), so no reference sample is drawn."""
    lams = np.concatenate([np.ones(k1), -np.ones(k2)])
    canonical = sample_canonical(lams, n, derive_seed(seed, 11))
    stat = ks_distance(canonical, FoldedBetaProduct(k1=k1, k2=k2))
    return _ks_result(f"folded-beta-representation-{k1}-{k2}", "theorem", stat, n, seed)


def verify_pathwise_invariance(n: int, seed: int) -> list[VerificationResult]:
    """Pathwise identities under coefficient scaling and invertible
    re-parameterization of the tetrad form."""
    f = _TETRAD_FORM
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
    # a power-of-two scaling leaves every draw bitwise identical: threshold 0
    stat_scale = float(np.abs(base.values - scaled.values).max())
    results = [
        VerificationResult(
            name="scale-invariance-pathwise",
            tier="theorem",
            statistic=stat_scale,
            threshold=0.0,
            n_used=cfg.n,
            seed=seed,
        )
    ]
    rng = make_generator(derive_seed(seed, 13), 0)
    b = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    b_inv = np.linalg.inv(b)
    coupled = b_inv @ factor(sigma)
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
        )
    )
    return results


def _random_pd_2x2(rng: np.random.Generator) -> np.ndarray:
    v1, v2 = rng.uniform(0.3, 3.0, 2)
    rho = rng.uniform(-0.95, 0.95)
    c = rho * np.sqrt(v1 * v2)
    return np.array([[v1, c], [c, v2]])


def verify_tetrad_kronecker(n: int, seed: int) -> list[VerificationResult]:
    """Kronecker-structured covariances put the tetrad form on the
    equal-magnitude split spectrum, so the limit is the tetrad singular law
    for every block pair."""
    f = _TETRAD_FORM
    a = f.to_quadratic_form()
    rng = make_generator(derive_seed(seed, 17), 0)
    n_pairs = 20
    mismatches = 0
    for _ in range(n_pairs):
        s1 = _random_pd_2x2(rng)
        s2 = _random_pd_2x2(rng)
        cov = validate_covariance(np.kron(s1, s2))
        law = classify(a, cov).law
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
        )
    ]
    s1 = _random_pd_2x2(rng)
    s2 = _random_pd_2x2(rng)
    cov = validate_covariance(np.kron(s1, s2))
    emp = sample_wald(f, cov, WaldSampleConfig(n=n, seed=derive_seed(seed, 18)))
    stat = ks_distance(emp, TetradSingular())
    results.append(_ks_result("tetrad-kronecker-law", "theorem", stat, n, seed))
    return results


def verify_bounds_suite(n: int, seed: int) -> list[VerificationResult]:
    """Stochastic envelope checks for the canonical quadratic family.

    Empirical dominance grids use slack 0.005 at the default sample size;
    below that the slack widens with the Monte Carlo noise floor, since the
    envelopes hold with equality on parts of their strata.
    """
    rng = make_generator(derive_seed(seed, 19), 0)
    m_emp = max(n // 4, 10_000)
    slack = max(0.005, 3.0 / np.sqrt(m_emp))

    def envelope(name: str, worst: float) -> VerificationResult:
        return VerificationResult(name, "theorem", float(worst), slack, m_emp, seed)

    def worst_below_quarter_chi1(spectra, base: int) -> float:
        grid = np.linspace(0.0, 12.0, 400)
        return max(
            dominance_check(
                _QUARTER_CHI1, sample_canonical(lams, m_emp, derive_seed(seed, base + i)), grid
            )
            for i, lams in enumerate(spectra)
        )

    worst_upper = -np.inf
    n_spectra = 20
    uppers = {}  # spectrum size k -> its envelope and grid, one quantile solve per k
    for i in range(n_spectra):
        k = int(rng.integers(1, 7))
        lams = rng.uniform(-1.0, 1.0, k)
        if np.all(np.abs(lams) < 1e-3):
            lams[0] = 1.0
        emp = sample_canonical(lams, m_emp, derive_seed(seed, 100 + i))
        if k not in uppers:
            upper = ScaledChiSquare(scale=0.25, df=k)
            uppers[k] = upper, np.linspace(0.0, upper.quantile(0.9995), 400)
        worst_upper = max(worst_upper, dominance_check(emp, *uppers[k]))
    results = [envelope("upper-envelope-quarter-chisq", worst_upper)]

    # A constant spectrum attains the quarter chi-square envelope.
    emp = sample_canonical(np.ones(3), n, derive_seed(seed, 20))
    results.append(_ks_result(
        "upper-envelope-equality-case", "theorem",
        ks_distance(emp, ScaledChiSquare(scale=0.25, df=3)), n, seed,
    ))

    one_signed = [np.array([1.0, 0.5, 0.1]), np.array([1.0, 1.0, 0.25, 0.02])]
    results.append(envelope(
        "lower-envelope-one-signed", worst_below_quarter_chi1(one_signed, 200),
    ))
    balanced = [
        np.concatenate([np.ones(k1), -np.ones(k2)])
        for k1, k2 in ((1, 1), (2, 2), (3, 1), (4, 2))
    ]
    results.append(envelope(
        "lower-envelope-balanced", worst_below_quarter_chi1(balanced, 300),
    ))

    grid = np.linspace(0.0, 50.0, 2001)
    results.append(
        VerificationResult(
            name="tetrad-cdf-dominance",
            tier="theorem",
            statistic=dominance_check(TetradSingular(), _CHI1, grid),
            threshold=1e-9,
            n_used=grid.size,
            seed=seed,
        )
    )
    return results


def _bartlett_scatter(
    theta: np.ndarray, n_data: int, replicates: int, seed: int
) -> np.ndarray:
    """Centred scatter matrices of n_data Gaussian rows with covariance
    theta, drawn exactly from their Wishart(n_data - 1, theta) law.

    Bartlett's decomposition: with theta = L L^T and T lower triangular,
    T_ii^2 ~ chi-square(n_data - 1 - i) and N(0, 1) below the diagonal, all
    independent, (L T)(L T)^T has that law.  One replicate costs p(p - 1)/2
    normals and p chi-square draws, all from one Philox stream.
    """
    chol = np.linalg.cholesky(theta)
    p = chol.shape[0]
    rng = make_generator(seed, 0)
    t = np.zeros((replicates, p, p))
    below = np.tril_indices(p, -1)
    t[:, below[0], below[1]] = rng.standard_normal((replicates, below[0].size))
    diag = np.arange(p)
    t[:, diag, diag] = np.sqrt(rng.chisquare(n_data - 1 - diag, (replicates, p)))
    lt = chol @ t
    return lt @ lt.transpose(0, 2, 1)


def _simulate_tetrad_stats(
    theta: np.ndarray, n_data: int, replicates: int, seed: int
) -> np.ndarray:
    """Wald statistics of the leading tetrad over simulated Gaussian data.

    Each replicate's empirical covariance (divisor n_data) comes from
    :func:`_bartlett_scatter`, which draws it exactly without the rows.
    """
    covs = _bartlett_scatter(theta, n_data, replicates, seed) / n_data
    return tetrad_wald(covs, n_data, [(0, 1, 2, 3)]).t_stat[:, 0]


def verify_tetrad_convergence(
    theta_true, n_data: int, replicates: int, seed: int
) -> VerificationResult:
    """Finite-sample tetrad Wald statistics against their claimed limit.

    At a block-diagonal truth (theta[:2, 2:] = 0) the limit is the tetrad
    singular law; at any other null point it is chi-square-1.  Both are
    compared by a one-sample KS distance to the closed-form CDF.  The
    threshold is loose (0.03) because the limit is asymptotic and n_data
    leaves O(n^-1/2) law error.
    """
    theta_true = np.asarray(theta_true, dtype=float)
    t_stats = _simulate_tetrad_stats(theta_true, n_data, replicates, derive_seed(seed, 23))
    if np.any(theta_true[:2, 2:]):
        name, law = "tetrad-regular-convergence", _CHI1
    else:
        name, law = "tetrad-statistic-convergence", TetradSingular()
    # 0.03 is calibrated for 5000 replicates of the exact Wishart draw, where
    # the one-sample KS reads about 0.01-0.02; widen with the noise floor below.
    threshold = 0.03 * max(1.0, np.sqrt(5000.0 / replicates))
    return VerificationResult(
        name=name,
        tier="theorem",
        statistic=_ks_draws(t_stats, law.cdf),
        threshold=threshold,
        n_used=replicates,
        seed=seed,
    )


def _stable_results(n: int, seed: int) -> list[VerificationResult]:
    stat_law = _ks_draws(sample_stable(1.3, n, derive_seed(seed, 25)), lambda t: stable_cdf(1.3, t))
    a, b = 0.7, 1.3
    total = sample_stable(a, n, derive_seed(seed, 26))
    total += sample_stable(b, n, derive_seed(seed, 27))
    # Index-half parameters add under convolution.
    stat_sum = _ks_draws(total, lambda t: stable_cdf(a + b, t))
    return [
        _ks_result("stable-first-passage-law", "theorem", stat_law, n, seed),
        _ks_result("stable-convolution", "theorem", stat_sum, n, seed),
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


def _bivariate_quadratic_results(n: int, seed: int) -> list[VerificationResult]:
    rng = make_generator(derive_seed(seed, 29), 0)
    pairs = 3
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
    # Factorable forms emit quarter chi-square-1, definite forms the
    # two-component mixture.
    return [
        _ks_result("bivariate-quadratic-split", "theorem", worst_split, n, seed),
        _ks_result("bivariate-quadratic-mixture", "theorem", worst_mix, n, seed),
    ]


def _random_pds(seed: int, index: int, *ks: int) -> list[np.ndarray]:
    """Random covariances of the sizes ``ks``, drawn in turn from the stream
    of ``derive_seed(seed, index)``: a Gaussian square plus I/2, scaled to
    unit diagonal and then by variances uniform in [0.5, 2]."""
    rng = make_generator(derive_seed(seed, index), 0)
    out = []
    for k in ks:
        m = rng.standard_normal((k, k))
        s = m @ m.T + 0.5 * np.eye(k)
        d = 1.0 / np.sqrt(np.diag(s))
        s = s * np.outer(d, d)
        scale = np.sqrt(rng.uniform(0.5, 2.0, k))
        out.append(s * np.outer(scale, scale))
    return out


# ---------------------------------------------------------------------------
# Registry and suite runner.
# ---------------------------------------------------------------------------

# The truths of the tetrad-convergence entry: block-diagonal, where the limit
# is the tetrad singular law, and regular, where it is chi-square-1.
_THETA_BLOCK = np.array(
    [[1.0, 0.7, 0.0, 0.0], [0.7, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -0.4], [0.0, 0.0, -0.4, 1.0]]
)
_THETA_REGULAR = np.array(
    [[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0], [0.5, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
)

# (claims, tier, runner) in canonical report order; the claims are the
# stems of the names of the rows the runner yields.  Each runner holds its
# checks' inputs and derive_seed indices, and names the checks, so that it
# looks them up as module globals each time it runs.
_REGISTRY = (
    (
        ("product-monomial-law", "bivariate-monomial-law", "monomial-independence-law"),
        "theorem",
        lambda n, s: [
            verify_monomial_theorem(MonomialForm(p), sigma, n, derive_seed(s, i), name=name)
            for name, p, sigma, i in (
                ("product-monomial-law", (1.0, 1.0), [[1.0, 0.9], [0.9, 1.0]], 1),
                ("bivariate-monomial-law", (2.0, 3.0), [[1.0, -0.6], [-0.6, 1.0]], 2),
                ("monomial-independence-law", (1.0, 1.0), [[2.0, 0.0], [0.0, 5.0]], 3),
            )
        ],
    ),
    (
        ("weighted-cauchy-ratio",),
        "theorem",
        lambda n, s: [verify_cauchy((0.3, 0.7), [[1.0, 0.5], [0.5, 1.0]], n, derive_seed(s, 4))],
    ),
    (
        ("scale-invariance-pathwise", "reparam-invariance-pathwise"),
        "theorem",
        lambda n, s: verify_pathwise_invariance(n, derive_seed(s, 43)),
    ),
    (
        ("folded-beta-representation",),
        "theorem",
        lambda n, s: [
            verify_beta_representation(k1, k2, n, derive_seed(s, i))
            for k1, k2, i in ((2, 2, 38), (1, 1, 39), (3, 1, 40))
        ],
    ),
    (
        ("trig-equidistribution", "trig-negative-weight-gap"),
        "theorem",
        lambda n, s: [
            verify_trig_lemma(c, n, derive_seed(s, i))
            for c, i in ((0.3, 35), (1.0, 36), (-0.5, 37))
        ],
    ),
    (
        ("bivariate-quadratic-split", "bivariate-quadratic-mixture"),
        "theorem",
        lambda n, s: _bivariate_quadratic_results(n, derive_seed(s, 44)),
    ),
    (
        (
            "upper-envelope-quarter-chisq",
            "upper-envelope-equality-case",
            "lower-envelope-one-signed",
            "lower-envelope-balanced",
            "tetrad-cdf-dominance",
        ),
        "theorem",
        lambda n, s: verify_bounds_suite(n, derive_seed(s, 45)),
    ),
    (
        ("tetrad-kronecker-classification", "tetrad-kronecker-law"),
        "theorem",
        lambda n, s: verify_tetrad_kronecker(n, derive_seed(s, 46)),
    ),
    (
        ("tetrad-statistic-convergence", "tetrad-regular-convergence"),
        "theorem",
        lambda n, s: [
            verify_tetrad_convergence(theta, 5000, int(min(5000, max(500, n // 200))),
                                      derive_seed(s, i))
            for theta, i in ((_THETA_BLOCK, 41), (_THETA_REGULAR, 42))
        ],
    ),
    (
        ("stable-first-passage-law", "stable-convolution"),
        "theorem",
        lambda n, s: _stable_results(n, derive_seed(s, 47)),
    ),
    (
        ("moment-invariance", "moment-sampler-agreement"),
        "theorem",
        lambda n, s: _moment_invariance_results(n, derive_seed(s, 48)),
    ),
    (
        ("negative-weight-mean", "negative-weight-exact-mean", "negative-weight-law-gap"),
        "theorem",
        lambda n, s: [
            row
            for i, rho in enumerate((0.0, 0.5, 0.8))
            for row in counterexample_negative_weights(rho, n, derive_seed(s, 32 + i))
        ],
    ),
    (
        ("reciprocal-form-law",),
        "theorem",
        lambda n, s: [
            verify_reciprocal((0.5, 0.5), [[1.0, 0.8], [0.8, 1.0]], n, derive_seed(s, 30))
        ],
    ),
    (
        ("monomial-law-evidence",),
        "conjecture",
        lambda n, s: [
            verify_conjecture_monomial(MonomialForm(p), sigma, n, derive_seed(s, i))
            for p, sigma, i in zip(
                ((1.0, 1.0, 1.0), (0.5, 1.0, 2.0, 1.5)), _random_pds(s, 5, 3, 4), (6, 7)
            )
        ],
    ),
    (
        ("cauchy-ratio-evidence",),
        "conjecture",
        lambda n, s: [
            verify_cauchy((1 / 3, 1 / 3, 1 / 3), *_random_pds(s, 8, 3), n, derive_seed(s, 9))
        ],
    ),
    (
        ("reciprocal-form-evidence",),
        "conjecture",
        lambda n, s: [
            verify_reciprocal((0.2, 0.3, 0.5), *_random_pds(s, 10, 3), n, derive_seed(s, 31))
        ],
    ),
)


def run_suite(
    suite: str = "all", n: int = 10**6, seed: int = 42, threads: int = 1
) -> list[VerificationResult]:
    """Run the registered checks and return results in registry order.

    Every entry derives its own seeds, so the results do not depend on
    ``threads``.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    entries = [entry for entry in _REGISTRY if entry[1] in SUITES[suite]]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        blocks = list(pool.map(lambda entry: entry[2](n, seed), entries))
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
