"""Acceptance suite: every gate criterion at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one printed
PASS/FAIL line per criterion.  Sample sizes and tolerances are fixed here;
they are not tunable knobs.
"""

import time

import numpy as np
import pytest
from scipy import stats

from singwald.classify import classify, k_alpha, sample_canonical
from singwald.cli import run
from singwald.gaussian import validate_covariance
from singwald.laws import (
    FoldedBetaProduct,
    ScaledChiSquare,
    TetradSingular,
    tetrad_singular_cdf,
)
from singwald.poly import MonomialForm, QuadraticForm
from singwald.sampler import WaldSampleConfig, ks_distance, sample_wald
from singwald.verify import (
    _finite,
    _mvn_chunks,
    _simulate_tetrad_stats,
    derive_seed,
    moment_invariance_check,
    verify_bounds_suite,
    verify_cauchy,
    verify_conjecture_monomial,
    verify_reciprocal,
)

SEED = 20240817


def _report(num: int, desc: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} [{desc}]: {tag} {detail}")
    assert passed, f"criterion {num}: {desc} {detail}"


def _cov2(rho: float):
    return validate_covariance([[1.0, rho], [rho, 1.0]])


def test_criterion_1_monomial_laws():
    # bivariate power-product law across correlations, including the rank-1
    # covariance where both coordinates collapse onto one variable
    start = time.monotonic()
    configs = [
        ((1.0, 1.0), 0.0),
        ((2.0, 3.0), 0.5),
        ((1.0, 1.0), 0.9),
        ((0.5, 1.5), -0.7),
        ((1.5, 0.5), 1.0),  # rank-1: X1 = X2 almost surely
    ]
    worst = 0.0
    for i, (alphas, rho) in enumerate(configs):
        m = MonomialForm(alphas)
        emp = sample_wald(
            m, _cov2(rho), WaldSampleConfig(n=10**6, seed=derive_seed(SEED, 100 + i))
        )
        law = ScaledChiSquare(1.0 / sum(alphas) ** 2, 1)
        worst = max(worst, ks_distance(emp, law))
    elapsed = time.monotonic() - start
    _report(
        1,
        "monomial limit laws",
        worst < 0.003 and elapsed < 30.0,
        f"worst KS={worst:.5f} (<0.003), {elapsed:.1f}s (<30s)",
    )


def test_criterion_2_bivariate_quadratic_classification():
    rng = np.random.default_rng(SEED)
    worst_split = 0.0
    worst_mix = 0.0
    n_split = 0
    for branch in ("split", "definite"):
        done = 0
        while done < 10:
            a = rng.uniform(-1.5, 1.5, 3)
            mat = np.array([[a[0], a[1]], [a[1], a[2]]])
            disc = a[1] ** 2 - a[0] * a[2]
            if branch == "split" and disc < 0.02:
                continue
            if branch == "definite" and disc > -0.02:
                continue
            rho = rng.uniform(-0.9, 0.9)
            v1, v2 = rng.uniform(0.4, 2.5, 2)
            sigma = validate_covariance(
                [[v1, rho * np.sqrt(v1 * v2)], [rho * np.sqrt(v1 * v2), v2]]
            )
            cls = classify(QuadraticForm(mat), sigma)
            if branch == "split":
                assert cls.law == ScaledChiSquare(0.25, 1), "split branch law"
                n_split += 1
            emp = sample_wald(
                QuadraticForm(mat).to_polynomial(),
                sigma,
                WaldSampleConfig(n=10**6, seed=derive_seed(SEED, 200 + done)),
            )
            d = ks_distance(emp, cls.law)
            if branch == "split":
                worst_split = max(worst_split, d)
            else:
                worst_mix = max(worst_mix, d)
            done += 1
    _report(
        2,
        "bivariate quadratic classification",
        worst_split < 0.003 and worst_mix < 0.003 and n_split == 10,
        f"KS split={worst_split:.5f} mixture={worst_mix:.5f} (<0.003)",
    )


def test_criterion_3_tetrad_law(tetrad_form):
    rng = np.random.default_rng(SEED + 1)
    a = tetrad_form.to_quadratic_form()
    mismatches = 0
    for _ in range(100):
        v = rng.uniform(0.3, 3.0, 4)
        r1, r2 = rng.uniform(-0.95, 0.95, 2)
        s1 = np.array(
            [[v[0], r1 * np.sqrt(v[0] * v[1])], [r1 * np.sqrt(v[0] * v[1]), v[1]]]
        )
        s2 = np.array(
            [[v[2], r2 * np.sqrt(v[2] * v[3])], [r2 * np.sqrt(v[2] * v[3]), v[3]]]
        )
        cls = classify(a, validate_covariance(np.kron(s1, s2)))
        if cls.law != FoldedBetaProduct(2, 2):
            mismatches += 1
    emp = TetradSingular().sample(10**7, derive_seed(SEED, 300))
    gap = ks_distance(emp, TetradSingular())
    _report(
        3,
        "tetrad singular law",
        mismatches == 0 and gap < 0.001,
        f"classification mismatches={mismatches}/100, CDF sup-gap={gap:.6f} (<0.001)",
    )


def test_criterion_4_k_alpha_table():
    start = time.monotonic()
    got = [k_alpha(a) for a in (0.05, 0.025, 0.01, 0.005, 0.001)]
    elapsed = time.monotonic() - start
    _report(
        4,
        "conservativeness table",
        got == [7, 11, 16, 20, 29] and elapsed < 1.0,
        f"k={got} (expect [7, 11, 16, 20, 29]), {elapsed * 1000:.0f}ms (<1s)",
    )


def test_criterion_5_moment_invariance():
    start = time.monotonic()
    phis = [0.0, 0.3, 0.7, 1.2, 1.5]
    worst = 0.0
    for sig in (0.4, 1.0, 2.5):
        table = moment_invariance_check(sig, phis, [1, 2, 3, 4])
        worst = max(worst, float(np.abs(table - table[:, :1]).max()))
    elapsed = time.monotonic() - start
    _report(
        5,
        "angular moment invariance",
        worst < 1e-8 and elapsed < 10.0,
        f"max spread={worst:.2e} (<1e-8), {elapsed:.1f}s (<10s)",
    )


def test_criterion_6_stochastic_bounds():
    # n=4e6 puts one million draws behind each empirical dominance grid,
    # which is the regime where the 0.005 slack applies
    results = verify_bounds_suite(4 * 10**6, derive_seed(SEED, 400))
    bad = [r for r in results if not r.passed]
    slacks = {r.name: r.threshold for r in results}
    _report(
        6,
        "stochastic envelope bounds",
        not bad
        and slacks["upper-envelope-quarter-chisq"] == 0.005
        and slacks["tetrad-cdf-dominance"] == 1e-9,
        f"{len(results)} checks, worst={max(r.statistic for r in results):.2e}; "
        + (f"failing={[r.name for r in bad]}" if bad else "all pass"),
    )


def test_criterion_7_negative_weight_counterexample():
    rng_seed = derive_seed(SEED, 500)
    n = 10**7
    worst_rel = 0.0
    for i, rho in enumerate((0.0, 0.5, 0.8)):
        def q_of(x):
            return 4.0 / (
                1.0 / x[:, 0] ** 2 - 2.0 * rho / (x[:, 0] * x[:, 1]) + 1.0 / x[:, 1] ** 2
            )

        sigma = np.array([[1.0, rho], [rho, 1.0]])
        q = _finite(map(q_of, _mvn_chunks(sigma, n, derive_seed(rng_seed, i))), n)
        expected = (1.0 + 2.0 * rho**2) / (1.0 - rho**2)
        worst_rel = max(worst_rel, abs(float(q.mean()) / expected - 1.0))
        if rho == 0.8:
            from singwald.laws import EmpiricalDistribution

            gap = ks_distance(
                EmpiricalDistribution.from_samples(q), ScaledChiSquare(1.0, 1)
            )
    _report(
        7,
        "negative weights break the law",
        worst_rel < 0.02 and gap > 0.01,
        f"worst mean deviation={worst_rel:.4f} (<0.02), "
        f"KS gap to chi2_1 at rho=0.8: {gap:.3f} (>0.01)",
    )


def test_criterion_8_tetrad_test_calibration():
    start = time.monotonic()
    theta = np.block(
        [
            [np.array([[1.0, 0.7], [0.7, 1.0]]), np.zeros((2, 2))],
            [np.zeros((2, 2)), np.array([[1.0, -0.4], [-0.4, 1.0]])],
        ]
    )
    n_data, replicates = 5000, 5000
    t = _simulate_tetrad_stats(theta, n_data, replicates, derive_seed(SEED, 600))
    c05 = stats.chi2.ppf(0.95, 1)
    size = float((t > c05).mean())
    # at the singularity the exceedance target is 1 - F_sing(c05) ~ 2.43e-4,
    # far below the nominal level; allow an order of magnitude of finite-n
    # and Monte Carlo inflation on the count
    target = 1.0 - tetrad_singular_cdf(c05)
    count = int((t > c05).sum())
    from singwald.laws import EmpiricalDistribution
    from singwald.sampler import two_sample_ks

    ref = TetradSingular().sample(10**6, derive_seed(SEED, 601))
    ks = two_sample_ks(EmpiricalDistribution.from_samples(t), ref)
    elapsed = time.monotonic() - start
    _report(
        8,
        "tetrad test calibration at the singularity",
        size <= 0.06 and ks < 0.03 and count <= 15 and elapsed < 300.0,
        f"size={size:.4f} (<=0.06; singular target {target:.1e}, count={count}), "
        f"KS={ks:.4f} (<0.03), {elapsed:.0f}s (<300s)",
    )


def test_criterion_9_conjecture_evidence():
    # evidence checks never gate: failures are printed, not asserted
    rng = np.random.default_rng(SEED + 2)
    lines = []
    all_within = True
    for k in (3, 4, 5):
        m = rng.standard_normal((k, k))
        sigma = m @ m.T + 0.5 * np.eye(k)
        d = np.sqrt(np.diag(sigma))
        sigma = sigma / np.outer(d, d)

        alphas = tuple(rng.uniform(0.5, 2.0, k))
        r1 = verify_conjecture_monomial(
            MonomialForm(alphas), sigma, 10**6, derive_seed(SEED, 700 + k)
        )
        weights = rng.uniform(0.2, 1.0, k)
        weights = tuple(weights / weights.sum())
        r2 = verify_cauchy(weights, sigma, 10**6, derive_seed(SEED, 710 + k))
        r3 = verify_reciprocal(weights, sigma, 10**6, derive_seed(SEED, 720 + k))
        for r in (r1, r2, r3):
            ok = r.statistic < 0.005
            all_within = all_within and ok
            lines.append(f"{r.name}[k={k}]: KS={r.statistic:.5f} {'ok' if ok else 'HIGH'}")
        assert r1.tier == r2.tier == r3.tier == "conjecture"
    detail = "; ".join(lines)
    print(f"ACCEPTANCE 9 [conjecture evidence, non-gating]: "
          f"{'PASS' if all_within else 'REPORTED'} {detail}")
    # structural gate only: the checks ran and are labeled as evidence


def test_criterion_10_determinism(tmp_path):
    out1 = tmp_path / "report1.tsv"
    out2 = tmp_path / "report2.tsv"
    argv = ["--seed", "7", "--threads", "1", "verify", "--suite", "theorems",
            "--n", "20000"]
    code1 = run(argv + ["--out", str(out1)])
    code2 = run(argv + ["--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    _report(
        10,
        "byte-identical verification reports",
        identical and code1 == code2 == 0,
        f"{out1.stat().st_size} bytes, exit codes ({code1}, {code2})",
    )
