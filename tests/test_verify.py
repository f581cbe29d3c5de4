import re
from pathlib import Path

import numpy as np
import pytest
from conftest import peak_bytes

from singwald.classify import sample_canonical
from singwald.cli import run
from singwald.laws import FoldedBetaProduct, LimitLaw, sample_stable, stable_cdf
from singwald.poly import MonomialForm
from singwald.sampler import ks_distance
import singwald.verify as verify
from singwald.verify import (
    _REGISTRY,
    VerificationResult,
    _moment_geometry,
    _moment_integrand,
    counterexample_negative_weights,
    derive_seed,
    format_report,
    ks_threshold,
    moment_invariance_check,
    run_suite,
    verify_beta_representation,
    verify_bounds_suite,
    verify_cauchy,
    verify_conjecture_monomial,
    verify_monomial_theorem,
    verify_pathwise_invariance,
    verify_reciprocal,
    verify_tetrad_convergence,
    verify_tetrad_kronecker,
    verify_trig_lemma,
)

N = 30_000  # unit-test sample size; the acceptance suite runs the full sizes
DATA = Path(__file__).parent / "data"


class TestResultType:
    def test_pass_iff_within_threshold(self):
        r = VerificationResult("x", "theorem", 0.1, 0.2, 100, 1)
        assert r.passed
        r = VerificationResult("x", "theorem", 0.3, 0.2, 100, 1)
        assert not r.passed

    def test_tier_validated(self):
        with pytest.raises(ValueError):
            VerificationResult("x", "lemma", 0.1, 0.2, 100, 1)


class TestMonomialChecks:
    def test_theorem_positive_correlation(self):
        r = verify_monomial_theorem(
            MonomialForm((1.0, 1.0)), np.array([[1.0, 0.9], [0.9, 1.0]]), N, 51
        )
        assert r.passed and r.tier == "theorem"

    def test_theorem_general_exponents(self):
        r = verify_monomial_theorem(
            MonomialForm((2.0, 3.0)), np.array([[1.0, -0.6], [-0.6, 1.0]]), N, 52
        )
        assert r.passed

    def test_theorem_diagonal(self):
        r = verify_monomial_theorem(MonomialForm((1.0, 1.0)), np.diag([2.0, 5.0]), N, 53)
        assert r.passed

    def test_requires_two_variables(self):
        with pytest.raises(ValueError):
            verify_monomial_theorem(MonomialForm((1.0, 1.0, 1.0)), np.eye(3), N, 1)

    def test_conjecture_labeled_evidence(self):
        r = verify_conjecture_monomial(
            MonomialForm((1.0, 1.0, 1.0)),
            np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]]),
            N,
            54,
        )
        assert r.tier == "conjecture"
        assert r.passed

    def test_conjecture_requires_three(self):
        with pytest.raises(ValueError):
            verify_conjecture_monomial(MonomialForm((1.0, 1.0)), np.eye(2), N, 1)


class TestCauchyAndReciprocal:
    def test_cauchy_two_dim(self):
        r = verify_cauchy((0.3, 0.7), np.array([[1.0, 0.5], [0.5, 1.0]]), N, 55)
        assert r.passed and r.tier == "theorem"

    def test_cauchy_single_ratio(self):
        r = verify_cauchy((1.0,), np.array([[1.0]]), N, 56)
        assert r.passed

    def test_cauchy_three_dim_is_conjecture(self):
        sigma = np.array([[1.0, 0.4, 0.1], [0.4, 1.0, 0.2], [0.1, 0.2, 1.0]])
        r = verify_cauchy((1 / 3, 1 / 3, 1 / 3), sigma, N, 57)
        assert r.tier == "conjecture" and r.passed

    def test_cauchy_weights_validated(self):
        with pytest.raises(ValueError):
            verify_cauchy((0.5, 0.6), np.eye(2), N, 1)

    def test_reciprocal_two_dim(self):
        r = verify_reciprocal((0.5, 0.5), np.array([[1.0, 0.8], [0.8, 1.0]]), N, 58)
        assert r.passed and r.tier == "theorem"

    def test_reciprocal_diagonal_any_k_is_theorem(self):
        r = verify_reciprocal((0.2, 0.3, 0.5), np.diag([1.0, 2.0, 0.5]), N, 59)
        assert r.tier == "theorem" and r.passed


@pytest.mark.parametrize("check", [
    lambda: verify_cauchy((0.3, 0.7), [[1, 0.5], [0.5, 1]], 2000, 1),
    lambda: counterexample_negative_weights(0.5, 2000, 1),
], ids=["verify_cauchy", "counterexample_negative_weights"])
def test_each_check_validates_its_covariance_once(check, monkeypatch):
    # Both Philox streams of verify_cauchy, and the ring and the draw of the
    # counterexample, come from the one factor of one validated Sigma.
    calls = []
    real = verify.validate_covariance
    monkeypatch.setattr(verify, "validate_covariance", lambda m: calls.append(m) or real(m))
    check()
    assert len(calls) == 1


class TestCounterexample:
    def test_mean_formula_across_rho(self):
        # passing means the sample mean is within six exact standard errors
        # of (1 + 2 rho^2)/(1 - rho^2), i.e. of 1, 2 and 19/3 here, a bound
        # no looser than 2% at n = 1e6
        for rho in (0.0, 0.5, 0.8):
            results = counterexample_negative_weights(rho, 10**6, 60)
            mean_result = results[0]
            assert mean_result.threshold <= 0.02
            assert mean_result.passed, (rho, mean_result.statistic)

    def test_exact_mean_rows(self):
        # the angle-rule mean matches the formula to rounding, whatever n
        for rho in (0.0, 0.5, 0.8, 0.95):
            exact = counterexample_negative_weights(rho, 1000, 62)[1]
            assert exact.name == f"negative-weight-exact-mean-rho{rho:g}"
            assert exact.threshold == 1e-12 and exact.statistic <= 1e-15

    def test_mean_threshold_scales_with_n(self):
        # six exact relative standard deviations over sqrt(n): at rho = 0,
        # q = 4 Z1^2 Z2^2 / (Z1^2 + Z2^2) = R^2 sin^2(2 theta) has mean 1 and
        # E[q^2] = 8 * 3/8 = 3, so sd = sqrt(2)
        small, large = (counterexample_negative_weights(0.0, n, 63)[0] for n in (10**4, 10**6))
        assert small.threshold == pytest.approx(6.0 * 2**0.5 / 100.0, rel=1e-14)
        assert large.threshold == pytest.approx(small.threshold / 10.0, rel=1e-14)

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_rho_outside_the_open_interval_rejected(self, rho):
        with pytest.raises(ValueError, match=r"rho must be in \(-1, 1\)"):
            counterexample_negative_weights(rho, 1000, 64)

    def test_rho_08_law_departs_from_chi2(self):
        results = counterexample_negative_weights(0.8, 2 * 10**5, 61)
        gap = [r for r in results if r.name == "negative-weight-law-gap"][0]
        assert gap.passed  # i.e. the distance exceeded 0.01


class TestMomentInvariance:
    def test_table_constant_across_phi(self):
        for sig in (0.4, 1.0, 2.5):
            table = moment_invariance_check(sig, [0.0, 0.3, 0.7, 1.2, 1.5], [1, 2, 3, 4])
            assert np.abs(table - table[:, :1]).max() < 1e-8

    def test_first_moment_equals_riemann_oracle(self):
        # independent oracle: plain Riemann summation on ten million points
        psi = (np.arange(10**7) + 0.5) * (2.0 * np.pi / 10**7)
        riemann = _moment_integrand(psi, 0.0, 1.0).mean()
        table = moment_invariance_check(1.0, [0.0], [1])
        assert table[0, 0] == pytest.approx(riemann, abs=1e-6)
        # at equal exponents the integrand reduces to sin^2, mean one half
        assert table[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_adaptive_quadrature(self):
        # oracle: scipy's adaptive quad on the same integrand, split where
        # the denominator dips; every cell of the verify suite's table
        from scipy import integrate

        phis, ms = [0.0, 0.3, 0.7, 1.2, 1.5], [1, 2, 3, 4]
        for sig in (0.4, 1.0, 2.5):
            table = moment_invariance_check(sig, phis, ms)
            for c, phi in enumerate(phis):
                psi_star = _moment_geometry(phi, sig)[0]
                for r, m in enumerate(ms):
                    fn = lambda psi: _moment_integrand(psi, phi, sig) ** m
                    want = sum(
                        integrate.quad(fn, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=500)[0]
                        for lo, hi in ((0.0, psi_star), (psi_star, 2.0 * np.pi))
                    ) / (2.0 * np.pi)
                    assert table[r, c] == pytest.approx(want, rel=0, abs=1e-12), (sig, phi, m)

    def test_near_right_angle_converges_or_raises(self):
        # the ratio varies over a width shrinking like cos(phi)^2 near pi/2;
        # each moment must either resolve it or refuse to answer
        for sig in (0.4, 1.0, 2.5):
            for m in (1, 2, 3, 4):
                want = moment_invariance_check(sig, [0.0], [m])[0, 0]
                try:
                    got = moment_invariance_check(sig, [1.57], [m])[0, 0]
                except RuntimeError as exc:
                    assert f"sigma={sig}, phi=1.57, m={m}" in str(exc)
                else:
                    assert got == pytest.approx(want, rel=0, abs=1e-9), (sig, m)

    def test_non_finite_integrand_raises(self, monkeypatch):
        import singwald.verify as verify

        monkeypatch.setattr(verify, "_moment_integrand", lambda psi, phi, sigma: psi * np.nan)
        with pytest.raises(RuntimeError, match=r"sigma=1.0, phi=0.3, m=2"):
            moment_invariance_check(1.0, [0.3], [2])

    def test_phi_domain_validated(self):
        with pytest.raises(ValueError):
            moment_invariance_check(1.0, [np.pi / 2], [1])

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            moment_invariance_check(-1.0, [0.0], [1])


class TestTrigLemma:
    def test_positive_weight_matches(self):
        assert verify_trig_lemma(0.3, N, 62).passed

    def test_unit_weight_double_angle(self):
        assert verify_trig_lemma(1.0, N, 63).passed

    def test_unit_weight_passes_at_seed_7308(self):
        # a two-sample KS against a second uniform-angle draw read 0.01088
        # here, over the 0.009487 threshold; against the arcsine CDF it is 0.0051
        r = verify_trig_lemma(1.0, 100_000, derive_seed(7308, 36))
        assert r.passed and r.statistic < 0.006

    def test_negative_weight_must_differ(self):
        r = verify_trig_lemma(-0.5, N, 64)
        assert r.passed  # the distance exceeded 0.01 as required
        assert r.statistic < r.threshold < 0  # both are negated


class TestBetaRepresentation:
    @pytest.mark.parametrize("k1,k2", [(2, 2), (1, 1), (3, 1)])
    def test_representation(self, k1, k2):
        assert verify_beta_representation(k1, k2, N, 65).passed

    @pytest.mark.parametrize("k1,k2", [(3, 1), (1, 1)])
    def test_one_sample_statistic_rejects_a_wrong_split(self, k1, k2):
        # power control: canonical (2, 2) draws sit far from the folded-Beta
        # law of another split, at four times the row's threshold or more
        n = 20_000
        canonical = sample_canonical(np.array([1.0, 1.0, -1.0, -1.0]), n, 65)
        stat = ks_distance(canonical, FoldedBetaProduct(k1=k1, k2=k2))
        assert stat >= 4.0 * ks_threshold(n), stat


class TestStableAlpha:
    @pytest.mark.parametrize("alpha", [1e200, 1e-200])
    def test_alpha_whose_square_leaves_the_normal_floats_raises(self, alpha):
        # 1e200**2 overflows and 1e-200**2 underflows to 0, which drew zeros
        message = "^" + re.escape(f"alpha^2 must be a finite normal float, got alpha = {alpha}") + "$"
        with pytest.raises(ValueError, match=message):
            stable_cdf(alpha, [0.5, 1.0])
        with pytest.raises(ValueError, match=message):
            sample_stable(alpha, 3, 1)


class TestBoundsSuite:
    def test_all_pass(self):
        results = verify_bounds_suite(N, 66)
        assert all(r.passed for r in results), [
            (r.name, r.statistic, r.threshold) for r in results if not r.passed
        ]
        names = {r.name for r in results}
        assert "tetrad-cdf-dominance" in names
        assert "upper-envelope-quarter-chisq" in names


class TestPathwise:
    def test_both_identities(self):
        results = verify_pathwise_invariance(N, 67)
        assert all(r.passed for r in results)
        assert results[0].statistic == 0.0  # bitwise identical draws


class TestTetradChecks:
    def test_kronecker_classification_and_law(self):
        results = verify_tetrad_kronecker(N, 68)
        assert all(r.passed for r in results)

    def test_convergence_small(self):
        theta = np.block(
            [
                [np.array([[1.0, 0.5], [0.5, 1.0]]), np.zeros((2, 2))],
                [np.zeros((2, 2)), np.eye(2)],
            ]
        )
        r = verify_tetrad_convergence(theta, 2000, 1000, 69)
        assert r.name == "tetrad-statistic-convergence"
        assert r.passed, (r.statistic, r.threshold)

    def test_convergence_identity_truth(self):
        # the limit does not depend on the block-diagonal truth at all
        r = verify_tetrad_convergence(np.eye(4), 2000, 1000, 70)
        assert r.passed, (r.statistic, r.threshold)

    def test_regular_truth_matches_chi2(self):
        theta = np.eye(4)
        theta[0, 2] = theta[2, 0] = 0.5
        r = verify_tetrad_convergence(theta, 2000, 1000, 70)
        assert r.name == "tetrad-regular-convergence"
        assert r.passed, (r.statistic, r.threshold)


class TestSuiteRunner:
    def test_theorem_suite_tiers(self):
        results = run_suite("theorems", n=2000, seed=71)
        assert results and all(r.tier == "theorem" for r in results)

    def test_conjecture_suite_tiers(self):
        results = run_suite("conjectures", n=2000, seed=72)
        assert results and all(r.tier == "conjecture" for r in results)

    def test_suite_reproducible(self):
        a = run_suite("conjectures", n=5000, seed=73, threads=1)
        b = run_suite("conjectures", n=5000, seed=73, threads=1)
        assert [(r.name, r.statistic) for r in a] == [(r.name, r.statistic) for r in b]

    def test_threads_do_not_change_results(self):
        a = run_suite("all", n=5000, seed=74, threads=1)
        for threads in (2, 3):  # 3: the calling thread and two pool threads
            b = run_suite("all", n=5000, seed=74, threads=threads)
            assert format_report(a) == format_report(b)
            assert [(r.name, r.statistic) for r in a] == [(r.name, r.statistic) for r in b]

    def test_registry_claims_are_the_row_stems(self):
        # every row of an entry starts with one of its claims, and every
        # claim starts some row of its entry; rows of different entries
        # never report the same seed, so no entry reuses another's index
        seen = {}
        for claims, tier, runner in _REGISTRY:
            rows = runner(2000, 76)
            names = [r.name for r in rows]
            assert all(name.startswith(claims) for name in names), (claims, names)
            assert all(any(name.startswith(c) for name in names) for c in claims), (claims, names)
            for seed in {r.seed for r in rows}:
                assert seen.setdefault(seed, claims) == claims, (seed, seen[seed], claims)

    @pytest.mark.parametrize("entry", _REGISTRY, ids=lambda entry: entry[0][0])
    def test_registry_entry_peaks_under_five_n_arrays(self, entry):
        # Every whole-n draw is streamed in row chunks, so at n = 1e5 no
        # entry holds more than five n-arrays (4 MB) and 1 MB besides.
        n = 10**5
        _, peak = peak_bytes(lambda: entry[2](n, 77))
        assert peak <= 5 * 8 * n + 2**20, peak

    def test_no_row_draws_a_reference_sample(self, monkeypatch):
        # every row compares its draws with a law's CDF, never with draws
        # of the law itself
        def no_sample(*args, **kwargs):
            raise AssertionError("a verify row drew a reference sample")

        monkeypatch.setattr(LimitLaw, "sample", no_sample)
        results = run_suite("theorems", n=2000, seed=1)
        assert all(r.passed for r in results), [r.name for r in results if not r.passed]

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("lemmas", n=1000, seed=1)

    def test_report_format(self):
        results = run_suite("conjectures", n=2000, seed=75)
        report = format_report(results)
        lines = report.strip().split("\n")
        assert lines[0] == "name\ttier\tstatistic\tthreshold\tpass\tn\tseed"
        assert len(lines) == len(results) + 1
        assert all(len(line.split("\t")) == 7 for line in lines[1:])


# the theorem runs keep their original ids, 1 and 2
@pytest.mark.parametrize("suite, threads", [
    pytest.param("theorems", 1, id="1"),
    pytest.param("theorems", 2, id="2"),
    pytest.param("conjectures", 1, id="conjectures-1"),
    pytest.param("conjectures", 2, id="conjectures-2"),
])
def test_report_matches_golden(tmp_path, suite, threads):
    """``wald verify`` with the arguments of acceptance criterion 10
    reproduces the committed report of each suite byte for byte, at one and
    two threads.

    Any change that moves a statistic fails here.  Regenerating a file is a
    declared behaviour change: write it with ``wald --seed 7 --threads 1
    verify --suite SUITE --n 20000 --out
    tests/data/verify_SUITE_seed7_n20000.tsv`` and name the rows that moved
    in CHANGES.md.
    """
    out = tmp_path / "report.tsv"
    argv = ["--seed", "7", "--threads", str(threads), "verify", "--suite", suite,
            "--n", "20000", "--out", str(out)]
    assert run(argv) == 0
    assert out.read_bytes() == (DATA / f"verify_{suite}_seed7_n20000.tsv").read_bytes()
