import numpy as np
import pytest

from singwald.errors import DegenerateSamplingError
from singwald.gaussian import MvnSampler, factor, validate_covariance
from singwald.laws import (
    EmpiricalDistribution,
    ScaledChiSquare,
    TetradSingular,
)
from singwald.poly import HomogeneousPolynomial, MonomialForm
from singwald.sampler import (
    WaldSampleConfig,
    dominance_check,
    ks_distance,
    sample_wald,
    two_sample_ks,
)


def cov2(rho, v1=1.0, v2=1.0):
    c = rho * np.sqrt(v1 * v2)
    return validate_covariance([[v1, c], [c, v2]])


class TestSampleWald:
    def test_linear_form_is_chi_square_one(self):
        # nonzero gradient at the origin: the regular limit
        f = HomogeneousPolynomial.from_terms([(2.5, (1, 0))])
        emp = sample_wald(f, cov2(0.6), WaldSampleConfig(n=10**6, seed=41))
        assert ks_distance(emp, ScaledChiSquare(1.0, 1)) < 0.003

    def test_product_monomial_quarter_law(self):
        emp = sample_wald(
            MonomialForm((1.0, 1.0)), cov2(0.7), WaldSampleConfig(n=10**6, seed=42)
        )
        assert ks_distance(emp, ScaledChiSquare(0.25, 1)) < 0.003

    def test_single_variable_power(self):
        # one variable: W = X^2 / alpha^2 exactly
        alpha = 1.7
        emp = sample_wald(
            MonomialForm((alpha,)),
            validate_covariance([[1.0]]),
            WaldSampleConfig(n=2 * 10**5, seed=43),
        )
        assert ks_distance(emp, ScaledChiSquare(1.0 / alpha**2, 1)) < 3.0 / np.sqrt(emp.n)

    def test_polynomial_and_monomial_paths_agree(self):
        f = HomogeneousPolynomial.from_terms([(1.0, (1, 1))])
        m = MonomialForm((1.0, 1.0))
        cfg = WaldSampleConfig(n=10**4, seed=44)
        a = sample_wald(f, cov2(0.3), cfg)
        b = sample_wald(m, cov2(0.3), cfg)
        np.testing.assert_allclose(a.values, b.values, rtol=1e-10)

    def test_determinism(self):
        cfg = WaldSampleConfig(n=5000, seed=7)
        a = sample_wald(MonomialForm((1.0, 1.0)), cov2(0.5), cfg)
        b = sample_wald(MonomialForm((1.0, 1.0)), cov2(0.5), cfg)
        assert a.values.tobytes() == b.values.tobytes()

    def test_threads_do_not_change_output(self, quartic):
        sigma4 = validate_covariance(np.eye(4) + 0.3 * (np.ones((4, 4)) - np.eye(4)))
        cases = (
            (MonomialForm((1.0, 1.0)), cov2(0.2), 40_000, 4096),
            # 3 batches, each split into polynomial-kernel blocks with a
            # partial last block
            (quartic, sigma4, 100_000, 40_000),
        )
        for f, sigma, n, batch in cases:
            a = sample_wald(f, sigma, WaldSampleConfig(n=n, seed=8, batch_size=batch))
            for threads in (2, 4):
                cfg = WaldSampleConfig(n=n, seed=8, batch_size=batch, threads=threads)
                b = sample_wald(f, sigma, cfg)
                assert a.values.tobytes() == b.values.tobytes(), (f, threads)

    def test_batch_size_partitions_streams(self):
        # one batch vs many batches differ in draws but not in law
        f = MonomialForm((1.0, 1.0))
        a = sample_wald(f, cov2(0.0), WaldSampleConfig(n=2 * 10**5, seed=9, batch_size=2 * 10**5))
        b = sample_wald(f, cov2(0.0), WaldSampleConfig(n=2 * 10**5, seed=9, batch_size=10**4))
        assert not np.array_equal(a.values, b.values)
        assert two_sample_ks(a, b) < 3.0 / np.sqrt(10**5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            sample_wald(
                MonomialForm((1.0, 1.0, 1.0)), cov2(0.1), WaldSampleConfig(n=100, seed=1)
            )

    def test_rejection_stats_exposed(self):
        stats_out = {}
        sample_wald(
            MonomialForm((1.0, 1.0)),
            cov2(0.5),
            WaldSampleConfig(n=10**5, seed=10),
            stats_out=stats_out,
        )
        assert stats_out["proposed"] >= 10**5
        # underflow guard is statistically invisible
        assert stats_out["rejected"] <= 0.0001 * stats_out["proposed"]

    def test_degenerate_pairing_aborts(self, monkeypatch):
        # an absurd guard forces every draw to be rejected, on both form types
        import singwald.sampler as sampler

        monkeypatch.setattr(sampler, "_DENOMINATOR_GUARD", 1e12)
        for f in (MonomialForm((1.0, 1.0)), HomogeneousPolynomial.from_terms([(1.0, (1, 1))])):
            with pytest.raises(DegenerateSamplingError):
                sample_wald(f, cov2(0.0), WaldSampleConfig(n=1000, seed=11))

    def test_rank_deficient_sigma(self):
        # perfectly correlated pair behaves like one variable of degree 2
        emp = sample_wald(
            MonomialForm((1.0, 1.0)),
            validate_covariance([[1.0, 1.0], [1.0, 1.0]]),
            WaldSampleConfig(n=2 * 10**5, seed=12),
        )
        assert ks_distance(emp, ScaledChiSquare(0.25, 1)) < 3.0 / np.sqrt(emp.n)


class TestPathwiseInvariance:
    def test_scale_power_of_two_bitwise(self):
        f = HomogeneousPolynomial.from_terms([(1.0, (1, 0, 0, 1)), (-1.0, (0, 1, 1, 0))])
        sigma = validate_covariance(np.eye(4))
        cfg = WaldSampleConfig(n=2000, seed=13)
        base = sample_wald(f, sigma, cfg)
        for c in (2.0, 0.5, -4.0):
            scaled = sample_wald(f.scale(c), sigma, cfg)
            assert np.array_equal(base.values, scaled.values), c

    def test_scale_general_close(self):
        f = HomogeneousPolynomial.from_terms([(1.0, (1, 1))])
        cfg = WaldSampleConfig(n=2000, seed=14)
        base = sample_wald(f, cov2(0.4), cfg)
        scaled = sample_wald(f.scale(3.0), cov2(0.4), cfg)
        np.testing.assert_allclose(scaled.values, base.values, rtol=1e-12)

    def test_linear_reparameterization_coupled(self):
        # with the coupled factor B^{-1} B_Sigma the transformed problem
        # reproduces the base draws to 1e-8 relative
        f = HomogeneousPolynomial.from_terms([(1.0, (1, 0, 0, 1)), (-1.0, (0, 1, 1, 0))])
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
        rng = np.random.default_rng(15)
        b = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        b_inv = np.linalg.inv(b)
        cfg = WaldSampleConfig(n=3000, seed=16)
        base = sample_wald(f, sigma, cfg)
        coupled = MvnSampler.from_factor(b_inv @ factor(sigma).factor_b)
        sigma_t = validate_covariance(b_inv @ sigma.sigma @ b_inv.T)
        moved = sample_wald(f.compose_linear(b), sigma_t, cfg, sampler=coupled)
        np.testing.assert_allclose(moved.values, base.values, rtol=1e-8)


class TestKsDistance:
    def test_exact_quantile_construction(self):
        law = ScaledChiSquare(1.0, 1)
        n = 1000
        values = [law.quantile((i - 0.5) / n) for i in range(1, n + 1)]
        emp = EmpiricalDistribution.from_samples(values)
        assert ks_distance(emp, law) <= 1.0 / (2.0 * n) + 1e-9

    def test_self_draw_within_kolmogorov_bound(self):
        # 1.95/sqrt(n) is the 99.9% point of the Kolmogorov law
        law = ScaledChiSquare(1.0, 1)
        emp = law.sample(10**6, 17)
        assert ks_distance(emp, law) < 1.95 / np.sqrt(emp.n)

    def test_chi2_two_vs_one_separated(self):
        # sup gap between the two CDFs is ~0.3024, so the empirical distance
        # must clear 0.15 by a wide margin
        rng = np.random.default_rng(18)
        emp = EmpiricalDistribution.from_samples(rng.chisquare(2, 10**6))
        assert ks_distance(emp, ScaledChiSquare(1.0, 1)) > 0.15

    def test_two_sample_form(self):
        a = EmpiricalDistribution.from_samples([1.0, 2.0, 3.0])
        b = EmpiricalDistribution.from_samples([1.0, 2.0, 3.0])
        assert ks_distance(a, b) == 0.0
        c = EmpiricalDistribution.from_samples([10.0, 11.0, 12.0])
        assert ks_distance(a, c) == 1.0


class TestDominance:
    def test_quarter_chi1_below_tetrad(self):
        grid = np.linspace(0.0, 10.0, 500)
        assert dominance_check(ScaledChiSquare(0.25, 1), TetradSingular(), grid) <= 0.0

    def test_tetrad_below_chi1(self):
        grid = np.linspace(0.0, 10.0, 500)
        assert dominance_check(TetradSingular(), ScaledChiSquare(1.0, 1), grid) <= 0.0

    def test_reflexive_zero_margin(self):
        law = ScaledChiSquare(1.0, 1)
        grid = np.linspace(0.0, 10.0, 100)
        assert dominance_check(law, law, grid) == 0.0

    def test_violation_reported_with_location(self):
        # chi-square-1 does NOT dominate the tetrad law: flipping the sides
        # must report a positive gap
        grid = np.linspace(0.0, 10.0, 500)
        assert dominance_check(ScaledChiSquare(1.0, 1), TetradSingular(), grid) > 0.1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            dominance_check(TetradSingular(), TetradSingular(), [])

    def test_report_type(self):
        gap = dominance_check(TetradSingular(), ScaledChiSquare(1.0, 1), np.linspace(0, 5, 10))
        assert type(gap) is float


class TestMergeInvariance:
    def test_merge_order_irrelevant(self):
        rng = np.random.default_rng(19)
        parts = [
            EmpiricalDistribution.from_samples(rng.chisquare(1, 1000))
            for _ in range(5)
        ]
        a = EmpiricalDistribution.from_samples(np.concatenate([p.values for p in parts]))
        b = EmpiricalDistribution.from_samples(
            np.concatenate([p.values for p in parts[::-1]])
        )
        assert np.array_equal(a.values, b.values)


class TestConfigValidation:
    def test_minimum_n(self):
        with pytest.raises(ValueError):
            WaldSampleConfig(n=99, seed=1)

    def test_threads_positive(self):
        with pytest.raises(ValueError):
            WaldSampleConfig(n=1000, seed=1, threads=0)
