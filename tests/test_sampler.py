import numpy as np
import pytest
from test_laws import ALL_CDFS

from singwald.errors import DegenerateSamplingError
from singwald import sampler
from singwald.gaussian import factor, make_generator, validate_covariance
from singwald.laws import (
    EmpiricalDistribution,
    FoldedBetaProduct,
    ScaledChiSquare,
    TetradSingular,
    monomial_law,
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

    def test_threads_do_not_change_output(self, quartic, monkeypatch):
        sigma4 = validate_covariance(np.eye(4) + 0.3 * (np.ones((4, 4)) - np.eye(4)))
        cases = (
            (MonomialForm((1.0, 1.0)), cov2(0.2), 40_000, 4096),
            # 3 batches, each split into polynomial-kernel blocks with a
            # partial last block
            (quartic, sigma4, 100_000, 40_000),
        )
        for f, sigma, n, batch in cases:
            monkeypatch.setattr(sampler, "_BATCH", batch)
            a = sample_wald(f, sigma, WaldSampleConfig(n=n, seed=8))
            for threads in (2, 4):
                b = sample_wald(f, sigma, WaldSampleConfig(n=n, seed=8, threads=threads))
                assert a.values.tobytes() == b.values.tobytes(), (f, threads)

    def test_batch_size_partitions_streams(self, monkeypatch):
        # one batch vs many batches differ in draws but not in law
        f = MonomialForm((1.0, 1.0))
        cfg = WaldSampleConfig(n=2 * 10**5, seed=9)
        a = sample_wald(f, cov2(0.0), cfg)
        monkeypatch.setattr(sampler, "_BATCH", 10**4)
        b = sample_wald(f, cov2(0.0), cfg)
        assert not np.array_equal(a.values, b.values)
        assert two_sample_ks(a, b) < 3.0 / np.sqrt(10**5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            sample_wald(
                MonomialForm((1.0, 1.0, 1.0)), cov2(0.1), WaldSampleConfig(n=100, seed=1)
            )

    def test_factor_shape_checked(self):
        f = MonomialForm((1.0, 1.0))
        for bad in (np.ones(2), np.ones((3, 2))):
            with pytest.raises(ValueError, match="factor must have shape"):
                sample_wald(f, cov2(0.1), WaldSampleConfig(n=100, seed=1), sampler=bad)

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

    def test_result_is_the_sorted_buffer_not_a_copy(self):
        # Sixteen batches: the result buffer is the largest allocation, and
        # sorting a copy of it would double the peak.
        import tracemalloc

        n = 1 << 22
        tracemalloc.start()
        try:
            emp = sample_wald(MonomialForm((1.0, 1.0)), cov2(0.5), WaldSampleConfig(n=n, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.diff(emp.values) >= 0)
        assert peak < 1.6 * emp.values.nbytes

    def test_degenerate_pairing_aborts(self, monkeypatch):
        # an absurd guard forces every draw to be rejected, on both form types
        import singwald.sampler as sampler

        monkeypatch.setattr(sampler, "_DENOMINATOR_GUARD", 1e12)
        for f in (MonomialForm((1.0, 1.0)), HomogeneousPolynomial.from_terms([(1.0, (1, 1))])):
            with pytest.raises(DegenerateSamplingError):
                sample_wald(f, cov2(0.0), WaldSampleConfig(n=1000, seed=11))

    def test_rejection_rate_above_one_percent_aborts(self):
        # f = x^200 under Sigma = [1]: the denominator 200^2 x^398 falls
        # below the guard for |x| < 0.17, 13% of draws; batches still fill,
        # and the rate check after them raises
        f = HomogeneousPolynomial.from_terms([(1.0, (200,))])
        stats = {}
        with pytest.raises(DegenerateSamplingError, match="exceeds 1%"):
            sample_wald(f, validate_covariance([[1.0]]), WaldSampleConfig(n=10**4, seed=13), stats_out=stats)
        assert 0.12 < stats["rejected"] / stats["proposed"] < 0.15

    def test_rank_deficient_sigma(self):
        # perfectly correlated pair behaves like one variable of degree 2
        emp = sample_wald(
            MonomialForm((1.0, 1.0)),
            validate_covariance([[1.0, 1.0], [1.0, 1.0]]),
            WaldSampleConfig(n=2 * 10**5, seed=12),
        )
        assert ks_distance(emp, ScaledChiSquare(0.25, 1)) < 3.0 / np.sqrt(emp.n)


SIGMA4 = np.eye(4) + 0.3 * (np.ones((4, 4)) - np.eye(4))
SIGMA3 = [[1.0, 0.4, -0.2], [0.4, 2.0, 0.3], [-0.2, 0.3, 0.5]]


def test_wald_numerator_is_the_square_of_evaluate(quartic):
    # one formula for f: the sampler's numerator from its one gradient is
    # bitwise the square of evaluate
    x = np.random.default_rng(17).standard_normal((sampler._BLOCK + 5, 4))
    num, _ = sampler._wald_terms(quartic, SIGMA4, x)
    assert num.tobytes() == np.square(quartic.evaluate(x)).tobytes()


def whole_round_sample(f, sigma, n: int, seed: int) -> np.ndarray:
    """The sorted sample with each batch drawn and evaluated in one piece
    from its own stream: the bytes the chunked batches must keep."""
    root = factor(sigma)
    parts = []
    for i in range(-(-n // sampler._BATCH)):
        rows = min(sampler._BATCH, n - i * sampler._BATCH)
        x = make_generator(seed, i).standard_normal((rows, root.shape[1])) @ root.T
        num, den = sampler._wald_terms(f, sigma.sigma, x)
        assert (den >= sampler._DENOMINATOR_GUARD).all()  # no redraw round
        parts.append(num / den)
    return np.sort(np.concatenate(parts))


class TestStreamedBatches:
    # Sizes around the chunk and batch edges: 16385 and 16386 would leave a
    # one- or two-row last chunk without the tail rule, 32769 is two chunks
    # and a row, 278529 a full batch and a 2^14 + 1 row second batch.
    @pytest.mark.parametrize("n", [100, 16385, 16386, 32769, 278529, 500000])
    @pytest.mark.parametrize("form", ["quartic", "monomial"])
    def test_bytes_equal_the_whole_round(self, form, n, quartic):
        if form == "quartic":
            f, sigma = quartic, validate_covariance(SIGMA4)
        else:
            f, sigma = MonomialForm((1.0, 2.0, 0.5)), validate_covariance(SIGMA3)
        want = whole_round_sample(f, sigma, n, seed=17).tobytes()
        for threads in (1, 2):
            got = sample_wald(f, sigma, WaldSampleConfig(n=n, seed=17, threads=threads))
            assert got.values.tobytes() == want, threads

    def test_peak_is_the_result_and_a_few_chunks(self, quartic):
        # Whole 2^18-row batches peaked 22 MB above the 8 MB result; chunks
        # of 2^14 rows peak about 7 MB above it, most of that the polynomial
        # kernel's own per-block tables.
        import tracemalloc

        sigma = validate_covariance(SIGMA4)
        tracemalloc.start()
        try:
            emp = sample_wald(quartic, sigma, WaldSampleConfig(n=1 << 20, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < emp.values.nbytes + 12 * 2**20


class TestPathwiseInvariance:
    def test_scale_power_of_two_bitwise(self, tetrad_form):
        sigma = validate_covariance(np.eye(4))
        cfg = WaldSampleConfig(n=2000, seed=13)
        base = sample_wald(tetrad_form, sigma, cfg)
        for c in (2.0, 0.5, -4.0):
            scaled = sample_wald(tetrad_form.scale(c), sigma, cfg)
            assert np.array_equal(base.values, scaled.values), c

    def test_scale_general_close(self):
        f = HomogeneousPolynomial.from_terms([(1.0, (1, 1))])
        cfg = WaldSampleConfig(n=2000, seed=14)
        base = sample_wald(f, cov2(0.4), cfg)
        scaled = sample_wald(f.scale(3.0), cov2(0.4), cfg)
        np.testing.assert_allclose(scaled.values, base.values, rtol=1e-12)

    def test_linear_reparameterization_coupled(self, tetrad_form):
        # with the coupled factor B^{-1} B_Sigma the transformed problem
        # reproduces the base draws to 1e-8 relative
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
        base = sample_wald(tetrad_form, sigma, cfg)
        coupled = b_inv @ factor(sigma)
        sigma_t = validate_covariance(b_inv @ sigma.sigma @ b_inv.T)
        moved = sample_wald(tetrad_form.compose_linear(b), sigma_t, cfg, sampler=coupled)
        np.testing.assert_allclose(moved.values, base.values, rtol=1e-8)


class TestKsDistance:
    def test_exact_quantile_construction(self):
        law = ScaledChiSquare(1.0, 1)
        n = 1000
        values = [law.quantile((i - 0.5) / n) for i in range(1, n + 1)]
        emp = EmpiricalDistribution.from_samples(values)
        assert ks_distance(emp, law) <= 1.0 / (2.0 * n) + 1e-9
        # every gap is 1/(2n) up to rounding, so no segment can be skipped
        # on its bound and the refinement reaches every draw
        assert ks_distance(emp, law) == full_ks(emp, law)

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


# The CDFs of verify's one-sample KS rows: every law, the stable adapter
# and the monomial theorem's law.
KS_LAWS = [*ALL_CDFS, monomial_law(MonomialForm((1.0, 2.0)))]


def full_gaps(emp, law):
    """The two one-sided gaps at every draw, from F at every draw."""
    n = emp.n
    fvals = np.asarray(law.cdf(emp.values), dtype=float)
    i = np.arange(1, n + 1)
    return i / n - fvals, fvals - (i - 1) / n


def full_ks(emp, law) -> float:
    """The oracle: the one-sample statistic as the maximum over every draw."""
    d_plus, d_minus = full_gaps(emp, law)
    return max(float(d_plus.max()), float(d_minus.max()))


class CountingCdf:
    """A CDF adapter that records the size of every call."""

    def __init__(self, cdf):
        self._cdf = cdf
        self.sizes = []

    def cdf(self, t):
        self.sizes.append(np.size(t))
        return self._cdf(t)


class TestKsPruning:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n", [2, 63, 64, 65, 129, 10**5, 10**6])
    @pytest.mark.parametrize("law", KS_LAWS, ids=lambda l: l.spec_string())
    def test_equals_full_evaluation(self, law, n, seed):
        emp = law.sample(n, seed)
        assert ks_distance(emp, law) == full_ks(emp, law)

    @pytest.mark.parametrize("law", KS_LAWS, ids=lambda l: l.spec_string())
    def test_evaluates_under_a_tenth_of_a_million_draws(self, law):
        emp = law.sample(10**6, 3)
        counted = CountingCdf(law.cdf)
        ks_distance(emp, counted)
        assert sum(counted.sizes) <= 10**5

    @pytest.mark.parametrize(
        "law", [ScaledChiSquare(1.0, 1), TetradSingular(), FoldedBetaProduct(3, 1)],
        ids=lambda l: l.spec_string(),
    )
    def test_supremum_at_the_first_or_last_draw(self, law):
        base = law.sample(10**5, 4).values
        # Shifted far right, F is nearly flat at 1 and F(x_i) - i/n peaks
        # at the first draw; squeezed toward 0, (i+1)/n - F(x_i) peaks at
        # the last.
        for values, side, where in ((base + law.quantile(0.99), 1, 0), (base * 1e-12, 0, -1)):
            emp = EmpiricalDistribution.from_samples(values.copy())
            gaps = full_gaps(emp, law)
            assert np.argmax(gaps[side]) == np.arange(emp.n)[where]
            assert gaps[side][where] > gaps[1 - side].max()
            assert ks_distance(emp, law) == full_ks(emp, law)

    @pytest.mark.parametrize("law", [ScaledChiSquare(0.25, 1), TetradSingular()], ids=lambda l: l.spec_string())
    def test_tied_draws(self, law):
        emp = EmpiricalDistribution.from_samples(np.round(law.sample(10**5, 5).values, 2))
        assert np.unique(emp.values).size < emp.n // 10
        assert ks_distance(emp, law) == full_ks(emp, law)

    @pytest.mark.parametrize(
        "values, sup",
        [
            # (i+1)/n - F peaks at 0.5 on draw 63, the last of a tie run
            # that starts at draw 0: the bound b/n - F(x_a) of segment
            # (0, 64) is attained, while draws 64..127 all read 0.499.
            ([0.0] * 64 + [(i + 1) / 128 - 0.499 for i in range(64, 128)], 0.5),
            # F - i/n peaks at 0.252 on draw 1, the first of a tie run that
            # ends on draw 64: the bound F(x_b) - (a+1)/n is attained, and
            # the largest gap on a stride point is 0.251.
            ([0.25] + [0.252 + 1 / 128] * 64 + [(i + 1) / 128 - 0.251 for i in range(65, 128)], 0.252),
        ],
        ids=["plus", "minus"],
    )
    def test_segment_bounds_are_exact_on_tie_runs(self, values, sup):
        # A bound one step looser than the one in ks_distance would skip
        # the segment that holds the supremum.
        emp = EmpiricalDistribution.from_samples(values)
        uniform = CountingCdf(lambda t: np.clip(t, 0.0, 1.0))
        assert full_ks(emp, uniform) == pytest.approx(sup)
        assert ks_distance(emp, uniform) == full_ks(emp, uniform)

    def test_short_last_segment_alone(self):
        # n = 70: the last segment (64, 69) is shorter than the second
        # stride, so it gains no point at that level, and it alone holds
        # the supremum 68/70 - F(x_67), two draws before a jump to F = 1.
        emp = EmpiricalDistribution.from_samples([i * 1e-9 for i in range(68)] + [2.0, 2.0])
        uniform = CountingCdf(lambda t: np.clip(t, 0.0, 1.0))
        stat = ks_distance(emp, uniform)
        assert uniform.sizes == [3, 4]
        assert stat == full_ks(emp, uniform)

    def test_sawtooth_cdf_falls_back_to_every_draw(self):
        emp = EmpiricalDistribution.from_samples(np.random.default_rng(30).uniform(size=10**4))
        law = CountingCdf(lambda t: (3.0 * np.asarray(t)) % 1.0)
        stat = ks_distance(emp, law)
        assert law.sizes[-1] == emp.n
        assert stat == full_ks(emp, law)

    def test_step_down_inside_a_refined_segment_falls_back(self):
        # F(t) = t on draws at (i + 1/2)/n is nondecreasing on the stride,
        # and every segment is refined; F dips by 0.01 at draw 8 alone, the
        # first point of the first refinement, which sends the call to the
        # evaluation at every draw
        n = 10**4
        emp = EmpiricalDistribution.from_samples((np.arange(n) + 0.5) / n)
        lo, hi = emp.values[7], emp.values[9]
        law = CountingCdf(lambda t: np.where((lo < t) & (t < hi), t - 0.01, t))
        stat = ks_distance(emp, law)
        assert len(law.sizes) == 3 and law.sizes[-1] == n
        assert stat == sampler._ks_every_point(emp.values, law)

    def test_nan_cdf_falls_back_to_every_draw(self):
        chi = ScaledChiSquare(1.0, 1)
        emp = chi.sample(10**4, 31)
        law = CountingCdf(lambda t: np.where(np.asarray(t) < 2.0, chi.cdf(t), np.nan))
        stat = ks_distance(emp, law)
        assert law.sizes[-1] == emp.n
        assert np.isnan(stat) and np.isnan(full_ks(emp, law))


def searchsorted_two_sample_ks(a, b) -> float:
    """The oracle: both step CDFs read at every pooled draw."""
    pooled = np.concatenate([a.values, b.values])
    fa = np.searchsorted(a.values, pooled, side="right") / a.n
    fb = np.searchsorted(b.values, pooled, side="right") / b.n
    return float(np.abs(fa - fb).max())


def whole_merge_two_sample_ks(a, b) -> float:
    """The oracle of the chunked merge: one stable merge of the whole
    samples, both step CDFs read at the last draw of each run of equal
    pooled values."""
    pooled = np.concatenate([a.values, b.values])
    order = np.argsort(pooled, kind="stable")
    pooled = pooled[order]
    ends = np.flatnonzero(np.append(pooled[1:] != pooled[:-1], True))
    ca = np.cumsum(order < a.n)[ends]
    cb = ends + 1 - ca
    return float(np.abs(ca / a.n - cb / b.n).max())


def tied_across_the_chunk_edge(shift: float) -> np.ndarray:
    """A sample whose run of 1.5s covers draws 16300-16499, across the
    first chunk edge at draw 2^14 - 1."""
    return np.concatenate([
        np.linspace(0.0, 1.0, 16300) + shift, np.full(200, 1.5), np.linspace(2.0, 3.0, 16000)
    ])


class TestTwoSampleKs:
    def both_ways(self, a, b):
        ea, eb = (EmpiricalDistribution.from_samples(np.array(v)) for v in (a, b))
        assert two_sample_ks(ea, eb) == whole_merge_two_sample_ks(ea, eb)
        assert two_sample_ks(eb, ea) == whole_merge_two_sample_ks(eb, ea)

    def test_equals_the_whole_merge_on_rounded_ties(self):
        rng = np.random.default_rng(35)
        for na, nb in ((10**5, 10**5), (10**5, 16385), (2, 40000)):
            self.both_ways(np.round(rng.standard_normal(na), 1),
                           np.round(1.1 * rng.standard_normal(nb), 1))

    def test_equals_the_whole_merge_on_ties_across_the_chunk_edge(self):
        a = tied_across_the_chunk_edge(0.0)
        self.both_ways(a, tied_across_the_chunk_edge(0.05))
        self.both_ways(a, np.concatenate([np.full(3 * sampler._BLOCK, 1.5), [0.2, 2.5]]))
        self.both_ways(a, a[::7])

    def test_equals_the_whole_merge_on_disjoint_supports(self):
        rng = np.random.default_rng(36)
        for na, nb in ((10**5, 10**5), (16385, 2), (2, 2)):
            self.both_ways(rng.standard_normal(na), 100.0 + rng.standard_normal(nb))

    @pytest.mark.parametrize("na", [2, 16383, 16384, 16385, 10**5])
    def test_equals_the_whole_merge_at_chunk_edge_sizes(self, na):
        rng = np.random.default_rng(na)
        for nb in (2, 16383, 16384, 16385, 10**5):
            self.both_ways(rng.standard_normal(na), 1.2 * rng.standard_normal(nb) + 0.1)

    def test_equals_searchsorted_form(self):
        rng = np.random.default_rng(32)
        for trial in range(60):
            na, nb = rng.integers(2, 500, size=2)
            a, b = rng.standard_normal(na), 1.3 * rng.standard_normal(nb)
            if trial % 2:
                a, b = np.round(a, 1), np.concatenate([np.round(b, 1), a[:3]])
            ea, eb = EmpiricalDistribution.from_samples(a), EmpiricalDistribution.from_samples(b)
            assert two_sample_ks(ea, eb) == searchsorted_two_sample_ks(ea, eb)
            assert two_sample_ks(eb, ea) == searchsorted_two_sample_ks(eb, ea)

    def test_equals_searchsorted_form_at_a_million(self):
        law = ScaledChiSquare(1.0, 1)
        a, b = law.sample(10**6, 33), law.sample(10**6 - 7, 34)
        assert two_sample_ks(a, b) == searchsorted_two_sample_ks(a, b)


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
