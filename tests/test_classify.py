import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from singwald.classify import classify, k_alpha, sample_canonical
from singwald.gaussian import make_generator, validate_covariance
from singwald.laws import (
    FoldedBetaProduct,
    ScaledChiSquare,
    TetradSingular,
    TwoChiSquareMix,
)
from singwald.poly import QuadraticForm
from singwald.sampler import WaldSampleConfig, ks_distance, sample_wald


def same_law(a, b):
    """Two laws (or two missing laws) of one family with equal parameters."""
    if a is None or b is None:
        return a is b
    # a law's instance attributes are its parameters
    return type(a) is type(b) and np.allclose(
        list(vars(a).values()), list(vars(b).values()), rtol=1e-9, atol=0
    )


def tetrad_form():
    return QuadraticForm(
        np.kron([[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]])
    )


class TestClassifyBivariate:
    def test_product_form_any_correlation(self):
        # discriminant of x1*x2 is positive, so the law never depends on rho
        a = QuadraticForm(np.array([[0.0, 0.5], [0.5, 0.0]]))
        for rho in (-0.8, 0.0, 0.5, 0.95):
            cov = validate_covariance([[1.0, rho], [rho, 1.0]])
            cls = classify(a, cov)
            assert cls.law == ScaledChiSquare(0.25, 1)
            assert cls.lower_bound == ScaledChiSquare(0.25, 1)

    def test_sum_of_squares_identity(self):
        # equal eigenvalues of one sign: quarter chi-square-2, which is the
        # equal-weight mixture
        cls = classify(QuadraticForm(np.eye(2)), validate_covariance(np.eye(2)))
        assert cls.law == ScaledChiSquare(0.25, 2)
        assert cls.upper_bound == ScaledChiSquare(0.25, 2)
        t = np.linspace(0.01, 8.0, 50)
        np.testing.assert_allclose(
            cls.law.cdf(t), TwoChiSquareMix(0.25, 0.25).cdf(t), atol=1e-12
        )

    def test_definite_weights_from_det_and_trace(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        sigma = np.array([[1.0, -0.4], [-0.4, 1.0]])
        cls = classify(QuadraticForm(a), validate_covariance(sigma))
        prod = a @ sigma
        want = np.linalg.det(prod) / np.trace(prod) ** 2
        assert isinstance(cls.law, TwoChiSquareMix)
        assert cls.law.w1 == 0.25
        assert cls.law.w2 == pytest.approx(want)

    def test_rank_deficient_sigma_uses_reduction(self):
        a = QuadraticForm(np.array([[0.0, 0.5], [0.5, 0.0]]))
        cov = validate_covariance([[1.0, 1.0], [1.0, 1.0]])
        cls = classify(a, cov)
        assert cls.law == ScaledChiSquare(0.25, 1)
        assert len(cls.eigenvalues) == 1


class TestSpectralRule:
    """The law depends on the nonzero eigenvalues of A*Sigma only."""

    def test_split_form_with_unused_variable(self):
        a = QuadraticForm(np.array([[1.0, 1.5, 0.0], [1.5, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        cls = classify(a, validate_covariance(np.eye(3)))
        assert cls.law == ScaledChiSquare(0.25, 1)
        assert cls.lower_bound == ScaledChiSquare(0.25, 1)
        assert cls.upper_bound == ScaledChiSquare(0.25, 2)

    def test_definite_form_with_unused_variable(self):
        a = QuadraticForm(np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]]))
        cls = classify(a, validate_covariance(np.eye(3)))
        # det / trace^2 of the leading 2x2 block
        assert same_law(cls.law, TwoChiSquareMix(0.25, 1.75 / 9.0))
        assert cls.lower_bound == ScaledChiSquare(0.25, 1)

    def test_negligible_eigenvalue_dropped(self):
        cls = classify(QuadraticForm(np.diag([1.0, 1e-15])), validate_covariance(np.eye(2)))
        assert cls.machine_line() == (
            "law=scaled-chisq:0.25:1 eigenvalues=1,1e-15 "
            "lower=scaled-chisq:0.25:1 upper=scaled-chisq:0.25:1"
        )

    def test_opposite_equal_pair_is_quarter_chi1(self):
        cls = classify(QuadraticForm(np.diag([1.0, -1.0, 0.0])), validate_covariance(np.eye(3)))
        assert cls.law == ScaledChiSquare(0.25, 1)


@st.composite
def padded_problems(draw):
    """(A, Sigma) with known spectrum lams, and the same form padded with
    unused variables that Sigma may correlate with the used ones."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    grid = st.sampled_from([-3.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    lams = draw(st.lists(grid, min_size=k, max_size=k))
    unit = st.floats(-1.0, 1.0)
    scale = st.floats(0.5, 2.0)
    # well-conditioned lower-triangular factors
    below = np.array(draw(st.lists(unit, min_size=k * k, max_size=k * k))).reshape(k, k)
    b = np.tril(below, -1) + np.diag(draw(st.lists(scale, min_size=k, max_size=k)))
    e = np.array(draw(st.lists(unit, min_size=m * k, max_size=m * k))).reshape(m, k)
    f = np.diag(draw(st.lists(scale, min_size=m, max_size=m)))
    # A Sigma = B^-T diag(lams) B^T has eigenvalues lams exactly
    b_inv = np.linalg.inv(b)
    a = b_inv.T @ np.diag(lams) @ b_inv
    b_pad = np.block([[b, np.zeros((k, m))], [e, f]])
    a_pad = np.zeros((k + m, k + m))
    a_pad[:k, :k] = a
    return lams, (a, b @ b.T), (a_pad, b_pad @ b_pad.T)


@given(padded_problems())
@settings(max_examples=60, deadline=None)
def test_padding_leaves_law_and_bounds_unchanged(problem):
    lams, *forms = problem
    want = classify(QuadraticForm(np.diag(lams)), validate_covariance(np.eye(len(lams))))
    for a, sigma in forms:
        got = classify(QuadraticForm(a), validate_covariance(sigma))
        assert same_law(got.law, want.law), (got.law, want.law)
        assert same_law(got.lower_bound, want.lower_bound)
        assert got.upper_bound == want.upper_bound


class TestClassifyHigherDimension:
    def test_tetrad_kronecker(self):
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        cls = classify(tetrad_form(), validate_covariance(np.kron(s, s)))
        assert cls.law == FoldedBetaProduct(2, 2)
        assert cls.lower_bound == ScaledChiSquare(0.25, 1)
        assert cls.upper_bound == ScaledChiSquare(0.25, 4)

    def test_equal_spectrum_same_sign(self):
        cls = classify(QuadraticForm(np.eye(3)), validate_covariance(np.eye(3)))
        assert cls.law == ScaledChiSquare(0.25, 3)

    def test_mixed_unequal_is_monte_carlo_only(self):
        cls = classify(
            QuadraticForm(np.diag([1.0, 0.5, -0.3])), validate_covariance(np.eye(3))
        )
        assert cls.law is None
        assert cls.lower_bound is None
        assert cls.upper_bound == ScaledChiSquare(0.25, 3)
        assert "law=monte-carlo" in cls.machine_line()
        assert "conjectured" in cls.describe()

    def test_one_signed_unequal_keeps_lower_bound(self):
        cls = classify(
            QuadraticForm(np.diag([1.0, 0.5, 0.1])), validate_covariance(np.eye(3))
        )
        assert cls.law is None
        assert cls.lower_bound == ScaledChiSquare(0.25, 1)

    def test_negative_spectrum_same_as_positive(self):
        cls = classify(QuadraticForm(-np.eye(3)), validate_covariance(np.eye(3)))
        assert cls.law == ScaledChiSquare(0.25, 3)

    def test_split_spectrum_folded_beta(self):
        cls = classify(
            QuadraticForm(np.diag([1.0, 1.0, 1.0, -1.0])), validate_covariance(np.eye(4))
        )
        assert cls.law == FoldedBetaProduct(3, 1)

    def test_zero_eigenvalues_dropped(self):
        # A kills the third coordinate: spectrum reduces to dimension 2
        a = QuadraticForm(np.diag([1.0, 1.0, 0.0]))
        cls = classify(a, validate_covariance(np.eye(3)))
        assert cls.law == ScaledChiSquare(0.25, 2)
        assert cls.upper_bound == ScaledChiSquare(0.25, 2)

    def test_zero_form_on_support_rejected(self):
        a = QuadraticForm(np.diag([0.0, 0.0, 1.0]))
        sigma = np.zeros((3, 3))
        sigma[:2, :2] = np.eye(2)
        sigma[2, 2] = 1e-30
        with pytest.raises(ValueError):
            classify(a, validate_covariance(sigma + np.diag([1e-15, 1e-15, 0])))


class TestClassifyInvariances:
    def test_positive_scaling_preserves_law(self):
        a = np.diag([1.0, 1.0, -1.0])
        cov = validate_covariance(np.eye(3))
        base = classify(QuadraticForm(a), cov)
        scaled = classify(QuadraticForm(3.0 * a), cov)
        assert base.law == scaled.law
        assert base.lower_bound == scaled.lower_bound

    def test_negative_scaling_swaps_split(self):
        a = np.diag([1.0, 1.0, -1.0])
        cov = validate_covariance(np.eye(3))
        base = classify(QuadraticForm(a), cov)
        flipped = classify(QuadraticForm(-a), cov)
        assert base.law == FoldedBetaProduct(2, 1)
        assert flipped.law == FoldedBetaProduct(1, 2)
        # same distribution either way
        t = np.linspace(0.01, 8.0, 50)
        np.testing.assert_allclose(base.law.cdf(t), flipped.law.cdf(t), atol=1e-12)

    def test_orthogonal_congruence_preserves_eigenvalues(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2
        s = rng.standard_normal((4, 4))
        s = s @ s.T + 0.5 * np.eye(4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        base = classify(QuadraticForm(a), validate_covariance(s))
        moved = classify(
            QuadraticForm(q.T @ a @ q), validate_covariance(q.T @ s @ q)
        )
        np.testing.assert_allclose(
            base.eigenvalues, moved.eigenvalues, atol=1e-8
        )


class TestClassifiedLawsMatchSampler:
    @pytest.mark.parametrize(
        "a, sigma",
        [
            (np.array([[0.0, 0.5], [0.5, 0.0]]), [[1.0, 0.6], [0.6, 1.0]]),
            (np.array([[1.3, 0.2], [0.2, 0.9]]), [[1.0, -0.3], [-0.3, 2.0]]),
            (np.diag([1.0, 1.0, 1.0, -1.0]), np.eye(4)),
        ],
        ids=["split", "definite", "folded31"],
    )
    def test_sampler_agrees_with_emitted_law(self, a, sigma):
        cov = validate_covariance(sigma)
        cls = classify(QuadraticForm(a), cov)
        f = QuadraticForm(a).to_polynomial()
        emp = sample_wald(f, cov, WaldSampleConfig(n=4 * 10**5, seed=22))
        assert ks_distance(emp, cls.law) < 3.0 / np.sqrt(emp.n)


class TestSampleCanonical:
    def test_single_eigenvalue_quarter_chi1(self):
        emp = sample_canonical([1.0], 4 * 10**5, 23)
        assert ks_distance(emp, ScaledChiSquare(0.25, 1)) < 3.0 / np.sqrt(emp.n)

    def test_balanced_four_matches_tetrad(self):
        emp = sample_canonical([1.0, 1.0, -1.0, -1.0], 4 * 10**5, 24)
        assert ks_distance(emp, TetradSingular()) < 3.0 / np.sqrt(emp.n)

    def test_scaling_shared_seed_identical(self):
        lams = np.array([1.0, 0.3, -0.6])
        base = sample_canonical(lams, 5000, 25)
        for c in (2.0, -2.0, 0.5):
            moved = sample_canonical(c * lams, 5000, 25)
            assert np.array_equal(base.values, moved.values), c

    def test_scaling_general_close(self):
        lams = np.array([1.0, 0.3, -0.6])
        base = sample_canonical(lams, 5000, 26)
        moved = sample_canonical(3.0 * lams, 5000, 26)
        np.testing.assert_allclose(base.values, moved.values, rtol=1e-12)

    def test_envelope_checked_in_sampler(self):
        # every draw stays below its Cauchy-Schwarz cap sum(Z^2)/4, and the
        # sampler returns exactly these draws, sorted
        lams = np.array([1.0, -0.4, 0.2])
        z2 = make_generator(27, 0).standard_normal((10**5, 3)) ** 2
        w = (z2 @ lams) ** 2 / (4.0 * (z2 @ lams**2))
        envelope = 0.25 * z2.sum(axis=1)
        assert np.all(w - envelope <= 1e-12 * np.maximum(1.0, envelope))
        assert np.sort(w).tobytes() == sample_canonical(lams, 10**5, 27).values.tobytes()

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_canonical([0.0, 0.0], 100, 1)


class TestKAlpha:
    def test_published_table(self):
        got = [k_alpha(a) for a in (0.05, 0.025, 0.01, 0.005, 0.001)]
        assert got == [7, 11, 16, 20, 29]

    def test_published_table_exceedance_is_capped_at_five_percent(self):
        # oracle view of what the published values satisfy
        for a, k in zip((0.025, 0.01, 0.005, 0.001), (11, 16, 20, 29)):
            c = stats.chi2.ppf(1 - a, 1)
            assert stats.chi2.sf(4 * c, k) <= 0.05
            assert stats.chi2.sf(4 * c, k + 1) > 0.05

    def test_range_validation(self):
        with pytest.raises(ValueError):
            k_alpha(0.0)
        with pytest.raises(ValueError):
            k_alpha(0.5)


def test_classify_machine_line_format():
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    cls = classify(tetrad_form(), validate_covariance(np.kron(s, s)))
    line = cls.machine_line()
    assert line.startswith("law=beta-fold:2:2 eigenvalues=")
    assert "lower=scaled-chisq:0.25:1" in line
    assert "upper=scaled-chisq:0.25:4" in line


def test_classify_polynomial_entry_point(tetrad_form):
    # classify the tetrad form built from its polynomial, not the matrix
    s = np.array([[2.0, 0.4], [0.4, 1.0]])
    cls = classify(tetrad_form.to_quadratic_form(), validate_covariance(np.kron(s, s)))
    assert cls.law == FoldedBetaProduct(2, 2)
