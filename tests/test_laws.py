import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from conftest import peak_bytes
from scipy import integrate, special, stats

from singwald.laws import (
    EmpiricalDistribution,
    FoldedBetaProduct,
    ScaledChiSquare,
    TetradSingular,
    TwoChiSquareMix,
    chi2_cdf,
    monomial_law,
    parse_law,
    sample_stable,
    stable_cdf,
    tetrad_singular_cdf,
    tetrad_singular_sf,
)
from singwald.poly import MonomialForm


def stable_density(alpha, x):
    """Reference: the index-half stable density
    alpha/sqrt(2 pi) * x^(-3/2) * exp(-alpha^2/(2x)) for x > 0."""
    x = np.asarray(x, dtype=float)
    out = alpha / np.sqrt(2.0 * np.pi) * x**-1.5 * np.exp(-0.5 * alpha**2 / x)
    return float(out) if out.ndim == 0 else out


ALL_LAWS = [
    ScaledChiSquare(0.25, 1),
    ScaledChiSquare(1.0, 1),
    ScaledChiSquare(0.04, 1),
    TwoChiSquareMix(0.25, 0.2),
    TwoChiSquareMix(0.25, 0.0),
    TetradSingular(),
    FoldedBetaProduct(2, 2),
    FoldedBetaProduct(3, 1),
]


# the tail probabilities of the pinned ``wald quantile --probs`` tables
PINNED_TAIL_PROBS = (1e-12, 1e-9, 1e-6, 0.999999, 0.999999999, 0.999999999999)


class StableLaw:
    """The index-half stable law through the CDF adapter ``verify`` hands
    to ``ks_distance``, with the law's own draws."""

    def __init__(self, alpha: float):
        self.alpha = alpha

    def cdf(self, t):
        return stable_cdf(self.alpha, t)

    def sample(self, n: int, seed: int) -> EmpiricalDistribution:
        return EmpiricalDistribution.from_samples(sample_stable(self.alpha, n, seed))

    def spec_string(self) -> str:
        return f"stable:{self.alpha:g}"


# Every CDF ``verify`` measures a KS distance against.
ALL_CDFS = [*ALL_LAWS, StableLaw(1.3)]


class TestKernels:
    def test_chi2_cdf_against_mpmath(self):
        # independent special-function route: regularized lower gamma in
        # 50-digit arithmetic
        mpmath.mp.dps = 50
        for df in (1, 2, 3, 4, 7):
            for x in (0.01, 0.5, 3.8414588206941254, 20.0):
                want = float(mpmath.gammainc(df / 2, 0, x / 2, regularized=True))
                assert chi2_cdf(x, df) == pytest.approx(want, abs=1e-13)

    def test_chi2_cdf_zero_and_negative(self):
        assert chi2_cdf(0.0, 1) == 0.0
        assert chi2_cdf(-1.0, 3) == 0.0


class TestTetradSingularCdf:
    def test_support_starts_at_zero(self):
        assert tetrad_singular_cdf(0.0) == 0.0
        assert tetrad_singular_cdf(-0.5) == 0.0
        assert tetrad_singular_sf(0.0) == 1.0
        assert tetrad_singular_sf(-0.5) == 1.0

    def test_valid_cdf_on_grid(self):
        t = np.linspace(0.0, 20.0, 1000)
        f = tetrad_singular_cdf(t)
        assert f[0] == 0.0
        # nondecreasing up to one ulp of cancellation noise at F ~ 1
        assert np.all(np.diff(f) >= -1e-15)
        assert f[-1] > 0.9999

    def test_against_mpmath(self):
        mpmath.mp.dps = 40
        for t in (0.05, 0.5, 1.2156245969877637, 5.0):
            want = float(
                1
                - mpmath.e ** (-2 * t)
                + mpmath.sqrt(2 * mpmath.pi * t) * (1 - mpmath.ncdf(2 * mpmath.sqrt(t)))
            )
            assert tetrad_singular_cdf(t) == pytest.approx(want, abs=1e-14)

    def test_against_monte_carlo(self):
        # oracle: direct simulation of the quarter chi-square-4 times squared
        # uniform product
        rng = np.random.default_rng(20240817)
        n = 2 * 10**6
        w = 0.25 * rng.chisquare(4, n) * rng.random(n) ** 2
        assert tetrad_singular_cdf(0.5) == pytest.approx(
            np.mean(w <= 0.5), abs=0.001
        )


class TestScaledChiSquare:
    def test_scaling_identity_at_quantile(self):
        # c = chi2_1 0.95 quantile / 4 puts the quarter law at exactly 0.95
        c = stats.chi2.ppf(0.95, 1) / 4.0
        assert ScaledChiSquare(0.25, 1).cdf(c) == pytest.approx(0.95, abs=1e-12)

    def test_quantile_against_reference(self):
        # 3.8415 from the standard chi-square table, recomputed by an
        # independent inverse routine
        want = float(stats.chi2.ppf(0.95, 1))
        assert ScaledChiSquare(1.0, 1).quantile(0.95) == pytest.approx(want, abs=1e-9)
        assert want == pytest.approx(3.8415, abs=1e-4)

    @pytest.mark.parametrize("df", [*range(1, 7), 7, 12, 25, 60])
    def test_quantile_against_mpmath(self, df):
        # the tails invert the regularized gamma functions on their own side,
        # so p = 1 - 1e-12 keeps full relative accuracy.  Reference: one
        # Newton step in 40 digits from the returned value, taken on the
        # exact binary p; its own error is of the order of rel^2.
        with mpmath.workdps(40):
            a = mpmath.mpf(df) / 2
            for p in (1e-12, 0.5, 1 - 1e-9, 1 - 1e-12):
                got = ScaledChiSquare(0.25, df).quantile(p)
                x = 2 * mpmath.mpf(got)  # got / (2 * scale), the gamma argument
                if p > 0.5:
                    resid = mpmath.gammainc(a, x, mpmath.inf, regularized=True) - (1 - mpmath.mpf(p))
                else:
                    resid = mpmath.mpf(p) - mpmath.gammainc(a, 0, x, regularized=True)
                density = x ** (a - 1) * mpmath.exp(-x) / mpmath.gamma(a)
                want = x + resid / density
                assert float(abs(x / want - 1)) <= 1e-12, (df, p, got)

    def test_sample_mean(self):
        emp = ScaledChiSquare(0.25, 1).sample(10**6, 31)
        assert emp.mean() == pytest.approx(0.25, abs=0.005)

    def test_t_over_a_tiny_scale_overflows_to_the_tail(self):
        # t / scale = inf is F = 1 and sf = 0, without a float warning
        law = ScaledChiSquare(1e-300, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert law.sf(1e10) == 0.0
            assert law.cdf(1e10) == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ScaledChiSquare(0.0, 1)
        with pytest.raises(ValueError):
            ScaledChiSquare(1.0, 0)


class TestTwoChiSquareMix:
    def test_degenerate_second_weight_matches_scaled(self):
        t = np.linspace(0.0, 10.0, 501)
        got = TwoChiSquareMix(0.3, 0.0).cdf(t)
        want = ScaledChiSquare(0.3, 1).cdf(t)
        assert np.abs(got - want).max() < 1e-8

    def test_against_adaptive_quadrature(self):
        # oracle: direct adaptive integration of the conditional CDF against
        # the normal density
        def reference(t, w1, w2):
            zm = np.sqrt(t / w2)
            v, _ = integrate.quad(
                lambda z: stats.chi2.cdf((t - w2 * z * z) / w1, 1)
                * stats.norm.pdf(z),
                0.0,
                min(zm, 40.0),
                epsabs=1e-13,
                limit=500,
            )
            return 2.0 * v

        for w1, w2 in ((0.25, 0.2), (0.25, 0.01), (1.0, 0.8), (0.25, 1e-5)):
            law = TwoChiSquareMix(w1, w2)
            for t in (0.01, 0.3, 1.0, 4.0, 12.0):
                assert law.cdf(t) == pytest.approx(
                    reference(t, w1, w2), abs=2e-9
                ), (w1, w2, t)

    def test_sampler_matches_cdf(self):
        law = TwoChiSquareMix(0.25, 0.17)
        emp = law.sample(4 * 10**5, 77)
        i = np.arange(1, emp.n + 1)
        f = law.cdf(emp.values)
        d = max((i / emp.n - f).max(), (f - (i - 1) / emp.n).max())
        assert d < 3.0 / np.sqrt(emp.n)

    def test_mean(self):
        assert TwoChiSquareMix(0.25, 0.1).mean() == pytest.approx(0.35)


def mix2_cdf_legendre(t, w1, w2):
    """The previous mix2 rule, kept as an oracle: the chi-square-1 CDF
    integrated against the normal density of the second component with two
    128-node Gauss-Legendre branches."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    res = np.empty_like(tp)
    zcut = 8.5
    nodes, weights = np.polynomial.legendre.leggauss(128)
    narrow = np.sqrt(tp / w2) <= zcut
    tn = tp[narrow]
    theta = (np.pi / 4.0) * (nodes + 1.0)
    s2, c = np.sin(theta) ** 2, np.cos(theta)
    integ = (
        np.exp(-np.outer(tn, s2) / (2.0 * w2))
        * special.erf(np.sqrt(np.outer(tn, c * c) / (2.0 * w1)))
        * c[None, :]
    )
    res[narrow] = np.sqrt(2.0 * tn / (np.pi * w2)) * (integ @ ((np.pi / 4.0) * weights))
    tw = tp[~narrow]
    z = (zcut / 2.0) * (nodes + 1.0)
    phi = np.exp(-z * z / 2.0) / np.sqrt(2.0 * np.pi)
    args = (tw[:, None] - w2 * z[None, :] ** 2) / (2.0 * w1)
    integ = special.erf(np.sqrt(np.maximum(args, 0.0))) * phi[None, :]
    res[~narrow] = 2.0 * (integ @ ((zcut / 2.0) * weights))
    out[pos] = np.clip(res, 0.0, 1.0)
    return out


def mix2_sf_mpmath(t, w1, w2):
    """1 - F(t) = (2/pi) * int_0^{pi/2} exp(-t / (2 q(theta))) dtheta with
    q = w1 cos^2 + w2 sin^2, by adaptive quadrature at 30 digits, split at
    the angle where q changes over."""
    with mpmath.workdps(30):
        w1, w2, t = mpmath.mpf(w1), mpmath.mpf(w2), mpmath.mpf(t)
        f = lambda th: mpmath.exp(-t / (2 * (w1 * mpmath.cos(th) ** 2 + w2 * mpmath.sin(th) ** 2)))
        mid = mpmath.atan(mpmath.sqrt(w1 / w2))
        width = mpmath.sqrt(min(w1, w2) / max(w1, w2))
        cuts = {mid + k * width for k in (-10, -1, 0, 1, 10)}
        pts = [0] + sorted(c for c in cuts if 0 < c < mpmath.pi / 2) + [mpmath.pi / 2]
        return 2 / mpmath.pi * mpmath.quad(f, pts)


def mix2_cdf_mpmath(t, w1, w2):
    with mpmath.workdps(30):
        return float(1 - mix2_sf_mpmath(t, w1, w2))


MIX2_RATIOS = (1.0, 0.8, 0.05, 1e-3, 1e-5, 1e-8)
MIX2_GRID = [(0.25, 0.25 * r) for r in MIX2_RATIOS] + [
    (0.25 * r, 0.25) for r in MIX2_RATIOS[1:]
]


def mix2_points(law, count):
    """Points from 1e-9 to the 1 - 1e-9 quantile, log-spaced."""
    return np.geomspace(1e-9, law.quantile(1.0 - 1e-9), count)


class TestMix2AngleRule:
    """Certification of the one-exponential angle rule behind
    ``TwoChiSquareMix.cdf``."""

    @pytest.mark.parametrize("w1, w2", MIX2_GRID)
    def test_against_mpmath_angle_integral(self, w1, w2):
        law = TwoChiSquareMix(w1, w2)
        t = mix2_points(law, 13)
        want = np.array([mix2_cdf_mpmath(v, w1, w2) for v in t])
        assert np.abs(law.cdf(t) - want).max() <= 1e-12

    @pytest.mark.parametrize("ratio", [1e-6, 0.05, 0.8])
    def test_sf_keeps_its_relative_accuracy_in_the_tail(self, ratio):
        # the sum of the upper terms w_j * Q, not 1 - F, which at t = 40 is
        # a multiple of 2^-53 against an sf of 2.5e-10
        law, t = TwoChiSquareMix(1.0, ratio), np.geomspace(1e-3, 40.0, 13)
        want = np.array([float(mix2_sf_mpmath(v, 1.0, ratio)) for v in t])
        assert np.abs(law.sf(t) / want - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("w1, w2", MIX2_GRID)
    def test_against_legendre_rule(self, w1, w2):
        # the Legendre rule is accurate only with the larger weight first
        # (off by 2.7e-9 at mix2:2.5e-9:0.25), so it gets them in that order
        law = TwoChiSquareMix(w1, w2)
        t = mix2_points(law, 2000)
        want = mix2_cdf_legendre(t, max(w1, w2), min(w1, w2))
        assert np.abs(law.cdf(t) - want).max() <= 1e-12

    @pytest.mark.parametrize("w1, w2", MIX2_GRID)
    def test_starts_at_zero_and_never_decreases(self, w1, w2):
        law = TwoChiSquareMix(w1, w2)
        t = np.concatenate([[-1.0, 0.0], mix2_points(law, 5000), [1e3, 1e300, np.inf]])
        f = law.cdf(t)
        assert f[0] == 0.0 and f[1] == 0.0
        assert np.all(np.diff(f) >= 0.0)
        assert f[-1] == 1.0 and f.max() <= 1.0

    @pytest.mark.parametrize("ratio", MIX2_RATIOS)
    def test_symmetric_in_the_weights(self, ratio):
        a, b = 0.25, 0.25 * ratio
        t = mix2_points(TwoChiSquareMix(a, b), 3000)
        np.testing.assert_array_equal(
            TwoChiSquareMix(a, b).cdf(t), TwoChiSquareMix(b, a).cdf(t)
        )

    def test_scalar_and_array_agree(self):
        law = TwoChiSquareMix(0.25, 0.17)
        t = np.linspace(0.0, 3.0, 7)
        assert law.cdf(t).tolist() == [law.cdf(float(v)) for v in t]
        assert law.cdf(t.reshape(7, 1)).shape == (7, 1)

    def test_memory_is_blocked(self):
        law = TwoChiSquareMix(0.25, 0.2)
        t = np.linspace(0.0, 5.0, 10**6)
        law.cdf(t[:10])
        _, peak = peak_bytes(lambda: law.cdf(t))
        # the 8 MB output plus a few 128 KB tile temporaries: a whole-array
        # copy of t / w_hi (8 MB more) would not fit
        assert peak < 12 * 2**20

    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_power_of_two_weights_scale_the_cdf_exactly(self, k):
        # the shape is the weight ratio alone and scaling by 2^k is exact,
        # so the scaled law at 2^k t is the unscaled law at t, bit for bit
        s, t = 2.0**k, 0.01 * np.arange(4001)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = TwoChiSquareMix(s * 0.25, s * 0.2).cdf(s * t)
        np.testing.assert_array_equal(got, TwoChiSquareMix(0.25, 0.2).cdf(t))

    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_power_of_two_weights_scale_the_quantiles(self, k):
        s = 2.0**k
        probs = list(0.005 * np.arange(1, 200)) + [1e-12, 1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]
        law, scaled = TwoChiSquareMix(0.25, 0.2), TwoChiSquareMix(s * 0.25, s * 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = np.array([scaled.quantile(p) for p in probs])
        want = s * np.array([law.quantile(p) for p in probs])
        assert np.abs(got / want - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("w", [1e300, 1e-300])
    def test_equal_weights_at_the_ends_of_the_float_range(self, w):
        # w*Z1^2 + w*Z2^2 is w * chi-square-2: F(t) = 1 - exp(-t / (2w))
        t = w * np.arange(4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = TwoChiSquareMix(w, w).cdf(t)
        np.testing.assert_allclose(got, -np.expm1(-np.arange(4.0) / 2.0), rtol=1e-14, atol=0.0)

    def test_tiny_larger_weight_with_a_small_ratio_scales_t(self):
        # the rates never meet w_hi: each tile of t is divided by it, which
        # is exact here as it is at 1, so the law at t is the law of weights
        # (1, ratio) at t / w_hi, bit for bit
        law, t = TwoChiSquareMix(1e-300, 1e-315), 1e-300 * np.arange(0.0, 40.0, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = law.cdf(t)
            median = law.quantile(0.5)
        np.testing.assert_array_equal(got, TwoChiSquareMix(1.0, 1e-315 / 1e-300).cdf(t / 1e-300))
        assert got[0] == 0.0 and np.all(np.diff(got) >= 0.0) and got[-1] <= 1.0
        assert law.cdf(median) == pytest.approx(0.5, abs=1e-12)

    def test_integer_weights_beyond_int64_scale_like_floats(self):
        # parse_law keeps an integer token as an int; w_hi = 2^1000 divides t
        # as the float it equals
        law = parse_law(f"mix2:{2**1000}:{2**998}")
        t = 2.0**1000 * np.arange(0.0, 40.0, 0.01)
        np.testing.assert_array_equal(law.cdf(t), TwoChiSquareMix(2.0**1000, 2.0**998).cdf(t))

    def test_zero_weight_quantiles_are_the_scaled_chi_square_quantiles(self):
        # below the smallest ratio the law is ScaledChiSquare(w_hi, 1), its
        # sf and log-density too, so the root finder sees the same floats
        probs = [*np.round(0.005 * np.arange(1, 200), 12), *PINNED_TAIL_PROBS]
        got = [TwoChiSquareMix(0.25, 0.0).quantile(p) for p in probs]
        assert got == [ScaledChiSquare(0.25, 1).quantile(p) for p in probs]

    @pytest.mark.parametrize("spec", ["mix2:1e-300:1e-315", f"mix2:{2**1000}:{2**998}",
                                      f"mix2:{2.0**1000}:{2.0**1000 * 1e-15}"])
    def test_quantiles_at_the_ends_of_the_float_range_raise_no_warning(self, spec):
        # the rates reach 5e14 at a ratio of 1e-15, so r_j / w_hi would
        # overflow at w_hi = 1e-300; the log-density never forms it
        law = parse_law(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (1e-12, 1e-6, 0.3, 0.5, 0.9, *PINNED_TAIL_PROBS[3:]):
                q = law.quantile(p)
                side = law.sf(q) if p > 0.5 else law.cdf(q)
                assert side == pytest.approx(min(p, 1.0 - p), rel=1e-9), (p, q)

    def test_tiny_ratio_takes_the_larger_weight(self):
        # below a ratio of 1e-16 the law is evaluated as chi-square-1 scaled
        # by the larger weight, within (2/pi)*sqrt(ratio) of the mixture
        t = np.geomspace(1e-20, 10.0, 9)
        for w1, w2 in ((0.25, 1e-18), (1e-18, 0.25)):
            got = TwoChiSquareMix(w1, w2).cdf(t)
            np.testing.assert_array_equal(got, ScaledChiSquare(0.25, 1).cdf(t))
            want = np.array([mix2_cdf_mpmath(v, w1, w2) for v in t])
            assert np.abs(got - want).max() <= 2.0 / np.pi * np.sqrt(4e-18)


class TestFoldedBetaProduct:
    def test_two_two_equals_tetrad_singular(self):
        t = np.linspace(1e-6, 20.0, 400)
        diff = np.abs(FoldedBetaProduct(2, 2).cdf(t) - tetrad_singular_cdf(t))
        assert diff.max() < 1e-10

    def test_symmetry_in_parameters(self):
        t = np.linspace(0.01, 12.0, 200)
        diff = np.abs(FoldedBetaProduct(3, 1).cdf(t) - FoldedBetaProduct(1, 3).cdf(t))
        assert diff.max() < 1e-12

    def test_against_adaptive_quadrature(self):
        def reference(t, k1, k2):
            f = lambda b: stats.chi2.cdf(
                4 * t / (2 * b - 1) ** 2 if b != 0.5 else np.inf, k1 + k2
            ) * stats.beta.pdf(b, k1 / 2, k2 / 2)
            v, _ = integrate.quad(f, 0.0, 1.0, points=[0.5], epsabs=1e-12, limit=500)
            return v

        for k1, k2 in ((1, 1), (2, 2), (3, 1), (4, 3), (2, 6)):
            law = FoldedBetaProduct(k1, k2)
            for t in (0.01, 0.2, 1.0, 5.0):
                assert law.cdf(t) == pytest.approx(
                    reference(t, k1, k2), abs=2e-9
                ), (k1, k2, t)

    def test_small_argument_matches_closed_form(self):
        # adaptive quadrature loses the narrow spike below t ~ 1e-8; the
        # closed form of the (2,2) case pins the panel rule there
        for t in (1e-10, 1e-8, 1e-6):
            assert FoldedBetaProduct(2, 2).cdf(t) == pytest.approx(
                tetrad_singular_cdf(t), rel=1e-6, abs=1e-15
            )

    def test_sampler_two_sample_against_tetrad(self):
        a = FoldedBetaProduct(2, 2).sample(10**6, 5)
        b = TetradSingular().sample(10**6, 6)
        pooled = np.concatenate([a.values, b.values])
        fa = np.searchsorted(a.values, pooled, side="right") / a.n
        fb = np.searchsorted(b.values, pooled, side="right") / b.n
        assert np.abs(fa - fb).max() < 0.003

    def test_mean_formula(self):
        # E = (k/4) E[(2B-1)^2]; for (2,2) that is 1/3
        assert FoldedBetaProduct(2, 2).mean() == pytest.approx(1.0 / 3.0)
        rng = np.random.default_rng(12)
        emp = 0.25 * rng.chisquare(4, 10**6) * (2 * rng.beta(1.5, 0.5, 10**6) - 1) ** 2
        assert FoldedBetaProduct(3, 1).mean() == pytest.approx(emp.mean(), abs=0.01)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FoldedBetaProduct(0, 2)

    def test_integral_float_parameters_are_the_integer_law(self):
        law = FoldedBetaProduct(2.0, 2.0)
        assert (law.k1, law.k2) == (2, 2) and type(law.k1) is int
        assert law.cdf(0.5) == FoldedBetaProduct(2, 2).cdf(0.5)

    def test_memory_is_blocked(self):
        law = FoldedBetaProduct(3, 1)
        t = np.linspace(0.0, 10.0, 10**5)
        law.cdf(t[:10])
        _, peak = peak_bytes(lambda: law.cdf(t))
        # the 0.8 MB output plus a few 128 KB tile temporaries, not a
        # points-by-nodes matrix
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("k1", range(1, 7))
    @pytest.mark.parametrize("k2", range(1, 7))
    def test_starts_at_zero_and_never_decreases(self, k1, k2):
        # no clipping: exact weights and one fixed summation order keep F
        # in [0, 1] and monotone, from the sliver's scale up to the tail
        t = np.unique(np.concatenate([[0.0], np.geomspace(1e-10, 40.0, 1500),
                                      np.linspace(0.0, 40.0, 1001)]))
        f = FoldedBetaProduct(k1, k2).cdf(t)
        assert f[0] == 0.0
        assert 0.0 <= f.min() and f.max() <= 1.0
        assert np.all(np.diff(f) >= 0.0)
        # far below the sliver's scale, where F is under an ulp of 1
        tiny = FoldedBetaProduct(k1, k2).cdf(np.geomspace(1e-300, 1e-10, 2000))
        assert 0.0 <= tiny.min() and tiny.max() <= 1e-4
        assert np.all(np.diff(tiny) >= 0.0)


class TestTetradSingularLaw:
    def test_sample_mean_is_one_third(self):
        emp = TetradSingular().sample(10**6, 9)
        assert emp.mean() == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_quantile_against_empirical(self):
        law = TetradSingular()
        q = law.quantile(0.95)
        emp = law.sample(10**6, 10)
        # the empirical 0.95 quantile: the ceil(0.95 n)-th smallest draw
        assert q == pytest.approx(emp.values[int(np.ceil(0.95 * emp.n)) - 1], abs=0.01)

    def test_quantile_against_mpmath(self):
        # above the median the quantile roots the survival function, so it
        # keeps full relative accuracy up to p = 1 - 1e-12.  Reference: a
        # 40-digit root of 1 - F(t) = 1 - p on the exact binary p.
        def sf(t):
            return mpmath.exp(-2 * t) - mpmath.sqrt(2 * mpmath.pi * t) * mpmath.erfc(mpmath.sqrt(2 * t)) / 2

        with mpmath.workdps(40):
            for p in (0.5, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12):
                got = TetradSingular().quantile(p)
                tail = 1 - mpmath.mpf(p)
                want = mpmath.findroot(lambda t: sf(t) - tail, mpmath.mpf(got))
                assert float(abs(got / want - 1)) <= 1e-12, (p, got)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.spec_string())
def test_log_pdf_is_the_slope_of_the_cdf(law):
    # a central difference of the small side at relative step 1e-4, whose
    # error is about 1e-8 of the slope
    for p in (1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-6):
        t = law.quantile(p)
        h = 1e-4 * t
        if p > 0.5:
            slope = (law.sf(t - h) - law.sf(t + h)) / (2.0 * h)
        else:
            slope = (law.cdf(t + h) - law.cdf(t - h)) / (2.0 * h)
        assert math.exp(law._log_pdf(t)) == pytest.approx(slope, rel=1e-6), (p, t)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.spec_string())
def test_quantiles_take_few_side_evaluations(law, monkeypatch):
    # Newton steps on every law: the 199 grid and 6 tail probabilities of
    # the pinned tables cost at most 1,150 cdf and sf calls in all
    calls = [0]
    for name in ("cdf", "sf"):
        def counted(self, t, side=getattr(type(law), name)):
            calls[0] += 1
            return side(self, t)
        monkeypatch.setattr(type(law), name, counted)
    for p in [*np.round(0.005 * np.arange(1, 200), 12), *PINNED_TAIL_PROBS]:
        law.quantile(float(p))
    assert calls[0] <= 1150


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.spec_string())
def test_cdf_quantile_round_trip(law):
    for p in np.arange(0.01, 1.0, 0.07):
        q = law.quantile(float(p))
        assert float(law.cdf(q)) == pytest.approx(p, abs=1e-8)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.spec_string())
def test_small_p_quantile_keeps_relative_accuracy(law):
    # the lower tail roots cdf(t) = p with a relative stopping rule, so a
    # root far below 1 is found to the accuracy of the CDF itself
    for p in (1e-12, 1e-9, 1e-6, 1e-3):
        q = law.quantile(p)
        assert q > 0.0, p
        assert abs(float(law.cdf(q)) / p - 1.0) <= 1e-9, (p, q)


@pytest.mark.parametrize("law, unit, scale, p", [
    # the hazard sf'/sf passes e^709 at a subnormal scale
    (ScaledChiSquare(1e-320, 1), ScaledChiSquare(1.0, 1), 1e-320, 0.7),
    (TwoChiSquareMix(5e-324, 5e-324), TwoChiSquareMix(1.0, 1.0), 5e-324, 0.7),
    # a lower-side root above e^709
    (TwoChiSquareMix(1.7e308, 1e308), TwoChiSquareMix(1.7, 1.0), 1e308, 0.3),
], ids=lambda v: v.spec_string() if hasattr(v, "spec_string") else None)
def test_newton_steps_at_the_ends_of_the_float_range(law, unit, scale, p):
    # the root finder caps the exp of a log-slope and of a log-step where
    # it would overflow; the root is the unit law's, scaled, to within the
    # spacing of the subnormals
    assert law.quantile(p) == pytest.approx(scale * unit.quantile(p), rel=1e-12, abs=1e-323)


@pytest.mark.parametrize("law", ALL_CDFS, ids=lambda l: l.spec_string())
def test_cdf_of_a_point_does_not_depend_on_the_others(law):
    # the kernels group points and nodes by call size; each value must be
    # bitwise the same alone, in a short call and in a block-filling one
    t = np.concatenate([np.geomspace(1e-12, 1.0, 30), np.linspace(0.0, 30.0, 30)])
    alone = np.array([law.cdf(v) for v in t])
    np.testing.assert_array_equal(law.cdf(t), alone)
    np.testing.assert_array_equal(law.cdf(np.tile(t, 700))[: t.size], alone)


@pytest.mark.parametrize("law", ALL_CDFS, ids=lambda l: l.spec_string())
def test_cdf_is_nondecreasing_on_a_million_sorted_draws(law):
    # ks_distance bounds the draws between two evaluated ones by this
    # property; its 1e-12 margin covers rounding, not a CDF that falls
    f = np.asarray(law.cdf(law.sample(10**6, 29).values), dtype=float)
    assert np.all(np.diff(f) >= 0.0)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.spec_string())
def test_cdf_is_monotone_and_normalized(law):
    t = np.linspace(0.0, 60.0, 400)
    f = np.asarray(law.cdf(t), dtype=float)
    assert float(f[0]) == 0.0
    assert np.all(np.diff(f) >= -1e-12)
    assert f[-1] > 0.999


class TestMonomialLaw:
    def test_unit_exponents(self):
        law = monomial_law(MonomialForm((1.0, 1.0)))
        assert law == ScaledChiSquare(0.25, 1)

    def test_two_three(self):
        law = monomial_law(MonomialForm((2.0, 3.0)))
        assert law.scale == pytest.approx(1.0 / 25.0)

    def test_three_units(self):
        law = monomial_law(MonomialForm((1.0, 1.0, 1.0)))
        assert law.scale == pytest.approx(1.0 / 9.0)


class TestStable:
    def test_density_values(self):
        # the CDF's slope at two points equals the density formula there
        for alpha, x, want in (
            (1.0, 1.0, np.exp(-0.5) / np.sqrt(2 * np.pi)),
            (2.0, 4.0, (2.0 / np.sqrt(2 * np.pi)) * (1.0 / 8.0) * np.exp(-0.5)),
        ):
            assert stable_density(alpha, x) == pytest.approx(want, abs=1e-12)
            h = 1e-5 * x
            slope = (stable_cdf(alpha, x + h) - stable_cdf(alpha, x - h)) / (2 * h)
            assert slope == pytest.approx(want, rel=1e-8)

    def test_density_integrates_to_cdf(self):
        val, _ = integrate.quad(lambda x: stable_density(1.5, x), 1e-12, 10.0)
        assert val == pytest.approx(stable_cdf(1.5, 10.0), abs=1e-8)

    def test_law_of_reciprocal_squared_normal(self):
        draws = sample_stable(1.0, 10**6, 21)
        emp = EmpiricalDistribution.from_samples(draws)
        f = stable_cdf(1.0, emp.values)
        i = np.arange(1, emp.n + 1)
        d = max((i / emp.n - f).max(), (f - (i - 1) / emp.n).max())
        assert d < 0.003

    def test_convolution_rule(self):
        a, b = 0.7, 1.3
        total = sample_stable(a, 10**6, 22) + sample_stable(b, 10**6, 23)
        emp = EmpiricalDistribution.from_samples(total)
        f = stable_cdf(a + b, emp.values)
        i = np.arange(1, emp.n + 1)
        d = max((i / emp.n - f).max(), (f - (i - 1) / emp.n).max())
        assert d < 0.003

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_alpha_must_be_positive_and_finite(self, alpha):
        message = f"^alpha must be positive and finite, got {alpha}$"
        with pytest.raises(ValueError, match=message):
            stable_cdf(alpha, [0.5, 1.0, 2.0])
        with pytest.raises(ValueError, match=message):
            sample_stable(alpha, 10, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            stable_cdf(-1.0, 1.0)
        with pytest.raises(ValueError):
            sample_stable(0.0, 10, 1)
        np.testing.assert_array_equal(stable_cdf(1.0, np.array([-2.0, 0.0])), [0.0, 0.0])


class TestEmpiricalDistribution:
    def test_sorted_and_cdf(self):
        emp = EmpiricalDistribution.from_samples([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(emp.values, [1.0, 2.0, 3.0])
        assert emp.cdf(2.0) == pytest.approx(2.0 / 3.0)
        assert emp.cdf(0.0) == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution.from_samples([1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution.from_samples([1.0, np.nan])

    def test_sorts_a_float64_buffer_in_place(self):
        buf = np.array([3.0, 1.0, 2.0])
        emp = EmpiricalDistribution.from_samples(buf)
        assert np.shares_memory(emp.values, buf)
        np.testing.assert_array_equal(buf, [1.0, 2.0, 3.0])
        assert not buf.flags.writeable


class TestSpecStrings:
    @pytest.mark.parametrize(
        "spec",
        ["scaled-chisq:0.25:1", "mix2:0.25:0.2", "beta-fold:2:2", "tetrad"],
    )
    def test_round_trip(self, spec):
        assert parse_law(spec).spec_string() == spec

    @pytest.mark.parametrize(
        "bad", ["gauss", "scaled-chisq:1", "mix2:a:b", "beta-fold:2", "tetrad:1"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_law(bad)

    @pytest.mark.parametrize("law, spec", [
        (ScaledChiSquare(0.25, 2.0), "scaled-chisq:0.25:2"),
        (FoldedBetaProduct(2.0, 2.0), "beta-fold:2:2"),
    ])
    def test_integral_float_parameters_round_trip(self, law, spec):
        assert law.spec_string() == spec
        assert parse_law(spec) == law

    @pytest.mark.parametrize("law", [
        *ALL_LAWS, ScaledChiSquare(0.25, 2), ScaledChiSquare(0.25, 3),
        FoldedBetaProduct(2, 1), FoldedBetaProduct(1, 1),
    ], ids=lambda l: l.spec_string())
    def test_every_law_reads_back_from_its_spec(self, law):
        assert parse_law(law.spec_string()) == law

    @pytest.mark.parametrize("spec, law", [
        ("scaled-chisq:0.25:2.0", ScaledChiSquare(0.25, 2)),
        ("beta-fold:2.0:2", FoldedBetaProduct(2, 2)),
        # an integer token is never rounded through a float
        ("beta-fold:9007199254740993:+9007199254740995", FoldedBetaProduct(2**53 + 1, 2**53 + 3)),
    ])
    def test_integral_tokens_parse_exactly(self, spec, law):
        got = parse_law(spec)
        assert got == law and got._values() == law._values()

    @pytest.mark.parametrize("spec, message", [
        ("beta-fold:2.5:2", "bad law spec 'beta-fold:2.5:2': k1 must be a positive integer, got 2.5"),
        ("gauss", "bad law spec 'gauss'; expected scaled-chisq:SCALE:DF, mix2:W1:W2, "
                  "beta-fold:K1:K2, tetrad"),
        # an integer beyond the float range is no finite weight
        (f"mix2:{10**400}:1", f"bad law spec 'mix2:{10**400}:1': w1 must be positive and finite"),
    ], ids=["non-integral", "unknown-family", "huge-integer"])
    def test_error_names_the_cause(self, spec, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            parse_law(spec)

    @pytest.mark.parametrize("make, name", [
        (lambda: FoldedBetaProduct(1.5, 2), "k1"),
        (lambda: FoldedBetaProduct(2, 2.5), "k2"),
        (lambda: ScaledChiSquare(0.25, 2.5), "df"),
        (lambda: ScaledChiSquare(0.25, float("nan")), "df"),
    ], ids=["k1", "k2", "df", "df-nan"])
    def test_non_integral_parameter_names_itself(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
            make()


def test_angle_rules_are_cached_read_only_arrays():
    from singwald.laws import _fb_rule, _mix2_rule

    for make in (lambda: _fb_rule(3, 1), lambda: _mix2_rule(0.8)):
        rule = make()
        assert rule is make()
        assert rule.shape[0] == 2 and not rule.flags.writeable
        assert rule[1].sum() == 1.0


def test_sample_needs_two_draws():
    with pytest.raises(ValueError, match="at least 2"):
        TetradSingular().sample(n=1, seed=1)


def test_sampling_determinism_across_laws():
    for law in ALL_LAWS:
        a = law.sample(1000, 99)
        b = law.sample(1000, 99)
        assert a.values.tobytes() == b.values.tobytes()
