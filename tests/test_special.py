"""The numpy special-function kernels against 40-digit mpmath."""

import math

import mpmath
import numpy as np
import pytest
from conftest import peak_bytes

from singwald import special


def _rel_err(got, want) -> float:
    want = np.array([float(w) for w in want])
    return float(np.max(np.abs(np.asarray(got) / want - 1.0)))


def _erfcx_mp(z):
    # erfcx(z) = U(1/2, 1/2, z^2) / sqrt(pi); mpmath's erfc fails past 1e8
    z = mpmath.mpf(z)
    return mpmath.hyperu(0.5, 0.5, z * z) / mpmath.sqrt(mpmath.pi)


def test_erfcx_against_mpmath():
    z = np.concatenate([np.linspace(0.0, 30.0, 601), np.geomspace(30.0, 1e300, 300)])
    with mpmath.workdps(40):
        want = [_erfcx_mp(v) for v in z]
    assert _rel_err(special._blockwise(special._erfcx_kernel, z), want) <= 1e-15


def test_erf_against_mpmath():
    # the chi-square-1 CDF is erf(sqrt(x/2)), with full relative accuracy
    # down to the smallest x
    x = np.geomspace(1e-300, 72.0, 700)
    with mpmath.workdps(40):
        want = [mpmath.erf(mpmath.sqrt(mpmath.mpf(v) / 2)) for v in x]
    assert _rel_err(special.chi2_cdf(x, 1), want) <= 1e-15


def test_exact_square_passed_by_caller():
    # Q(1/2, x) = erfc(sqrt(x)) and P(1/2, x) = erf(sqrt(x)) take the
    # exponent from x itself, so they keep their accuracy although sqrt(x)
    # is rounded
    z2 = np.linspace(0.0, 600.0, 1201)
    with mpmath.workdps(40):
        want = [mpmath.erfc(mpmath.sqrt(mpmath.mpf(v))) for v in z2]
        want_erf = [mpmath.erf(mpmath.sqrt(mpmath.mpf(v))) for v in z2[1:]]
    assert _rel_err(special._upper_gamma(1, z2), want) <= 1e-14
    assert _rel_err(special._lower_gamma(1, z2[1:]), want_erf) <= 1e-15


def test_endpoints_are_exact():
    assert special._blockwise(special._erfcx_kernel, 0.0) == 1.0
    assert special._upper_gamma(1, 0.0) == 1.0
    assert special._lower_gamma(1, 0.0) == 0.0
    assert special.chi2_cdf(0.0, 1) == 0.0
    assert special._blockwise(special._erfcx_kernel, np.inf) == 0.0
    assert special._upper_gamma(1, np.inf) == 0.0
    assert special._lower_gamma(1, np.inf) == 1.0
    assert special.chi2_cdf(np.inf, 1) == 1.0


def _gamma_mp(df, x, upper):
    a = mpmath.mpf(df) / 2
    x = mpmath.mpf(x)
    if upper:
        return mpmath.gammainc(a, x, mpmath.inf, regularized=True)
    return mpmath.gammainc(a, 0, x, regularized=True)


@pytest.mark.parametrize("df", range(1, 13))
def test_incomplete_gamma_small_df(df):
    x = np.unique(np.concatenate([np.geomspace(1e-12, 700.0, 120),
                                  np.linspace(0.05, 3.0 * df, 40)]))
    with mpmath.workdps(40):
        want_p = [_gamma_mp(df, v, False) for v in x]
        want_q = [_gamma_mp(df, v, True) for v in x]
    assert _rel_err(special._lower_gamma(df, x), want_p) <= 5e-14
    assert _rel_err(special._upper_gamma(df, x), want_q) <= 5e-14


@pytest.mark.parametrize("df", [25, 60, 201])
def test_incomplete_gamma_large_df(df):
    # wherever the value is a normal number well above underflow
    x = np.unique(np.concatenate([np.geomspace(1e-12, 3000.0, 150),
                                  np.linspace(0.5, 2.0, 61) * df / 2.0]))
    with mpmath.workdps(40):
        want_p = np.array([_gamma_mp(df, v, False) for v in x])
        want_q = np.array([_gamma_mp(df, v, True) for v in x])
    floor = mpmath.mpf("1e-290")
    keep_p, keep_q = want_p >= floor, want_q >= floor
    assert keep_p.sum() > 100 and keep_q.sum() > 100
    assert _rel_err(special._lower_gamma(df, x)[keep_p], want_p[keep_p]) <= 1e-12
    assert _rel_err(special._upper_gamma(df, x)[keep_q], want_q[keep_q]) <= 1e-12


def test_incomplete_gamma_edges():
    x = np.array([-1.0, 0.0, np.nan, np.inf])
    for df in (1, 2, 3, 8):
        np.testing.assert_array_equal(special._lower_gamma(df, x), [0.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(special._upper_gamma(df, x), [1.0, 1.0, 1.0, 0.0])
    for df in (0, 2.5, -1):
        with pytest.raises(ValueError):
            special._upper_gamma(df, 1.0)


@pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 12, 25, 401, 402])
def test_angle_rule_block(df):
    # the angle-rule CDF on a one-node rule (r = 1, w = 0.375) is its
    # per-node term w * P: to a few ulp of w (absolute), relative accuracy
    # where P is far below 1e-6, exactly 0 at x = 0, and w where x is
    # clamped or infinite
    x = np.concatenate([[0.0], np.geomspace(1e-30, 2.0 * df + 50.0, 600), [650.0, 1e30, np.inf]])
    w = 0.375
    out = special._angle_cdf(x, np.array([[1.0], [w]]), df)
    want = w * special._lower_gamma(df, x)
    assert out[0] == 0.0 and np.all(out[-3:] == w)
    assert np.abs(out - want).max() <= 2e-15 * w
    tail = (want > 0) & (want < 1e-8 * w)
    assert tail.sum() > 20
    assert np.abs(out[tail] / want[tail] - 1).max() <= 1e-13
    assert np.all(np.diff(out) >= 0.0)


def _refit_erfcx_coefficients(n_nodes, n_terms, dps):
    """Chebyshev interpolation of g(u) = log(erfcx(z)/t), t = (1 + u)/2,
    z = 2/t - 2, at the first-kind nodes, as the module docstring states."""
    with mpmath.workdps(dps):
        half = mpmath.mpf(1) / 2
        g = []
        for j in range(n_nodes):
            u = mpmath.cos(mpmath.pi * (j + half) / n_nodes)
            t = (1 + u) / 2
            z = 2 / t - 2
            g.append(mpmath.log(mpmath.erfc(z) * mpmath.exp(z * z) / t))
        coef = []
        for k in range(n_terms):
            s = mpmath.fsum(
                gj * mpmath.cos(mpmath.pi * k * (j + half) / n_nodes) for j, gj in enumerate(g)
            )
            coef.append((1 if k == 0 else 2) * s / n_nodes)
        return [float(c) for c in coef]


def test_erfcx_table_is_reproducible():
    refit = _refit_erfcx_coefficients(
        special._ERFCX_NODES, len(special._ERFCX_COEF), special._ERFCX_DPS
    )
    np.testing.assert_allclose(special._ERFCX_COEF, refit, rtol=0.0, atol=1e-17)
    # the kernel's power-basis coefficients are the same polynomial, and the
    # anchored constant term moves erfcx by at most a couple of ulp
    with mpmath.workdps(40):
        cheb = mpmath.chebyt
        for u in np.linspace(-1.0, 1.0, 41):
            want = mpmath.fsum(c * cheb(k, u) for k, c in enumerate(refit))
            got = mpmath.polyval(special._ERFCX_POWER[::-1], u)
            assert abs(got - want) <= 1e-15
    assert abs(special._ERFCX_A0 - special._ERFCX_POWER[0]) <= 4.0 * math.ulp(1.0)


@pytest.mark.parametrize("df", [1, 2, 3, 6, 25])
def test_inverse_round_trip(df):
    # the root finder inverts the incomplete gamma functions with Newton
    # steps on their log-density, from the mean a; the lower-side root of
    # 1e-300 underflows for df = 1 (x ~ 8e-601)
    def log_density(a):
        return lambda x: (a - 1.0) * math.log(x) - x - math.lgamma(a)

    a = df / 2.0
    for target, upper in ((1e-150, False), (1e-300, True)):
        side = special._upper_gamma if upper else special._lower_gamma
        for t in (target, 1e-12, 0.3, 0.5):
            x = special._root(lambda v: side(df, v), t, a, upper, log_density(a))
            assert float(side(df, x)) == pytest.approx(t, rel=1e-12, abs=0.0)
    root = special._root(lambda v: special._lower_gamma(1, v), 1e-300, 0.5, False, log_density(0.5))
    assert root == 0.0
    with pytest.raises(ValueError):
        special._root(lambda v: special._lower_gamma(3, v), 0.0, a, False, log_density(a))


@pytest.mark.parametrize("fn", [special.tetrad_singular_cdf, special.tetrad_singular_sf])
def test_tetrad_closed_forms_are_blocked(fn):
    # the tile loop holds the output and a few 128 KB tile temporaries, not
    # several arrays the size of the input
    t = np.linspace(0.0, 40.0, 10**6)
    fn(t[:10])
    _, peak = peak_bytes(lambda: fn(t))
    assert peak <= t.nbytes + 2 * 2**20


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tetrad_closed_forms_saturate_at_huge_t():
    # past t = 380 F is 1 and the sf 0 in floats; 2t must not overflow
    t = np.array([500.0, 1e3, 1e300, 1e308, math.inf])
    assert special.tetrad_singular_cdf(t).tolist() == [1.0] * 5
    assert special.tetrad_singular_sf(t).tolist() == [0.0] * 5
    assert special.tetrad_singular_cdf(math.inf) == 1.0
    assert special.tetrad_singular_sf(math.inf) == 0.0
