"""Closed-form limit laws with CDF, quantile, and exact samplers.

The branch zoo
--------------
``ScaledChiSquare(scale, df)``
    scale * chi-square(df).  Covers the regular chi-square-1 limit, the
    power-product limits ``chi2_1 / degree^2``, and the quarter chi-square
    envelope bounds.  Where t / scale leaves the normal range, its cdf is
    the leading term of the lower tail, so it keeps its relative accuracy
    at any scale.
``TwoChiSquareMix(w1, w2)``
    Law of ``w1*Z1^2 + w2*Z2^2`` for independent standard normals.  This is
    the limit for a definite bivariate quadratic form, with ``w1 = 1/4`` and
    ``w2 = det(A*Sigma)/trace(A*Sigma)^2``.
``TetradSingular()``
    Law of ``R^2*U^2/4`` with ``R^2 ~ chi2_4`` independent of
    ``U ~ Uniform[0,1]``; the tetrad Wald limit at block-diagonal
    covariances.  Its distribution function has the closed form

        F(t) = 1 - exp(-2t) + sqrt(2*pi*t) * (1 - Phi(2*sqrt(t))).

    Its survival function ``tetrad_singular_sf`` is free of the
    cancellation in ``1 - F``, and its density
    F'(t) = exp(-2t) + sqrt(pi/(8t)) * erfc(sqrt(2t)) diverges at 0.
``FoldedBetaProduct(k1, k2)``
    Law of ``R^2*(2B-1)^2/4`` with ``R^2 ~ chi2_{k1+k2}`` independent of
    ``B ~ Beta(k1/2, k2/2)``; the limit for quadratic forms whose canonical
    eigenvalues are k1 copies of +1 and k2 copies of -1.  ``(2,2)`` equals
    ``TetradSingular`` in distribution.

``TwoChiSquareMix`` and ``FoldedBetaProduct`` are mixtures over an angle,

    F(t) = sum_j w_j * P(k/2, t * r_j),    1 - F(t) = sum_j w_j * Q(k/2, t * r_j),

with P and Q the regularized lower and upper incomplete gamma functions.
This module builds their node rules, cached per law parameter, on which
``_AngleRuleLaw`` gives both their cdf, sf and log-density.  The mix2 rule
(``_mix2_rule``, k = 2) is a midpoint rule in a rescaled polar angle, keyed
by the weight ratio w_lo/w_hi alone, with w_hi as the scale, by which
``_angle_cdf`` divides each tile of t.  The test suite pins the rule within
1e-12 of a 30-digit angle integral for weight ratios down to 1e-8, and its
survival function within 1e-13 relative for t up to 40 w_hi.  Below a
ratio of 1e-16 the law is taken as ``ScaledChiSquare(w_hi, 1)``, cdf, sf
and log-density alike.  That moves F by at most (2/pi)*sqrt(ratio), an
absolute bound: for t below about w_lo, F is itself that small and loses
its relative accuracy (``mix2:1:1e-17`` at t = 1e-18 gives 7.979e-10 where
the law is 1.562e-10; item 19 of ROADMAP.md owns the fix).  The
folded-Beta rule (``_fb_rule``, k = k1 + k2) takes Gauss-Legendre panels in
the Beta angle, graded toward the angle where the rate diverges; the test
suite pins it within 2e-9 of adaptive quadrature for k1 + k2 <= 8.  Its
error grows with k: about 1e-5 at k1 = k2 = 50 and 2e-3 at 201:200, and
in the far tail that of its sf: ``beta-fold:2:2`` puts the 1 - 1e-12
quantile at 13.4776725592, the tetrad law at 13.4776724753.

Every distribution function is evaluated in ``singwald.special``, which
also holds the root finder: the mixtures by its ``_angle_cdf`` and
``_angle_log_pdf`` over a rule from its ``_node_rule``, and the chi-square
and tetrad laws by ``chi2_cdf``, ``chi2_sf``, ``tetrad_singular_cdf`` and
``tetrad_singular_sf``.  The tetrad test calls those four without loading
this module; they are re-exported here, as is ``EmpiricalDistribution`` of
``singwald.empirical``.  The index-1/2 stable law of alpha^2/Z^2 is
``chi2_sf`` at alpha^2/x; alpha must have a finite normal square, about
1.5e-154 to 1.3e154.  Every law family defines ``cdf``, a tail-accurate
survival function ``sf`` and its log-density ``_log_pdf``, with no default
in ``LimitLaw``.  :meth:`LimitLaw.quantile` roots ``sf`` above the median
and ``cdf`` below, starting from the law's mean, with Newton steps on the
log-density; a quantile past the largest float is an error that names p.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import _Record
from .empirical import EmpiricalDistribution
from .gaussian import make_generator
from .special import (
    _LARGEST,
    _angle_cdf,
    _angle_log_pdf,
    _node_rule,
    _positive_int,
    _root,
    chi2_cdf,
    chi2_sf,
    tetrad_singular_cdf,
    tetrad_singular_sf,
)

if TYPE_CHECKING:
    from .poly import MonomialForm

__all__ = [
    "EmpiricalDistribution",
    "LimitLaw",
    "ScaledChiSquare",
    "TwoChiSquareMix",
    "TetradSingular",
    "FoldedBetaProduct",
    "monomial_law",
    "stable_cdf",
    "sample_stable",
    "tetrad_singular_cdf",
    "tetrad_singular_sf",
    "chi2_cdf",
    "chi2_sf",
    "parse_law",
]


# ---------------------------------------------------------------------------
# Limit laws.
# ---------------------------------------------------------------------------

class LimitLaw(_Record):
    """Common quantile / sampling plumbing for the concrete branches, which
    define ``cdf``, ``sf``, ``_log_pdf`` (log F'(t) at t > 0), ``mean`` and
    ``_draw``."""

    def sample(self, n: int, seed: int) -> EmpiricalDistribution:
        if n < 2:
            raise ValueError("n must be at least 2")
        rng = make_generator(seed)
        return EmpiricalDistribution.from_samples(self._draw(rng, n))

    def quantile(self, p: float) -> float:
        """Inverse CDF at p in (0, 1): roots sf(t) = 1 - p above the median,
        where 1 - p is exact and sf keeps its relative accuracy in the tail,
        and cdf(t) = p below, from the law's mean.  A quantile past the
        largest float is a ValueError that names p."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p:.12g}")
        start = min(self.mean(), _LARGEST)
        if p > 0.5:
            q = _root(self.sf, 1.0 - p, start, True, self._log_pdf)
        else:
            q = _root(self.cdf, p, start, False, self._log_pdf)
        if q == math.inf:
            raise ValueError(f"the quantile at p={p:.12g} overflows the float range")
        return q

    def spec_string(self) -> str:
        """``_SPEC`` (unannotated, or it would be a field), then each field:
        an integer as its digits, a float at 12 significant digits."""
        values = (str(v) if isinstance(v, int) else f"{v:.12g}" for v in self._values())
        return ":".join([self._SPEC, *values])


_LOG2 = math.log(2.0)


class ScaledChiSquare(LimitLaw):
    scale: float
    df: int
    _SPEC = "scaled-chisq"

    def __post_init__(self):
        # <= _LARGEST also bounds an integer scale, which may exceed any float
        if not 0 < self.scale <= _LARGEST:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        # stored as an int, so that the spec string prints its digits
        object.__setattr__(self, "df", _positive_int(self.df))

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):  # t / scale = inf is F = 1
            x = t / self.scale
        f = chi2_cdf(x, self.df)
        # below the normal range x / 2 has lost bits (it is 0 once t / scale
        # underflows); there F is (x / 2)^a / Gamma(a + 1) to a relative
        # 1e-308, with (x / 2)^a taken as (sqrt(t) / sqrt(2 scale))^df
        tiny = (t > 0.0) & (x < 2.0 * sys.float_info.min)
        if not tiny.any():
            return f
        f = np.array(f, dtype=float)
        root = np.sqrt(t[tiny]) / (math.sqrt(2.0) * math.sqrt(self.scale))
        f[tiny] = root**self.df * math.exp(-math.lgamma(self.df / 2.0 + 1.0))
        return float(f) if f.ndim == 0 else f

    def _draw(self, rng, n):
        return self.scale * rng.chisquare(self.df, n)

    def sf(self, t):
        with np.errstate(over="ignore"):  # t / scale = inf is sf = 0
            return chi2_sf(np.asarray(t, dtype=float) / self.scale, self.df)

    def _log_pdf(self, t):
        # in logs: t / scale underflows and 2 * scale overflows at the ends
        # of the float range
        a, log_two_scale = self.df / 2.0, math.log(self.scale) + _LOG2
        log_x = math.log(t) - log_two_scale
        return (a - 1.0) * log_x - t / self.scale / 2.0 - math.lgamma(a) - log_two_scale

    def mean(self) -> float:
        return self.scale * self.df


# Gauss-Legendre rules, shared with the angular moments in verify.py.
@functools.lru_cache(maxsize=None)
def _leggauss(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


# Below this weight ratio the mix2 rule would need more than 1.5e5 nodes, and
# the smaller component moves the CDF by at most (2/pi)*sqrt(ratio) <= 6.4e-9,
# an absolute bound.
_MIX2_RATIO_MIN = 1e-16


@functools.lru_cache(maxsize=64)
def _mix2_rule(ratio: float):
    """The angle rule (r_j, w_j) of Z1^2 + ratio*Z2^2 for 0 < ratio <= 1.

    The law of w1*Z1^2 + w2*Z2^2 is w_hi times that of Z1^2 + ratio*Z2^2,
    ratio = w_lo/w_hi, so one rule per ratio serves every scale: the law
    at t is this one at t / w_hi.  In polar coordinates, 1 - F(t) = (2/pi) *
    int_0^{pi/2} exp(-t / (2*(cos^2(theta) + ratio*sin^2(theta)))) dtheta.
    With b = sqrt(ratio) and tan(theta) = tan(phi) / sqrt(b) this is

        (2/pi) * int_0^{pi/2} exp(-t * r(phi)) * sqrt(b) / (b*C + S) dphi,
        r(phi) = (b*C + S) / (2*b*(C + b*S)),  C = cos^2(phi), S = sin^2(phi),

    whose integrand is periodic and analytic in a strip of half-width about
    ratio^(1/4).  The midpoint rule in phi then converges geometrically;
    N = max(16, ceil(15 * ratio^(-1/4))) nodes keep the error below 1e-12,
    and that of the sf below 1e-13 of itself up to t = 40 w_hi.  The weights
    w_j are the normalised Jacobian and the rates are r_j = r(phi_j), for
    :func:`_angle_cdf` at df = 2.
    """
    b = math.sqrt(ratio)
    n = max(16, math.ceil(15.0 * ratio**-0.25))
    phi = (np.arange(n) + 0.5) * (np.pi / (2 * n))
    cos2, sin2 = np.cos(phi) ** 2, np.sin(phi) ** 2
    den = b * cos2 + sin2
    rate = den / (2.0 * b * (cos2 + b * sin2))
    return _node_rule(rate, 1.0 / (den * np.sum(1.0 / den)))


class _AngleRuleLaw(LimitLaw):
    """A mixture over an angle, F(t) = sum_j w_j * P(df/2, (t / scale) * r_j):
    its cdf, sf and log-density, all from the rule, df and scale that the
    family's ``_angle_rule()`` returns."""

    def cdf(self, t):
        return _angle_cdf(t, *self._angle_rule())

    def sf(self, t):
        return _angle_cdf(t, *self._angle_rule(), upper=True)

    def _log_pdf(self, t):
        return _angle_log_pdf(t, *self._angle_rule())


class TwoChiSquareMix(_AngleRuleLaw):
    w1: float
    w2: float
    _SPEC = "mix2"

    def __post_init__(self):
        if not 0 < self.w1 <= _LARGEST:
            raise ValueError(f"w1 must be positive and finite, got {self.w1}")
        if not 0 <= self.w2 <= _LARGEST:
            raise ValueError(f"w2 must be nonnegative and finite, got {self.w2}")

    def _angle_rule(self):
        hi, lo = max(self.w1, self.w2), min(self.w1, self.w2)
        return _mix2_rule(lo / hi), 2, hi

    def _law(self):
        """The law whose cdf, sf and log-density this one takes:
        ScaledChiSquare(w_hi, 1) below a weight ratio of ``_MIX2_RATIO_MIN``,
        and above it this law as an ``_AngleRuleLaw`` (``super()``)."""
        hi, lo = max(self.w1, self.w2), min(self.w1, self.w2)
        return ScaledChiSquare(hi, 1) if lo / hi < _MIX2_RATIO_MIN else super()

    def cdf(self, t):
        return self._law().cdf(t)

    def sf(self, t):
        return self._law().sf(t)

    def _log_pdf(self, t):
        return self._law()._log_pdf(t)

    def _draw(self, rng, n):
        z = rng.standard_normal((n, 2))
        return self.w1 * z[:, 0] ** 2 + self.w2 * z[:, 1] ** 2

    def mean(self) -> float:
        return self.w1 + self.w2


# Dyadic panels accumulating toward the angle where the folded-Beta factor
# vanishes; 10 Gauss-Legendre nodes per panel.
_FB_PANELS = 26
_FB_NODES = 10


@functools.lru_cache(maxsize=None)
def _fb_rule(k1: int, k2: int):
    """The angle rule (r_j, w_j) of F(t) = E_B[P((k1+k2)/2, 2t / (2B-1)^2)]
    for :func:`_angle_cdf` with df = k1 + k2.

    With b = sin^2(theta), B ~ Beta(k1/2, k2/2) has an angle density
    proportional to sin^(k1-1)(theta) * cos^(k2-1)(theta), smooth on
    [0, pi/2], and (2b - 1)^2 = sin^2(2s) at theta = pi/4 -+ s.  The two
    angles pi/4 -+ s share the rate 2 / sin^2(2s), so each node carries the
    density of both.  The rate blows up at s = 0, so dyadic panels in s
    refine toward it, down to a sliver |s| < e = (pi/4) * 2^-26.  The sliver
    is one more midpoint node: its mass is 2*e times the density at pi/4,
    and its rate is taken at its edge s = e.  Normalising the masses by
    their sum stands in for the Beta function.
    """
    x, w = _leggauss(_FB_NODES)
    edges = (np.pi / 4.0) * 0.5 ** np.arange(_FB_PANELS + 1)
    half = (edges[:-1] - edges[1:]) / 2.0
    s = np.append((edges[1:] + half)[:, None] + half[:, None] * x, edges[-1])
    ds = np.append(half[:, None] * w, edges[-1])
    dens = lambda theta: np.sin(theta) ** (k1 - 1) * np.cos(theta) ** (k2 - 1)
    mass = ds * (dens(np.pi / 4.0 - s) + dens(np.pi / 4.0 + s))
    with np.errstate(invalid="ignore"):  # 0/0 where every mass underflows
        p = mass / mass.sum()
    return _node_rule(2.0 / np.sin(2.0 * s) ** 2, p)


class FoldedBetaProduct(_AngleRuleLaw):
    k1: int
    k2: int
    _SPEC = "beta-fold"

    def __post_init__(self):
        object.__setattr__(self, "k1", _positive_int(self.k1, "k1"))
        object.__setattr__(self, "k2", _positive_int(self.k2, "k2"))

    def _angle_rule(self):
        return _fb_rule(self.k1, self.k2), self.k1 + self.k2, 1.0

    def _draw(self, rng, n):
        # every chi-square draw, then every Beta draw, from the stream
        return 0.25 * rng.chisquare(self.k1 + self.k2, n) * (
            2.0 * rng.beta(self.k1 / 2.0, self.k2 / 2.0, n) - 1.0
        ) ** 2

    def mean(self) -> float:
        a, b = self.k1 / 2.0, self.k2 / 2.0
        mu = a / (a + b)
        var = a * b / ((a + b) ** 2 * (a + b + 1.0))
        return 0.25 * (self.k1 + self.k2) * (4.0 * var + (2.0 * mu - 1.0) ** 2)


class TetradSingular(LimitLaw):
    _SPEC = "tetrad"

    def cdf(self, t):
        return tetrad_singular_cdf(t)

    def sf(self, t):
        return tetrad_singular_sf(t)

    def _log_pdf(self, t):
        # both terms of F'(t) underflow past t = 372
        d = math.exp(-2.0 * t) + math.sqrt(math.pi / (8.0 * t)) * math.erfc(math.sqrt(2.0 * t))
        return math.log(d) if d > 0.0 else -math.inf

    def _draw(self, rng, n):
        return 0.25 * rng.chisquare(4, n) * rng.random(n) ** 2

    def mean(self) -> float:
        return 1.0 / 3.0


def monomial_law(m: MonomialForm) -> ScaledChiSquare:
    """Limit law of the Wald ratio for a positive-exponent power product:
    chi-square-1 scaled by the reciprocal squared total degree."""
    return ScaledChiSquare(scale=1.0 / m.degree**2, df=1)


# ---------------------------------------------------------------------------
# One-sided stable law of index 1/2 (the law of alpha^2 / Z^2).
# ---------------------------------------------------------------------------

def _alpha_squared(alpha: float) -> float:
    """alpha^2, for a positive alpha whose square is a finite normal float:
    a larger alpha would overflow alpha^2, and a smaller one would lose it
    to a subnormal or to 0."""
    if not 0 < alpha <= _LARGEST:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    alpha2 = float(alpha) * float(alpha)
    if not sys.float_info.min <= alpha2 <= _LARGEST:
        raise ValueError(f"alpha^2 must be a finite normal float, got alpha = {alpha}")
    return alpha2


def stable_cdf(alpha: float, x):
    """First-passage form: P(alpha^2/Z^2 <= x) = P(Z^2 >= alpha^2/x), the
    chi-square-1 survival function at alpha^2/x, and 0 for x <= 0."""
    alpha2 = _alpha_squared(alpha)
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # alpha^2/x = inf gives 0, as it should
        ratio = np.divide(alpha2, x, out=np.full_like(x, np.inf), where=x > 0)
    return chi2_sf(ratio, 1)


def sample_stable(alpha: float, n: int, seed: int) -> np.ndarray:
    alpha2 = _alpha_squared(alpha)
    z = make_generator(seed).standard_normal(n)
    np.square(z, out=z)
    return np.divide(alpha2, z, out=z)


# ---------------------------------------------------------------------------
# Law spec strings, shared by the CLI and the classifier report.
# ---------------------------------------------------------------------------

# family name -> its law, in the order the parse error lists them
_LAWS = {c._SPEC: c for c in (ScaledChiSquare, TwoChiSquareMix, FoldedBetaProduct, TetradSingular)}


def parse_law(spec: str) -> LimitLaw:
    """The law of a spec as :meth:`LimitLaw.spec_string` writes it, with one
    value per field of the family; its constructor validates the values."""
    name, *tokens = spec.strip().split(":")
    law = _LAWS.get(name)
    if law is None or len(tokens) != len(law._FIELDS):
        forms = (":".join([c._SPEC, *map(str.upper, c._FIELDS)]) for c in _LAWS.values())
        raise ValueError(f"bad law spec {spec!r}; expected {', '.join(forms)}")
    try:  # an integer token is read exactly, never through a float
        return law(*(int(t) if t.lstrip("+-").isdecimal() else float(t) for t in tokens))
    except ValueError as exc:
        raise ValueError(f"bad law spec {spec!r}: {exc}") from exc
