"""Closed-form limit laws with CDF, quantile, and exact samplers.

The branch zoo
--------------
``ScaledChiSquare(scale, df)``
    scale * chi-square(df).  Covers the regular chi-square-1 limit, the
    power-product limits ``chi2_1 / degree^2``, and the quarter chi-square
    envelope bounds.
``TwoChiSquareMix(w1, w2)``
    Law of ``w1*Z1^2 + w2*Z2^2`` for independent standard normals.  This is
    the limit for a definite bivariate quadratic form, with ``w1 = 1/4`` and
    ``w2 = det(A*Sigma)/trace(A*Sigma)^2``.
``TetradSingular()``
    Law of ``R^2*U^2/4`` with ``R^2 ~ chi2_4`` independent of
    ``U ~ Uniform[0,1]``; the tetrad Wald limit at block-diagonal
    covariances.  Its distribution function has the closed form

        F(t) = 1 - exp(-2t) + sqrt(2*pi*t) * (1 - Phi(2*sqrt(t))).

    The density diverges at 0, so only the CDF, the survival function
    (``tetrad_singular_sf``, free of the cancellation in ``1 - F``),
    quantile, and sampler are exposed.
``FoldedBetaProduct(k1, k2)``
    Law of ``R^2*(2B-1)^2/4`` with ``R^2 ~ chi2_{k1+k2}`` independent of
    ``B ~ Beta(k1/2, k2/2)``; the limit for quadratic forms whose canonical
    eigenvalues are k1 copies of +1 and k2 copies of -1.  ``(2,2)`` equals
    ``TetradSingular`` in distribution.

The mixture CDF is a midpoint rule in a rescaled polar angle with one
exponential per node and positive weights that sum to exactly 1 (see
``_mix2_rule``); the test suite pins it within 1e-12 of a 30-digit angle
integral for weight ratios down to 1e-8.  Below a ratio of 1e-16 the
smaller component is dropped, within (2/pi)*sqrt(ratio).  The folded-Beta
CDF uses fixed Gauss-Legendre panels after substitutions that remove all
interior and endpoint singularities; agreement with adaptive quadrature is
pinned below 1e-9.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .gaussian import make_generator
from .poly import MonomialForm

__all__ = [
    "EmpiricalDistribution",
    "LimitLaw",
    "ScaledChiSquare",
    "TwoChiSquareMix",
    "TetradSingular",
    "FoldedBetaProduct",
    "monomial_law",
    "stable_density",
    "stable_cdf",
    "sample_stable",
    "tetrad_singular_cdf",
    "tetrad_singular_sf",
    "chi2_cdf",
    "chi2_sf",
    "parse_law",
]


# ---------------------------------------------------------------------------
# Scalar kernels.  The chi-square CDF is the regularized lower incomplete
# gamma function (relative error well under 1e-12 in this range); normal
# tail probabilities go through erfc for accuracy.
# ---------------------------------------------------------------------------

def chi2_cdf(x, df: float):
    x = np.asarray(x, dtype=float)
    safe = np.maximum(x, 0.0)
    if df == 1:
        out = special.erf(np.sqrt(safe / 2.0))
    elif df == 2:
        out = -np.expm1(-safe / 2.0)
    else:
        out = special.gammainc(df / 2.0, safe / 2.0)
    out = np.where(x > 0, out, 0.0)
    return float(out) if out.ndim == 0 else out


def chi2_sf(x, df: float):
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, special.gammaincc(df / 2.0, np.maximum(x, 0.0) / 2.0), 1.0)
    return float(out) if out.ndim == 0 else out


def tetrad_singular_cdf(t):
    """Distribution function of ``R^2*U^2/4`` in closed form."""
    t = np.asarray(t, dtype=float)
    tp = np.maximum(t, 0.0)
    upper_tail = 0.5 * special.erfc(np.sqrt(2.0 * tp))  # 1 - Phi(2 sqrt t)
    val = -np.expm1(-2.0 * tp) + np.sqrt(2.0 * np.pi * tp) * upper_tail
    out = np.where(t > 0, val, 0.0)
    return float(out) if out.ndim == 0 else out


def tetrad_singular_sf(t):
    """Survival function ``1 - F(t)`` of ``R^2*U^2/4``, written as
    ``exp(-2t) * (1 - sqrt(2*pi*t)/2 * erfcx(sqrt(2t)))`` so that it keeps
    full relative accuracy in the tail, where ``1 - F`` cancels."""
    t = np.asarray(t, dtype=float)
    tp = np.maximum(t, 0.0)
    root = np.sqrt(2.0 * tp)
    val = np.exp(-2.0 * tp) * (1.0 - 0.5 * np.sqrt(np.pi) * root * special.erfcx(root))
    out = np.where(t > 0, val, 1.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Empirical distributions.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted Monte Carlo sample with step-CDF utilities."""

    values: np.ndarray = field(repr=False)
    n: int

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalDistribution":
        values = np.sort(np.asarray(samples, dtype=float))
        if values.size < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.isfinite(values)):
            raise ValueError("samples contain non-finite values")
        values.flags.writeable = False
        return cls(values=values, n=values.size)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.searchsorted(self.values, t, side="right") / self.n
        return float(out) if out.ndim == 0 else out

    def quantile(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        idx = int(np.ceil(p * self.n)) - 1
        return float(self.values[max(idx, 0)])

    def mean(self) -> float:
        return float(self.values.mean())


# ---------------------------------------------------------------------------
# Limit laws.
# ---------------------------------------------------------------------------

class LimitLaw:
    """Common quantile / sampling plumbing for the concrete branches."""

    def cdf(self, t):
        raise NotImplementedError

    def sample(self, n: int, seed: int, stream: int = 0) -> EmpiricalDistribution:
        if n < 2:
            raise ValueError("n must be at least 2")
        rng = make_generator(seed, stream)
        return EmpiricalDistribution.from_samples(self._draw(rng, n))

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def _bracket_hint(self) -> float:
        return 50.0

    def quantile(self, p: float) -> float:
        """Inverse CDF by bracketed root finding; |cdf(q) - p| <= 1e-8."""
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        hi = self._bracket_hint()
        while float(self.cdf(hi)) < p:
            hi *= 2.0
            if hi > 1e300:
                raise RuntimeError("quantile bracket failed to close")
        from scipy import optimize  # here, not at import: start-up skips it

        q = optimize.brentq(
            lambda t: float(self.cdf(t)) - p, 0.0, hi, xtol=1e-13, rtol=8.9e-16,
            maxiter=200,
        )
        return float(q)

    def spec_string(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ScaledChiSquare(LimitLaw):
    scale: float
    df: int

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.df < 1:
            raise ValueError("df must be a positive integer")

    def cdf(self, t):
        return chi2_cdf(np.asarray(t, dtype=float) / self.scale, self.df)

    def _draw(self, rng, n):
        return self.scale * rng.chisquare(self.df, n)

    def _bracket_hint(self):
        return 50.0 * self.scale * self.df

    def mean(self) -> float:
        return self.scale * self.df

    def spec_string(self) -> str:
        return f"scaled-chisq:{self.scale:.12g}:{self.df}"


# Gauss-Legendre rule behind the folded-Beta panels.
@functools.lru_cache(maxsize=None)
def _leggauss(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


# Points per block of the mix2 kernel, which holds two block-sized buffers.
_MIX2_BLOCK = 2**14
# Below this weight ratio the node rule would need more than 8e4 nodes, and
# the smaller component moves the CDF by at most (2/pi)*sqrt(ratio) <= 6.4e-9.
_MIX2_RATIO_MIN = 1e-16


@functools.lru_cache(maxsize=64)
def _mix2_rule(w1: float, w2: float):
    """Nodes (r_j, w_j) of the angle rule for w1 >= w2 > 0.

    In polar coordinates, 1 - F(t) = (2/pi) * int_0^{pi/2}
    exp(-t / (2*(w1*cos^2(theta) + w2*sin^2(theta)))) dtheta.  With
    a = sqrt(w1), b = sqrt(w2) and tan(theta) = sqrt(a/b) * tan(phi) this is

        (2/pi) * int_0^{pi/2} exp(-t * r(phi)) * sqrt(a*b) / (b*C + a*S) dphi,
        r(phi) = (b*C + a*S) / (2*a*b*(a*C + b*S)),  C = cos^2(phi), S = sin^2(phi),

    whose integrand is periodic and analytic in a strip of half-width about
    rho^(1/4), rho = w2/w1.  The midpoint rule in phi then converges
    geometrically; N = max(16, ceil(8 * rho^(-1/4))) nodes keep the error
    below 1e-12.  The weights w_j are the normalised Jacobian, rounded to
    multiples of 2^-53 that sum to exactly 1, so any partial sum of them is
    exact; the rates are r_j = r(phi_j).
    """
    a, b = np.sqrt(w1), np.sqrt(w2)
    n = max(16, math.ceil(8.0 * (w2 / w1) ** -0.25))
    phi = (np.arange(n) + 0.5) * (np.pi / (2 * n))
    cos2, sin2 = np.cos(phi) ** 2, np.sin(phi) ** 2
    den = b * cos2 + a * sin2
    rate = den / (2.0 * a * b * (a * cos2 + b * sin2))
    units = np.rint(2.0**53 / (den * np.sum(1.0 / den))).astype(np.int64)
    units[np.argmax(units)] += 2**53 - units.sum()
    return tuple(zip(rate.tolist(), (units / 2.0**53).tolist()))


def _mix2_cdf(t: np.ndarray, w1: float, w2: float) -> np.ndarray:
    """CDF of w1*Z1^2 + w2*Z2^2 (w1 >= w2 > 0) by the angle rule of
    :func:`_mix2_rule`: F(t) = sum_j w_j * (1 - exp(-t * r_j)).

    Each point's terms are added one node at a time, in the same order for
    every point.  With positive weights that sum to exactly 1 this gives
    F(0) = 0, 0 <= F <= 1 and F nondecreasing in floating point, without
    clipping.  Points t <= 0 (and NaN) map to 0.
    """
    nodes = _mix2_rule(w1, w2)
    flat = t.reshape(-1)
    out = np.empty_like(flat)
    term = np.empty(min(flat.size, _MIX2_BLOCK))
    for i in range(0, flat.size, _MIX2_BLOCK):
        x = flat[i : i + _MIX2_BLOCK]
        x = np.where(x > 0, x, 0.0)
        acc = out[i : i + x.size]
        acc[:] = 0.0
        tb = term[: x.size]
        # -w * expm1(-x*r) = w * (1 - exp(-x*r)): exactly +0 at x = 0, and
        # w where x*r overflows to inf
        with np.errstate(over="ignore"):
            for r, w in nodes:
                np.multiply(x, -r, out=tb)
                np.expm1(tb, out=tb)
                tb *= -w
                acc += tb
    return out.reshape(t.shape)


@dataclass(frozen=True)
class TwoChiSquareMix(LimitLaw):
    w1: float
    w2: float

    def __post_init__(self):
        if self.w1 <= 0:
            raise ValueError("w1 must be positive")
        if self.w2 < 0:
            raise ValueError("w2 must be nonnegative")

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        hi, lo = max(self.w1, self.w2), min(self.w1, self.w2)
        if lo < _MIX2_RATIO_MIN * hi:
            out = chi2_cdf(np.atleast_1d(t) / hi, 1)
        else:
            out = _mix2_cdf(np.atleast_1d(t), hi, lo)
        return float(out[0]) if scalar else out

    def _draw(self, rng, n):
        z = rng.standard_normal((n, 2))
        return self.w1 * z[:, 0] ** 2 + self.w2 * z[:, 1] ** 2

    def _bracket_hint(self):
        return 100.0 * (self.w1 + self.w2)

    def mean(self) -> float:
        return self.w1 + self.w2

    def spec_string(self) -> str:
        return f"mix2:{self.w1:.12g}:{self.w2:.12g}"


# Dyadic panels accumulating toward the point where the folded-Beta factor
# vanishes; 10 Gauss-Legendre nodes per panel.
_FB_PANELS = 26
_FB_NODES = 10


@functools.lru_cache(maxsize=None)
def _fb_rule(k1: int, k2: int):
    """Quadrature nodes for E_B[ F_{k1+k2}(4t / (2B-1)^2) ].

    Parameterize b = sin^2(theta); the Beta density becomes a smooth power
    of sines and cosines and (2b - 1)^2 = cos^2(2 theta).  Dyadic panels
    refine toward theta = pi/4 where the chi-square argument blows up; the
    innermost sliver is added separately from the exact Beta measure.
    """
    nodes, weights = _leggauss(_FB_NODES)
    bn = special.beta(k1 / 2.0, k2 / 2.0)
    thetas, wdens = [], []
    edges = (np.pi / 4.0) * 0.5 ** np.arange(_FB_PANELS + 1)
    for sign in (-1.0, +1.0):
        for j in range(_FB_PANELS):
            lo, hi = edges[j + 1], edges[j]
            mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
            s = mid + half * nodes
            theta = np.pi / 4.0 + sign * s
            dens = (
                2.0
                * np.sin(theta) ** (k1 - 1)
                * np.cos(theta) ** (k2 - 1)
                / bn
            )
            thetas.append(theta)
            wdens.append(half * weights * dens)
    theta = np.concatenate(thetas)
    wdens = np.concatenate(wdens)
    u2 = np.cos(2.0 * theta) ** 2
    # Exact Beta mass of the skipped sliver around b = 1/2.
    u_edge = np.sin(2.0 * edges[-1])
    sliver = float(
        special.betainc(k1 / 2.0, k2 / 2.0, (1.0 + u_edge) / 2.0)
        - special.betainc(k1 / 2.0, k2 / 2.0, (1.0 - u_edge) / 2.0)
    )
    return u2, wdens, sliver, u_edge**2


def _fb_cdf(t: np.ndarray, k1: int, k2: int) -> np.ndarray:
    u2, wdens, sliver, u2_edge = _fb_rule(k1, k2)
    k = k1 + k2
    out = np.zeros_like(t)
    pos = t > 0
    if not np.any(pos):
        return out
    tp = t[pos]
    vals = special.gammainc(k / 2.0, 2.0 * tp[:, None] / u2[None, :]) @ wdens
    vals += sliver * special.gammainc(k / 2.0, 2.0 * tp / u2_edge)
    out[pos] = np.clip(vals, 0.0, 1.0)
    return out


@dataclass(frozen=True)
class FoldedBetaProduct(LimitLaw):
    k1: int
    k2: int

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError("k1 and k2 must be positive integers")

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        out = _fb_cdf(np.atleast_1d(t), self.k1, self.k2)
        return float(out[0]) if scalar else out

    def _draw(self, rng, n):
        r2 = rng.chisquare(self.k1 + self.k2, n)
        b = rng.beta(self.k1 / 2.0, self.k2 / 2.0, n)
        return 0.25 * r2 * (2.0 * b - 1.0) ** 2

    def _bracket_hint(self):
        return 12.5 * (self.k1 + self.k2)

    def mean(self) -> float:
        a, b = self.k1 / 2.0, self.k2 / 2.0
        mu = a / (a + b)
        var = a * b / ((a + b) ** 2 * (a + b + 1.0))
        return 0.25 * (self.k1 + self.k2) * (4.0 * var + (2.0 * mu - 1.0) ** 2)

    def spec_string(self) -> str:
        return f"beta-fold:{self.k1}:{self.k2}"


@dataclass(frozen=True)
class TetradSingular(LimitLaw):
    def cdf(self, t):
        return tetrad_singular_cdf(t)

    def _draw(self, rng, n):
        return 0.25 * rng.chisquare(4, n) * rng.random(n) ** 2

    def _bracket_hint(self):
        return 50.0

    def mean(self) -> float:
        return 1.0 / 3.0

    def spec_string(self) -> str:
        return "tetrad"


def monomial_law(m: MonomialForm) -> ScaledChiSquare:
    """Limit law of the Wald ratio for a positive-exponent power product:
    chi-square-1 scaled by the reciprocal squared total degree."""
    return ScaledChiSquare(scale=1.0 / m.degree**2, df=1)


# ---------------------------------------------------------------------------
# One-sided stable law of index 1/2 (the law of alpha^2 / Z^2).
# ---------------------------------------------------------------------------

def stable_density(alpha: float, x):
    """Density alpha/sqrt(2 pi) * x^(-3/2) * exp(-alpha^2/(2x)) for x > 0."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("x must be positive")
    out = alpha / np.sqrt(2.0 * np.pi) * x**-1.5 * np.exp(-0.5 * alpha**2 / x)
    return float(out) if out.ndim == 0 else out


def stable_cdf(alpha: float, x):
    """First-passage form: P(alpha^2/Z^2 <= x) = 2*(1 - Phi(alpha/sqrt(x)))."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, special.erfc(alpha / np.sqrt(2.0 * np.maximum(x, 1e-300))), 0.0)
    return float(out) if out.ndim == 0 else out


def sample_stable(alpha: float, n: int, seed: int, stream: int = 0) -> np.ndarray:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    z = make_generator(seed, stream).standard_normal(n)
    return alpha**2 / z**2


# ---------------------------------------------------------------------------
# Law spec strings, shared by the CLI and the classifier report.
# ---------------------------------------------------------------------------

def parse_law(spec: str) -> LimitLaw:
    """Parse ``scaled-chisq:S:DF``, ``mix2:W1:W2``, ``beta-fold:K1:K2``,
    or ``tetrad``."""
    parts = spec.strip().split(":")
    name = parts[0]
    try:
        if name == "scaled-chisq" and len(parts) == 3:
            return ScaledChiSquare(scale=float(parts[1]), df=int(parts[2]))
        if name == "mix2" and len(parts) == 3:
            return TwoChiSquareMix(w1=float(parts[1]), w2=float(parts[2]))
        if name == "beta-fold" and len(parts) == 3:
            return FoldedBetaProduct(k1=int(parts[1]), k2=int(parts[2]))
        if name == "tetrad" and len(parts) == 1:
            return TetradSingular()
    except ValueError as exc:
        raise ValueError(f"bad law spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"bad law spec {spec!r}; expected scaled-chisq:S:DF, mix2:W1:W2, "
        "beta-fold:K1:K2, or tetrad"
    )
