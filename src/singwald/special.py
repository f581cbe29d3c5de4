"""Special functions of the chi-square family, in numpy alone.

Every law in this package is a chi-square law, a mixture over an angle of
chi-square laws with integer degrees of freedom, or a chi-square law read
in 1/x.  So every distribution function it needs is one of the
regularized incomplete gamma functions P(a, x) and Q(a, x) = 1 - P(a, x)
at a = df/2 for integer df, and each has a closed form in exp and erfc:

    Q(m, x)       = exp(-x) * sum_{k<m} x^k / k!,
    Q(m + 1/2, x) = erfc(sqrt(x)) + exp(-x) * sum_{k<m} x^(k+1/2) / Gamma(k + 3/2).

The module computes four things: erfcx, P and Q, the mixtures of P and Q
over an angle rule, and the root that inverts them.  Every distribution
function runs its kernel through one block loop, ``_blockwise``, over tiles
of ``_BLOCK`` points, which also turns a 0-d argument into a float.

erfcx
    erfcx(z) = exp(z^2) * erfc(z) for z >= 0 is t * exp(C(u)) with
    t = 2/(2 + z) and u = 2t - 1, where C(u) = sum_k c_k T_k(u) is a
    Chebyshev series on [-1, 1].  Its coefficients interpolate
    g(u) = log(erfcx(z)/t) at the N = ``_ERFCX_NODES`` Chebyshev points of
    the first kind u_j = cos(pi*(j + 1/2)/N), with g evaluated to
    ``_ERFCX_DPS`` significant digits:

        c_k = (2 - [k = 0]) / N * sum_j g(u_j) * cos(pi*k*(j + 1/2)/N).

    The table keeps the first 28 of them, rounded to double; the first one
    dropped is 2.3e-18.  ``tests/test_special.py`` refits the table from
    mpmath.  The kernel sums the same polynomial in the power basis of u by
    Horner's rule, in blocks.  erfc(sqrt(x)) = erfcx(sqrt(x)) * exp(-x)
    takes the exponent from x itself, not from a rounded sqrt(x) squared.
P and Q
    On the side where the value is small, each is a sum of positive terms:
    Q for x >= a by the closed form above, summed from its largest term;
    P for x < a by the series x^a e^-x / Gamma(a + 1) * sum_n x^n /
    ((a + 1) ... (a + n)).  The prefactor of Q, and that of P beyond
    a = 100, are taken in logs (with the rounding of the exponent
    compensated), so large df and large x neither underflow nor overflow
    early.  The other side is one minus that.
Angle rules
    The limit laws of a definite bivariate form and of an equal-magnitude
    split spectrum are mixtures F(t) = sum_j w_j P(df/2, t r_j).
    :func:`_node_rule` makes a rule, a read-only (2, N) array of rates
    r_j and weights w_j that are multiples of 2^-53 summing to exactly 1;
    :func:`_angle_cdf` sums the terms node by node, or with ``upper`` the
    terms w_j Q(df/2, t r_j) of the survival function.  Each term is
    -w expm1(-x) or w exp(-x) for df = 2; otherwise w Q is w times exp(-x)
    times the closed-form sum, one exponential per node and point, and w P
    is w - w Q, accurate to a few ulp of w, with the positive series where
    P < 1e-6; and pointwise P or Q above df = 400.  :func:`_angle_log_pdf`
    is log F' at one point, a log-sum-exp over the nodes.
Roots
    :func:`_root` inverts a CDF or a survival function by Newton steps on
    log(side/target), from the law's log-density, kept inside a bracket
    that doubles and then bisects geometrically.  Every quantile in the
    package goes through it.

Distribution functions
    ``chi2_cdf`` and ``chi2_sf`` are P and Q at (df/2, x/2) for every df.
    ``tetrad_singular_cdf`` takes its normal tail 1 - Phi(2 sqrt(t)) as
    Q(1/2, 2t)/2, and ``tetrad_singular_sf`` is written in erfcx; both are
    tiles of ``_tetrad_kernel``.  An angle rule is free of scale: its kernel
    divides t by the law's scale (mix2's w_hi).  These four are the
    public names: the laws of ``singwald.laws`` are built on them and on the
    angle rules, and ``singwald.tetrad`` takes its p-values from them
    without loading the laws.  Every other name is private to the package.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from . import _BLOCK

_ERFCX_NODES = 80
_ERFCX_DPS = 40
_ERFCX_COEF = (
    -0.6513268598908547,
    0.6419697923564902,
    0.019476473204185836,
    -0.009561514786808632,
    -0.0009465953444820369,
    0.00036683949785276145,
    4.252332480690777e-05,
    -2.0278578112534242e-05,
    -1.6242900046470256e-06,
    1.3036558355805232e-06,
    1.5626441722066142e-08,
    -8.523809591492654e-08,
    6.5290544390988515e-09,
    5.059343495551469e-09,
    -9.91364156493033e-10,
    -2.273651222931836e-10,
    9.646791102015527e-11,
    2.3940380830391146e-12,
    -6.886027526497553e-12,
    8.944879273090725e-13,
    3.130921399342958e-13,
    -1.1270822361367252e-13,
    3.810905255189232e-16,
    7.106097613609237e-15,
    -1.5230282014571043e-15,
    -9.457494571291233e-17,
    1.210237189224279e-16,
    -2.816663087747177e-17,
)


def _power_basis(cheb) -> list[float]:
    """a_j with sum_k c_k T_k(u) = sum_j a_j u^j.  The T_k have integer
    coefficients (T_{k+1} = 2u T_k - T_{k-1}), so each a_j is one exactly
    rounded sum of the products c_k * T_k[j]."""
    t = [[1], [0, 1]]
    while len(t) < len(cheb):
        nxt = [0] + [2 * v for v in t[-1]]
        for j, v in enumerate(t[-2]):
            nxt[j] -= v
        t.append(nxt)
    return [
        math.fsum(c * tk[j] for c, tk in zip(cheb, t) if j < len(tk))
        for j in range(len(cheb))
    ]


# The same polynomial in the power basis, C(u) = sum_k a_k u^k: Horner's
# rule costs two array operations per term where Clenshaw's recurrence
# costs three.  The |a_k| sum to 1.46, so the change of basis costs no
# accuracy.
_ERFCX_POWER = _power_basis(_ERFCX_COEF)


def _erfcx_anchor() -> float:
    """The constant term that makes C vanish exactly at u = 1 (z = 0), so
    that erfcx(0) = 1 exactly: the other terms summed at u = 1 in the order
    the kernel sums them, negated.  It is within an ulp or two of a_0."""
    a = _ERFCX_POWER
    h = a[-1]
    for ak in a[-2:0:-1]:
        h = h * 1.0 + ak
    return -(h * 1.0)


_ERFCX_A0 = _erfcx_anchor()

# Up to this a, the lower series takes its prefactor x^a e^-x / Gamma(a + 1)
# directly (x < a keeps x^a below 1e200); beyond it, in logs.
_DIRECT_POWER_MAX = 100.0

# The angle-rule kernel clamps x here.  exp(-x) and its products with the
# weights (multiples of 2^-53) then stay normal numbers: numpy's exp takes
# a path 20 to 150 times slower where it underflows past x = 708, and
# arithmetic on subnormals is slow too.  Up to _CLOSED_FORM_DF_MAX,
# Q(df/2, 600) < 1e-80, far below any ulp of the CDF.
_X_CLAMP = 600.0
_CLOSED_FORM_DF_MAX = 400

# Up to this many points the angle kernel sums its node terms by one running
# sum down the rows (3.5 ns a term); above it, an add per row (0.4 us) wins.
_RUNNING_SUM_MAX = 64

# The tetrad kernel clamps t here.  Both closed forms read exactly 1 and 0
# from about t = 380 on, so the clamp moves no value.
_TETRAD_T_MAX = 1e3

# The smallest subnormal and the largest float: the root finder's last
# candidates before 0 and inf.
_TINY = 5e-324
_LARGEST = sys.float_info.max


def _blockwise(kernel, x):
    """``kernel(x_block)`` over ``_BLOCK``-point blocks of x, so that the
    kernels' temporaries stay in cache; a float for a 0-d x."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    for i in range(0, flat.size, _BLOCK):
        out[i : i + _BLOCK] = kernel(flat[i : i + _BLOCK])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _erfcx_kernel(z):
    """erfcx(z) for an array of z >= 0."""
    a = _ERFCX_POWER
    out = np.add(z, 2.0, out=np.empty_like(z))
    np.divide(2.0, out, out=out)  # t
    u = out * 2.0
    u -= 1.0
    h = u * a[-1]
    h += a[-2]
    for ak in a[-3:0:-1]:
        h *= u
        h += ak
    h *= u
    h += _ERFCX_A0
    np.exp(h, out=h)
    out *= h
    return out


def _positive_int(value, name: str = "df") -> int:
    """An integral parameter (2.0 counts) as an int; a ValueError naming it
    otherwise."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = 0
    if whole < 1 or whole != value:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return whole


def _exp_diff(c, x):
    """exp(c - x), with the rounding error of c - x (TwoSum) compensated."""
    s = c - x
    bb = s - c
    err = (c - (s - bb)) + (-x - bb)
    return np.exp(s) * (1.0 + err)


def _upper_sum(a: float, x):
    """Q(a, x) for x >= a, x > 0: a sum of positive terms."""
    n = int(a)  # terms of the finite sum
    # Q(1/2, x) = erfc(sqrt(x)) for half-integer a
    q = _erfcx_kernel(np.sqrt(x)) * np.exp(-x) if a != n else np.zeros_like(x)
    if n:
        xs = np.minimum(x, 1e300)  # Q is 0 there; keeps log finite
        top = _exp_diff((a - 1.0) * np.log(xs) - math.lgamma(a), xs)
        # Horner from the largest term x^(a-1) / Gamma(a) downwards: the
        # ratio of each term to the one above it is (a - j) / x
        inv = 1.0 / xs
        s = np.ones_like(xs)
        for j in range(n - 1, 0, -1):
            s *= inv
            s *= a - j
            s += 1.0
        q += top * s
    return q


def _lower_series(a: float, x):
    """P(a, x) for 0 < x < a: a series of positive terms."""
    if a <= _DIRECT_POWER_MAX:
        lead = x**a * np.exp(-x) / math.gamma(a + 1.0)
    else:
        lead = _exp_diff(a * np.log(x) - math.lgamma(a + 1.0), x)
    term = np.ones_like(x)
    total = np.ones_like(x)
    k = 1
    while True:
        term *= x
        term /= a + k
        total += term
        # the terms fall (x < a + k), so once none exceeds 2^-54 of its total
        # every later one is below half an ulp of it and leaves it unchanged:
        # each value does not depend on the others in the call
        if not np.any(term > 2.0**-54 * total):
            return lead * total
        k += 1


def _gamma_kernel(df: int, upper: bool, x):
    a = df / 2.0
    # x <= 0 and NaN give P = 0, Q = 1
    out = np.full(x.shape, 1.0 if upper else 0.0)
    low = np.flatnonzero((x > 0) & (x < a))
    if low.size:
        p = _lower_series(a, x[low])
        out[low] = 1.0 - p if upper else p
    high = np.flatnonzero(x >= a)
    if high.size:
        q = _upper_sum(a, x[high])
        out[high] = q if upper else 1.0 - q
    return out


def _lower_gamma(df, x):
    """Regularized lower incomplete gamma function P(df/2, x)."""
    return _blockwise(functools.partial(_gamma_kernel, _positive_int(df), False), x)


def _upper_gamma(df, x):
    """Regularized upper incomplete gamma function Q(df/2, x)."""
    return _blockwise(functools.partial(_gamma_kernel, _positive_int(df), True), x)


def chi2_cdf(x, df: int):
    return _lower_gamma(df, np.asarray(x, dtype=float) / 2.0)


def chi2_sf(x, df: int):
    return _upper_gamma(df, np.asarray(x, dtype=float) / 2.0)


def _node_rule(rate, p):
    """The angle rule (r_j, w_j) as a read-only (2, N) array, with the
    probabilities p rounded to multiples of 2^-53 that sum to exactly 1, so
    that any partial sum of the weights is exact."""
    if not (np.all(np.isfinite(p)) and np.all(p >= 0.0) and p.sum() > 0.0):
        raise ValueError(
            "angle-rule node probabilities are not finite and nonnegative with a "
            "positive sum: the node masses underflow for these law parameters"
        )
    units = np.rint(p * 2.0**53).astype(np.int64)
    units[np.argmax(units)] += 2**53 - units.sum()
    rule = np.stack([rate, units / 2.0**53])
    rule.flags.writeable = False
    return rule


def _node_terms(df: int, x, w, upper: bool = False):
    """w * P(df/2, x), or with ``upper`` w * Q(df/2, x), for a tile of
    x >= 0 (inf allowed), one row of x and one weight w per node.

    df = 2 is -w * expm1(-x) or w * exp(-x).  Otherwise w * Q is exp(-x)
    times the closed-form sum (capped at w), with x clamped at ``_X_CLAMP``,
    where Q is below any ulp of w (the upper term reads 0 past it), and
    w * P is w - w * Q, accurate to a few ulp of w.  Where P < 1e-6 the
    rounding of that difference would be noise far above P itself, so the
    positive series for P takes over.  Its switch ignores the factor
    e^(-x), so just above it P's relative error reaches 4.7e-4 at df = 100
    (item 17 of ROADMAP.md).  Above ``_CLOSED_FORM_DF_MAX`` the clamp would
    cut off mass, and :func:`_lower_gamma` or :func:`_upper_gamma` takes
    over.
    """
    if df == 2:
        # -w * expm1(-x) or w * exp(-x), in one buffer: exactly +0 at x = 0,
        # and w where x overflows to inf
        out = np.negative(x)
        (np.exp if upper else np.expm1)(out, out=out)
        out *= w if upper else -w
        return out
    if df > _CLOSED_FORM_DF_MAX:
        return (_upper_gamma if upper else _lower_gamma)(df, x) * w
    n, odd = divmod(df, 2)
    xc = np.minimum(x, _X_CLAMP)
    # w * sum_{k<n} x^(k+a0) / Gamma(k + a0 + 1), a0 = odd/2, nested as
    # w * x^a0 / Gamma(a0 + 1) * (1 + x/(a0 + 1) * (1 + x/(a0 + 2) * ...))
    lead = w * (2.0 / math.sqrt(math.pi) if odd else 1.0)
    h = lead
    if n > 1:
        h = xc * (lead / (0.5 * odd + n - 1))
        h += lead
        for k in range(n - 2, 0, -1):
            h *= xc
            h *= 1.0 / (0.5 * odd + k)
            h += lead
    if odd:
        z = np.sqrt(xc)
        out = _erfcx_kernel(z)
        out *= w
        if n:
            out += h * z
    else:
        out = h
    np.negative(xc, out=xc)
    np.exp(xc, out=xc)
    out *= xc
    # near x = 0 the rounding can put w * Q an ulp or three above w
    np.minimum(out, w, out=out)
    if upper:
        np.copyto(out, 0.0, where=x > _X_CLAMP)
        return out
    np.subtract(w, out, out=out)
    a = df / 2.0
    edge = math.exp((math.log(1e-6) + math.lgamma(a + 1.0)) / a)  # P(a, edge) ~ 1e-6
    x, flat = x.reshape(-1), out.reshape(-1)
    small = np.flatnonzero(x < edge)
    small = small[x[small] > 0.0]  # x = 0 already gives exactly 0
    if small.size:
        w = np.broadcast_to(w, out.shape).reshape(-1)
        flat[small] = w[small] * _lower_series(a, x[small])
    return out


def _angle_kernel(rule, df: int, scale: float, upper: bool, t):
    x = np.where(t > 0, t, 0.0)
    acc = np.zeros_like(x)
    # nodes go in groups of rows that fill a tile, so that a call on a few
    # points (a scalar CDF inside a root finder) makes few array calls;
    # every element sees the same arithmetic whatever the grouping
    group = max(1, _BLOCK // x.size)
    with np.errstate(over="ignore"):  # t / scale = inf is F = 1 and sf = 0
        x /= scale
        for j in range(0, rule.shape[1], group):
            r, w = rule[:, j : j + group, None]
            terms = _node_terms(df, x * r, w, upper)
            if x.size <= _RUNNING_SUM_MAX:
                terms[0] += acc
                acc = np.add.accumulate(terms, out=terms)[-1]
            else:
                for row in terms:
                    acc += row
    return acc


def _angle_cdf(t, rule, df: int, scale: float = 1.0, upper: bool = False):
    """F(t) = sum_j w_j * P(df/2, (t / scale) * r_j) over the nodes (r_j, w_j)
    of an angle rule from :func:`_node_rule`, or with ``upper`` the survival
    function, the same sum over Q: each tile of t is divided by ``scale``,
    so that one rule serves its law at every scale.

    Each point's terms are added one node at a time, in the same order for
    every point.  With nonnegative weights that sum to exactly 1 this gives
    F(0) = 0, sf(0) = 1, both within [0, 1] and, wherever P and Q are
    monotone in floating point, both monotone, without clipping.  Points
    t <= 0 (and NaN) map to F = 0 and sf = 1.
    """
    return _blockwise(functools.partial(_angle_kernel, rule, df, scale, upper), t)


def _angle_log_pdf(t: float, rule, df: int, scale: float = 1.0) -> float:
    """log F'(t) at t > 0 for :func:`_angle_cdf`: log sum_j w_j (r_j/scale)
    x_j^(a-1) e^-x_j / Gamma(a), x_j = (t/scale) r_j, a = df/2, with r_j/scale
    taken as log r_j - log scale so that it cannot overflow."""
    r, w = rule
    a = df / 2.0
    with np.errstate(over="ignore", divide="ignore"):
        x = np.minimum((t / scale) * r, _LARGEST)
        terms = np.log(w * r) - x + (a - 1.0) * np.log(np.maximum(x, _TINY))
    top = terms.max()
    return float(top + math.log(np.exp(terms - top).sum()) - math.log(scale) - math.lgamma(a))


def _tetrad_kernel(upper: bool, t):
    tp = np.where(t > 0, t, 0.0)
    np.minimum(tp, _TETRAD_T_MAX, out=tp)  # 2t and its products stay finite
    if upper:
        root = np.sqrt(2.0 * tp)
        return np.exp(-2.0 * tp) * (1.0 - 0.5 * np.sqrt(np.pi) * root * _erfcx_kernel(root))
    upper_tail = 0.5 * _gamma_kernel(1, True, 2.0 * tp)  # 1 - Phi(2 sqrt t)
    return -np.expm1(-2.0 * tp) + np.sqrt(2.0 * np.pi * tp) * upper_tail


def tetrad_singular_cdf(t):
    """Distribution function of ``R^2*U^2/4`` in closed form."""
    return _blockwise(functools.partial(_tetrad_kernel, False), t)


def tetrad_singular_sf(t):
    """Survival function ``1 - F(t)`` of ``R^2*U^2/4``, written as
    ``exp(-2t) * (1 - sqrt(2*pi*t)/2 * erfcx(sqrt(2t)))`` so that it keeps
    full relative accuracy in the tail, where ``1 - F`` cancels."""
    return _blockwise(functools.partial(_tetrad_kernel, True), t)


def _root(side, target: float, x: float, upper: bool, log_density) -> float:
    """The x >= 0 with side(x) = target, starting from x > 0: side is a CDF
    (increasing from 0 at x = 0) or, with ``upper``, a survival function
    (decreasing from 1), and ``log_density`` gives log |side'(x)|.  Pass
    the side whose value is small, so that target carries full relative
    accuracy.

    Each step is a Newton step on log(side/target) = 0, against log x on the
    lower side, where these laws behave like powers of x, and against x on
    the upper side, where they decay like exponentials.  A lower step moves
    x to x * e^step, and to e^(log x + step) only where e^step would leave
    the float range: the rounding of log x costs |log x| * 2^-52 of the
    root.  A step that leaves the bracket of the root known so far doubles x
    (halves it toward 0) while the bracket is open, and bisects it
    geometrically once closed.  It stops when a step moves x by at most
    2^-50 of itself, or when no float is left inside the bracket, where the
    end whose side is closer to target wins (0 for a root that underflows).
    A root past the largest float is inf.  A bracket that closes on a side
    value of exactly 0 at an x above 0 is a RuntimeError: the side has lost
    its resolution there, and either end would be a wrong root.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target!r}")
    lo, hi = 0.0, math.inf  # x below and above the root
    f_lo, f_hi = (1.0, 0.0) if upper else (0.0, 1.0)
    for _ in range(200):
        f = float(side(x))
        if f == target:
            return x
        if (f > target) == upper:
            lo, f_lo = x, f
        else:
            hi, f_hi = x, f
        new = math.nan
        if f > 0.0:
            u, g = (x if upper else math.log(x)), math.log(f / target)
            # d log(side)/du: -side'/side on the upper side, x*side'/side
            # below, capped where exp overflows (past 709.78)
            w = log_density(x) - math.log(f)
            slope = -math.exp(min(w, 709.0)) if upper else math.exp(min(w + u, 709.0))
            if slope != 0.0:
                step = -g / slope
                new = x + step if upper else math.inf if u + step >= 709.0 else (
                    x * math.exp(step) if abs(step) < 700.0 else math.exp(u + step))
                if new == 0.0 and hi > _TINY:
                    new = _TINY  # the root may underflow: try the smallest float
        if abs(new - x) <= 2.0**-50 * x:
            return new
        if not lo < new < hi:
            if hi == math.inf:
                if lo == _LARGEST:
                    return math.inf
                new = min(2.0 * lo, _LARGEST)
            elif lo == 0.0:
                new = 0.5 * hi
            else:
                new = math.sqrt(lo) * math.sqrt(hi)
            if not lo < new < hi:
                if lo > 0.0 and 0.0 in (f_lo, f_hi):
                    raise RuntimeError(
                        f"the {'sf' if upper else 'cdf'} reads 0 at x={lo if f_lo == 0.0 else hi!r},"
                        f" inside the law's support: no root for target={target!r}"
                    )
                return lo if abs(f_lo - target) <= abs(f_hi - target) else hi
        x = new
    raise RuntimeError(f"root finder did not converge for target={target!r}")
