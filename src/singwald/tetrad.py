"""Wald test of a vanishing tetrad with singularity-aware p-values.

The tetrad of a covariance matrix Theta at columns (i, j, k, l) is the
off-diagonal subdeterminant

    gamma = theta_ik * theta_jl - theta_il * theta_jk,

which vanishes under a one-factor model.  Its Wald statistic is

    T = n * gamma_hat^2 / (grad^T Sigma_C grad),

where the gradient runs over the pair order C = (ik, il, jk, jl) and
Sigma_C, with entry theta_ac * theta_bd + theta_ad * theta_bc at pairs
(a, b) and (c, d), is the Gaussian fourth-moment covariance of the sample
covariances restricted to C.  Over (i, j) x (k, l) the gradient is the
cofactor matrix G = [[theta_jl, -theta_jk], [-theta_il, theta_ik]] of
A = Theta[(i, j), (k, l)], gamma = det A and G A^T = gamma I, so the
theta_ad * theta_bc half of the denominator is tr((G A^T)^2) = 2 gamma^2:

    grad^T Sigma_C grad = tr(G^T Theta_ij G Theta_kl) + 2 gamma^2,

Theta_ij and Theta_kl being the diagonal blocks on (i, j) and (k, l).  The
kernel takes it from the ten covariance entries on {i, j, k, l} and forms
no Sigma_C.

At a regular null point T is asymptotically chi-square-1; when all four
cross covariances vanish the limit is the tetrad singular law (R^2*U^2/4),
which is stochastically smaller, so the chi-square-1 cut stays
conservative.  Both tail probabilities are always reported and a gradient
heuristic flags which regime the data resemble; the hint never changes the
p-values.

One batched kernel, :func:`tetrad_wald`, computes the statistic for m
tetrads of one covariance or of a stack of covariances, in blocks of
``_BLOCK`` tetrads with no Python loop within a block.
:func:`wald_tetrad_test` applies it to data: one empirical covariance
serves one tetrad or every tetrad of a scan, and degenerate tetrads are
flagged, not raised.  The calibration simulation in
``singwald.verify`` calls the kernel on a stack of covariances.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, combinations

import numpy as np

from . import _BLOCK, _Record
from .errors import ParseError, content_lines, read_input
# tetrad_singular_cdf is unused here but stays importable from this module,
# where bench/tracer.py wraps it by name.
from .special import chi2_sf, tetrad_singular_cdf, tetrad_singular_sf

__all__ = [
    "DataMatrix",
    "TetradIndex",
    "empirical_covariance",
    "asymptotic_v_normal",
    "TetradWald",
    "tetrad_wald",
    "wald_tetrad_test",
    "zero_variance_columns",
    "tetrad_index_array",
    "all_tetrads",
    "load_data_csv",
]


class DataMatrix(_Record):
    """n observations of p >= 4 jointly measured variables."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("data must be a 2-d array")
        n, p = values.shape
        if p < 4:
            raise ValueError(f"need at least 4 columns, got {p}")
        if n < p + 1:
            raise ValueError(f"need at least p + 1 = {p + 1} rows, got {n}")
        if not np.all(np.isfinite(values)):
            raise ValueError("data contains non-finite entries")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


class TetradIndex(namedtuple("TetradIndex", "i j k l")):
    """Four distinct zero-based column indices (i, j, k, l)."""

    __slots__ = ()

    def __new__(cls, i, j, k, l):
        self = super().__new__(cls, i, j, k, l)
        if len(set(self)) != 4:
            raise ValueError(f"tetrad indices must be distinct, got {tuple(self)}")
        if min(self) < 0:
            raise ValueError(f"tetrad indices must be nonnegative, got {tuple(self)}")
        return self


def empirical_covariance(data: DataMatrix) -> np.ndarray:
    """Mean-centered second moment with divisor n (not n - 1)."""
    centered = data.values - data.values.mean(axis=0)
    return centered.T @ centered / data.n


def zero_variance_columns(data: DataMatrix) -> list[int]:
    """Indices of the constant columns of ``data``."""
    return np.flatnonzero(np.ptp(data.values, axis=0) == 0).tolist()


def asymptotic_v_normal(theta: np.ndarray, pairs) -> np.ndarray:
    """Gaussian fourth-moment covariance of sample covariances.

    Entry for row pair (a, b) and column pair (c, d) is
    theta_ac * theta_bd + theta_ad * theta_bc.

    ``pairs`` is a sequence of (a, b) or an integer array of shape
    (..., q, 2); ``theta`` may be a stack of shape (..., p, p).  The result
    has shape (theta stack..., pairs stack..., q, q).
    """
    theta = np.asarray(theta, dtype=float)
    if np.abs(theta - np.swapaxes(theta, -1, -2)).max() > 1e-10 * max(
        np.abs(theta).max(), 1e-300
    ):
        raise ValueError("theta must be symmetric")
    pairs = np.asarray(pairs, dtype=np.intp)
    p = theta.shape[-1]
    if pairs.size and not -p <= pairs.min() <= pairs.max() < p:
        raise IndexError(f"pair index out of range for p={p}")
    a, b = pairs[..., :, None, 0], pairs[..., :, None, 1]
    c, d = pairs[..., None, :, 0], pairs[..., None, :, 1]
    return theta[..., a, c] * theta[..., b, d] + theta[..., a, d] * theta[..., b, c]


class TetradWald(_Record):
    """Tetrad Wald results as arrays of shape (theta stack..., idx stack...).

    ``degenerate`` marks tetrads whose estimated variance ``grad^T V grad``
    is not positive and finite; their other entries are meaningless.
    """

    idx: np.ndarray
    gamma_hat: np.ndarray
    t_stat: np.ndarray
    p_regular: np.ndarray
    p_singular: np.ndarray
    regime_hint: np.ndarray
    degenerate: np.ndarray


def tetrad_wald(theta: np.ndarray, n: int, idx) -> TetradWald:
    """Wald statistics of the tetrads ``idx`` (shape (..., 4), rows i, j, k, l)
    of a covariance ``theta`` of shape (p, p), or of a stack (..., p, p),
    each estimated from n observations; a row that repeats a column raises.

    The flattened tetrads run in blocks of ``_BLOCK``, each written into
    the preallocated fields, so a scan holds its result and one block's
    temporaries."""
    theta = np.asarray(theta, dtype=float)
    idx = np.asarray(idx, dtype=np.intp)
    rows = idx.reshape(-1, 4)
    flat_shape = theta.shape[:-2] + rows.shape[:1]
    gamma, t_stat, p_regular, p_singular = (np.empty(flat_shape) for _ in range(4))
    regime_hint = np.empty(flat_shape, dtype="<U13")
    degenerate = np.empty(flat_shape, dtype=bool)
    scale = np.sqrt(np.log(n) / n)
    for start in range(0, rows.shape[0], _BLOCK):
        block = rows[start : start + _BLOCK]
        out = (..., slice(start, start + _BLOCK))
        i, j, k, l = block.T
        repeated = (i == j) | (i == k) | (i == l) | (j == k) | (j == l) | (k == l)
        if repeated.any():
            bad = tuple(block[repeated.argmax()].tolist())
            raise ValueError(f"tetrad indices must be distinct, got {bad}")
        t_ik, t_il = theta[..., i, k], theta[..., i, l]
        t_jk, t_jl = theta[..., j, k], theta[..., j, l]
        t_ii, t_jj, t_kk, t_ll = (theta[..., a, a] for a in (i, j, k, l))
        t_ij, t_kl = theta[..., i, j], theta[..., k, l]
        g = gamma[out] = t_ik * t_jl - t_il * t_jk
        # H = G Theta_kl G^T, entry by entry
        h_ii = t_kk * t_jl**2 - 2.0 * t_kl * t_jk * t_jl + t_ll * t_jk**2
        h_jj = t_kk * t_il**2 - 2.0 * t_kl * t_il * t_ik + t_ll * t_ik**2
        h_ij = t_kl * (t_jl * t_ik + t_jk * t_il) - t_kk * t_jl * t_il - t_ll * t_jk * t_ik
        denom = t_ii * h_ii + 2.0 * t_ij * h_ij + t_jj * h_jj + 2.0 * g**2
        with np.errstate(divide="ignore", invalid="ignore"):
            t_stat[out] = n * g**2 / denom
            p_regular[out] = chi2_sf(t_stat[out], 1)
            p_singular[out] = tetrad_singular_sf(t_stat[out])
        # |grad|^2 against the largest diagonal entry of Sigma_C
        grad_sq = t_jl**2 + t_jk**2 + t_il**2 + t_ik**2
        var_max = np.maximum(
            np.maximum(t_ii * t_kk + t_ik**2, t_ii * t_ll + t_il**2),
            np.maximum(t_jj * t_kk + t_jk**2, t_jj * t_ll + t_jl**2),
        )
        threshold = 4.0 * var_max * scale
        regime_hint[out] = np.where(grad_sq < threshold, "near_singular", "regular")
        degenerate[out] = ~((denom > 0.0) & np.isfinite(denom))
    shape = theta.shape[:-2] + idx.shape[:-1]
    return TetradWald(
        idx=idx,
        gamma_hat=gamma.reshape(shape),
        t_stat=t_stat.reshape(shape),
        p_regular=p_regular.reshape(shape),
        p_singular=p_singular.reshape(shape),
        regime_hint=regime_hint.reshape(shape),
        degenerate=degenerate.reshape(shape),
    )


def wald_tetrad_test(data: DataMatrix, idx) -> TetradWald:
    """Tetrad Wald statistics of ``data`` with both the regular and the
    singular p-value, from one empirical covariance.

    ``idx`` is one :class:`TetradIndex`, giving fields of shape (), or an
    (m, 4) index array, giving fields of shape (m,).  Degenerate tetrads are
    flagged in ``degenerate``; a repeated or out-of-range index raises.
    """
    idx = np.asarray(idx, dtype=np.intp)
    rows = idx.reshape(-1, 4)
    if rows.size and not 0 <= rows.min() <= rows.max() < data.p:
        outside = rows[((rows < 0) | (rows >= data.p)).any(axis=1)]
        raise ValueError(
            f"tetrad indices {tuple(outside[0].tolist())} out of range for "
            f"p={data.p} columns"
        )
    return tetrad_wald(empirical_covariance(data), data.n, idx)


def tetrad_index_array(p: int) -> np.ndarray:
    """Every tetrad on p columns as rows (i, j, k, l): each 4-subset in its
    3 pairings (ab|cd), (ac|bd), (ad|bc)."""
    quads = np.fromiter(
        chain.from_iterable(combinations(range(p), 4)), dtype=np.intp, count=4 * math.comb(p, 4)
    ).reshape(-1, 4)
    return quads[:, [[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2]]].reshape(-1, 4)


# No program path calls all_tetrads; bench/test_bench.py imports it by name.
def all_tetrads(p: int):
    """Every tetrad index on p columns: each 4-subset in its 3 pairings."""
    for row in tetrad_index_array(p).tolist():
        yield TetradIndex(*row)


def load_data_csv(path) -> DataMatrix:
    """Read a CSV data matrix; a first row that is not all numbers is the
    header, and a row of empty fields is skipped.  Faults name their line,
    a non-finite value among them.

    A file without a ``"`` is parsed in one array pass.  A quoted file, and
    any file that pass rejects, is read record by record through the
    ``csv`` module, which names the first fault and its line."""
    path = str(path)
    text = read_input(path)
    lines = list(content_lines(text))
    values = None if '"' in text else _parse_unquoted(lines)
    if values is None:
        values = _parse_records(lines, path)
    try:
        return DataMatrix(values=values)
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def _parse_unquoted(lines):
    """The data rows of quote-free content lines as one array, or None if
    they hold a fault: a ragged or all-empty row, a token numpy does not
    read (``1_0`` among them, which Python's ``float`` does), a non-finite
    value, or no data row at all."""
    for start, (_, line) in enumerate(lines):
        head = [tok.strip() for tok in line.split(",")]
        if any(head):
            break
    else:
        return None
    try:
        for tok in head:
            float(tok)
    except ValueError:
        start += 1  # the header
    rows = [line for _, line in lines[start:]]
    if not rows:
        return None
    try:
        values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(rows), len(head)) or not np.isfinite(values).all():
        return None
    return values


def _parse_records(lines, path) -> np.ndarray:
    """The data rows of content lines, parsed record by record, so that a
    quoted field may hold a comma or span lines; raises at the first fault."""
    import csv

    rows: list[list[float]] = []
    width = None
    reader = csv.reader(line for _, line in lines)
    consumed = 0
    for row in reader:
        # A quoted field may span lines: the record starts at the first
        # content line the reader had not consumed before it.
        lineno = lines[consumed][0]
        consumed = reader.line_num
        row = [tok.strip() for tok in row]
        if not any(row):
            continue
        first = width is None
        if first:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"row has {len(row)} fields, expected {width}", path, lineno)
        try:
            values = [float(tok) for tok in row]
        except ValueError as exc:
            if not first:
                raise ParseError(f"bad numeric field: {exc}", path, lineno) from None
            continue
        for tok, value in zip(row, values):
            if not math.isfinite(value):
                raise ParseError(f"non-finite numeric field: {tok!r}", path, lineno)
        rows.append(values)
    if not rows:
        raise ParseError("no data rows found", path)
    return np.array(rows)
