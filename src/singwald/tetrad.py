"""Wald test of a vanishing tetrad with singularity-aware p-values.

The tetrad of a covariance matrix Theta at columns (i, j, k, l) is the
off-diagonal subdeterminant

    gamma = theta_ik * theta_jl - theta_il * theta_jk,

which vanishes under a one-factor model.  Its Wald statistic is

    T = n * gamma_hat^2 / (grad^T Sigma_C grad),

where the gradient runs over the pair order C = (ik, il, jk, jl) and
Sigma_C is the Gaussian fourth-moment covariance of the sample covariances
restricted to C.  At a regular null point T is asymptotically chi-square-1;
when all four cross covariances vanish the limit is the tetrad singular law
(R^2*U^2/4), which is stochastically smaller, so the chi-square-1 cut stays
conservative.  Both tail probabilities are always reported and a gradient
heuristic flags which regime the data resemble; the hint never changes the
p-values.

One batched kernel, :func:`tetrad_wald`, computes the statistic for m
tetrads of one covariance or of a stack of covariances, with no Python loop
over tetrads.  :func:`wald_tetrad_test` applies it to data: one empirical
covariance serves one tetrad or every tetrad of a scan, and degenerate
tetrads are flagged, not raised.  The calibration simulation in
``singwald.verify`` calls the kernel on a stack of covariances.
"""

from __future__ import annotations

import csv
from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ParseError
# tetrad_singular_cdf is unused here but stays importable from this module,
# where bench/tracer.py wraps it by name.
from .laws import chi2_sf, tetrad_singular_cdf, tetrad_singular_sf

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


@dataclass(frozen=True)
class DataMatrix:
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

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Covariance pairs in the gradient order C = (ik, il, jk, jl)."""
        return (
            (self.i, self.k),
            (self.i, self.l),
            (self.j, self.k),
            (self.j, self.l),
        )


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
    a, b = pairs[..., 0], pairs[..., 1]
    a_row, b_row = a[..., :, None], b[..., :, None]
    a_col, b_col = a[..., None, :], b[..., None, :]
    return (
        theta[..., a_row, a_col] * theta[..., b_row, b_col]
        + theta[..., a_row, b_col] * theta[..., b_row, a_col]
    )


# Positions in (i, j, k, l) of the pairs C = (ik, il, jk, jl).
_PAIR_POSITIONS = [[0, 2], [0, 3], [1, 2], [1, 3]]


@dataclass(frozen=True)
class TetradWald:
    """Tetrad Wald results as arrays of shape (theta stack..., idx stack...).

    ``degenerate`` marks tetrads whose estimated variance ``grad^T V grad``
    is not positive and finite; their other entries are meaningless.
    """

    idx: np.ndarray
    gamma_hat: np.ndarray
    t_stat: np.ndarray
    p_regular: np.ndarray
    p_singular: np.ndarray
    gradient_norm: np.ndarray
    regime_hint: np.ndarray
    degenerate: np.ndarray


def tetrad_wald(theta: np.ndarray, n: int, idx) -> TetradWald:
    """Wald statistics of the tetrads ``idx`` (shape (..., 4), rows i, j, k, l)
    of a covariance ``theta`` of shape (p, p), or of a stack (..., p, p),
    each estimated from n observations."""
    theta = np.asarray(theta, dtype=float)
    idx = np.asarray(idx, dtype=np.intp)
    i, j, k, l = np.moveaxis(idx, -1, 0)
    t_ik, t_il = theta[..., i, k], theta[..., i, l]
    t_jk, t_jl = theta[..., j, k], theta[..., j, l]
    gamma = t_ik * t_jl - t_il * t_jk
    grad = np.stack([t_jl, -t_jk, -t_il, t_ik], axis=-1)
    vmat = asymptotic_v_normal(theta, idx[..., _PAIR_POSITIONS])
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = np.einsum("...i,...ij,...j->...", grad, vmat, grad)
        t_stat = n * gamma**2 / denom
        p_regular = chi2_sf(t_stat, 1)
        p_singular = tetrad_singular_sf(t_stat)
    grad_sq = np.einsum("...i,...i->...", grad, grad)
    threshold = 4.0 * np.diagonal(vmat, axis1=-2, axis2=-1).max(axis=-1) * np.sqrt(
        np.log(n) / n
    )
    return TetradWald(
        idx=idx,
        gamma_hat=gamma,
        t_stat=t_stat,
        p_regular=p_regular,
        p_singular=p_singular,
        gradient_norm=np.sqrt(grad_sq),
        regime_hint=np.where(grad_sq < threshold, "near_singular", "regular"),
        degenerate=~((denom > 0.0) & np.isfinite(denom)),
    )


def wald_tetrad_test(data: DataMatrix, idx) -> TetradWald:
    """Tetrad Wald statistics of ``data`` with both the regular and the
    singular p-value, from one empirical covariance.

    ``idx`` is one :class:`TetradIndex`, giving fields of shape (), or an
    (m, 4) index array, giving fields of shape (m,).  Degenerate tetrads are
    flagged in ``degenerate``; indices outside the p columns raise.
    """
    idx = np.asarray(idx, dtype=np.intp)
    rows = idx.reshape(-1, 4)
    outside = rows[((rows < 0) | (rows >= data.p)).any(axis=1)]
    if outside.size:
        raise ValueError(
            f"tetrad indices {tuple(outside[0].tolist())} out of range for "
            f"p={data.p} columns"
        )
    return tetrad_wald(empirical_covariance(data), data.n, idx)


def tetrad_index_array(p: int) -> np.ndarray:
    """Every tetrad on p columns as rows (i, j, k, l): each 4-subset in its
    3 pairings (ab|cd), (ac|bd), (ad|bc)."""
    quads = np.array(list(combinations(range(p), 4)), dtype=np.intp).reshape(-1, 4)
    return quads[:, [[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2]]].reshape(-1, 4)


def all_tetrads(p: int):
    """Every tetrad index on p columns: each 4-subset in its 3 pairings."""
    for row in tetrad_index_array(p).tolist():
        yield TetradIndex(*row)


def _looks_like_header(row: list[str]) -> bool:
    for tok in row:
        try:
            float(tok)
        except ValueError:
            return True
    return False


def load_data_csv(path) -> DataMatrix:
    """Read a CSV data matrix; a non-numeric first row is taken as a header."""
    path = str(path)
    rows: list[list[float]] = []
    width = None
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not tok.strip() for tok in row):
                continue
            row = [tok.strip() for tok in row]
            if width is None:
                width = len(row)
                if _looks_like_header(row):
                    continue
            if len(row) != width:
                raise ParseError(
                    f"row has {len(row)} fields, expected {width}", path, lineno
                )
            try:
                rows.append([float(tok) for tok in row])
            except ValueError as exc:
                raise ParseError(f"bad numeric field: {exc}", path, lineno) from None
    if not rows:
        raise ParseError("no data rows found", path)
    try:
        return DataMatrix(values=np.array(rows))
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc
