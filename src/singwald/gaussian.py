"""Validated covariance matrices, their square roots, and seeded generators.

Randomness contract
-------------------
All samplers in this package derive their streams from the counter-based
Philox-4x64 generator with a two-word key ``(seed, stream)``, each mod
2^64.  Normal variates come from numpy's ziggurat implementation.
Identical ``(seed, stream, n)`` triples reproduce draws bit for bit within
one build of the package; distinct keys give statistically independent
streams, which is how concurrent batches stay deterministic regardless of
scheduling.

A draw of n rows is taken in the row chunks of :func:`_chunks`, one after
the other from its stream, and reduced chunk by chunk, so no n-sized
intermediate is held.  Every chunk-wise draw in the package yields the
bytes of the same draw taken whole; Gaussian rows come from
:func:`_normal_rows` alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import _BLOCK, _Record
from .errors import ParseError, content_lines, read_input

if TYPE_CHECKING:
    from .poly import QuadraticForm

__all__ = [
    "CovarianceMatrix",
    "make_generator",
    "validate_covariance",
    "factor",
    "eigenvalues_of_product",
    "load_matrix",
    "parse_matrix",
]

# Eigenvalues below this fraction of the largest one count as zero when
# detecting rank.
RANK_RTOL = 1e-10
# Most negative eigenvalue tolerated, as a fraction of the largest.
_PSD_RTOL = 1e-8


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by ``(seed, stream)``, each mod 2^64, as a
    uint64 array: numpy reads a list word of 2^63 or more through float64."""
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunks(n: int):
    """``(start, stop)`` of each row chunk of a draw of n rows: ``_BLOCK``
    rows each, the last taking the rest once fewer than ``2 * _BLOCK`` rows
    remain, and one chunk for n below that.

    No chunk is shorter than ``_BLOCK`` rows or the whole draw (a matmul
    over one or two rows rounds differently), and chunk starts are
    multiples of ``_BLOCK`` like the blocks of the polynomial kernels, so a
    draw taken and reduced in these chunks keeps the bytes of the whole.
    """
    last = max(n // _BLOCK, 1) - 1
    for j in range(last):
        yield j * _BLOCK, (j + 1) * _BLOCK
    yield last * _BLOCK, n


def _normal_rows(rng: np.random.Generator, b: np.ndarray, n: int):
    """n rows of N(0, BB^T) from ``rng``, one row chunk of :func:`_chunks`
    at a time, for a (k, m) factor b; stacked, the chunks are the bytes of
    ``rng.standard_normal((n, m)) @ b.T``.  Every Gaussian row is drawn here."""
    for start, stop in _chunks(n):
        yield rng.standard_normal((stop - start, b.shape[1])) @ b.T


class CovarianceMatrix(_Record):
    """Symmetric positive-semidefinite matrix with positive diagonal, and
    its square root.

    Construct through :func:`validate_covariance`, which symmetrizes the
    input exactly and keeps the factor B, BB^T = Sigma, of its one
    eigendecomposition.  B has one column per retained eigenvalue, so the
    rank is its column count and rank-deficient covariances sample on their
    support without any degenerate noise.
    """

    sigma: np.ndarray
    factor_b: np.ndarray
    _HIDDEN = ("sigma", "factor_b")

    @property
    def k(self) -> int:
        return self.sigma.shape[0]

    @property
    def rank(self) -> int:
        return self.factor_b.shape[1]


def _symmetric(m, what: str) -> np.ndarray:
    """The exact, read-only ``(m + m^T)/2`` of a square, finite m whose
    asymmetry max |m - m^T| is at most 1e-10 of max |m|, a rule free of scale
    that Sigma and the form A share; a ValueError that names ``what`` if not."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} contains non-finite entries")
    asym = np.abs(m - m.T).max()
    if asym > 1e-10 * np.abs(m).max():
        raise ValueError(f"matrix is asymmetric: max |m - m^T| = {asym:g}")
    sym = (m + m.T) / 2.0
    sym.flags.writeable = False
    return sym


def validate_covariance(m) -> CovarianceMatrix:
    """Check symmetry, positive semidefiniteness, and the diagonal sign,
    and factor the matrix.

    The input is symmetrized by :func:`_symmetric`, relative to its largest
    entry; eigenvalues more negative than ``-1e-8 * max_eigenvalue`` are
    rejected.  Eigenvalues below the rank threshold are dropped from the
    factor, which must reproduce Sigma to ``1e-8 * max |Sigma|``.
    """
    sym = _symmetric(m, "covariance")
    diag = np.diag(sym)
    if np.any(diag <= 0):
        raise ValueError(f"diagonal entries must be strictly positive, got {diag}")
    eigvals, vecs = np.linalg.eigh(sym)
    top = eigvals[-1]
    if top <= 0:
        raise ValueError("matrix has no positive eigenvalue")
    if eigvals[0] < -_PSD_RTOL * top:
        raise ValueError(
            f"matrix is not positive semidefinite: eigenvalue {eigvals[0]:g}"
        )
    keep = eigvals > RANK_RTOL * top
    b = vecs[:, keep] * np.sqrt(eigvals[keep])
    recon = np.abs(b @ b.T - sym).max()
    if recon > 1e-8 * np.abs(sym).max():
        raise ValueError(f"factorization failed: reconstruction error {recon:g}")
    b.flags.writeable = False
    return CovarianceMatrix(sigma=sym, factor_b=b)


def factor(sigma: CovarianceMatrix) -> np.ndarray:
    """The read-only square root B of Sigma, k x rank(Sigma), BB^T = Sigma."""
    return sigma.factor_b


def eigenvalues_of_product(a: QuadraticForm, sigma: CovarianceMatrix) -> np.ndarray:
    """Eigenvalues of A*Sigma, sorted descending.

    Computed as the eigenvalues of the symmetric matrix B^T A B where
    Sigma = BB^T, which makes them provably real.  For a rank-deficient
    Sigma the k - rank(Sigma) structural zeros are omitted: the returned
    vector has rank(Sigma) entries.
    """
    if a.k != sigma.k:
        raise ValueError(
            f"dimension mismatch: form is {a.k}x{a.k}, covariance {sigma.k}x{sigma.k}"
        )
    b = factor(sigma)
    lams = np.linalg.eigvalsh(b.T @ a.a @ b)
    return np.sort(lams)[::-1]


def parse_matrix(text: str, path: str = "<input>") -> np.ndarray:
    """Parse the matrix text format: a content line with k, then k rows."""
    rows: list[list[float]] = []
    k = None
    for lineno, line in content_lines(text):
        if k is None:
            try:
                k = int(line)
            except ValueError:
                raise ParseError(f"expected the dimension k on the first line, got {line!r}",
                                 path, lineno) from None
            if k < 1:
                raise ParseError(f"dimension must be positive, got {k}", path, lineno)
            continue
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"bad matrix row {line!r}", path, lineno) from None
        if len(row) != k:
            raise ParseError(f"row has {len(row)} entries, expected {k}", path, lineno)
        rows.append(row)
        if len(rows) > k:
            raise ParseError(f"more than {k} rows", path, lineno)
    if k is None:
        raise ParseError("empty matrix file", path)
    if len(rows) != k:
        raise ParseError(f"found {len(rows)} rows, expected {k}", path)
    return np.array(rows)


def load_matrix(path) -> np.ndarray:
    return parse_matrix(read_input(path), path=str(path))
