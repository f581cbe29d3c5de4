"""Homogeneous polynomials, power-product forms, and quadratic forms.

A homogeneous polynomial is kept as a sparse, canonical term list
(coefficient plus integer exponent vector).  The constructor canonicalizes
and validates the terms, which alone fix the number of variables and the
degree, and compiles the polynomial once into one monomial sum, the
gradient's (the distinct degree-(d-1) monomials with a k-column weight
matrix), a row-blocked kernel of power tables, monomial products and one
BLAS product per block.  The value follows from the gradient by Euler's
identity for a form of degree d, ``x . grad f(x) = d f(x)``.  Linear
re-parameterization expands ``f(Bx)`` by multiplying out the substituted
linear forms.  Real (possibly non-integer) exponents are confined to
:class:`MonomialForm`, which only ever enters the sampling machinery
through a reciprocal identity that never raises a negative number to a
fractional power.
"""

from __future__ import annotations

import math

import numpy as np

from . import _BLOCK, _Record
from .errors import ParseError, content_lines, read_input

__all__ = [
    "HomogeneousPolynomial",
    "MonomialForm",
    "QuadraticForm",
    "load_polynomial",
    "parse_polynomial",
]

# Relative determinant floor below which a change of variables is rejected
# as numerically singular.
_DET_RTOL = 1e-12


class _MonomialSum:
    """Compiled ``x -> sum_r w_r x^e_r`` over the rows of an (n, k) array.

    exps: (R, k) exponent vectors e_r.
    weights: (R,) or (R, q) weights w_r; the result has shape (n,) or (n, q).

    Rows of x are processed in blocks of ``_BLOCK``.  A block is copied
    into a power table, one contiguous row per power x_j^p for p = 1 .. the
    largest exponent of x_j, built by repeated multiplication.  Each
    monomial is the product of its table rows, written into a preallocated
    (R, block) buffer, and one BLAS product with the weights gives the
    block's output.
    """

    def __init__(self, exps: np.ndarray, weights: np.ndarray):
        top = exps.max(axis=0)
        start = np.concatenate([[0], np.cumsum(top)])
        present = np.flatnonzero(top)
        # Table row start[j] + p - 1 holds x_j^p.
        self._columns = tuple((int(j), int(start[j])) for j in present)
        self._powers = tuple(
            (int(start[j] + p), int(start[j])) for j in present for p in range(1, top[j])
        )
        self._factors = tuple(
            tuple(int(start[j] + e[j] - 1) for j in np.flatnonzero(e)) for e in exps
        )
        self._table_rows = int(start[-1])
        self._weights = weights

    def __call__(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        out = np.empty((n,) + self._weights.shape[1:])
        width = min(n, _BLOCK)
        table = np.empty((self._table_rows, width))
        mono = np.empty((len(self._factors), width))
        for s in range(0, n, _BLOCK):
            xb = x[s : s + _BLOCK]
            b = xb.shape[0]
            t, m = table[:, :b], mono[:, :b]
            for j, row in self._columns:
                t[row] = xb[:, j]
            for row, first in self._powers:
                np.multiply(t[row - 1], t[first], out=t[row])
            for r, factors in enumerate(self._factors):
                dst = m[r]
                if not factors:
                    dst[:] = 1.0
                elif len(factors) == 1:
                    dst[:] = t[factors[0]]
                else:
                    np.multiply(t[factors[0]], t[factors[1]], out=dst)
                    for q in factors[2:]:
                        np.multiply(dst, t[q], out=dst)
            np.matmul(m.T, self._weights, out=out[s : s + b])
        return out


def _euler_value(x: np.ndarray, g: np.ndarray, d: int) -> np.ndarray:
    """f at the rows of the (n, k) array ``x`` from its gradient ``g`` there,
    by Euler's identity for a form of degree d: ``f(x) = x . grad f(x) / d``.
    The products ``x_j g_j`` are summed over the columns in order, then
    divided once by d."""
    out = np.multiply(x[:, 0], g[:, 0])
    term = np.empty_like(out)
    for j in range(1, x.shape[1]):
        np.multiply(x[:, j], g[:, j], out=term)
        np.add(out, term, out=out)
    out /= d
    return out


def _row_quadratic(g: np.ndarray, sigma: np.ndarray, over=None) -> np.ndarray:
    """``g_i^T Sigma g_i`` for every row g_i of the (n, k) array ``g``, or
    for the rows ``over / g_i`` when the k-vector ``over`` is given.

    Rows are processed in blocks of ``_BLOCK``, each copied transposed into
    a (k, block) buffer.  Every row sums ``(g_j * s_jm) * g_m`` into a zero,
    with j outer and m inner: the order of ``np.einsum("ij,jk,ik->i", g,
    sigma, g)``, so the result is the einsum's bit for bit, except at k = 2
    with n <= 2, where einsum's iterator takes another order.
    """
    n, k = g.shape
    out = np.zeros(n)
    width = min(n, _BLOCK)
    rows = np.empty((k, width))
    term = np.empty(width)
    for s in range(0, n, _BLOCK):
        gb = g[s : s + _BLOCK]
        b = gb.shape[0]
        t, w, acc = rows[:, :b], term[:b], out[s : s + b]
        if over is None:
            t[...] = gb.T
        else:
            np.divide(over[:, None], gb.T, out=t)
        for j in range(k):
            for m in range(k):
                np.multiply(t[j], sigma[j, m], out=w)
                np.multiply(w, t[m], out=w)
                np.add(acc, w, out=acc)
    return out


def _check_term(coeff: float, exps: tuple[int, ...], first: tuple[int, ...]) -> None:
    """The rule for one term of a polynomial whose first term has the
    exponent vector ``first``: a finite coefficient, as many exponents as
    ``first``, none negative, and the degree of ``first``."""
    if not math.isfinite(coeff):
        raise ValueError(f"coefficient {coeff} is not finite")
    if len(exps) != len(first):
        raise ValueError(f"term has {len(exps)} exponents, expected {len(first)}")
    for e in exps:
        if e < 0:
            raise ValueError(f"negative exponent {e}")
    if sum(exps) != sum(first):
        raise ValueError(f"not homogeneous: term degree {sum(exps)}, expected {sum(first)}")


class HomogeneousPolynomial(_Record):
    """Sparse homogeneous polynomial with integer exponents.

    terms: tuple of (coefficient, exponent vector) pairs.  Every given
        term, a zero coefficient included, must pass the term rule against
        the first; construction then canonicalizes them (merged, zero
        coefficients dropped, deterministic order) and requires a nonzero
        term and a degree >= 1.

    The number of variables ``k`` and the degree ``d`` are read from the
    terms.
    """

    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self):
        terms = [(float(c), tuple(int(e) for e in exps)) for c, exps in self.terms]
        # Canonical form: duplicate exponent vectors merged, zeros dropped,
        # exponent vectors in descending order.
        acc: dict[tuple[int, ...], float] = {}
        for coeff, exps in terms:
            _check_term(coeff, exps, terms[0][1])
            acc[exps] = acc.get(exps, 0.0) + coeff
        canon = tuple(sorted(((c, e) for e, c in acc.items() if c != 0.0), reverse=True,
                             key=lambda t: t[1]))
        if not canon:
            raise ValueError("zero polynomial: at least one nonzero term required")
        k = len(canon[0][1])
        if sum(canon[0][1]) < 1:
            raise ValueError("degree must be at least 1")
        object.__setattr__(self, "terms", canon)
        # f = sum_t c_t x^e_t, so df/dx_j = sum_t c_t e_tj x^(e_t - u_j).
        # The gradient table holds each distinct exponent g = e_t - u_j once,
        # with weight c_t e_tj in column j.  It is read from the terms, so it
        # is no field: it takes no part in construction, equality or repr.
        grad_weights: dict[tuple[int, ...], np.ndarray] = {}
        for coeff, e in canon:
            for j, ej in enumerate(e):
                if ej:
                    g = e[:j] + (ej - 1,) + e[j + 1 :]
                    grad_weights.setdefault(g, np.zeros(k))[j] = coeff * ej
        object.__setattr__(
            self,
            "_gradient",
            _MonomialSum(
                np.array(list(grad_weights), dtype=np.intp),
                np.array(list(grad_weights.values())),
            ),
        )

    @classmethod
    def from_terms(cls, terms) -> "HomogeneousPolynomial":
        return cls(terms=tuple(terms))

    @property
    def k(self) -> int:
        """Number of variables."""
        return len(self.terms[0][1])

    @property
    def d(self) -> int:
        """Common total degree of every term."""
        return sum(self.terms[0][1])

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.k:
            raise ValueError(f"point has dimension {x.shape[-1]}, expected {self.k}")
        return x

    def evaluate(self, x) -> float | np.ndarray:
        """Value of the polynomial at ``x`` (a k-vector or an (n, k) array)."""
        x = self._check_point(x)
        rows = x[None, :] if x.ndim == 1 else x
        value = _euler_value(rows, self._gradient(rows), self.d)
        return float(value[0]) if x.ndim == 1 else value

    def gradient(self, x) -> np.ndarray:
        """Gradient at ``x``; shape (k,) for a vector, (n, k) for rows."""
        x = self._check_point(x)
        if x.ndim == 1:
            return self._gradient(x[None, :])[0]
        return self._gradient(x)

    def scale(self, c: float) -> "HomogeneousPolynomial":
        """Multiply every coefficient by the nonzero scalar ``c``."""
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        return HomogeneousPolynomial(tuple((c * coeff, exps) for coeff, exps in self.terms))

    def compose_linear(self, b) -> "HomogeneousPolynomial":
        """Expanded polynomial ``x -> f(Bx)`` for an invertible matrix B."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.k, self.k):
            raise ValueError(f"matrix must be {self.k}x{self.k}, got {b.shape}")
        norm = np.linalg.norm(b, 2)
        if abs(np.linalg.det(b)) < _DET_RTOL * norm**self.k:
            raise ValueError("matrix is numerically singular")
        result: dict[tuple[int, ...], float] = {}
        for coeff, exps in self.terms:
            prod = {tuple([0] * self.k): coeff}
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                row = {
                    tuple(1 if l == j else 0 for l in range(self.k)): b[i, j]
                    for j in range(self.k)
                    if b[i, j] != 0.0
                }
                prod = _poly_mul(prod, _poly_pow(row, e, self.k))
            for exps2, c2 in prod.items():
                result[exps2] = result.get(exps2, 0.0) + c2
        return HomogeneousPolynomial.from_terms([(c, e) for e, c in result.items()])

    def to_quadratic_form(self) -> "QuadraticForm":
        """Symmetric matrix A with ``f(x) = x^T A x`` (degree 2 only)."""
        if self.d != 2:
            raise ValueError(f"polynomial has degree {self.d}, expected 2")
        a = np.zeros((self.k, self.k))
        for coeff, exps in self.terms:
            idx = [j for j, e in enumerate(exps) if e > 0]
            if len(idx) == 1:
                a[idx[0], idx[0]] = coeff
            else:
                i, j = idx
                a[i, j] = a[j, i] = coeff / 2.0
        return QuadraticForm(a)

    def __str__(self) -> str:
        parts = []
        for coeff, exps in self.terms:
            factors = [
                f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}"
                for j, e in enumerate(exps)
                if e > 0
            ]
            mono = "*".join(factors) if factors else "1"
            if coeff == 1.0:
                parts.append(mono)
            elif coeff == -1.0:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff:g}*{mono}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], float] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0.0) + ca * cb
    return out


def _poly_pow(p: dict, e: int, k: int) -> dict:
    out = {tuple([0] * k): 1.0}
    base = p
    while e:
        if e & 1:
            out = _poly_mul(out, base)
        e >>= 1
        if e:
            base = _poly_mul(base, base)
    return out


class MonomialForm(_Record):
    """Power product ``x1^a1 * ... * xk^ak`` with finite, strictly positive
    real exponents.

    The associated Wald ratio is computed through the reciprocal identity

        1/W = (a/x)^T Sigma (a/x),   (a/x)_i = a_i / x_i,

    which is well defined whenever every coordinate is nonzero, an
    almost-sure event under any of the sampling measures used here.
    """

    exponents: tuple[float, ...]

    def __post_init__(self):
        exps = tuple(float(a) for a in self.exponents)
        if not exps:
            raise ValueError("at least one exponent required")
        if not all(0 < a < math.inf for a in exps):
            raise ValueError("all exponents must be finite and strictly positive")
        object.__setattr__(self, "exponents", exps)

    @property
    def k(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> float:
        return sum(self.exponents)

    def reciprocal_wald(self, x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """``1/W`` evaluated row-wise on an (n, k) array of points."""
        return _row_quadratic(np.asarray(x, dtype=float), sigma, np.asarray(self.exponents))


class QuadraticForm(_Record):
    """Symmetric matrix A representing the quadratic form ``x^T A x``."""

    a: np.ndarray
    _HIDDEN = ("a",)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix contains non-finite entries")
        scale = np.abs(a).max()
        if scale == 0.0:
            raise ValueError("zero quadratic form")
        if np.abs(a - a.T).max() > 1e-10 * scale:
            raise ValueError("matrix is not symmetric")
        sym = (a + a.T) / 2.0  # exact symmetry
        sym.flags.writeable = False
        object.__setattr__(self, "a", sym)

    @property
    def k(self) -> int:
        return self.a.shape[0]

    def to_polynomial(self) -> HomogeneousPolynomial:
        """Inverse of :meth:`HomogeneousPolynomial.to_quadratic_form`."""
        terms = []
        for i in range(self.k):
            if self.a[i, i] != 0.0:
                exps = [0] * self.k
                exps[i] = 2
                terms.append((self.a[i, i], tuple(exps)))
            for j in range(i + 1, self.k):
                if self.a[i, j] != 0.0:
                    exps = [0] * self.k
                    exps[i] = exps[j] = 1
                    terms.append((2.0 * self.a[i, j], tuple(exps)))
        return HomogeneousPolynomial.from_terms(terms)


def parse_polynomial(text: str, path: str = "<input>") -> HomogeneousPolynomial:
    """Parse the one-term-per-line polynomial format.

    Each content line is ``coeff e1 e2 ... ek``.  Every term passes the
    constructor's term rule against the first term, so the dimension and
    degree are the first term's; a fault names its line.
    """
    terms: list[tuple[float, tuple[int, ...]]] = []
    for lineno, line in content_lines(text):
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError("expected a coefficient followed by at least one exponent",
                             path, lineno)
        try:
            coeff = float(tokens[0])
        except ValueError:
            raise ParseError(f"bad coefficient {tokens[0]!r}", path, lineno) from None
        exps = []
        for tok in tokens[1:]:
            try:
                exps.append(int(tok))
            except ValueError:
                raise ParseError(f"bad exponent {tok!r}", path, lineno) from None
        term = (coeff, tuple(exps))
        try:
            _check_term(*term, terms[0][1] if terms else term[1])
        except ValueError as exc:
            raise ParseError(str(exc), path, lineno) from None
        terms.append(term)
    if not terms:
        raise ParseError("no terms found", path)
    try:
        return HomogeneousPolynomial.from_terms(terms)
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def load_polynomial(path) -> HomogeneousPolynomial:
    return parse_polynomial(read_input(path), path=str(path))
