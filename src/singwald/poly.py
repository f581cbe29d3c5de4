"""Homogeneous polynomials, power-product forms, and quadratic forms.

A homogeneous polynomial is kept as a sparse, canonical term list
(coefficient plus integer exponent vector).  On construction it is compiled
once into two monomial sums, one for the value and one for the gradient
(the distinct degree-(d-1) monomials with a k-column weight matrix); both
run a row-blocked kernel of power tables, monomial products and one BLAS
product per block.  Linear re-parameterization expands ``f(Bx)`` by
multiplying out the substituted linear forms.  Real (possibly
non-integer) exponents are confined to :class:`MonomialForm`, which only
ever enters the sampling machinery through a reciprocal identity that never
raises a negative number to a fractional power.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError

__all__ = [
    "HomogeneousPolynomial",
    "MonomialForm",
    "QuadraticForm",
    "load_polynomial",
    "parse_polynomial",
    "format_polynomial",
]

# Relative determinant floor below which a change of variables is rejected
# as numerically singular.
_DET_RTOL = 1e-12


# Rows per block of the compiled kernel.  2^14 rows keep the per-thread
# buffers of a 35-term quartic near 7 MB while amortising numpy's per-call
# cost well enough that two sampler threads still scale: at 2^12 rows the
# threads serialised on the interpreter lock, and 2^16 rows saved about a
# tenth at two threads for four times the temporaries.
_BLOCK = 1 << 14


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


def _canonical_terms(terms) -> tuple[tuple[float, tuple[int, ...]], ...]:
    """Merge duplicate exponent vectors, drop zeros, sort deterministically."""
    acc: dict[tuple[int, ...], float] = {}
    for coeff, exps in terms:
        exps = tuple(int(e) for e in exps)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in term {exps}")
        acc[exps] = acc.get(exps, 0.0) + float(coeff)
    merged = [(c, e) for e, c in acc.items() if c != 0.0]
    merged.sort(key=lambda t: t[1], reverse=True)
    return tuple(merged)


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """Sparse homogeneous polynomial with integer exponents.

    terms: tuple of (coefficient, exponent vector) pairs, canonicalized
        (merged, zero coefficients dropped, deterministic order).
    k: number of variables.
    d: common total degree of every term (>= 1).
    """

    terms: tuple[tuple[float, tuple[int, ...]], ...]
    k: int
    d: int
    _value: _MonomialSum = field(init=False, repr=False, compare=False)
    _gradient: _MonomialSum = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # f = sum_t c_t x^e_t, so df/dx_j = sum_t c_t e_tj x^(e_t - u_j).
        # The gradient table holds each distinct exponent g = e_t - u_j once,
        # with weight c_t e_tj in column j.
        exps = np.array([e for _, e in self.terms], dtype=np.intp)
        coeffs = np.array([c for c, _ in self.terms])
        grad_weights: dict[tuple[int, ...], np.ndarray] = {}
        for coeff, e in self.terms:
            for j, ej in enumerate(e):
                if ej:
                    g = e[:j] + (ej - 1,) + e[j + 1 :]
                    grad_weights.setdefault(g, np.zeros(self.k))[j] = coeff * ej
        object.__setattr__(self, "_value", _MonomialSum(exps, coeffs))
        object.__setattr__(
            self,
            "_gradient",
            _MonomialSum(
                np.array(list(grad_weights), dtype=np.intp),
                np.array(list(grad_weights.values())),
            ),
        )

    @classmethod
    def from_terms(cls, terms, k: int | None = None) -> "HomogeneousPolynomial":
        canon = _canonical_terms(terms)
        if not canon:
            raise ValueError("zero polynomial: at least one nonzero term required")
        if k is None:
            k = len(canon[0][1])
        for _, exps in canon:
            if len(exps) != k:
                raise ValueError(
                    f"term has {len(exps)} exponents, expected {k}"
                )
        degrees = {sum(exps) for _, exps in canon}
        if len(degrees) != 1:
            raise ValueError(f"not homogeneous: term degrees {sorted(degrees)}")
        d = degrees.pop()
        if d < 1:
            raise ValueError("degree must be at least 1")
        return cls(terms=canon, k=k, d=d)

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.k:
            raise ValueError(f"point has dimension {x.shape[-1]}, expected {self.k}")
        return x

    def evaluate(self, x) -> float | np.ndarray:
        """Value of the polynomial at ``x`` (a k-vector or an (n, k) array)."""
        x = self._check_point(x)
        if x.ndim == 1:
            return float(self._value(x[None, :])[0])
        return self._value(x)

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
        return HomogeneousPolynomial(
            terms=tuple((c * coeff, exps) for coeff, exps in self.terms),
            k=self.k,
            d=self.d,
        )

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
        return HomogeneousPolynomial.from_terms(
            [(c, e) for e, c in result.items()], k=self.k
        )

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


@dataclass(frozen=True)
class MonomialForm:
    """Power product ``x1^a1 * ... * xk^ak`` with strictly positive real
    exponents.

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
        if any(a <= 0 for a in exps):
            raise ValueError("all exponents must be strictly positive")
        object.__setattr__(self, "exponents", exps)

    @property
    def k(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> float:
        return sum(self.exponents)

    def reciprocal_wald(self, x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """``1/W`` evaluated row-wise on an (n, k) array of points."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(self.exponents) / x
        return np.einsum("ij,jk,ik->i", v, sigma, v)


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric matrix A representing the quadratic form ``x^T A x``."""

    a: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
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
        return HomogeneousPolynomial.from_terms(terms, k=self.k)


_TOKEN = re.compile(r"\S+")


def parse_polynomial(text: str, path: str = "<input>") -> HomogeneousPolynomial:
    """Parse the one-term-per-line polynomial format.

    Each non-comment line is ``coeff e1 e2 ... ek``; `#` starts a comment.
    The dimension is inferred from the first term's exponent count and the
    common degree is validated.
    """
    terms: list[tuple[float, tuple[int, ...]]] = []
    k = None
    degree = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _TOKEN.findall(line)
        if len(tokens) < 2:
            raise ParseError(
                "expected a coefficient followed by at least one exponent",
                path,
                lineno,
            )
        try:
            coeff = float(tokens[0])
        except ValueError:
            raise ParseError(f"bad coefficient {tokens[0]!r}", path, lineno) from None
        exps = []
        for tok in tokens[1:]:
            try:
                e = int(tok)
            except ValueError:
                raise ParseError(f"bad exponent {tok!r}", path, lineno) from None
            if e < 0:
                raise ParseError(f"negative exponent {e}", path, lineno)
            exps.append(e)
        if k is None:
            k = len(exps)
        elif len(exps) != k:
            raise ParseError(
                f"term has {len(exps)} exponents, expected {k}", path, lineno
            )
        if degree is None:
            degree = sum(exps)
        elif sum(exps) != degree:
            raise ParseError(
                f"term degree {sum(exps)} breaks homogeneity (degree {degree})",
                path,
                lineno,
            )
        terms.append((coeff, tuple(exps)))
    if not terms:
        raise ParseError("no terms found", path)
    try:
        return HomogeneousPolynomial.from_terms(terms, k=k)
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def load_polynomial(path) -> HomogeneousPolynomial:
    with open(path, encoding="utf-8") as fh:
        return parse_polynomial(fh.read(), path=str(path))


def format_polynomial(f: HomogeneousPolynomial) -> str:
    """Serialize to the text format accepted by :func:`parse_polynomial`."""
    lines = [f"# {f}"]
    for coeff, exps in f.terms:
        lines.append(format(coeff, ".17g") + " " + " ".join(str(e) for e in exps))
    return "\n".join(lines) + "\n"
