"""Output checks for the benchmark workloads.

Each check takes the bytes a ``wald`` command wrote to stdout and returns a
list of problems; an empty list means the output is correct.  Reference
values are recomputed here with numpy and scipy alone, never with singwald.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import special


def _table(out: bytes, header: str, width: int):
    """Split a TSV table into rows of ``width`` fields, or report why not."""
    try:
        lines = out.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        return None, [f"output is not UTF-8: {exc}"]
    if not lines or lines[0] != header:
        return None, [f"expected header {header!r}, got {lines[:1]!r}"]
    rows = [line.split("\t") for line in lines[1:]]
    bad = [i for i, r in enumerate(rows, start=2) if len(r) != width]
    if bad:
        return None, [f"line {bad[0]} does not have {width} fields"]
    return rows, []


def _floats(rows, col: int):
    try:
        return np.array([r[col] for r in rows], dtype=float), []
    except ValueError as exc:
        return None, [f"non-numeric field in column {col}: {exc}"]


# ---------------------------------------------------------------------------
# wald sample: sorted draws of W, whose law is scale * chi-square(1).
# ---------------------------------------------------------------------------

def check_sample(out: bytes, n: int, scale: float) -> list[str]:
    """Exactly n finite sorted values whose KS distance to scale*chi2_1 is
    at most 3/sqrt(n)."""
    lines = out.count(b"\n")
    if lines != n or not out.endswith(b"\n"):
        return [f"expected {n} lines, got {lines}"]
    try:
        values = np.array(out.split(), dtype=float)
    except ValueError as exc:
        return [f"non-numeric sample line: {exc}"]
    if values.size != n:
        return [f"expected {n} values, got {values.size}"]
    if not np.all(np.isfinite(values)):
        return ["sample contains non-finite values"]
    if np.any(np.diff(values) < 0):
        return ["sample is not sorted"]
    cdf = special.erf(np.sqrt(np.maximum(values, 0.0) / (2.0 * scale)))
    i = np.arange(1, n + 1)
    ks = max(float((i / n - cdf).max()), float((cdf - (i - 1) / n).max()))
    if ks > 3.0 / np.sqrt(n):
        return [f"KS distance {ks:.3g} to scaled-chisq:{scale:g}:1 exceeds 3/sqrt(n)"]
    return []


# ---------------------------------------------------------------------------
# verify: the TSV report of the verification suite.
# ---------------------------------------------------------------------------

VERIFY_HEADER = "name\ttier\tstatistic\tthreshold\tpass\tn\tseed"


def check_verify_report(out: bytes) -> list[str]:
    """Every row well formed and every theorem-tier row passing."""
    rows, errors = _table(out, VERIFY_HEADER, 7)
    if errors:
        return errors
    theorem = [r for r in rows if r[1] == "theorem"]
    if not theorem:
        return ["report has no theorem-tier rows"]
    errors = [f"unknown tier in row {r[0]}" for r in rows if r[1] not in ("theorem", "conjecture")]
    errors += [f"bad pass field in row {r[0]}" for r in rows if r[4] not in ("pass", "FAIL")]
    errors += [f"theorem-tier check failed: {r[0]}" for r in theorem if r[4] != "pass"]
    return errors


# ---------------------------------------------------------------------------
# wald tetrad-test --all: every tetrad of a CSV, recomputed in closed form.
# ---------------------------------------------------------------------------

TETRAD_HEADER = "i\tj\tk\tl\tgamma\tt\tp_regular\tp_singular\tregime"


def tetrad_indices(p: int) -> np.ndarray:
    """The (i, j, k, l) of each 4-subset in its three pairings, in order."""
    out = []
    for a, b, c, d in combinations(range(p), 4):
        out += [(a, b, c, d), (a, c, b, d), (a, d, b, c)]
    return np.array(out, dtype=int)


def tetrad_reference(data: np.ndarray, idx: np.ndarray) -> dict:
    """gamma, T and both p-values of every tetrad, vectorised."""
    n = data.shape[0]
    centered = data - data.mean(axis=0)
    theta = centered.T @ centered / n
    i, j, k, l = idx.T
    gamma = theta[i, k] * theta[j, l] - theta[i, l] * theta[j, k]
    grad = np.stack([theta[j, l], -theta[j, k], -theta[i, l], theta[i, k]], axis=1)
    pairs = np.stack([np.stack(p, axis=1) for p in ((i, k), (i, l), (j, k), (j, l))], axis=1)
    a, b = pairs[:, :, None, 0], pairs[:, :, None, 1]
    c, d = pairs[:, None, :, 0], pairs[:, None, :, 1]
    v = theta[a, c] * theta[b, d] + theta[a, d] * theta[b, c]
    t = n * gamma**2 / np.einsum("mi,mij,mj->m", grad, v, grad)
    root = np.sqrt(2.0 * t)
    return {
        "gamma": gamma,
        "t": t,
        "p_regular": special.erfc(np.sqrt(t / 2.0)),
        # 1 - F(t) for F(t) = 1 - exp(-2t) + sqrt(2 pi t) (1 - Phi(2 sqrt t)),
        # written without cancellation.
        "p_singular": np.exp(-2.0 * t) * (1.0 - 0.5 * np.sqrt(np.pi) * root * special.erfcx(root)),
    }


# Printed with 10 significant digits, so 1e-9 relative; the absolute floors
# cover values that are zero up to rounding (a p-value computed as 1 - F is
# exact only to about 1e-16).
_TETRAD_ATOL = {"gamma": 1e-13, "t": 1e-12, "p_regular": 1e-14, "p_singular": 1e-14}
_TETRAD_COLS = {"gamma": 4, "t": 5, "p_regular": 6, "p_singular": 7}


def check_tetrad_scan(out: bytes, data: np.ndarray) -> list[str]:
    rows, errors = _table(out, TETRAD_HEADER, 9)
    if errors:
        return errors
    idx = tetrad_indices(data.shape[1])
    if len(rows) != len(idx):
        return [f"expected {len(idx)} tetrad rows, got {len(rows)}"]
    try:
        got_idx = np.array([r[:4] for r in rows], dtype=int)
    except ValueError as exc:
        return [f"bad tetrad index: {exc}"]
    if not np.array_equal(got_idx, idx):
        return ["tetrad rows are not every tetrad in enumeration order"]
    if any(r[8] not in ("regular", "near_singular") for r in rows):
        return ["bad regime field"]
    ref = tetrad_reference(data, idx)
    for name, col in _TETRAD_COLS.items():
        got, errors = _floats(rows, col)
        if errors:
            return errors
        err = np.abs(got - ref[name]) - (1e-9 * np.abs(ref[name]) + _TETRAD_ATOL[name])
        worst = int(np.argmax(err))
        if err[worst] > 0:
            return [
                f"{name} of tetrad {tuple(idx[worst])} is {got[worst]!r}, "
                f"recomputed {ref[name][worst]!r}"
            ]
    return []
