"""The benchmark workloads: seeded inputs, ``wald`` commands, checks.

Inputs are generated from the benchmark seed alone; the program sees only
the files written here and the arguments of each command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

SAMPLE_N = 500_000
VERIFY_N = 100_000
TETRAD_P, TETRAD_ROWS = 20, 1000


@dataclass(frozen=True)
class Command:
    """One ``wald`` invocation and the check its stdout must pass."""

    args: tuple[str, ...]
    check: Callable[[bytes], list[str]]
    threaded: bool = False  # output must not depend on --threads


@dataclass(frozen=True)
class Instance:
    """A workload made concrete for one seed."""

    commands: tuple[Command, ...]
    setup: tuple[str, ...]  # arguments of ``probe.py setup``
    speedup: tuple[str, ...] = field(default=())  # arguments of ``probe.py speedup``


def _write_matrix(path: Path, m: np.ndarray) -> None:
    rows = "\n".join(" ".join(format(v, ".17g") for v in row) for row in m)
    path.write_text(f"{m.shape[0]}\n{rows}\n", encoding="utf-8")


def sample_quartic(seed: int, workdir: Path) -> Instance:
    """g(x) = prod_i (Bx)_i under Sigma = B^-1 D B^-T, so W ~ chi2_1 / 16."""
    from singwald.poly import HomogeneousPolynomial

    rng = np.random.default_rng([seed, 1])
    b = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
    g = HomogeneousPolynomial.from_terms([(1.0, (1, 1, 1, 1))]).compose_linear(b)
    poly = workdir / "quartic.poly"
    poly.write_text(
        "# prod_i (Bx)_i\n"
        + "".join(f"{c:.17g} {' '.join(map(str, e))}\n" for c, e in g.terms),
        encoding="utf-8",
    )
    b_inv = np.linalg.inv(b)
    sigma = b_inv @ np.diag(rng.uniform(0.5, 2.0, 4)) @ b_inv.T
    mat = workdir / "quartic.mat"
    _write_matrix(mat, (sigma + sigma.T) / 2.0)
    args = ("sample", "--poly", str(poly), "--sigma", str(mat), "--n", str(SAMPLE_N))
    return Instance(
        commands=(Command(args, lambda out: checks.check_sample(out, SAMPLE_N, 1.0 / 16.0), True),),
        setup=(f"poly={poly}", f"sigma={mat}"),
        speedup=(str(poly), str(mat), str(SAMPLE_N)),
    )


def verify(seed: int, workdir: Path) -> Instance:
    args = ("verify", "--suite", "all", "--n", str(VERIFY_N))
    return Instance(
        commands=(Command(args, checks.check_verify_report, True),),
        setup=(),
    )


def tetrad_scan(seed: int, workdir: Path) -> Instance:
    """One-factor data: x = lambda * F + e, so every tetrad vanishes."""
    rng = np.random.default_rng([seed, 3])
    loadings = rng.uniform(0.5, 1.5, TETRAD_P)
    noise_sd = np.sqrt(rng.uniform(0.5, 1.5, TETRAD_P))
    x = (
        rng.standard_normal(TETRAD_ROWS)[:, None] * loadings
        + rng.standard_normal((TETRAD_ROWS, TETRAD_P)) * noise_sd
    )
    csv = workdir / "one_factor.csv"
    header = ",".join(f"x{j + 1}" for j in range(TETRAD_P))
    csv.write_text(
        header + "\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in x),
        encoding="utf-8",
    )
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    args = ("tetrad-test", "--data", str(csv), "--all")
    return Instance(
        commands=(Command(args, lambda out: checks.check_tetrad_scan(out, data)),),
        setup=(f"csv={csv}",),
    )


def sample_tetrad(seed: int, workdir: Path) -> Instance:
    """The quartic sample, then the tetrad scan: the two commands whose
    text output is large, one timed repetition running both."""
    sample, scan = sample_quartic(seed, workdir), tetrad_scan(seed, workdir)
    return Instance(
        commands=sample.commands + scan.commands,
        setup=sample.setup + scan.setup,
        speedup=sample.speedup,
    )


# name -> (why it was chosen, function making its instance)
WORKLOADS = {
    "verify": (
        "wald verify --suite all --n 100000: normals, sampler, quadrature CDFs at many points and 16 checks over the thread pool",
        verify,
    ),
    "sample-tetrad": (
        "wald sample n=5e5 of a 35-term quartic, then wald tetrad-test --all p=20 n=1000: poly, per-tetrad covariance, text output",
        sample_tetrad,
    ),
}
