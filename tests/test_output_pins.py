"""The stdout of ``wald sample`` and ``wald tetrad-test --all`` on the
benchmark's seeded inputs, pinned by sha256 at three seeds.

The inputs are rebuilt here the way ``bench/workloads.py`` writes them: the
quartic prod_i (Bx)_i with its Sigma, sampled at n = 500000 and checked at
one and two threads, and the one-factor CSV of ``test_cli.one_factor_csv``
(p = 20, n = 1000).  A change to how these commands draw, evaluate or print
must keep every byte.  Regenerating the hashes is a declared behaviour
change: write them with ``PYTHONPATH=src python tests/test_output_pins.py >
tests/data/output_pins.sha256`` and name the outputs that moved in
CHANGES.md.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from singwald.cli import run
from singwald.poly import HomogeneousPolynomial
from test_cli import one_factor_csv

PINNED = Path(__file__).parent / "data" / "output_pins.sha256"
SEEDS = (1, 5, 23)
# label -> (command, seed of its inputs)
COMMANDS = {f"sample quartic({seed}) --n 500000 --seed {seed}": ("sample", seed) for seed in SEEDS}
COMMANDS |= {f"tetrad-test one_factor_csv({seed}) --all": ("tetrad-test", seed) for seed in SEEDS}


def _write_quartic(seed: int, workdir: Path) -> list[str]:
    """The benchmark's quartic and Sigma for ``seed``, as ``sample`` arguments."""
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
    sigma = (sigma + sigma.T) / 2.0
    mat = workdir / "quartic.mat"
    rows = "\n".join(" ".join(format(v, ".17g") for v in row) for row in sigma)
    mat.write_text(f"4\n{rows}\n", encoding="utf-8")
    return ["--poly", str(poly), "--sigma", str(mat)]


def _argv(label: str, threads: int, workdir: Path) -> list[str]:
    command, seed = COMMANDS[label]
    if command == "sample":
        return ["sample", *_write_quartic(seed, workdir), "--n", "500000",
                "--threads", str(threads), "--seed", str(seed)]
    csv = one_factor_csv(workdir / "one_factor.csv", seed)
    return ["tetrad-test", "--data", str(csv), "--all"]


def _digest(label: str, threads: int, workdir: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(_argv(label, threads, workdir)) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _pinned() -> dict:
    lines = PINNED.read_text(encoding="utf-8").splitlines()
    return {label: digest for digest, label in (line.split("  ", 1) for line in lines)}


def test_pinned_labels_are_the_outputs():
    assert list(_pinned()) == list(COMMANDS)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("label", [k for k, v in COMMANDS.items() if v[0] == "sample"])
def test_sample_output_is_pinned(label, threads, tmp_path):
    assert _digest(label, threads, tmp_path) == _pinned()[label]


@pytest.mark.parametrize("label", [k for k, v in COMMANDS.items() if v[0] == "tetrad-test"])
def test_tetrad_scan_output_is_pinned(label, tmp_path):
    assert _digest(label, 1, tmp_path) == _pinned()[label]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for label in COMMANDS:
            print(f"{_digest(label, 1, Path(tmp))}  {label}")
