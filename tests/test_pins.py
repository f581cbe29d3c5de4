"""Every pinned ``wald`` output, held by the sha256 of its stdout.

``tests/data/pins.sha256`` has one ``<sha256>  <label>`` line per output:
- the law tables of ``wald cdf`` and ``wald quantile``;
- ``wald sample --n 500000`` on the benchmark's quartic and ``wald
  tetrad-test --all`` on the one-factor CSV of ``test_cli.one_factor_csv``
  (p = 20, n = 1000), both rebuilt the way ``bench/workloads.py`` writes
  them, at seeds 1, 5 and 23, and the scan at p = 24, seed 1, whose 31,878
  tetrads cross a block boundary of the tetrad kernel;
- ``wald verify --suite all --n 100000`` at seeds 1, 5 and 23.

Each output runs in-process through ``cli.run`` with ``--threads``
prepended; the sample and verify outputs are checked at one and two threads
against the same line.  ``PYTHONPATH=src python tests/test_pins.py`` prints
the whole pin file in file order: its ``diff`` against
``tests/data/pins.sha256`` is the one check, and redirecting it there is the
one regeneration.  A regenerated line is a declared behaviour change: name
the outputs that moved in CHANGES.md.
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
from test_laws import ALL_LAWS

PINS = Path(__file__).parent / "data" / "pins.sha256"
SEEDS = (1, 5, 23)
# beta-fold:2:1 runs the angle kernel at an odd df (one erfcx per node) and
# beta-fold:1:1 the folded-Beta rule at df = 2
SPECS = [law.spec_string() for law in ALL_LAWS] + [
    "scaled-chisq:0.25:2", "scaled-chisq:0.25:3", "beta-fold:2:1", "beta-fold:1:1",
]
TABLES = [
    ("cdf", "--grid", "0:40:0.01"),
    ("quantile", "--grid", "0.005:0.995:0.005"),
    ("quantile", "--probs", "1e-12,1e-9,1e-6,0.999999,0.999999999,0.999999999999"),
]
LAW_TABLES = [f"{cmd} {spec} {opt} {value}" for spec in SPECS for cmd, opt, value in TABLES] + [
    # 20,001 points: both cross two tile edges of the angle kernel
    "cdf beta-fold:3:1 --grid 0:40:0.002",
    "cdf mix2:0.25:0.2 --grid 0:40:0.002",
    # df = 401: the kernel's pointwise fallback above its closed-form range
    "cdf beta-fold:201:200 --grid 0:400:0.1",
    # negative t: the sign column of the 12-digit table
    "cdf tetrad --grid -2:2:0.25",
]


def _quartic(seed: int, workdir: Path) -> list[str]:
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


def _words(label: str):
    return lambda _: label.split()


# label -> (its argv in a scratch directory, the thread counts it is checked at)
CASES = {label: (_words(label), (1,)) for label in LAW_TABLES}
for s in SEEDS:
    CASES[f"sample quartic({s}) --n 500000 --seed {s}"] = (
        lambda tmp, s=s: ["sample", *_quartic(s, tmp), "--n", "500000", "--seed", str(s)], (1, 2))
for s in SEEDS:
    CASES[f"tetrad-test one_factor_csv({s}) --all"] = (
        lambda tmp, s=s: ["tetrad-test", "--data", str(one_factor_csv(tmp / "d.csv", s)), "--all"],
        (1,))
# 31,878 tetrads: the scan crosses a block boundary of the kernel
CASES["tetrad-test one_factor_csv(1, p=24) --all"] = (
    lambda tmp: ["tetrad-test", "--data", str(one_factor_csv(tmp / "d.csv", 1, p=24)), "--all"],
    (1,))
CASES |= {label: (_words(label), (1, 2))
          for label in (f"--seed {s} verify --suite all --n 100000" for s in SEEDS)}


def _digest(label: str, threads: int, workdir: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(["--threads", str(threads), *CASES[label][0](workdir)]) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _pinned() -> dict:
    lines = PINS.read_text(encoding="utf-8").splitlines()
    return {label: digest for digest, label in (line.split("  ", 1) for line in lines)}


def test_pin_file_lists_every_output():
    assert list(_pinned()) == list(CASES)


# The pin file runs in three families, in this order; each listing check
# names the family whose lines moved or went missing.

def test_pinned_commands_are_the_tables():
    """The law tables of ``wald cdf`` and ``wald quantile`` lead."""
    assert list(_pinned())[:len(LAW_TABLES)] == LAW_TABLES


def test_pinned_labels_are_the_outputs():
    """``wald sample`` and ``wald tetrad-test --all`` follow: three samples,
    then four scans, the last of which (p = 24, 31,878 tetrads) crosses a
    block boundary of the tetrad kernel."""
    outputs = [label for label in CASES if label.startswith(("sample ", "tetrad-test "))]
    start = len(LAW_TABLES)
    assert list(_pinned())[start:start + len(outputs)] == outputs
    assert [label.split()[0] for label in outputs] == ["sample"] * 3 + ["tetrad-test"] * 4
    assert outputs[-1] == "tetrad-test one_factor_csv(1, p=24) --all"


def test_pinned_commands_are_the_reports():
    """The ``wald verify`` reports close the file."""
    reports = [label for label in CASES if " verify " in label]
    assert list(_pinned())[-len(reports):] == reports


@pytest.mark.parametrize("label, threads",
                         [(label, t) for label, (_, counts) in CASES.items() for t in counts])
def test_output_is_pinned(label, threads, tmp_path):
    assert _digest(label, threads, tmp_path) == _pinned()[label]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for label in CASES:
            print(f"{_digest(label, 1, Path(tmp))}  {label}")
