"""The law tables of ``wald cdf`` and ``wald quantile``, pinned by the
sha256 of their stdout.

Any change that moves a printed digit of a CDF or a quantile fails here.
Regenerating the hashes is a declared behaviour change: write them with
``PYTHONPATH=src python tests/test_law_tables.py >
tests/data/law_tables.sha256`` and name the tables that moved in
CHANGES.md.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from singwald.cli import run
from test_laws import ALL_LAWS

PINNED = Path(__file__).parent / "data" / "law_tables.sha256"
# beta-fold:2:1 runs the angle kernel at an odd df (one erfcx per node) and
# beta-fold:1:1 the folded-Beta rule at df = 2
SPECS = [law.spec_string() for law in ALL_LAWS] + [
    "scaled-chisq:0.25:2",
    "scaled-chisq:0.25:3",
    "beta-fold:2:1",
    "beta-fold:1:1",
]
TABLES = [
    ("cdf", "--grid", "0:40:0.01"),
    ("quantile", "--grid", "0.005:0.995:0.005"),
    ("quantile", "--probs", "1e-12,1e-9,1e-6,0.999999,0.999999999,0.999999999999"),
]
COMMANDS = [f"{cmd} {spec} {opt} {value}" for spec in SPECS for cmd, opt, value in TABLES] + [
    # 20,001 points: both cross two tile edges of the angle kernel
    "cdf beta-fold:3:1 --grid 0:40:0.002",
    "cdf mix2:0.25:0.2 --grid 0:40:0.002",
    # df = 401: the kernel's pointwise fallback above its closed-form range
    "cdf beta-fold:201:200 --grid 0:400:0.1",
    # negative t: the sign column of the 12-digit table
    "cdf tetrad --grid -2:2:0.25",
]


def _digest(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(command.split()) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _pinned() -> dict:
    lines = PINNED.read_text(encoding="utf-8").splitlines()
    return {command: digest for digest, command in (line.split("  ", 1) for line in lines)}


def test_pinned_commands_are_the_tables():
    assert list(_pinned()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_law_table_is_pinned(command):
    assert _digest(command) == _pinned()[command]


if __name__ == "__main__":
    for command in COMMANDS:
        print(f"{_digest(command)}  {command}")
