"""The reports of ``wald verify --suite all --n 100000`` at three seeds,
pinned by the sha256 of their stdout and checked at one and two threads.

A change to how the suite draws, reduces or schedules its samples must keep
every byte of these reports.  Regenerating the hashes is a declared
behaviour change: write them with ``PYTHONPATH=src python
tests/test_verify_reports.py > tests/data/verify_reports.sha256`` and name
the rows that moved in CHANGES.md.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from singwald.cli import run

PINNED = Path(__file__).parent / "data" / "verify_reports.sha256"
COMMANDS = [f"--seed {seed} verify --suite all --n 100000" for seed in (1, 5, 23)]


def _digest(command: str, threads: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(["--threads", str(threads)] + command.split()) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _pinned() -> dict:
    lines = PINNED.read_text(encoding="utf-8").splitlines()
    return {command: digest for digest, command in (line.split("  ", 1) for line in lines)}


def test_pinned_commands_are_the_reports():
    assert list(_pinned()) == COMMANDS


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command", COMMANDS)
def test_verify_report_is_pinned(command, threads):
    assert _digest(command, threads) == _pinned()[command]


if __name__ == "__main__":
    for command in COMMANDS:
        print(f"{_digest(command, 1)}  {command}")
