"""The ``wald verify`` reports close the pin file.

Their digests are checked by ``test_pins.test_output_is_pinned``; this
listing check names the family whose lines moved or went missing.
"""

from test_pins import CASES, _pinned

REPORTS = [label for label in CASES if " verify " in label]


def test_pinned_commands_are_the_reports():
    assert list(_pinned())[-len(REPORTS):] == REPORTS
