"""The law tables of ``wald cdf`` and ``wald quantile`` lead the pin file.

Their digests are checked by ``test_pins.test_output_is_pinned``; this
listing check names the family whose lines moved or went missing.
"""

from test_pins import LAW_TABLES, _pinned


def test_pinned_commands_are_the_tables():
    assert list(_pinned())[:len(LAW_TABLES)] == LAW_TABLES
