"""``wald sample`` and ``wald tetrad-test --all`` follow the law tables in
the pin file.

Their digests are checked by ``test_pins.test_output_is_pinned``; this
listing check names the family whose lines moved or went missing.
"""

from test_pins import CASES, LAW_TABLES, _pinned

OUTPUTS = [label for label in CASES if label.startswith(("sample ", "tetrad-test "))]


def test_pinned_labels_are_the_outputs():
    start = len(LAW_TABLES)
    assert list(_pinned())[start:start + len(OUTPUTS)] == OUTPUTS
