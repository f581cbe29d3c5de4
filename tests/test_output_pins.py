"""``wald sample`` and ``wald tetrad-test --all`` follow the law tables in
the pin file: three samples, then four scans, the last of which (p = 24,
31,878 tetrads) crosses a block boundary of the tetrad kernel.

Their digests are checked by ``test_pins.test_output_is_pinned``; this
listing check names the family whose lines moved or went missing.
"""

from test_pins import CASES, LAW_TABLES, _pinned

OUTPUTS = [label for label in CASES if label.startswith(("sample ", "tetrad-test "))]


def test_pinned_labels_are_the_outputs():
    start = len(LAW_TABLES)
    assert list(_pinned())[start:start + len(OUTPUTS)] == OUTPUTS
    assert [label.split()[0] for label in OUTPUTS] == ["sample"] * 3 + ["tetrad-test"] * 4
    assert OUTPUTS[-1] == "tetrad-test one_factor_csv(1, p=24) --all"
