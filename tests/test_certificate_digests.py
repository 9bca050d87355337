"""Every pinned certificate keeps its bytes.

These are the `construct` rows of tests/output_pins.json, replayed by the
harness in tests/test_output_pins.py against their stored texts.
"""

from test_output_pins import assert_replayed, certificate_grid, certificate_pins


def test_manifest_covers_the_grid():
    assert [argv for argv, _, _ in certificate_pins()] == certificate_grid()


def test_every_certificate_matches_its_recorded_digest():
    assert_replayed(certificate_pins())
