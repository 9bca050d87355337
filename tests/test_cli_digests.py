"""`build-cm` and `search-typical` keep their JSON output, byte for byte.

These are the rows of tests/output_pins.json after the certificates,
replayed by the harness in tests/test_output_pins.py against their stored
texts.
"""

from test_output_pins import assert_replayed, cli_grid, cli_pins


def test_manifest_covers_the_grid():
    assert [argv for argv, _, _ in cli_pins()] == cli_grid()


def test_every_output_matches_its_recorded_digest():
    assert_replayed(cli_pins())
