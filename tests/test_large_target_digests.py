"""Certificates at the top of the target cap keep their bytes.

tests/output_pins.json stops at i + j = 12, where the exact part of the
asymmetry has low degree.  These rows pin `construct --format json` at
p = 2 for targets up to i + j = 400, whose exact parts have degree up to
396 and coefficients of hundreds of digits.  Only the SHA-256 of each text
is stored: the texts run to 1.3 MB.
"""

import hashlib

import pytest

from test_output_pins import run

DIGESTS = {
    (397, 3): "71eab6f081bf8cab1cbec40b8faf1744dc50ff03568070ca0cf0c195acf6168f",
    (3, 397): "4417e91c6ea54cd9d49e54716bec6d1257646b990df0d89dde3520bbb7741099",
    (399, 1): "98d413cb112b7b2e2c82ca8e6e641983f9c9a980431e1c5409fe7077bf9e6637",
    (200, 3): "20a9c331e6bca808aa8b5ced8551708d21243a9e59169cec03845598239442ea",
    (201, 199): "9871fc354632f8bda58c6378c769d3029b27223067f576287897efb3ad93e10a",
    (60, 3): "5cac3a9785e6df8fdf5a579a668c69661c6337b7534af5dacbadda3d90230ca6",
}


@pytest.mark.parametrize("target", list(DIGESTS), ids=lambda t: "{},{}".format(*t))
def test_large_target_certificate_keeps_its_digest(target):
    i, j = target
    text = run(["construct", "--p", "2", "--i", str(i), "--j", str(j), "--format", "json"])
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[target]
