"""`hodge product` keeps its JSON and text outputs, byte for byte.

The factors are the bound-12 stack series as plain tables (`hodge stack`'s
default size): mu_p = (1+x)/(1-xy) has its largest j at 6 and Z_mod_p =
1/(1-y) at 12, so the product's cells reach the stride of any key packing
of (i, j).  The SHA-256 digests were recorded before the product kernel
keyed its cells by int, and each JSON output is also checked against the
naive convolution of tests/oracles.py.  An empty factor gives the text
`h^{i,j}: (zero table)`.
"""

import hashlib
import json

import pytest

from hodge_asym.cli import main
from oracles import naive_table_product

MU_P = [[k + e, k, 1] for k in range(7) for e in (0, 1) if 2 * k + e <= 12]
Z_MOD_P = [[0, k, 1] for k in range(13)]

# (left, right, format): (length, SHA-256) of what `hodge product` prints
PINS = {
    ("mu_p", "Z_mod_p", "json"):
        (3846, "70e08775227102a65ce3b18be32a58c08b0ccfbdccbde3d5d44f815976b95f9b"),
    ("mu_p", "Z_mod_p", "text"):
        (545, "d51b26677be788f0f39c4478cd94250b15a77557a0c40281966ec7391c4e3400"),
    ("Z_mod_p", "mu_p", "json"):
        (3846, "70e08775227102a65ce3b18be32a58c08b0ccfbdccbde3d5d44f815976b95f9b"),
    ("Z_mod_p", "mu_p", "text"):
        (545, "d51b26677be788f0f39c4478cd94250b15a77557a0c40281966ec7391c4e3400"),
    ("mu_p", "mu_p", "json"):
        (1444, "0bd1114cc92f4523833e1ca6f63e7fe3b1565355e9297a789adcd4ab64fc080f"),
    ("mu_p", "mu_p", "text"):
        (671, "e9edf9fc1b26a578acaf0aee6975294a6d1343de7be5f46d57481ec1f5b7bdbb"),
}
TABLES = {"mu_p": MU_P, "Z_mod_p": Z_MOD_P, "empty": []}


def hodge_product(capsys, left: str, right: str, fmt: str) -> str:
    argv = ["hodge", "product", "--format", fmt,
            "--left", json.dumps({"coeffs": TABLES[left]}),
            "--right", json.dumps({"coeffs": TABLES[right]})]
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("left, right, fmt", sorted(PINS))
def test_series_product_output_matches_its_pin(capsys, left, right, fmt):
    out = hodge_product(capsys, left, right, fmt)
    if fmt == "json":
        want = naive_table_product(*({(i, j): c for i, j, c in TABLES[name]}
                                     for name in (left, right)))
        assert json.loads(out)["coeffs"] == [[i, j, c] for (i, j), c in sorted(want.items())]
    assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == PINS[left, right, fmt]


@pytest.mark.parametrize("left, right", [("empty", "mu_p"), ("Z_mod_p", "empty")])
def test_empty_product(capsys, left, right):
    assert hodge_product(capsys, left, right, "json") == '{\n  "coeffs": []\n}\n'
    assert hodge_product(capsys, left, right, "text") == "h^{i,j}: (zero table)\n"
