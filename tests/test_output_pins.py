"""Every pinned CLI output keeps its bytes.

tests/output_pins.json lists each pinned call as its argument vector and the
SHA-256 of what it writes to stdout.  tests/output_pins.xz holds those
texts, lzma-compressed, one JSON string per line in the manifest's order, so
a changed output is named by its first differing JSON path and both values.
The replay is split by command: tests/test_certificate_digests.py runs the
`construct` rows and tests/test_cli_digests.py the `build-cm` and
`search-typical` rows, each with its part of the grid.  Record both files at
the commit before a change, never to make a change pass:

    PYTHONPATH=src python tests/test_output_pins.py

The grid, in its recorded order (new rows are appended, so the rows recorded
first keep their places):

- `construct` at p in {2,3,5,7,11,13}, both selectors, every target with
  3 <= i+j <= 12 in both orders, each plain and with polarization, and (3,0)
  with special-fiber.  These plain certificates alone cover every aux case
  (none, tower, p1_power), oriented or not, isoclinic or not;
- four targets at p=2 for l in {29,53,61,37,41,101} and at p=3 for
  l in {41,101} (ord(3 mod 37) = 18, so p=3 refuses l=37);
- (4,2) at p=2, l=157, whose exterior-table fields take three 64-bit words;
- (3,0) with special-fiber, both selectors, at (p, l) in SPECIAL_FIBER_L,
  where the elliptic factor count l_factor is positive (it is 0 at l=5);
- the four targets at p=3 for l in {29,53};
- `build-cm` for both selectors at p in {2,3,5,7,11,13} with the default l
  and at p=2 with l in {13,17,29,61}, and `search-typical` at the
  benchmark's five (l, layer count) search shapes, p=2, both selectors.
"""

import contextlib
import hashlib
import io
import json
import lzma
import operator
from functools import cache, reduce
from pathlib import Path

import pytest

from hodge_asym import cli
from hodge_asym.cmbuild import SELECTORS

HERE = Path(__file__).resolve().parent
MANIFEST, TEXTS = HERE / "output_pins.json", HERE / "output_pins.xz"
PRIMES = (2, 3, 5, 7, 11, 13)
# (p, l) pairs of the LARGE_L_TARGETS rows, in the order they were appended
LARGE_L = ((2, 29), (2, 53), (2, 61), (2, 37), (2, 41), (2, 101), (3, 41), (3, 101))
LARGE_L_TARGETS = ((3, 0), (4, 2), (4, 1), (2, 5))
# (p, l) pairs of the special-fiber rows with l_factor > 0 (4, 9, 14, 54, 5, 43)
SPECIAL_FIBER_L = ((2, 13), (2, 17), (2, 29), (2, 61), (3, 17), (3, 41))
P3_LARGE_L = (29, 53)
BUILD_CM_L_AT_P2 = (13, 17, 29, 61)
SEARCH_SHAPES = ((13, 1), (13, 2), (13, 3), (17, 1), (17, 2))


def construct(p, i, j, selector, l=None, embellish=None) -> list[str]:
    argv = ["construct", "--p", str(p), "--i", str(i), "--j", str(j), "--selector", selector]
    argv += ["--l", str(l)] if l is not None else []
    return argv + (["--embellish", embellish] if embellish else [])


def certificate_grid() -> list[list[str]]:
    """The argument vector of every pinned `construct` call, in a fixed order."""
    targets = [(i, s - i) for s in range(3, 13) for i in range(s + 1) if 2 * i != s]
    rows = []
    for p in PRIMES:
        for s in SELECTORS:
            for i, j in targets:
                rows += [construct(p, i, j, s), construct(p, i, j, s, embellish="polarization")]
            rows.append(construct(p, 3, 0, s, embellish="special-fiber"))

    def four_targets(pairs):
        return [
            construct(p, i, j, s, l)
            for p, l in pairs for s in SELECTORS for i, j in LARGE_L_TARGETS
        ]

    rows += four_targets(LARGE_L)
    rows.append(construct(2, 4, 2, "default", 157))
    rows += [
        construct(p, 3, 0, s, l, "special-fiber") for p, l in SPECIAL_FIBER_L for s in SELECTORS
    ]
    rows += four_targets((3, l) for l in P3_LARGE_L)
    return [[*argv, "--format", "json"] for argv in rows]


def cli_grid() -> list[list[str]]:
    """The argument vector of every pinned `build-cm` and `search-typical` call."""
    rows = []
    for s in SELECTORS:
        rows += [["build-cm", "--p", str(p), "--selector", s] for p in PRIMES]
        rows += [["build-cm", "--p", "2", "--l", str(l), "--selector", s] for l in BUILD_CM_L_AT_P2]
        rows += [
            ["search-typical", "--p", "2", "--l", str(l), "--layer-count", str(n), "--selector", s]
            for l, n in SEARCH_SHAPES
        ]
    return [[*argv, "--format", "json"] for argv in rows]


def grid() -> list[list[str]]:
    """The argument vector of every pinned call, certificates first."""
    return certificate_grid() + cli_grid()


def run(argv: list[str]) -> str:
    """What `hodge-asym argv` writes to stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


def compare(argv: list[str], stored: str) -> str | None:
    """None when argv still writes the stored text, else where it departs."""
    fresh = run(argv)
    if fresh == stored:
        return None
    return f"{' '.join(argv)}: {cli.mismatch(json.loads(stored), stored, fresh)}"


@cache
def pins() -> list[tuple[list[str], str, str]]:
    """(argv, sha256, stored text) of every manifest row."""
    entries = json.loads(MANIFEST.read_text())
    texts = lzma.decompress(TEXTS.read_bytes()).decode().splitlines()
    assert len(texts) == len(entries)
    return [(e["argv"], e["sha256"], json.loads(t)) for e, t in zip(entries, texts)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def certificate_pins() -> list[tuple[list[str], str, str]]:
    return pins()[:len(certificate_grid())]


def cli_pins() -> list[tuple[list[str], str, str]]:
    return pins()[len(certificate_grid()):]


def assert_replayed(rows: list[tuple[list[str], str, str]]) -> None:
    """Each row's argv still writes its stored text, which the test below hashes."""
    mismatches = [why for argv, _, text in rows if (why := compare(argv, text))]
    assert not mismatches, f"{len(mismatches)} outputs changed:\n" + "\n".join(mismatches[:20])


def test_every_stored_text_hashes_to_its_digest():
    assert [argv for argv, digest, text in pins() if sha256(text) != digest] == []


def tamper(row: int, path: list, value) -> tuple[list[str], object, str]:
    """Row's argv, its stored value at path, and its stored text with value there."""
    argv, _, text = pins()[row]
    doc = json.loads(text)
    *parents, last = path
    node = reduce(operator.getitem, parents, doc)
    old, node[last] = node[last], value
    return argv, old, cli.dumps(doc)


@pytest.mark.parametrize("command, path, shown", [
    ("construct", ["z_diamond", "coeffs", 7, 2], "z_diamond.coeffs[7][2]"),
    ("search-typical", ["candidates", 3, "r0"], "candidates[3].r0"),
])
def test_a_changed_value_is_named_with_both_values(command, path, shown):
    row = next(t for t, (argv, _, _) in enumerate(pins()) if argv[0] == command)
    argv, old, text = tamper(row, path, 99)
    assert compare(argv, text) == f"{' '.join(argv)}: {shown}: stored 99, regenerated {old}"


if __name__ == "__main__":
    rows = grid()
    texts = [run(argv) for argv in rows]
    entries = [json.dumps({"argv": a, "sha256": sha256(t)}) for a, t in zip(rows, texts)]
    MANIFEST.write_text("[\n" + ",\n".join(entries) + "\n]\n")
    lines = "".join(json.dumps(text) + "\n" for text in texts)
    TEXTS.write_bytes(lzma.compress(lines.encode(), preset=9 | lzma.PRESET_EXTREME))
    print(f"wrote {len(rows)} pins to {MANIFEST} and {TEXTS}")
