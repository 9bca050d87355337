"""`build-cm` and `search-typical` keep their JSON output, byte for byte.

tests/cli_digests.json holds the SHA-256 of each command's stdout, keyed by
its arguments.  Record it at the commit before a change to either command,
never to make a change pass:

    PYTHONPATH=src python tests/test_cli_digests.py

The grid: `build-cm` for both selectors at p in {2,3,5,7,11,13} with the
default l and at p=2 with l in {13,17,29,61}; `search-typical` at the
benchmark's five (l, layer count) search shapes, p=2, both selectors.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from hodge_asym import cli, cmbuild

MANIFEST = Path(__file__).resolve().parent / "cli_digests.json"
BUILD_CM_PRIMES = (2, 3, 5, 7, 11, 13)
BUILD_CM_L_AT_P2 = (13, 17, 29, 61)
SEARCH_SHAPES = ((13, 1), (13, 2), (13, 3), (17, 1), (17, 2))


def grid() -> list[list[str]]:
    """The argument vector of every recorded call, in a fixed order."""
    rows = []
    for selector in cmbuild.SELECTORS:
        for p in BUILD_CM_PRIMES:
            rows.append(["build-cm", "--p", str(p), "--selector", selector])
        for l in BUILD_CM_L_AT_P2:
            rows.append(["build-cm", "--p", "2", "--l", str(l), "--selector", selector])
        for l, count in SEARCH_SHAPES:
            rows.append([
                "search-typical", "--p", "2", "--l", str(l), "--layer-count", str(count),
                "--selector", selector,
            ])
    return [[*argv, "--format", "json"] for argv in rows]


def output_digest(argv: list[str]) -> str:
    """SHA-256 of what the command writes to stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, f"{argv} exited {code}"
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_manifest_covers_the_grid():
    assert [entry["argv"] for entry in json.loads(MANIFEST.read_text())] == grid()


def test_every_output_matches_its_recorded_digest():
    mismatches = []
    for entry in json.loads(MANIFEST.read_text()):
        digest = output_digest(entry["argv"])
        if digest != entry["sha256"]:
            mismatches.append(f"{entry['argv']}: recorded {entry['sha256'][:16]}, now {digest[:16]}")
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    lines = [json.dumps({"argv": argv, "sha256": output_digest(argv)}) for argv in grid()]
    MANIFEST.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(lines)} digests to {MANIFEST}")
