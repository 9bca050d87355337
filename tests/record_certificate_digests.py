"""Record the SHA-256 of every certificate in a fixed grid of inputs.

    PYTHONPATH=src python tests/record_certificate_digests.py

writes tests/certificate_digests.json, which
tests/test_certificate_digests.py rebuilds and compares.  Record it at the
commit before a change to the certificate path, never to make a change pass.

The grid: p in {2,3,5,7,11,13}, both selectors, every target with
3 <= i+j <= 12 in both orders, each plain and with polarization, and (3,0)
with special-fiber; plus four targets at p=2 for l in {29,53,61,37,41,101}
and at p=3 for l in {41,101} (ord(3 mod 37) = 18, so p=3 refuses l=37);
plus (4,2) at p=2, l=157, whose exterior-table fields take three 64-bit
words; plus (3,0) with special-fiber, both selectors, at (p, l) in
SPECIAL_FIBER_L, where the elliptic factor count l_factor is positive
(it is 0 at l=5); plus the four targets at p=3 for l in {29, 53}.  Its plain certificates alone cover every aux case (none, tower,
p1_power), oriented or not, isoclinic or not.  New entries are appended, so
the rows recorded first keep their places.
"""

import hashlib
import json
from pathlib import Path

from hodge_asym import cmbuild, pipeline
from hodge_asym.cli import dumps

MANIFEST = Path(__file__).resolve().parent / "certificate_digests.json"
PRIMES = (2, 3, 5, 7, 11, 13)
LARGE_L = (29, 53, 61)
# (p, l) pairs appended after the first LARGE_L rows, each for LARGE_L_TARGETS
WIDER_L = ((2, 37), (2, 41), (2, 101), (3, 41), (3, 101))
LARGE_L_TARGETS = ((3, 0), (4, 2), (4, 1), (2, 5))
# (p, l) pairs of the special-fiber rows with l_factor > 0 (4, 9, 14, 54, 5, 43)
SPECIAL_FIBER_L = ((2, 13), (2, 17), (2, 29), (2, 61), (3, 17), (3, 41))
P3_LARGE_L = (29, 53)


def grid() -> list[dict]:
    """The inputs of every recorded certificate, in a fixed order."""
    targets = [
        (i, s - i) for s in range(3, 13) for i in range(s + 1) if 2 * i != s
    ]
    rows = []
    for p in PRIMES:
        for selector in cmbuild.SELECTORS:
            for i, j in targets:
                for embellish in ([], ["polarization"]):
                    rows.append(dict(p=p, i=i, j=j, l=None, selector=selector, embellish=embellish))
            rows.append(dict(p=p, i=3, j=0, l=None, selector=selector, embellish=["special-fiber"]))
    for p, l in [(2, l) for l in LARGE_L] + list(WIDER_L):
        for selector in cmbuild.SELECTORS:
            for i, j in LARGE_L_TARGETS:
                rows.append(dict(p=p, i=i, j=j, l=l, selector=selector, embellish=[]))
    rows.append(dict(p=2, i=4, j=2, l=157, selector="default", embellish=[]))
    for p, l in SPECIAL_FIBER_L:
        for selector in cmbuild.SELECTORS:
            rows.append(dict(p=p, i=3, j=0, l=l, selector=selector, embellish=["special-fiber"]))
    for l in P3_LARGE_L:
        for selector in cmbuild.SELECTORS:
            for i, j in LARGE_L_TARGETS:
                rows.append(dict(p=3, i=i, j=j, l=l, selector=selector, embellish=[]))
    return rows


def certificate_digest(inputs: dict) -> str:
    """SHA-256 of the certificate bytes that `construct --format json` writes."""
    cert = pipeline.construct(
        inputs["p"], inputs["i"], inputs["j"], embellishments=inputs["embellish"],
        l=inputs["l"], selector=inputs["selector"],
    )
    text = dumps(pipeline.serialize_certificate(cert))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    lines = [
        json.dumps({**inputs, "sha256": certificate_digest(inputs)}) for inputs in grid()
    ]
    MANIFEST.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(lines)} digests to {MANIFEST}")


if __name__ == "__main__":
    main()
