"""Every certificate of the recorded grid keeps its bytes.

tests/certificate_digests.json holds the SHA-256 of each certificate,
keyed by its inputs; tests/record_certificate_digests.py wrote it.
"""

import json

from record_certificate_digests import MANIFEST, certificate_digest, grid


def test_manifest_covers_the_grid():
    stored = [
        {k: v for k, v in entry.items() if k != "sha256"}
        for entry in json.loads(MANIFEST.read_text())
    ]
    assert stored == grid()


def test_every_certificate_matches_its_recorded_digest():
    mismatches = []
    for entry in json.loads(MANIFEST.read_text()):
        inputs = {k: v for k, v in entry.items() if k != "sha256"}
        digest = certificate_digest(inputs)
        if digest != entry["sha256"]:
            mismatches.append(f"{inputs}: recorded {entry['sha256'][:16]}, now {digest[:16]}")
    assert not mismatches, f"{len(mismatches)} certificates changed:\n" + "\n".join(mismatches[:20])
