"""Record the expected output of every request the workloads can draw.

Run from the root of the repository, at the commit whose outputs are the
reference:

    python3 perfbench/record.py

It writes perfbench/expected.json: the polygon catalogue that the tables
workload draws its Hodge vectors from, and a digest of the canonical output
of every request in every workload's universe.  Re-record only when the
program's outputs are meant to change.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from hodge_asym import cmbuild, hodgecalc  # noqa: E402

# polygon catalogue: degree slices of blow-up-tower diamonds
CATALOGUE_D = range(2, 17)
CATALOGUE_N = range(1, 5)
CATALOGUE_S = range(0, 7)


def polygon_catalogue() -> list:
    """Distinct (degree, Hodge vector) slices with 2 <= rank <= POLYGON_MAX_RANK, by rank."""
    seen = {}
    for n in CATALOGUE_N:
        for d in CATALOGUE_D:
            for s in CATALOGUE_S:
                diamond = hodgecalc.blow_up_tower(d, n, s)
                for k in range(1, 2 * (n + 2 * s)):
                    hodge = cmbuild.degree_slice(diamond, k)
                    if 2 <= sum(hodge) <= wl.POLYGON_MAX_RANK:
                        seen.setdefault((k, hodge), None)
    return sorted(([k, list(h)] for k, h in seen), key=lambda e: (sum(e[1]), e[0], e[1]))


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    catalogue = polygon_catalogue()
    universe = (
        [("cert", *wl.LADDER_TARGET, l) for l in wl.LADDER_L]
        + wl.small_cert_universe()
        + wl.table_universe(len(catalogue))
        + wl.search_universe()
    )
    outputs = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        ctx = wl.Context(catalogue, Path(tmp))
        for req in universe:
            result = wl.execute(req, ctx)
            if req[0] == "cli" and result[:2] != (0, 0):
                raise SystemExit(f"{req}: exit codes {result[:2]}")
            outputs[wl.key(req)] = wl.digest(wl.canonical(req, result))
    data = {"commit": commit(), "polygon_catalogue": catalogue, "outputs": outputs}
    wl.EXPECTED_PATH.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(outputs)} outputs and {len(catalogue)} polygon inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
