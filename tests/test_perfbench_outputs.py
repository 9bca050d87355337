"""The benchmark's recorded outputs, replayed in the test suite.

perfbench/expected.json holds the digest of every output a benchmark
request can produce, recorded when the benchmark was written.  Only a
benchmark run reads it, so these tests replay the requests that are cheap
enough for the suite through perfbench/workloads.py, loaded read-only by
path, and compare their digests:

- every table request except the polygons (hypersurfaces, blow-up towers,
  stack products, Weil restrictions and special-fiber fixes);
- the search shapes at p = 2;
- every small-certs construct + certify pair at p = 2, most of them with
  i + j above the range of the certificates pinned in tests/output_pins.json.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def expected(workloads):
    return workloads.load_expected()


def mismatches(workloads, expected, requests, workdir) -> list[str]:
    ctx = workloads.Context([], workdir)
    out = []
    for req in requests:
        why = workloads.check(req, workloads.execute(req, ctx), expected)
        if why is not None:
            out.append(f"{workloads.key(req)}: {why}")
    return out


def test_table_outputs(workloads, expected, tmp_path):
    reqs = workloads.table_universe(0)
    assert len(reqs) == 1166
    assert mismatches(workloads, expected, reqs, tmp_path) == []


def test_search_outputs_p2(workloads, expected, tmp_path):
    reqs = [req for req in workloads.search_universe() if req[1] == 2]
    assert len(reqs) == 10
    assert mismatches(workloads, expected, reqs, tmp_path) == []


def test_small_cert_outputs_p2(workloads, expected, tmp_path):
    reqs = [req for req in workloads.small_cert_universe() if req[1] == 2]
    assert len(reqs) == 434
    assert sum(req[2] + req[3] > 12 for req in reqs) == 272
    assert mismatches(workloads, expected, reqs, tmp_path) == []
