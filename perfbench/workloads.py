"""Request lists, request execution and output checks for the benchmark workloads.

A request is a tuple whose first item names its kind.  ``requests(workload,
seed)`` returns one pass's fixed request list; the same seed always gives the
same list.  ``execute`` performs one request through the public functions of
``hodge_asym`` and returns the raw result; ``canonical`` turns that result
into the text whose digest is compared with ``expected.json``.  Only
``execute`` is timed.

Every list is stratified: the seed picks within groups of requests of
similar cost, so the cost of a pass hardly depends on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from hodge_asym import cli, cmbuild, hodgecalc, pipeline, polygons

WORKLOADS = ("ladder", "small-certs", "tables", "search")

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# ladder: build_certificate(2, 4, 2, l) for each rung
LADDER_TARGET = (2, 4, 2)
LADDER_L = (5, 13, 29, 53, 61)
# the cheap rungs run this many times a pass, so that their medians rest on
# about as much measured time as those of the dear ones; a pass counts each
# distinct request once, at the median of its runs
LADDER_RUNS = {13: 8, 29: 5}
# rungs reported as cert_ms.l<N>; the other workloads time them in a probe
# whose round repeats the cheap rungs in the same way
RUNG_METRICS = (13, 29, 53, 61)
PROBE = "ladder-probe"
PROBE_ROUND = (13, 13, 13, 13, 29, 53, 13, 13, 13, 13, 29, 29, 61)

# small-certs: primes whose companion prime is l=5, so every diamond has dimension 4
SMALL_PRIMES = (2, 3, 7, 13, 17, 23, 37, 43, 47, 53)
SMALL_MAX_DEGREE = 20

# search: (l, layer_count) shapes, each with a drawn prime and selector
SEARCH_SHAPES = ((13, 1), (13, 2), (13, 3), (17, 1), (17, 2))
SEARCH_PRIMES = {
    13: (2, 5, 7, 11, 19, 31, 37, 41, 47),
    17: (2, 3, 5, 7, 11, 13, 19, 23, 29, 31, 37, 41, 43, 47),
}

# tables
HYPERSURFACE_D = range(1, 26)
HYPERSURFACE_N = range(1, 5)
TOWER_D = range(1, 26)
TOWER_N = range(1, 5)
TOWER_S = range(0, 7)
SERIES_KINDS = ("mu_p", "Z_mod_p")
SERIES_BOUNDS = tuple(range(20, 201, 20))
WEIL_D = range(2, 9)
WEIL_N = range(1, 4)
WEIL_POWER = range(1, 7)
FIBER_DELTA = range(-200, 0)
FIBER_BUCKET = 4
POLYGON_MAX_RANK = 20000
POLYGON_BUCKETS = 40


def key(req: tuple) -> str:
    """The name of a request in ``expected.json``."""
    return "|".join(str(x) for x in req)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# request lists


def _pick(rng: random.Random, groups) -> list:
    """One member of each group, drawn by ``rng``."""
    return [rng.choice(list(g)) for g in groups]


def _pairs(values) -> list[tuple]:
    """Consecutive values grouped in twos (the last may be alone)."""
    values = list(values)
    return [tuple(values[t:t + 2]) for t in range(0, len(values), 2)]


def ladder_requests(rng: random.Random) -> list[tuple]:
    rungs = [l for l in LADDER_L for _ in range(LADDER_RUNS.get(l, 1))]
    rng.shuffle(rungs)
    return [("cert", *LADDER_TARGET, l) for l in rungs]


def small_cert_universe() -> list[tuple]:
    """Every small-certs request the generator can draw."""
    out = []
    for p in SMALL_PRIMES:
        for i, j in _small_targets():
            out.append(("cli", p, i, j, ""))
            out.append(("cli", p, i, j, "polarization"))
        out.append(("cli", p, 3, 0, "special-fiber"))
        out.append(("cli", p, 3, 0, "special-fiber,polarization"))
    return out


def _small_targets() -> list[tuple[int, int]]:
    return [
        (i, s - i)
        for s in range(3, SMALL_MAX_DEGREE + 1)
        for i in range(s + 1)
        if 2 * i != s
    ]


def small_cert_requests(rng: random.Random) -> list[tuple]:
    """Every target with i > j in both orientations, each with a drawn prime.

    One orientation of each pair carries the polarization embellishment; for
    the (3,0) target the special-fiber fix joins in where it is in scope.
    """
    reqs = []
    for i, j in _small_targets():
        if i < j:
            continue
        emb_first = rng.random() < 0.5
        for (a, b), first in (((i, j), True), ((j, i), False)):
            emb = "polarization" if first == emb_first else ""
            if (a, b) == (3, 0):
                emb = rng.choice(("special-fiber", "special-fiber,polarization"))
            reqs.append(("cli", rng.choice(SMALL_PRIMES), a, b, emb))
    rng.shuffle(reqs)
    return reqs


def search_universe() -> list[tuple]:
    return [
        ("search", p, l, count, selector)
        for l, count in SEARCH_SHAPES
        for p in SEARCH_PRIMES[l]
        for selector in cmbuild.SELECTORS
    ]


def search_requests(rng: random.Random) -> list[tuple]:
    reqs = [
        ("search", rng.choice(SEARCH_PRIMES[l]), l, count, rng.choice(cmbuild.SELECTORS))
        for l, count in SEARCH_SHAPES
    ]
    rng.shuffle(reqs)
    return reqs


def table_universe(polygon_count: int) -> list[tuple]:
    out = [("hypersurface", d, n) for n in HYPERSURFACE_N for d in HYPERSURFACE_D]
    out += [
        ("blow_up_tower", d, n, s) for n in TOWER_N for s in TOWER_S for d in TOWER_D
    ]
    out += [
        ("product", k1, b, k2) for b in SERIES_BOUNDS for k1 in SERIES_KINDS for k2 in SERIES_KINDS
    ]
    out += [
        ("weil_restriction_power", d, n, m) for n in WEIL_N for m in WEIL_POWER for d in WEIL_D
    ]
    out += [("special_fiber_fix", delta) for delta in FIBER_DELTA]
    out += [("polygon", idx) for idx in range(polygon_count)]
    return out


def polygon_buckets(catalogue: list) -> list[list[int]]:
    """Catalogue indices grouped by rank on a log scale (empty groups dropped)."""
    groups: dict[int, list[int]] = {}
    top = math.log(POLYGON_MAX_RANK / 2)
    for idx, (_, hodge) in enumerate(catalogue):
        t = min(int(POLYGON_BUCKETS * math.log(sum(hodge) / 2) / top), POLYGON_BUCKETS - 1)
        groups.setdefault(t, []).append(idx)
    return [groups[t] for t in sorted(groups)]


def table_requests(rng: random.Random, catalogue: list) -> list[tuple]:
    """About 230 library calls, one drawn from each group of similar cost."""
    reqs = []
    for n in HYPERSURFACE_N:
        reqs += [("hypersurface", d, n) for d in _pick(rng, _pairs(HYPERSURFACE_D))]
    for n in TOWER_N:
        for s in TOWER_S:
            low, high = TOWER_D[: len(TOWER_D) // 2], TOWER_D[len(TOWER_D) // 2:]
            reqs += [("blow_up_tower", d, n, s) for d in _pick(rng, (low, high))]
    for b in SERIES_BOUNDS:  # one product of like kinds and one of unlike kinds, which cost more
        like = rng.choice(SERIES_KINDS)
        first, second = rng.sample(SERIES_KINDS, 2)
        reqs += [("product", like, b, like), ("product", first, b, second)]
    for n in WEIL_N:
        for m in WEIL_POWER:
            reqs.append(("weil_restriction_power", rng.choice(WEIL_D), n, m))
    fiber = list(FIBER_DELTA)
    groups = [fiber[t:t + FIBER_BUCKET] for t in range(0, len(fiber), FIBER_BUCKET)]
    reqs += [("special_fiber_fix", delta) for delta in _pick(rng, groups)]
    reqs += [("polygon", idx) for idx in _pick(rng, polygon_buckets(catalogue))]
    rng.shuffle(reqs)
    return reqs


def requests(workload: str, seed: int, expected: dict) -> list[tuple]:
    """One pass's request list for ``workload``, drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ladder":
        return ladder_requests(rng)
    if workload == "small-certs":
        return small_cert_requests(rng)
    if workload == "tables":
        return table_requests(rng, expected["polygon_catalogue"])
    if workload == "search":
        return search_requests(rng)
    if workload == PROBE:
        return [("cert", *LADDER_TARGET, l) for l in PROBE_ROUND]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# execution


class Context:
    """What a request needs besides its tuple: the polygon catalogue and a work directory."""

    def __init__(self, catalogue: list, workdir: Path):
        self.catalogue = catalogue
        self.workdir = workdir
        self.cert_path = str(workdir / "cert.json")


def execute(req: tuple, ctx: Context):
    """Run one request through the program and return its raw result."""
    kind = req[0]
    if kind == "cert":
        _, p, i, j, l = req
        cert = pipeline.build_certificate(p, i, j, l=l)
        return cli.dumps(pipeline.serialize_certificate(cert))
    if kind == "cli":
        _, p, i, j, emb = req
        argv = ["construct", "--p", str(p), "--i", str(i), "--j", str(j), "--out", ctx.cert_path]
        if emb:
            argv += ["--embellish", emb]
        with contextlib.redirect_stdout(io.StringIO()):
            built = cli.main(argv)
            certified = cli.main(["certify", ctx.cert_path])
        return built, certified, Path(ctx.cert_path).read_text()
    if kind == "search":
        _, p, l, count, selector = req
        pc = cmbuild.PrimeContext.create(p, l)
        return cmbuild.search_table(cmbuild.build_V(pc, selector), pc, count)
    if kind == "hypersurface":
        return hodgecalc.hypersurface(req[1], req[2])
    if kind == "blow_up_tower":
        return hodgecalc.blow_up_tower(req[1], req[2], req[3])
    if kind == "product":
        _, k1, bound, k2 = req
        return hodgecalc.product(
            hodgecalc.stack_series(k1, bound), hodgecalc.stack_series(k2, bound)
        )
    if kind == "weil_restriction_power":
        _, d, n, m = req
        return hodgecalc.weil_restriction_power(hodgecalc.hypersurface(d, n), m)
    if kind == "special_fiber_fix":
        return hodgecalc.special_fiber_fix(req[1])
    if kind == "polygon":
        n, hodge = ctx.catalogue[req[1]]
        datum = polygons.construct_weakly_admissible(hodge, n)
        pd = polygons.PolygonData.create(n, hodge, {Fraction(datum.a, datum.b): datum.b})
        verdicts = [
            polygons.newton_above_hodge(pd),
            polygons.check_degree_relation(pd),
            polygons.check_weak_admissibility_endpoints(pd),
            polygons.check_slope_symmetry(pd),
        ]
        if n % 2 == 1:
            verdicts.append(polygons.check_parity(pd))
        return datum, verdicts
    raise ValueError(f"unknown request kind {kind!r}")


def canonical(req: tuple, result) -> str:
    """Deterministic text of a request's result, for comparison by digest."""
    kind = req[0]
    if kind == "cert":
        return result
    if kind == "cli":
        return result[2]
    if kind == "search":
        return "\n".join(f"{u.to_text()} {r0} {r1}" for u, r0, r1 in result)
    if kind == "special_fiber_fix":
        return repr(result)
    if kind == "polygon":
        datum, verdicts = result
        return repr((tuple(datum), verdicts))
    bound = getattr(result, "bound", None)
    return json.dumps({"bound": bound, "coeffs": [[i, j, c] for (i, j), c in result.coeffs]})


def check(req: tuple, result, expected: dict) -> str | None:
    """None when the result is right, else why it is wrong."""
    if req[0] == "cli" and result[:2] != (0, 0):
        return f"exit codes {result[:2]}, expected (0, 0)"
    want = expected["outputs"].get(key(req))
    got = digest(canonical(req, result))
    if want != got:
        return f"digest {got}, expected {want}"
    return None
