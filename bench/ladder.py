"""Min-of-N timings of the certificate ladder and the search table, tree against tree.

    python3 bench/ladder.py --out BENCH_13.json parent=../parent/src \
        change=src parent_again=../parent/src

Each ``LABEL=DIR`` names a source tree holding ``hodge_asym``. The script
runs ROUNDS rounds. A round starts one fresh worker interpreter per tree,
which imports the package from its tree, and times every item below on
every tree back to back, so a drift in machine speed reaches the trees of
one item alike; the tree that goes first alternates between rounds. A
worker times an item with ``time.perf_counter``: one untimed warm-up call,
then a loop of at least MIN_LOOP_S, and the fastest call of the loop, put at
the reference machine speed of perfbench: multiplied by
``run.REFERENCE_MS / settled_reference()``, with perfbench/reference.py's
kernel taken just before and just after the loop.  The faster of the two
readings is used: a stall can slow the kernel, which would make the item
look fast, but nothing makes the kernel run faster than the machine.  The
items:

- ``pipeline.build_certificate(2, 4, 2, l)`` for ``l`` in LADDER;
- ``cmbuild.search_table(V, ctx, layer_count)`` for the (l, layer_count)
  shapes in SEARCH_SHAPES, with ``p = 2`` and the default ``V``, and for the
  largest tables a ``PrimeContext`` reaches, LARGE_SEARCH_SHAPES;
- ``cmbuild.search_typical_U(V, ctx)`` for ``l`` in TYPICAL_LS, ``p = 2`` and
  the default ``V``: the first candidate, which every certificate walks to;
- ``cmbuild.equivariant_diamond(z)`` for ``z = cmbuild.build_cm(2, l=l)``,
  ``l`` in DIAMOND_LS;
- ``polygons.newton_above_hodge`` on the certificate's degree-3 slice at
  ``l = POLYGON_L``: the slice as Hodge vector, the single slope 3/2 at its
  whole rank (13,000 at l=101);
- one in-process ``cli.main`` pair, ``construct --p 2 --i I --j J --out F``
  then ``certify F`` (``l = 5``), for the targets in CLI_TARGETS, with
  standard output discarded;
- ``cli.dumps(pipeline.serialize_certificate(pipeline.build_certificate(2, I, J)))``
  for the targets in LARGE_TARGETS, near the top of ``TARGET_DEGREE_CAP``,
  whose exact parts have degree up to 396;
- ``pipeline.symbolic_tower(n, s)`` for SMALL_TOWER, the tower with the most
  blow-ups and cells among the small-certs targets (``i + j <= 20``), and for
  CAP_TOWER, the tower with the most blow-ups under ``TARGET_DEGREE_CAP``: the
  build itself, through ``__wrapped__`` where the tree caches the factors by
  shape (elsewhere every item after its warm-up call reads a cached factor);
- ``cli.dumps`` of the serialized certificate ``(2, 4, 2, l)`` for ``l`` in
  DUMPS_LS;
- ``pipeline._diamond_checks`` with the isoclinic checks on the diamond at
  ``l = CHECKS_L``;
- ``hodgecalc.hypersurface(d, n)`` for (d, n) in HYPERSURFACES and
  ``hodgecalc.blow_up_tower(d, n, s)`` for BIG_TOWER, the largest tower of
  perfbench's tables workload;
- ``hodgecalc.product`` of two ``stack_series(kind, SERIES_BOUND)`` for
  every ordered pair of SERIES_KINDS, the dearest products of the tables
  workload;
- ``hodgecalc.special_fiber_fix(FIBER_DELTA)``;
- ``cli._cm_payload(z)``, the diamond and slices behind ``build-cm``, for
  ``z = cmbuild.build_cm(2, l=CM_PAYLOAD_L)``.

A figure is the minimum over the rounds, in milliseconds at reference
speed.  Apart from the rounds, ``startup_ms`` gives the wall time of a fresh
interpreter for each command of STARTUP_COMMANDS, ``python -m hodge_asym``
with its tree on PYTHONPATH, and of a bare ``python -c pass`` beside them:
raw milliseconds, the fastest of STARTUP_SPAWNS spawns, the trees taking
turns spawn by spawn.  The spawns run with PYTHONDONTWRITEBYTECODE=1, as
perfbench's do, so a tree without ``__pycache__`` compiles its source each
time. The output (to ``--out``, or standard output) gives the environment
(Python version, ``nproc``, rounds) and one entry per label under ``runs``.
Standard library only; perfbench's files are imported, never changed.
Every tree must have ``build_cm`` return the ``CMData`` alone, which holds
its search; a tree whose ``build_cm`` returns a pair cannot be timed.  Every
tree must also have ``pipeline._diamond_checks``; a tree that splits the
diamond checks into ``_slice_checks`` and ``_isoclinic_checks`` cannot run
that item. When a tree lacks a function an item calls, its worker answers
that item with ``missing`` and the error, and the script names the tree and
the item and exits 1 without writing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

LADDER = (5, 13, 29, 53, 61, 101, 157)
SEARCH_SHAPES = ((13, 1), (13, 2), (13, 3), (17, 1), (17, 2))
LARGE_SEARCH_SHAPES = ((5, 315), (13, 5), (17, 3))
TYPICAL_LS = (5, 61, 157)
DIAMOND_LS = (61, 101, 157)
POLYGON_L = 101
CLI_TARGETS = ((4, 2), (12, 7), (20, 0), (397, 3))
LARGE_TARGETS = ((397, 3), (399, 1), (200, 3))
SMALL_TOWER = (1, 8)  # target (12, 8): dimension 17, 20 cells
CAP_TOWER = (1, 198)  # target (201, 199): dimension 397, 400 cells
DUMPS_LS = (61, 101)
CHECKS_L = 61
HYPERSURFACES = ((25, 4), (12, 3))
BIG_TOWER = (25, 4, 6)
SERIES_KINDS = ("mu_p", "Z_mod_p")
SERIES_BOUND = 200
FIBER_DELTA = -200
CM_PAYLOAD_L = 157
ROUNDS = 5
STARTUP_COMMANDS = {
    "bare": ["-c", "pass"],
    "find_l": ["-m", "hodge_asym", "find-l", "--p", "2"],
    "construct": ["-m", "hodge_asym", "construct", "--p", "2", "--i", "4", "--j", "2"],
}
STARTUP_SPAWNS = 20
MIN_LOOP_S = 0.1
ITEMS = (
    [("build_certificate_ms", f"l{l}") for l in LADDER]
    + [("search_table_ms", f"l{l}_c{count}") for l, count in SEARCH_SHAPES]
    + [("large_search_table_ms", f"l{l}_c{count}") for l, count in LARGE_SEARCH_SHAPES]
    + [("search_typical_ms", f"l{l}") for l in TYPICAL_LS]
    + [("equivariant_diamond_ms", f"l{l}") for l in DIAMOND_LS]
    + [("newton_above_hodge_ms", f"l{POLYGON_L}")]
    + [("cli_pair_ms", f"i{i}_j{j}") for i, j in CLI_TARGETS]
    + [("large_target_ms", f"i{i}_j{j}") for i, j in LARGE_TARGETS]
    + [("symbolic_tower_ms", "n{}_s{}".format(*tower)) for tower in (SMALL_TOWER, CAP_TOWER)]
    + [("dumps_ms", f"l{l}") for l in DUMPS_LS]
    + [("diamond_checks_ms", f"l{CHECKS_L}")]
    + [("hypersurface_ms", f"d{d}_n{n}") for d, n in HYPERSURFACES]
    + [("blow_up_tower_ms", "d{}_n{}_s{}".format(*BIG_TOWER))]
    + [("product_ms", f"{a}_x_{b}") for a in SERIES_KINDS for b in SERIES_KINDS]
    + [("special_fiber_fix_ms", f"delta{FIBER_DELTA}")]
    + [("cm_payload_ms", f"l{CM_PAYLOAD_L}")]
)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def timed_ms(fn) -> float:
    """Fastest call of fn in milliseconds at reference speed, in a loop of at
    least MIN_LOOP_S after a warm-up."""
    from reference import settled_reference
    from run import REFERENCE_MS

    fn()
    before = settled_reference()
    fastest, start = float("inf"), perf_counter()
    while (t0 := perf_counter()) - start < MIN_LOOP_S:
        fn()
        fastest = min(fastest, perf_counter() - t0)
    return fastest * REFERENCE_MS / min(before, settled_reference())


def serve() -> None:
    """Worker: for each ITEMS index read from standard input, print its time."""
    import contextlib
    import io
    import tempfile
    from fractions import Fraction

    from hodge_asym import cli, cmbuild, hodgecalc, pipeline, polygons

    sys.path.append(str(PERFBENCH))  # for timed_ms: reference.py and run.py

    calls = [lambda l=l: pipeline.build_certificate(2, 4, 2, l=l) for l in LADDER]
    for l, count in SEARCH_SHAPES + LARGE_SEARCH_SHAPES:
        ctx = cmbuild.PrimeContext.create(2, l)
        v = cmbuild.build_V(ctx)
        calls.append(lambda v=v, ctx=ctx, count=count: cmbuild.search_table(v, ctx, count))
    for l in TYPICAL_LS:
        ctx = cmbuild.PrimeContext.create(2, l)
        v = cmbuild.build_V(ctx)
        calls.append(lambda v=v, ctx=ctx: cmbuild.search_typical_U(v, ctx))
    for l in DIAMOND_LS:
        z = cmbuild.build_cm(2, l=l)
        calls.append(lambda z=z: cmbuild.equivariant_diamond(z))
    z = cmbuild.build_cm(2, l=POLYGON_L)
    slice3 = cmbuild.degree_slice(cmbuild.equivariant_diamond(z), 3)
    pd = polygons.PolygonData.create(3, slice3, {Fraction(3, 2): sum(slice3)})
    calls.append(lambda: polygons.newton_above_hodge(pd))

    def cli_pair(i: int, j: int, out: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (
                cli.main(["construct", "--p", "2", "--i", str(i), "--j", str(j), "--out", out]),
                cli.main(["certify", out]),
            )
        if codes != (0, 0):
            raise RuntimeError(f"construct/certify ({i},{j}) exited {codes}")

    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "cert.json")
        calls += [lambda i=i, j=j: cli_pair(i, j, out) for i, j in CLI_TARGETS]
        calls += [
            lambda i=i, j=j: cli.dumps(
                pipeline.serialize_certificate(pipeline.build_certificate(2, i, j)))
            for i, j in LARGE_TARGETS
        ]
        build_tower = getattr(pipeline.symbolic_tower, "__wrapped__", pipeline.symbolic_tower)
        for tower in (SMALL_TOWER, CAP_TOWER):
            calls.append(lambda tower=tower: build_tower(*tower))
        for l in DUMPS_LS:
            payload = pipeline.serialize_certificate(pipeline.build_certificate(2, 4, 2, l=l))
            calls.append(lambda payload=payload: cli.dumps(payload))
        z = cmbuild.build_cm(2, l=CHECKS_L)
        diamond = cmbuild.equivariant_diamond(z)
        calls.append(lambda d=diamond, dim=z.dim: pipeline._diamond_checks(d, dim, True))
        calls += [lambda d=d, n=n: hodgecalc.hypersurface(d, n) for d, n in HYPERSURFACES]
        calls.append(lambda: hodgecalc.blow_up_tower(*BIG_TOWER))
        for a in SERIES_KINDS:
            for b in SERIES_KINDS:
                left = hodgecalc.stack_series(a, SERIES_BOUND)
                right = hodgecalc.stack_series(b, SERIES_BOUND)
                calls.append(lambda left=left, right=right: hodgecalc.product(left, right))
        calls.append(lambda: hodgecalc.special_fiber_fix(FIBER_DELTA))
        z = cmbuild.build_cm(2, l=CM_PAYLOAD_L)
        calls.append(lambda z=z: cli._cm_payload(z))
        for line in sys.stdin:
            try:
                ms = timed_ms(calls[int(line)])
            except AttributeError as e:  # the tree lacks a function the item calls
                print(f"missing {e}", flush=True)
            else:
                print(ms, flush=True)


def startup_ms(trees) -> dict[str, dict[str, float]]:
    """Per label, the fastest spawn of each STARTUP_COMMANDS entry, in raw ms."""
    best = {label: {} for label, _ in trees}
    for spawn in range(STARTUP_SPAWNS):
        for label, src in trees if spawn % 2 == 0 else reversed(trees):
            env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
                       PYTHONDONTWRITEBYTECODE="1")
            env.pop("HODGE_ASYM_SEED", None)
            for name, args in STARTUP_COMMANDS.items():
                start = perf_counter()
                code = subprocess.run([sys.executable, *args], env=env,
                                      stdout=subprocess.DEVNULL).returncode
                ms = (perf_counter() - start) * 1000
                if code != 0:
                    raise RuntimeError(f"tree {label}: {' '.join(args)} exited {code}")
                best[label][name] = min(best[label].get(name, ms), ms)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="LABEL=DIR", help="source trees to time")
    parser.add_argument("--out", type=Path, default=None, help="JSON file to write (default: print)")
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        serve()
        return 0
    trees = [tuple(t.split("=", 1)) for t in args.trees]
    if not trees or any(len(t) != 2 for t in trees):
        parser.error("give at least one LABEL=DIR")
    best: dict[str, dict] = {label: {} for label, _ in trees}
    for r in range(ROUNDS):
        workers = [
            (label, subprocess.Popen(
                [sys.executable, __file__, "--serve"],
                # a fixed hash seed gives every worker the same dict and set layouts
                env=dict(os.environ, PYTHONPATH=str(Path(src).resolve()), PYTHONHASHSEED="0"),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            ))
            for label, src in (trees if r % 2 == 0 else reversed(trees))
        ]
        try:
            for index, (group, name) in enumerate(ITEMS):
                for label, worker in workers:
                    worker.stdin.write(f"{index}\n")
                    worker.stdin.flush()
                    reply = worker.stdout.readline()
                    try:
                        ms = float(reply)
                    except ValueError:
                        reason = reply.strip() or "its worker exited"
                        print(f"tree {label} cannot time {group} {name}: {reason}",
                              file=sys.stderr)
                        return 1
                    kept = best[label].setdefault(group, {})
                    kept[name] = min(kept.get(name, ms), ms)
        finally:
            for _, worker in workers:
                worker.stdin.close()
                worker.wait()
    for runs in best.values():
        for group in runs.values():
            for name, ms in group.items():
                group[name] = round(ms, 3)
        runs["search_table_ms"]["total"] = round(sum(runs["search_table_ms"].values()), 3)
    for label, spawns in startup_ms(trees).items():
        best[label]["startup_ms"] = {name: round(ms, 1) for name, ms in spawns.items()}
    result = {
        "environment": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),  # what `nproc` prints
            "rounds": ROUNDS,
        },
        "runs": best,
    }
    text = json.dumps(result, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
