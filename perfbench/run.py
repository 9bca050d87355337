"""Benchmark of the hodge_asym certificate toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Workloads: ladder, small-certs, tables, search (see perfbench/README.md).

--trace 0 prints the end-to-end metrics, measured with nothing wrapped:
setup_s from fresh interpreters, the workload's passes in one child process
and, for workloads other than ladder, the ladder rungs in another, all
interleaved over the run.  Every time is put at a reference machine speed
(see REFERENCE_MS and reference.py).
--trace 1 prints the per-layer metrics: untraced passes and one traced pass,
each kind in its own child process, and a -X importtime breakdown of set-up.

Every request's output is checked against perfbench/expected.json.  The last
line of standard output is the result object; the lines before it give the
environment and a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("ladder", "small-certs", "tables", "search")
SETUP_SPAWNS = 15
IMPORTTIME_SPAWNS = 5
SETUP_ARGV = ["-m", "hodge_asym", "find-l", "--p", "2"]
SETUP_OUTPUT = "l=5 ord=4"
# Set-up times are scaled to a machine on which a bare interpreter (BARE_ARGV)
# starts in this long.  Process start-up follows the reference kernel loosely
# but a bare start closely, and no change to the program moves a bare start.
BARE_ARGV = ["-c", "pass"]
BARE_START_S = 0.05
CHILD_TIMEOUT_S = 150
MODULES = ("hodge_asym", "cyclochar", "polygons", "hodgecalc", "cmbuild", "pipeline", "cli")
RUNGS = (13, 29, 53, 61)
PROBE = "ladder-probe"  # workloads.PROBE; the ladder rungs alone
PROBE_SHARE = 0.6  # of a non-ladder run's busy time spent on the ladder probe
# Timings are scaled to a machine on which reference.reference() takes this
# long: each time is multiplied by REFERENCE_MS / (the kernel's time over it).
REFERENCE_MS = 1.0

# per-layer metrics <span>.<field>: self_s in seconds, hit_ratio a ratio, the rest counts
LAYER_FIELDS = (
    ("cyclochar.exterior_power", ("calls", "self_s", "dp_ops")),
    ("cmbuild.equivariant_diamond", ("calls", "self_s", "dot_terms")),
    ("cmbuild.search_table", ("self_s", "candidates", "hit_ratio")),
    ("cmbuild.search_typical_U", ("calls", "candidates")),
    ("hodgecalc.coeff", ("calls", "self_s")),
    ("hodgecalc.create", ("calls", "cells", "self_s")),
    ("hodgecalc.dpoly_mul", ("calls", "self_s")),
    ("hodgecalc.hypersurface", ("self_s",)),
    ("hodgecalc.blow_up_tower", ("self_s",)),
    ("hodgecalc.blow_up", ("self_s",)),
    ("hodgecalc.product", ("self_s",)),
    ("hodgecalc.stack_series", ("self_s",)),
    ("hodgecalc.weil_restriction_power", ("self_s",)),
    ("hodgecalc.special_fiber_fix", ("self_s",)),
    ("polygons.newton_above_hodge", ("calls", "self_s", "ordinates")),
    ("polygons.create", ("self_s",)),
    ("pipeline.build_certificate", ("self_s",)),
    ("pipeline.symbolic", ("self_s",)),
    ("pipeline.quotient_bookkeeping", ("self_s",)),
    ("pipeline.embellish", ("self_s",)),
    ("pipeline.serialize_certificate", ("self_s",)),
    ("cli.build_parser", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
    ("cli.regenerate", ("self_s",)),
    ("cli.dumps", ("bytes", "self_s")),
)
UNITS = {"self_s": "s", "hit_ratio": "ratio"}


def child_env() -> dict:
    """The environment of every child: src on the path, and no HODGE_ASYM_SEED
    (the CLI refuses to run when it is set; the benchmark seed is ours alone)."""
    env = {k: v for k, v in os.environ.items() if k != "HODGE_ASYM_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )


class Worker:
    """A worker.py process that runs one pass of its request list when asked."""

    def __init__(self, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "serve", workload, str(seed)],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self.passes: list[list] = []
        self.busy_s = 0.0
        self.last_s = 0.0

    def run_pass(self) -> None:
        start = perf_counter()
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited {self.proc.wait()} during a pass")
        self.passes.append(json.loads(line))
        self.last_s = perf_counter() - start
        self.busy_s += self.last_s

    def finish(self) -> dict:
        """The worker's summary, with the passes, once it has exited."""
        out, _ = self.proc.communicate("end\n", timeout=CHILD_TIMEOUT_S)
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited {self.proc.returncode}")
        return {**json.loads(out.strip().splitlines()[-1]), "passes": self.passes}

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def traced_worker(workload: str, seed: int) -> dict:
    proc = spawn([str(HERE / "worker.py"), "traced", workload, str(seed)])
    if proc.returncode != 0:
        raise RuntimeError(f"traced worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def at_reference_speed(seconds: float, reference_s: float) -> float:
    return seconds * REFERENCE_MS / (1000 * reference_s)


def time_setup(spawns: int, tally: dict) -> list[float]:
    """Times of fresh `python -m hodge_asym find-l --p 2` processes, run one at
    a time, each scaled by the start of a bare interpreter right after it."""
    times = []
    for _ in range(spawns):
        start = perf_counter()
        proc = spawn(SETUP_ARGV)
        elapsed = perf_counter() - start
        start = perf_counter()
        spawn(BARE_ARGV)
        times.append(elapsed * BARE_START_S / (perf_counter() - start))
        tally["attempted"] += 1
        if proc.returncode != 0 or proc.stdout.strip() != SETUP_OUTPUT:
            tally["failed"] += 1
            tally["errors"].append(f"setup: exit {proc.returncode}, output {proc.stdout!r}")
    return times


IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")


def measure_imports() -> dict[str, float]:
    """Median self import time per hodge_asym module, from -X importtime."""
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_SPAWNS):
        proc = spawn(["-X", "importtime", *SETUP_ARGV])
        for self_us, name in IMPORT_LINE.findall(proc.stderr):
            short = name.split(".")[-1] if name.startswith("hodge_asym.") else name
            if short in samples:
                samples[short].append(int(self_us) / 1000)
    return {m: statistics.median(v) for m, v in samples.items() if v}


def merge(tally: dict, part: dict) -> None:
    tally["attempted"] += part["attempted"]
    tally["failed"] += part["failed"]
    tally["errors"] += part["errors"]


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18] if len(values) > 1 else values[0]


def per_request(run: dict) -> list[tuple[str, float]]:
    """Each distinct request of the pass list with its median time over all its
    runs in the run's passes, every sample first put at the reference speed.

    A shared machine runs 25-70% slower in spells from under a second to
    minutes.  Scaling each sample by the reference kernel timed before,
    during and after it takes most of that out; the median over runs takes
    out the rest of one sample's noise.
    """
    samples: dict[str, list[float]] = {}
    for one_pass in run["passes"]:
        for key, sample in zip(run["requests"], one_pass):
            if sample:
                samples.setdefault(key, []).append(at_reference_speed(*sample))
    return [(key, statistics.median(ok)) for key, ok in samples.items()]


def rung_ms(requests: list[tuple[str, float]]) -> dict:
    """cert_ms.l<N>: the certificate time at each rung (keys "cert|p|i|j|l")."""
    by_l = {int(key.rsplit("|", 1)[1]): t for key, t in requests if key.startswith("cert|")}
    return {f"cert_ms.l{l}": (1000 * by_l[l], "ms") for l in RUNGS if l in by_l}


def end_to_end(workload: str, seed: int, seconds: float, tally: dict) -> dict:
    """Untraced measurement.  The workload's passes, the ladder probe's rounds
    (other workloads only) and the set-up spawns are interleaved over the
    whole run, so that each metric samples the same stretch of time."""
    spawn(SETUP_ARGV)  # writes the bytecode cache on a fresh checkout; not timed
    work = Worker(workload, seed)
    probe = Worker(PROBE, seed) if workload != "ladder" else None
    setup: list[float] = []
    start = perf_counter()
    try:
        while True:
            elapsed = perf_counter() - start
            if len(setup) < SETUP_SPAWNS * elapsed / seconds:
                setup += time_setup(1, tally)
            pick = work
            if probe and (not probe.passes or probe.busy_s < PROBE_SHARE * (probe.busy_s + work.busy_s)):
                pick = probe
            done = work.passes and (probe is None or probe.passes)
            if done and elapsed + pick.last_s > seconds:
                break
            pick.run_pass()
        setup += time_setup(SETUP_SPAWNS - len(setup), tally)
        run = work.finish()
        merge(tally, run)
        if probe:
            probed = probe.finish()
            merge(tally, probed)
    finally:
        work.kill()
        if probe:
            probe.kill()
    best = per_request(run)
    times = [t for _, t in best]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (sum(times), "s"),
        "req_p50_ms": (1000 * statistics.median(times), "ms"),
        "req_p95_ms": (1000 * p95(times), "ms"),
        **rung_ms(per_request(probed) if probe else best),
        "peak_rss_mb": (run["maxrss_kb"] / 1024, "MB"),
    }
    tally["samples"] = {"passes": len(run["passes"]), "requests_per_pass": len(times),
                        "probe_rounds": len(probed["passes"]) if probe else 0,
                        "setup_spawns": len(setup)}
    return metrics


def per_layer(workload: str, seed: int, seconds: float, tally: dict) -> dict:
    metrics = {
        f"setup.import.{m}_ms": (v, "ms") for m, v in measure_imports().items()
    }
    work = Worker(workload, seed)
    start = perf_counter()
    try:
        while not work.passes or perf_counter() - start + work.last_s <= seconds / 2:
            work.run_pass()
        plain = work.finish()
    finally:
        work.kill()
    merge(tally, plain)
    traced = traced_worker(workload, seed)
    merge(tally, traced)
    layers = traced["layers"]
    for span, fields in LAYER_FIELDS:
        totals = layers.get(span, {})
        for field in fields:
            if field == "hit_ratio":
                value = totals.get("hits", 0) / max(totals.get("candidates", 0), 1)
            elif field == "self_s":
                value = totals.get(field, 0.0)
            else:
                value = int(totals.get(field, 0))
            metrics[f"{span}.{field}"] = (value, UNITS.get(field, "count"))
    def pass_s(samples: list) -> float:
        return sum(at_reference_speed(t, ref) for t, ref in filter(None, samples))

    plain_pass = statistics.median(pass_s(p) for p in plain["passes"])
    metrics["trace.overhead_ratio"] = (pass_s(traced["pass"]) / plain_pass, "ratio")
    tally["samples"] = {"untraced_passes": len(plain["passes"]), "traced_passes": 1}
    return metrics


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "commit": commit,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hodge_asym" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hodge_asym package under {SRC}; run from a checkout\n")
        return 2
    env = environment()
    tally = {"attempted": 0, "failed": 0, "errors": []}
    measure = per_layer if args.trace else end_to_end
    try:
        metrics = measure(args.workload, args.seed, args.seconds, tally)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    for err in tally["errors"]:
        sys.stderr.write(f"failed: {err}\n")
    failed_ratio = tally["failed"] / max(tally["attempted"], 1)
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "failed_ratio": failed_ratio,
                      "samples": tally.get("samples"),
                      "reference_ms_now": 1000 * min(reference() for _ in range(20))}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>12}  {name:<44} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
