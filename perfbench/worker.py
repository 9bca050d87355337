"""One measuring process of the benchmark, started by run.py.

    python3 perfbench/worker.py ROLE WORKLOAD SEED

ROLE is one of
  serve   untraced passes over the workload's request list, one for each
          line "pass" on standard input, each answered with a JSON list of
          [request time, reference kernel time over it] (null where a
          request failed); on "end", a JSON summary.  WORKLOAD may also be
          workloads.PROBE, the ladder rungs;
  traced  one pass with every layer wrapped by tracer.Tracer, then one small
          request per kind so that every layer is measured; prints a JSON
          summary with the per-layer totals.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from reference import reference, settled_reference  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKDIR = ROOT / ".perfbench"

# one cheap request of each kind, run after the traced pass of every workload so
# that every per-layer metric is measured, also for layers the workload never reaches
COVERAGE = (
    ("cert", *wl.LADDER_TARGET, 5),
    ("cli", 2, 3, 0, "special-fiber,polarization"),
    ("cli", 3, 1, 3, ""),
    ("cli", 2, 7, 2, ""),
    ("search", 2, 13, 1, "default"),
    ("hypersurface", 5, 2),
    ("blow_up_tower", 3, 1, 2),
    ("product", "mu_p", 20, "Z_mod_p"),
    ("weil_restriction_power", 3, 1, 2),
    ("special_fiber_fix", -8),
    ("polygon", 0),
)


# the reference kernel runs before a request when this long has passed since it last ran
REFERENCE_GAP_S = 0.05
# and, from a timer signal, this often while a request runs: the machine's speed
# changes within a request of several seconds, not only between requests
SAMPLE_EVERY_S = 0.05


class Runner:
    """Runs requests, times them and checks their outputs; samples the
    reference kernel between requests and, from a timer signal, during them.
    The time the kernel takes during a request is not counted in the request's
    time."""

    def __init__(self, expected: dict, tracer=None, workdir: Path = WORKDIR):
        self.expected = expected
        self.tracer = tracer
        workdir.mkdir(exist_ok=True)
        self.ctx = wl.Context(expected["polygon_catalogue"], workdir)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference_s: list[float] = []
        self._reference_at = float("-inf")
        self.during_s: list[float] = []  # kernel times sampled during the last request
        self._sampler_s = 0.0
        signal.signal(signal.SIGALRM, self._on_timer)

    def sample_reference(self) -> None:
        self.reference_s.append(settled_reference())
        self._reference_at = perf_counter()

    def _on_timer(self, signum, frame) -> None:
        start = perf_counter()
        self.during_s.append(reference())
        self._sampler_s += perf_counter() - start

    def run(self, req: tuple) -> float | None:
        """Seconds the request took, or None when it failed."""
        if perf_counter() - self._reference_at >= REFERENCE_GAP_S:
            self.sample_reference()
        self.attempted += 1
        self.during_s = []
        self._sampler_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = perf_counter()
        try:
            if self.tracer:
                result = self.tracer.request(wl.execute, req, self.ctx)
            else:
                result = wl.execute(req, self.ctx)
        except Exception:  # a raising request is a failed request
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = None
            why = traceback.format_exc(limit=3)
        else:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start - self._sampler_s
            why = wl.check(req, result, self.expected)
        if why is None:
            return elapsed
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{wl.key(req)}: {why}")
        return None

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }


def run_pass_with_reference(runner: Runner, reqs: list) -> list[list[float] | None]:
    """[time, reference time over it] for each request of the pass, None
    where it failed.  The reference time is the harmonic mean of the kernel
    samples taken just before the request, during it and just after it
    (samples between requests are shared by requests that follow each other
    within REFERENCE_GAP_S), so that a time scaled by it is the sum of its
    stretches, each scaled by the machine's speed at that stretch."""
    out = []
    for req in reqs:
        elapsed = runner.run(req)
        out.append((elapsed, len(runner.reference_s) - 1, runner.during_s))
    runner.sample_reference()
    ref = runner.reference_s
    return [
        None if t is None else [t, statistics.harmonic_mean([ref[i], *during, ref[i + 1]])]
        for t, i, during in out
    ]


def serve(workload: str, seed: int, expected: dict) -> None:
    """Run one pass each time a line "pass" arrives; on "end" or end of input,
    print the summary and return."""
    runner = Runner(expected)
    reqs = wl.requests(workload, seed, expected)
    for line in sys.stdin:
        if line.strip() != "pass":
            break
        print(json.dumps(run_pass_with_reference(runner, reqs)), flush=True)
    print(json.dumps({"requests": [wl.key(r) for r in reqs], **runner.summary()}))


def traced(workload: str, seed: int, expected: dict) -> None:
    tracer = Tracer()
    runner = Runner(expected, tracer)
    reqs = wl.requests(workload, seed, expected)
    tracer.install()
    try:
        traced_pass = run_pass_with_reference(runner, reqs)
        for req in COVERAGE:
            runner.run(req)
    finally:
        tracer.restore()
    tracer.write(WORKDIR / f"trace-{workload}.json")
    print(json.dumps({"pass": traced_pass, "layers": tracer.layer_totals(),
                      **runner.summary()}))


def main(argv: list[str]) -> int:
    role, workload, seed = argv
    {"serve": serve, "traced": traced}[role](workload, int(seed), wl.load_expected())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
