"""Alternating perfbench pairs, checkout against checkout, for end-to-end claims.

    python3 bench/pairs.py --out BENCH_31.json parent=../parent change=. \
        parent_again=../parent

Each ``LABEL=DIR`` names the root of a checkout, holding its own
``perfbench/run.py`` and ``src/``; the first is the base that the others are
compared with.  A parent checkout can come from ``git archive`` or
``git clone``.  For each workload, pair ``k`` runs

    python3 perfbench/run.py --workload W --seed S+k --seconds T --trace 0

in every checkout, one after the other, for ``k = 0 … N−1``; the checkout
that goes first alternates from pair to pair, so a drift in machine speed
reaches every side alike.  Per workload and metric it reports:

- each side's median and interquartile range (IQR) over the N runs;
- for every label after the first, the change of its median from the
  base's median, in %;
- and how many of the N pairs moved the same way as the medians did
  (``same_way``; a pair whose two values are equal moves neither way).

A ``parent_again`` label that names the base's checkout a second time gives
the parent-against-parent row: the change that no change makes.  Defaults:
10 pairs, 10 s runs, seeds 41-50, every workload.  With ``--out``, the
result is written under the key ``pairs`` of that JSON file, beside what
``bench/ladder.py`` wrote there (the file is created if it does not exist);
without it the result goes to standard output.  A summary table goes to
standard error.  A run that exits non-zero stops the script with exit 1,
naming the checkout, the workload and the seed; the requests whose output
was wrong are counted under ``failed``, and any makes the script exit 1
once every pair has run.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ladder", "small-certs", "tables", "search")  # perfbench/run.py's
PAIRS = 10
SECONDS = 10.0
FIRST_SEED = 41


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), interpolated between the values themselves."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def sign(x: float) -> int:
    return (x > 0) - (x < 0)


def summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "iqr": q3 - q1}


def compare(base: list[float], side: list[float]) -> dict:
    """The side's summary against the base's, pair k being (base[k], side[k])."""
    base_median = quartiles(base)[1]
    out = summary(side)
    drift = out["median"] - base_median
    out["change_pct"] = 100 * drift / base_median if base_median else None
    out["same_way"] = sum(sign(s - b) == sign(drift) for b, s in zip(base, side))
    return out


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object (the last line) of one perfbench run in a checkout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(checkouts, workload: str, seeds: range, seconds: float) -> dict:
    """One workload's block: per label its failed count and its runs' metrics."""
    values: dict[str, dict[str, list[float]]] = {label: {} for label, _ in checkouts}
    failed = {label: 0 for label, _ in checkouts}
    units: dict[str, str] = {}
    for k, seed in enumerate(seeds):
        for label, root in checkouts if k % 2 == 0 else reversed(checkouts):
            try:
                result = run_once(root, workload, seed, seconds)
            except RuntimeError as e:
                raise RuntimeError(f"{label} ({root}) {workload} seed {seed}: {e}") from None
            failed[label] += result["failed"]
            for name, metric in result["metrics"].items():
                units[name] = metric["unit"]
                values[label].setdefault(name, []).append(metric["value"])
        print(f"  {workload} seed {seed} done", file=sys.stderr, flush=True)
    base = checkouts[0][0]
    metrics = {}
    for name, unit in units.items():
        row = {"unit": unit, base: summary(values[base][name])}
        for label, _ in checkouts[1:]:
            row[label] = compare(values[base][name], values[label][name])
        metrics[name] = row
    return {"failed": failed, "metrics": metrics, "values": values}


def rounded(node):
    """node with every float kept to 4 significant digits."""
    if isinstance(node, float):
        return float(f"{node:.4g}")
    if isinstance(node, dict):
        return {k: rounded(v) for k, v in node.items()}
    if isinstance(node, list):
        return [rounded(v) for v in node]
    return node


def table(block: dict, labels: list[str]) -> str:
    """The summary of one result, one line per workload, metric and label."""
    lines = []
    for workload, part in block["workloads"].items():
        for name, row in part["metrics"].items():
            for label in labels:
                cell = row[label]
                line = (f"{workload:>12} {name:<14} {label:<14} median {cell['median']:<10.4g}"
                        f" IQR {cell['iqr']:<10.4g}")
                if "change_pct" in cell:
                    pct = cell["change_pct"]
                    line += f" {'n/a' if pct is None else f'{pct:+.1f}%':>7}"
                    line += f" same way {cell['same_way']}/{block['protocol']['pairs']}"
                lines.append(line)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=DIR",
                        help="checkout roots; the first is the base")
    parser.add_argument("--pairs", type=int, default=PAIRS)
    parser.add_argument("--seconds", type=float, default=SECONDS)
    parser.add_argument("--seed", type=int, default=FIRST_SEED, help="seed of the first pair")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat for several (default: every workload)")
    parser.add_argument("--out", type=Path, default=None,
                        help="JSON file to write the block into, under 'pairs'")
    args = parser.parse_args(argv)
    checkouts = [tuple(c.split("=", 1)) for c in args.checkouts]
    if any(len(c) != 2 for c in checkouts) or len({label for label, _ in checkouts}) != len(checkouts):
        parser.error("give distinct LABEL=DIR checkouts")
    checkouts = [(label, Path(root).resolve()) for label, root in checkouts]
    for label, root in checkouts:
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{label}: no perfbench/run.py under {root}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seeds = range(args.seed, args.seed + args.pairs)
    block = {
        "protocol": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "pairs": args.pairs,
            "seconds": args.seconds,
            "seeds": [seeds[0], seeds[-1]],
            "base": checkouts[0][0],
        },
        "workloads": {},
    }
    try:
        for workload in args.workload or WORKLOADS:
            block["workloads"][workload] = measure(checkouts, workload, seeds, args.seconds)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    block = rounded(block)
    sys.stderr.write(table(block, [label for label, _ in checkouts]))
    if args.out is None:
        sys.stdout.write(json.dumps(block, indent=2) + "\n")
    else:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data["pairs"] = block
        args.out.write_text(json.dumps(data, indent=2) + "\n")
    failed = sum(n for part in block["workloads"].values() for n in part["failed"].values())
    if failed:
        print(f"error: {failed} requests failed their output check", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
