"""A fixed kernel whose time tells how fast the machine runs at the moment.

It is shaped like the program's inner loops (a subset-sum table over Z/29 and
dict updates under tuple keys), and it belongs to the benchmark, not to the
program, so it never changes with the program.  The benchmark times it around
every measured request and scales the request's time to a machine on which the
kernel takes run.REFERENCE_MS.
"""

from statistics import median
from time import perf_counter


def reference() -> float:
    """Seconds one run of the kernel takes."""
    start = perf_counter()
    dp = [[0] * 29 for _ in range(4)]
    dp[0][0] = 1
    for a in range(1, 43):
        for j in range(3, 0, -1):
            row, prev = dp[j], dp[j - 1]
            for e in range(29):
                c = prev[(e - a) % 29]
                if c:
                    row[e] += c
    cells: dict[tuple[int, int], int] = {}
    for i in range(3000):
        cells[i % 50, i % 7] = cells.get((i % 50, i % 7), 0) + 1
    return perf_counter() - start


def settled_reference(runs: int = 3) -> float:
    """The median of a few runs of the kernel: the machine's speed now, less
    the noise of a single run.  Used between requests, where time is free."""
    return median(reference() for _ in range(runs))
