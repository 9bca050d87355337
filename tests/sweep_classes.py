"""Every class (l, p mod l, selector) through the diamond checks.

    PYTHONPATH=src python tests/sweep_classes.py [MAX_L]

With l given, the pipeline reads p only mod l, so each class
(l, p mod l, selector) with 4 | ord(p mod l) stands for every prime in it;
one real prime per residue, PrimeContext.create's, represents it.  Each
class with 5 <= l <= MAX_L (default 157, the largest modulus that
cmbuild.DIAMOND_COST_CAP admits) goes through build_V, search_typical_U,
assemble_Z, equivariant_diamond, quotient_bookkeeping and _diamond_checks,
and must have delta30 < 0 and pass every check.  The sweep prints the class
count and the range of delta30, or exits 1 naming the first class that
fails.  It also hashes every class's (l, residue, selector, U, r0, r1,
delta30, diamond cells) into one SHA-256, and exits 1 when a full sweep's
digest differs from DIGEST: a change that alters any class's search or
diamond, even one whose checks still pass, shows here.  Last it prints the
largest companion prime find_l(p) over the primes p <= cyclochar.P_CAP,
the classes that construct reaches without --l.
tests/test_pipeline.py runs the classes with l <= 61 in tier-1, and one
class per (l, ord(p mod l)) for every l <= 157.
The file name keeps it out of the pytest collection.
"""

import hashlib
import itertools
import sys
import time
from collections import Counter

from hodge_asym import cmbuild
from hodge_asym.cyclochar import P_CAP, PrimeContext, is_prime, multiplicative_order
from hodge_asym.pipeline import _diamond_checks, quotient_bookkeeping

MAX_L = 157
# sha256 of the class lines of a full sweep (MAX_L = 157), recorded at 4d1297d
DIGEST = "ae007d264472130ddf4e70b8f1545cada1c766180baf81fd24ed4077a276f4be"


def classes(max_l: int):
    """(ctx, selector) for each class with 5 <= l <= max_l, in order of l and residue;
    ctx.p is the least prime in the residue class."""
    for l in filter(is_prime, range(5, max_l + 1)):
        for r in range(2, l):
            if multiplicative_order(r, l) % 4 == 0:
                ctx = PrimeContext.create(next(filter(is_prime, itertools.count(r, l))), l)
                for selector in cmbuild.SELECTORS:
                    yield ctx, selector


def diamond_checks(ctx: PrimeContext, selector: str) -> tuple[int, list[tuple[str, bool]], str]:
    """delta30 of the class's diamond, its diamond checks, and the class's
    line of the digest."""
    v = cmbuild.build_V(ctx, selector)
    search = cmbuild.search_typical_U(v, ctx)
    z = cmbuild.assemble_Z(v, search, ctx)
    diamond = cmbuild.equivariant_diamond(z)
    delta30 = quotient_bookkeeping(diamond).delta30
    cells = ",".join(f"{i}:{j}:{c}" for (i, j), c in diamond.coeffs)
    line = (f"{ctx.l} {ctx.p % ctx.l} {selector} {search.U.to_text()} {search.r0} "
            f"{search.r1} {delta30} {cells}\n")
    return delta30, _diamond_checks(diamond, z.dim, z.isoclinic()), line


def main(max_l: int = MAX_L) -> int:
    t0 = time.monotonic()
    values = Counter()
    digest = hashlib.sha256()
    for ctx, selector in classes(max_l):
        delta30, checks, line = diamond_checks(ctx, selector)
        digest.update(line.encode())
        failed = [name for name, ok in checks if not ok]
        if delta30 >= 0 or failed:
            print(f"FAIL l={ctx.l} p={ctx.p} selector={selector}: "
                  f"delta30={delta30}, failed checks {failed}")
            return 1
        values[delta30] += 1
    if not values:
        print(f"no class with 5 <= l <= {max_l}")
        return 1
    print(f"{sum(values.values())} classes with 5 <= l <= {max_l} pass in "
          f"{time.monotonic() - t0:.1f} s: delta30 from {min(values)} to {max(values)}, "
          f"{len(values)} distinct values")
    print(f"class digest {digest.hexdigest()}")
    if max_l == MAX_L and digest.hexdigest() != DIGEST:
        print(f"FAIL the class digest differs from DIGEST={DIGEST}")
        return 1
    companions = [cmbuild.find_l(p).l for p in filter(is_prime, range(2, P_CAP + 1))]
    print(f"find_l(p) <= {max(companions)} for the {len(companions)} primes p <= P_CAP={P_CAP}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:2])))
