"""Every class (l, p mod l, selector) through the diamond checks.

    PYTHONPATH=src python tests/sweep_classes.py [MAX_L]

With l given, the pipeline reads p only mod l, so each class
(l, p mod l, selector) with 4 | ord(p mod l) stands for every prime in it;
one real prime per residue, PrimeContext.create's, represents it.  Each
class with 5 <= l <= MAX_L (default 157, the largest modulus that
cmbuild.DIAMOND_COST_CAP admits) goes through build_V, search_typical_U,
assemble_Z, equivariant_diamond, quotient_bookkeeping and _diamond_checks,
and must have delta30 < 0 and pass every check.  Each class must also
satisfy two closed forms: W_omega + W_o holds every nonzero residue mod l
twice (complementarity), and the antidiagonal sums of its diamond are the
coefficients of antidiagonal_sums(l).  Every class of one key
(l, ord(p mod l)) must have the same diamond.  The sweep prints the class
count, the range of delta30 and the (l, ord) -> delta30 table, or exits 1
naming the first class that fails.  It also hashes every class's (l,
residue, selector, U, r0, r1, delta30, diamond cells) into one SHA-256, and exits 1 when a full sweep's
digest differs from DIGEST: a change that alters any class's search or
diamond, even one whose checks still pass, shows here.  Last, a full
sweep prints the largest companion prime find_l(p) over the primes
p <= cyclochar.P_CAP, the classes that construct reaches without --l, and
exits 1 when it exceeds COMPANION_BOUND, the bound cmbuild.find_l's
docstring cites.  That scan does not depend on MAX_L, so a partial sweep
(MAX_L below 157) skips it and says so.
tests/test_pipeline.py runs the classes with l <= 61 in tier-1, one class
per (l, ord(p mod l)) for every l <= 157 with both closed forms, and the
complementarity on every class.
The file name keeps it out of the pytest collection.
"""

import hashlib
import itertools
import sys
import time
from collections import Counter
from math import comb

from hodge_asym import cmbuild
from hodge_asym.cyclochar import P_CAP, PrimeContext, is_prime, multiplicative_order
from hodge_asym.hodgecalc import HodgePolynomial
from hodge_asym.pipeline import _diamond_checks, quotient_bookkeeping

MAX_L = 157
# sha256 of the class lines of a full sweep (MAX_L = 157), recorded at 4d1297d
DIGEST = "ae007d264472130ddf4e70b8f1545cada1c766180baf81fd24ed4077a276f4be"
COMPANION_BOUND = 97  # find_l(p) <= 97 for every p <= P_CAP


def classes(max_l: int):
    """(ctx, selector) for each class with 5 <= l <= max_l, in order of l and residue;
    ctx.p is the least prime in the residue class."""
    for l in filter(is_prime, range(5, max_l + 1)):
        for r in range(2, l):
            if multiplicative_order(r, l) % 4 == 0:
                ctx = PrimeContext.create(next(filter(is_prime, itertools.count(r, l))), l)
                for selector in cmbuild.SELECTORS:
                    yield ctx, selector


def assembled(ctx: PrimeContext, selector: str) -> cmbuild.CMData:
    """The class's oriented product, built as build_cm builds it."""
    v = cmbuild.build_V(ctx, selector)
    return cmbuild.assemble_Z(v, cmbuild.search_typical_U(v, ctx), ctx)


def complementary(z: cmbuild.CMData) -> bool:
    """W_omega + W_o holds each nonzero residue mod l twice and 0 never:
    V and tau(V) = pV, and U and U*, each cover the nonzero residues once."""
    return list(map(sum, zip(z.W_omega.mult, z.W_o.mult))) == [0] + [2] * (z.ctx.l - 1)


def antidiagonal_sums(l: int) -> list[int]:
    """The sums sum_{i+j=n} h^{i,j}, n = 0 .. 2(l-1), of a complementary
    product: the coefficients of ((1+t)^{2l} + (l-1)(1+t^l)^2) / (l (1+t)^2),
    by exact integer division, since prod_e (1 + t x^e) = 1 + t^l at every
    l-th root of unity x != 1 (l odd)."""
    num = [comb(2 * l, n) for n in range(2 * l + 1)]
    for n, c in ((0, 1), (l, 2), (2 * l, 1)):
        num[n] += (l - 1) * c
    for _ in range(2):  # divide by 1 + t: q[n] = num[n] - q[n-1]
        quot = list(itertools.accumulate(num[:-1], lambda q, c: c - q))
        if quot[-1] != num[-1]:
            raise ArithmeticError(f"1 + t does not divide the numerator at l={l}")
        num = quot
    if any(c % l for c in num):
        raise ArithmeticError(f"l={l} does not divide the quotient")
    return [c // l for c in num]


def diamond_sums(diamond: HodgePolynomial) -> list[int]:
    """sum_{i+j=n} h^{i,j} for n = 0 .. the largest total degree of a cell."""
    sums = [0] * (1 + max((i + j for (i, j), _ in diamond.coeffs), default=-1))
    for (i, j), c in diamond.coeffs:
        sums[i + j] += c
    return sums


def diamond_checks(
    ctx: PrimeContext, selector: str
) -> tuple[int, list[tuple[str, bool]], str, HodgePolynomial]:
    """delta30 of the class's diamond, its diamond checks and complementarity,
    the class's line of the digest, and the diamond."""
    z = assembled(ctx, selector)
    search = z.search
    diamond = cmbuild.equivariant_diamond(z)
    delta30 = quotient_bookkeeping(diamond).delta30
    cells = ",".join(f"{i}:{j}:{c}" for (i, j), c in diamond.coeffs)
    line = (f"{ctx.l} {ctx.p % ctx.l} {selector} {search.U.to_text()} {search.r0} "
            f"{search.r1} {delta30} {cells}\n")
    checks = _diamond_checks(diamond, z.dim, z.isoclinic())
    checks.append(("complementarity", complementary(z)))
    return delta30, checks, line, diamond


def main(max_l: int = MAX_L) -> int:
    t0 = time.monotonic()
    values = Counter()
    per_key: dict[tuple[int, int], int] = {}  # (l, ord) -> delta30
    digest = hashlib.sha256()
    l = None
    for ctx, selector in classes(max_l):
        if ctx.l != l:
            l, sums = ctx.l, antidiagonal_sums(ctx.l)
            first = {}  # ord -> the first diamond of (l, ord); one l's diamonds at a time
        delta30, checks, line, diamond = diamond_checks(ctx, selector)
        digest.update(line.encode())
        failed = [name for name, ok in checks if not ok]
        if diamond_sums(diamond) != sums:
            failed.append("antidiagonal-sums-closed-form")
        if first.setdefault(ctx.ord, diamond) != diamond:
            failed.append("one-diamond-per-(l,ord)")
        if delta30 >= 0 or failed:
            print(f"FAIL l={ctx.l} p={ctx.p} selector={selector}: "
                  f"delta30={delta30}, failed checks {failed}")
            return 1
        values[delta30] += 1
        per_key[(ctx.l, ctx.ord)] = delta30
    if not values:
        print(f"no class with 5 <= l <= {max_l}")
        return 1
    print(f"{sum(values.values())} classes with 5 <= l <= {max_l} pass in "
          f"{time.monotonic() - t0:.1f} s: delta30 from {min(values)} to {max(values)}, "
          f"{len(values)} distinct values")
    print(f"one diamond per (l, ord): {len(per_key)} keys, (l, ord) -> delta30:")
    for l, group in itertools.groupby(sorted(per_key.items()), key=lambda kv: kv[0][0]):
        print(f"  l={l}: " + ", ".join(f"ord {o} -> {d}" for (_, o), d in group))
    print(f"class digest {digest.hexdigest()}")
    if max_l == MAX_L and digest.hexdigest() != DIGEST:
        print(f"FAIL the class digest differs from DIGEST={DIGEST}")
        return 1
    if max_l < MAX_L:
        print(f"find_l scan over the primes p <= P_CAP={P_CAP} skipped: "
              f"it does not depend on MAX_L, and only a full sweep runs it")
        return 0
    companions = [cmbuild.find_l(p).l for p in filter(is_prime, range(2, P_CAP + 1))]
    print(f"find_l(p) <= {max(companions)} for the {len(companions)} primes p <= P_CAP={P_CAP}")
    if max(companions) > COMPANION_BOUND:
        print(f"FAIL a companion prime exceeds COMPANION_BOUND={COMPANION_BOUND}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:2])))
