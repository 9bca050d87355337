"""Mutation gate: every planted defect below must fail the tests named for it.

    python tests/mutants.py [NAME ...]

Each mutant names a file under src/hodge_asym, an exact source snippet, its
replacement and the test files (or test ids) expected to catch it.  For each
mutant the script copies src/ to a fresh temporary directory, applies the
replacement there and runs ``pytest -x`` on those tests with the copy first
on PYTHONPATH, from inside the temporary directory, so neither the tree nor
its pytest or hypothesis caches are touched.  Hypothesis is seeded, so a run
repeats.  Before the mutants, the union of their tests runs once on an
unmutated copy, which must pass.

It prints one line per mutant and exits 1 if any mutant is a finding:

- ``survived``: the tests passed with the defect in place;
- ``stale``: the snippet is not found exactly once, so the mutant no longer
  plants anything;
- ``timeout``: the tests ran longer than TIMEOUT_S.

Names given on the command line run only those mutants.  Standard library
only (the tests themselves need pytest and hypothesis); the file name keeps
it out of the pytest collection.  A change to a kernel adds its own mutants
here and runs the script.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300
MEMORY_LIMIT = 2 << 30  # address space of each pytest run


class Mutant(NamedTuple):
    name: str
    file: str  # under src/hodge_asym
    old: str
    new: str
    tests: tuple[str, ...]  # under tests/, a file or a file::test id


SEARCH = ("test_search_kernel.py",)
ERRORS = ("test_input_errors.py",)
RECORDS = ("test_record.py",)
PRODUCT = ("test_product_property.py", "test_hodge_product_pins.py")
WORD_BOUNDARIES = ("test_cyclochar.py::test_exterior_table_at_word_boundaries",)
DUMPS = ("test_dumps_property.py",)
HODGECALC = ("test_hodgecalc.py",)

MUTANTS = (
    # the candidate walk's prefixes: (1 + t x^a)^m truncated at t^3
    Mutant("walk-W_3-drops-C(m,2)", "cmbuild.py",
           " + m2 * ((w1 >> (bits - s2)) & field)", "", SEARCH),
    Mutant("walk-W_3-reads-W_2[a]", "cmbuild.py",
           "w3 + m * ((w2 >> (bits - s1)) & field)", "w3 + m * ((w2 >> s1) & field)", SEARCH),
    Mutant("walk-W_2-C(m,2)-at-x^a", "cmbuild.py",
           "(m2 << s2)", "(m2 << s1)", SEARCH),
    Mutant("walk-m-for-C(m,2)", "cmbuild.py",
           "m2 = m * (m - 1) // 2", "m2 = m", SEARCH),
    Mutant("walk-C(m,2)-wrong-above-m=3", "cmbuild.py",
           "m2 = m * (m - 1) // 2", "m2 = m * (m - 1) // 2 + (m > 3)",
           ("test_search_kernel.py::test_matches_reference_on_large_multiplicities_in_the_prefix",)),
    Mutant("walk-small-factor-at-l-e", "cmbuild.py",
           "t = _times_power(*t, c - big, shifts[a], bits, mask, field)",
           "t = _times_power(*t, c - big, shifts[-a], bits, mask, field)", SEARCH),
    # the walk's two starting triples, built from the empty module
    Mutant("walk-o-starts-without-dual", "cmbuild.py",
           "from_empty(-ctx.p)", "from_empty(ctx.p)", SEARCH),
    Mutant("walk-start-drops-C(m0,3)", "cmbuild.py",
           "(m0, comb(m0, 2), comb(m0, 3))", "(m0, comb(m0, 2), 0)", SEARCH),
    Mutant("walk-resume-skips-a-pair", "cmbuild.py",
           "start += 1", "start += 2", SEARCH),
    # the field width: a row's own fields, then a product field
    Mutant("walk-width-from-rank-V", "cmbuild.py",
           "r = v.rank + c * half", "r = v.rank", SEARCH),
    Mutant("walk-width-one-degree-short", "cmbuild.py",
           "max(comb(r + 1, 2), ", "max(r + 1, ", SEARCH),
    Mutant("walk-width-drops-cC(R,2)", "cmbuild.py",
           "c * comb(r, 2) + ", "", SEARCH),
    # the read: each row cut to its window, tau(V)*'s above V's
    Mutant("walk-B_2-window-not-rotated", "cmbuild.py",
           "around_zero(b2)", "b2 & on_d", SEARCH),
    Mutant("walk-W_2-window-not-raised", "cmbuild.py",
           "on_block(o2) << up) << near", "on_block(o2) << up)", SEARCH),
    Mutant("walk-o-windows-reach-V's-read", "cmbuild.py",
           "up = (8 * k - 3) * width", "up = (4 * k - 2) * width", SEARCH),
    Mutant("walk-block-digits-not-mirrored", "cmbuild.py",
           "repeat(c, k), digits), *digits[::-1])", "repeat(c, k), digits), *digits)", SEARCH),
    Mutant("U*-given-U's-exponents", "cmbuild.py",
           "_direct_sum(frobenius_twist(v, p), dual(u))",
           "_direct_sum(frobenius_twist(v, p), u)", SEARCH),
    Mutant("candidate-index-off-by-one", "cmbuild.py",
           "TypicalSearchResult(u, r0, r1, layer_count, idx)",
           "TypicalSearchResult(u, r0, r1, layer_count, idx + 1)", SEARCH),
    # exterior_table's DP and its words per field, sized one and two bits short
    Mutant("field-width-2-bits-short", "cyclochar.py",
           "field_words(comb(rank, min(top, rank // 2)))",
           "field_words(comb(rank, min(top, rank // 2)) >> 1)", WORD_BOUNDARIES),
    Mutant("field-width-3-bits-short", "cyclochar.py",
           "field_words(comb(rank, min(top, rank // 2)))",
           "field_words(comb(rank, min(top, rank // 2)) >> 2)", WORD_BOUNDARIES),
    Mutant("table-dp-live-not-raised", "cyclochar.py",
           "live += 1", "live += 0", ("test_cyclochar.py", *SEARCH)),
    Mutant("table-dp-rows-upward", "cyclochar.py",
           "for j in range(live, 0, -1):", "for j in range(1, live + 1):",
           ("test_cyclochar.py", *SEARCH)),
    Mutant("dual-keeps-exponents", "cyclochar.py",
           "v.mult[(-a) % l] for a in range(l)", "v.mult[a] for a in range(l)",
           ("test_cyclochar.py",)),
    # number theory
    Mutant("order-if-for-while", "cyclochar.py",
           "while k % q == 0 and pow(a, k // q, l) == 1:",
           "if k % q == 0 and pow(a, k // q, l) == 1:", ("test_cyclochar.py",)),
    Mutant("last-prime-factor-dropped", "cyclochar.py",
           "    if n > 1:\n        out.append(n)", "    pass", ("test_cyclochar.py",)),
    Mutant("find-l-stores-l-1-as-the-order", "cmbuild.py",
           "PrimeContext(p=p, l=l, ord=order)", "PrimeContext(p=p, l=l, ord=l - 1)",
           ("test_cmbuild.py::test_find_l_examples",)),
    # each cap check removed
    Mutant("walk-cap-removed", "cmbuild.py",
           "if l * (l - 1) // 2 > WALK_COST_CAP:", "if False:", ERRORS),
    Mutant("search-typical-skips-table-size", "cli.py",
           "count = cmbuild.table_size(ctx.l, args.layer_count)",
           "count = (args.layer_count + 1) ** ((ctx.l - 1) // 2)",
           ("test_input_errors.py::test_search_typical_refuses_negative_and_oversized_tables",)),
    Mutant("table-cap-removed", "cmbuild.py",
           "if (c + 1) ** min(half, SEARCH_TABLE_CAP.bit_length()) > SEARCH_TABLE_CAP:",
           "if False:", SEARCH),
    Mutant("negative-layer-count-admitted", "cmbuild.py",
           "if c < 0:", "if False:", SEARCH),
    Mutant("diamond-cap-removed", "cmbuild.py",
           "if dim * dim * ctx.l > DIAMOND_COST_CAP:", "if False:", ("test_cmbuild.py",)),
    Mutant("diamond-cap-from-V-alone", "cmbuild.py",
           "dim = ctx.l - 1", "dim = (ctx.l - 1) // 2", ("test_cmbuild.py",)),
    # the diamond's packed residual dot products: a field too narrow for l terms
    Mutant("diamond-words-drop-l", "cmbuild.py",
           "words = field_words(l * max(map(max, r_rows)) * max(flat))",
           "words = field_words(max(map(max, r_rows)) * max(flat))",
           ("test_pipeline.py::test_one_class_per_l_and_ord_up_to_l157_passes_the_diamond_checks",)),
    Mutant("p-cap-removed", "cyclochar.py", "if p > P_CAP:", "if False:", ERRORS),
    Mutant("modulus-cap-removed", "cyclochar.py", "if l > MODULUS_CAP:", "if False:", ERRORS),
    Mutant("hodge-table-cap-removed", "hodgecalc.py",
           "if cost > TABLE_COST_CAP:", "if False:", ERRORS),
    Mutant("target-degree-cap-removed", "pipeline.py",
           "if i + j > TARGET_DEGREE_CAP:", "if False:", ERRORS),
    Mutant("embellishment-refusal-removed", "pipeline.py",
           "for which in names:\n        if which not in EMBELLISHMENTS:",
           "for which in ():\n        if which not in EMBELLISHMENTS:",
           ("test_pipeline.py::test_embellishments_are_refused_before_any_work",)),
    Mutant("polygon-rank-cap-removed", "cli.py",
           "if rank > POLYGON_RANK_CAP:", "if False:", ERRORS),
    Mutant("input-bytes-cap-removed", "cli.py",
           "if size > INPUT_BYTES_CAP:", "if False:", ERRORS),
    # the frozen record base and a record's own checks
    Mutant("record-eq-ignores-class", "record.py",
           "if other.__class__ is not self.__class__:", "if not isinstance(other, Record):",
           RECORDS),
    Mutant("record-hash-drops-last-field", "record.py",
           "return hash(self._values(self))", "return hash(self._values(self)[:-1])", RECORDS),
    Mutant("record-setattr-writes", "record.py",
           'raise AttributeError(f"cannot assign to field {name!r}")',
           "object.__setattr__(self, name, value)", RECORDS),
    Mutant("record-init-skips-post-init", "record.py",
           'body.append("    self.__post_init__()")', "pass", ("test_pipeline.py", *RECORDS)),
    Mutant("record-init-ignores-defaults", "record.py",
           "init.__defaults__ = tuple(cls.__dict__[name] for name in fields if name in cls.__dict__)",
           "init.__defaults__ = None", RECORDS),
    # HodgePolynomial.coeff's bisect on the sorted cells
    Mutant("coeff-returns-the-next-cell", "hodgecalc.py",
           " and self.coeffs[k][0] == (i, j):", ":",
           ("test_hodgecalc.py::test_coeff_is_the_stored_cell_or_zero",)),
    Mutant("coeff-reads-past-the-end", "hodgecalc.py",
           "if k < len(self.coeffs) and ", "if ",
           ("test_hodgecalc.py::test_coeff_is_the_stored_cell_or_zero",)),
    # hodgecalc.product's int cell keys and truncated prefix
    Mutant("product-stride-without-+1", "hodgecalc.py",
           "base = 1 + sum(", "base = sum(", PRODUCT),
    Mutant("product-decodes-(j,i)", "hodgecalc.py",
           "divmod(k, base)", "divmod(k, base)[::-1]", PRODUCT),
    Mutant("product-keeps-zero-cells", "hodgecalc.py",
           "if (c := out[k])]", "if (c := out[k]) or True]",
           ("test_product_property.py", "test_hodgecalc.py::test_symbolic_product_in_either_order")),
    Mutant("product-prefix-one-degree-short", "hodgecalc.py",
           "bisect_right(degrees, bound - i1 - j1)", "bisect_right(degrees, bound - i1 - j1 - 1)",
           ("test_product_property.py",
            "test_hodgecalc.py::test_product_against_naive_convolution_with_bounds")),
    # special_fiber_fix's edge quotient as two truncated series
    Mutant("edge-series-drops-a1*b1", "hodgecalc.py",
           "a0 * b2 + a1 * b1 + a2 * b0,", "a0 * b2 + a2 * b0,", HODGECALC),
    Mutant("fiber-edges-untransposed", "hodgecalc.py",
           "_edge_mul((y_edge, x_edge), aux)", "_edge_mul((x_edge, y_edge), aux)", HODGECALC),
    Mutant("fiber-aux-y-edge-short", "hodgecalc.py",
           "_FIBER_AUX = ((1, 1, 0, 0), (1, 1, 1, 1))", "_FIBER_AUX = ((1, 1, 0, 0), (1, 1, 1, 0))",
           HODGECALC),
    # series and hypersurface tables built without create
    Mutant("mu_p-cell-transposed", "hodgecalc.py",
           "((k + t, k), 1)", "((k, k + t), 1)", HODGECALC),
    Mutant("hypersurface-cells-unsorted", "hodgecalc.py",
           "    cells.sort()\n    return HodgePolynomial(tuple(cells))",
           "    return HodgePolynomial(tuple(cells))", HODGECALC),
    Mutant("hypersurface-drops-the-class", "hodgecalc.py",
           "cells.append(((p, p), prim + 1))", "cells.append(((p, p), prim))", HODGECALC),
    # is_prime's table below 2^10
    Mutant("prime-sieve-stops-below-sqrt", "cyclochar.py",
           "range(2, isqrt(n - 1) + 1)", "range(2, isqrt(n - 1))",
           ("test_cyclochar.py::test_is_prime_matches_trial_division",)),
    # certificate algebra and bytes
    Mutant("DPoly-negation-drops-denominator", "hodgecalc.py",
           "return DPoly(tuple([-c for c in self.nums]), self.den)",
           "return DPoly(tuple([-c for c in self.nums]))", ("test_dpoly_property.py",)),
    Mutant("display-keeps-sign", "hodgecalc.py",
           'mag = abs(ratio) if type(ratio) is int else ratio.lstrip("-")', "mag = ratio",
           ("test_dpoly_property.py",)),
    Mutant("display-formats-each-call", "hodgecalc.py",
           "return self._text", "return DPoly._text.func(self)",
           ("test_symbolic_cache.py::test_each_exact_part_is_reduced_and_formatted_once",)),
    Mutant("ratios-unreduced", "hodgecalc.py",
           "return tuple([_ratio(c, self.den) for c in self.nums])",
           'return tuple([c if self.den == 1 else f"{c}/{self.den}" for c in self.nums])',
           ("test_dpoly_property.py",)),
    # cli._write: exact JSON only, int rows through one template per row length
    Mutant("dumps-int-row-drops-comma", "cli.py",
           '("," + cell_nl).join(["%d"] * n)', 'cell_nl.join(["%d"] * n)', DUMPS),
    Mutant("dumps-list-drops-separator", "cli.py", "lead = sep", "lead = inner", DUMPS),
    Mutant("dumps-writes-what-is-not-exact-json", "cli.py",
           'raise TypeError(f"{kind.__name__} is not exact JSON")',
           'out.append(json.dumps(obj, indent=2).replace("\\n", nl))',
           ("test_dumps_property.py::test_dumps_refuses_what_is_not_exact_json",)),
    Mutant("replay-compares-parsed-data", "cli.py",
           "fresh_text == stored_text", "load_json(fresh_text) == stored",
           ("test_cli.py::test_golden_corrupted_and_empty",
            "test_cli.py::test_certify_compares_bytes")),
    Mutant("phi-per-layer-reversed", "cmbuild.py",
           '"phi_per_layer": [sorted(phi) for phi in phis]',
           '"phi_per_layer": [sorted(phi, reverse=True) for phi in phis]',
           ("test_output_pins.py",)),
)


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(src: Path, tests, cwd: str) -> tuple[str, float, str]:
    """('passed' | 'failed' | 'timeout', seconds, first failing test) of pytest -x."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *[str(ROOT / "tests" / t) for t in tests]]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S, preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start, ""
    seconds = time.perf_counter() - start
    # "FAILED <path relative to the temporary directory>::<test> - <message>"
    first = next((line.split(" - ")[0].split("tests/", 1)[-1]
                  for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return ("passed" if proc.returncode == 0 else "failed"), seconds, first


def copy_src(tmp: str) -> Path:
    dest = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    union = sorted({t for m in mutants for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        outcome, seconds, first = run_tests(copy_src(tmp), union, tmp)
    if outcome != "passed":
        print(f"the unmutated tree fails its tests ({outcome}, {first})")
        return 1
    print(f"unmutated: {len(union)} test targets pass in {seconds:.1f} s")
    findings = 0
    start = time.perf_counter()
    for m in mutants:
        path = ROOT / "src" / "hodge_asym" / m.file
        count = path.read_text().count(m.old)
        if count != 1:
            findings += 1
            print(f"stale     {m.name}: snippet found {count} times in {m.file}")
            continue
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(tmp)
            target = src / "hodge_asym" / m.file
            target.write_text(target.read_text().replace(m.old, m.new))
            outcome, seconds, first = run_tests(src, m.tests, tmp)
        label = {"failed": "killed", "passed": "survived", "timeout": "timeout"}[outcome]
        findings += label != "killed"
        print(f"{label:<9} {m.name} ({seconds:.1f} s) {first}".rstrip(), flush=True)
    print(f"{len(mutants)} mutants, {findings} findings, {time.perf_counter() - start:.0f} s")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
