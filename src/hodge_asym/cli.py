"""Command-line surface: constructions, verifications, certificates, golden corpus.

Exit codes: 0 = success / all checks passed, 1 = a verification check
failed, 2 = invalid input or configuration.  All serialized numbers are
exact (integers, or rationals as "num/den" strings); reports carry timing
as integer milliseconds; certificates carry no timing at all and are
byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import cmbuild, hodgecalc, pipeline, polygons
from .cyclochar import CharRep

REPORT_SCHEMA = "hodge-asym/report/v1"
GOLDEN_DIR = Path(__file__).parent / "golden"
# largest rank verify-polygon accepts: an input limit, since every check costs
# O(distinct slopes) and none grows with the rank
POLYGON_RANK_CAP = 100_000
# largest file certify, golden and hodge product read: the largest certificate
# under DIAMOND_COST_CAP (l=157) is 2.8 MB, and a 500,000-cell table, which
# hodge product can write and read back under TABLE_COST_CAP, 21 MB as written
INPUT_BYTES_CAP = 32 * 1024 * 1024
# read_input reads this much at a time: one read of INPUT_BYTES_CAP + 1 bytes
# allocates that much for every file, however small
READ_CHUNK = 64 * 1024


def dumps(obj: dict) -> str:
    """Exact JSON: str-keyed dicts, lists, str, int, bool and None, written as
    ``json.dumps(obj, indent=2) + "\\n"`` writes them, byte for byte, without
    the pure-Python encoder that ``indent`` forces on the standard library.
    Any other value (a float, a tuple, a non-str key) raises TypeError."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj, nl: str, out: list[str]) -> None:
    """Append obj's text to out; nl is a newline plus the indent of obj's line."""
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None or kind is bool:
        out.append("null" if obj is None else "true" if obj else "false")
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in obj.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        kinds = set(map(type, obj))
        cells = tuple(chain.from_iterable(obj)) if kinds == {list} and all(obj) else ()
        if kinds == {int}:
            out.append("[" + inner + sep.join(map(int.__repr__, obj)) + nl + "]")
        elif cells and set(map(type, cells)) == {int}:
            # non-empty int rows, as the diamond's cells: one %d template per row
            # length, filled with every cell at once
            cell_nl = inner + "  "
            row = {
                n: "[" + cell_nl + ("," + cell_nl).join(["%d"] * n) + inner + "]"
                for n in set(map(len, obj))
            }
            table = sep.join(map(row.__getitem__, map(len, obj))) % cells
            out.append("[" + inner + table + nl + "]")
        else:
            lead = "[" + inner
            for value in obj:
                out.append(lead)
                _write(value, inner, out)
                lead = sep
            out.append(nl + "]")
    else:
        raise TypeError(f"{kind.__name__} is not exact JSON")


def _print(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# small parsers / renderers


def parse_int_list(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated ints; a refusal names ``what`` and echoes the text."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as e:
        raise ValueError(f"bad {what} {text!r}") from e


def parse_newton(text: str) -> dict[Fraction, int]:
    out: dict[Fraction, int] = {}
    text = text.strip()
    if not text:
        return out
    for item in text.split(","):
        slope_s, _, mult_s = item.partition(":")
        slope_s = slope_s.strip()
        # Fraction expands exponent notation, so "1e10000000" would build a huge integer
        if "e" in slope_s or "E" in slope_s:
            raise ValueError(f"slope {slope_s!r}: write slopes as integers, a/b or decimals")
        try:
            slope, mult = Fraction(slope_s), int(mult_s)
        except ZeroDivisionError as e:
            raise ValueError(f"slope {slope_s!r} has a zero denominator") from e
        except ValueError as e:
            raise ValueError(f"bad newton item {item!r}") from e
        out[slope] = out.get(slope, 0) + mult
    return out


def read_input(path) -> str:
    """The file's text, as Path.read_text gives it, refused above
    INPUT_BYTES_CAP bytes after reading at most one byte more.  It reads to
    the end of the file, not to the size the file system reports, which is 0
    for a pipe or /dev/stdin."""
    chunks, size = [], 0
    with open(path, "rb") as f:
        while size <= INPUT_BYTES_CAP:
            chunk = f.read(min(READ_CHUNK, INPUT_BYTES_CAP + 1 - size))
            if not chunk:
                break
            chunks.append(chunk)
            size += len(chunk)
    if size > INPUT_BYTES_CAP:
        raise ValueError(f"{path} is above the cap INPUT_BYTES_CAP={INPUT_BYTES_CAP} bytes")
    return io.TextIOWrapper(io.BytesIO(b"".join(chunks))).read()


def load_json(text: str):
    """json.loads, with input nested too deeply to parse as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply to parse") from None


def parse_coeff_table(text: str):
    if text.startswith("@"):
        text = read_input(text[1:])
    data = load_json(text)
    rows = data.get("coeffs") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == 3 for row in rows
    ):
        raise ValueError('a coefficient table is {"coeffs": [[i, j, c], ...]}')
    if not all(type(x) is int for row in rows for x in row):
        raise ValueError("coefficient table entries i, j and c must be integers")
    cells = {}
    for i, j, c in rows:
        if (i, j) in cells:
            raise ValueError(f"coefficient table repeats the cell ({i},{j})")
        cells[(i, j)] = c
    return hodgecalc.HodgePolynomial.create(cells)


def coeff_list(table) -> list:
    return [[i, j, c] for (i, j), c in table.coeffs]


def render_table(table) -> str:
    """Aligned h^{i,j} table; rows are i (form degree), columns are j."""
    d = dict(table.coeffs)
    if not d:
        return "h^{i,j}: (zero table)\n"
    imax = max(i for i, _ in d)
    jmax = max(j for _, j in d)
    hodgecalc.check_table_cost((imax + 1) * (jmax + 1), "text table")
    width = max(len(str(c)) for c in d.values())
    width = max(width, len(str(jmax)), 1)
    lines = ["h^{i,j}: rows i = form degree, columns j"]
    lines.append("  i\\j " + " ".join(f"{j:>{width}}" for j in range(jmax + 1)))
    for i in range(imax + 1):
        cells = " ".join(
            f"{d.get((i, j), 0) or '.':>{width}}" for j in range(jmax + 1)
        )
        lines.append(f"  {i:>3} " + cells)
    return "\n".join(lines) + "\n"


def render_checks(checks: list[dict]) -> str:
    lines = [
        f"  [{'PASS' if c['passed'] else 'FAIL'}] {c['name']}" for c in checks
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def report(command: str, inputs: dict, results: dict, checks: list[dict], t0: float) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "timing_ms": int((time.monotonic() - t0) * 1000),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_find_l(args) -> int:
    t0 = time.monotonic()
    ctx = cmbuild.find_l(args.p)
    if args.format == "json":
        _print(dumps(report(
            "find-l", {"p": args.p, "bound": cmbuild.FIND_L_BOUND},
            {"l": ctx.l, "ord": ctx.ord}, [], t0,
        )))
    else:
        _print(f"l={ctx.l} ord={ctx.ord}")
    return 0


def _cm_payload(z: cmbuild.CMData) -> dict:
    # the slices read only Lambda^0..Lambda^3 of either module
    slice3, slice3_pre = cmbuild.degree3_slices(z, cmbuild.equivariant_diamond(z, top=3))
    cm = z.serialize()
    return {
        "p": z.ctx.p,
        "l": z.ctx.l,
        "ord": z.ctx.ord,
        **{k: cm[k] for k in ("V", "U_layers", "phi_per_layer", "W_omega", "W_o", "oriented")},
        "degree3_slice": list(slice3),
        "degree3_slice_pre_orientation": list(slice3_pre),
        "search": cm["search"],
    }


def cmd_build_cm(args) -> int:
    z = cmbuild.build_cm(args.p, l=args.l, selector=args.selector)
    payload = _cm_payload(z)
    if args.format == "json":
        _print(dumps(payload))
    else:
        for key in ("p", "l", "ord", "V", "W_omega", "W_o", "oriented"):
            _print(f"{key:>10} = {payload[key]}")
        _print(f"{'U_layers':>10} = {', '.join(payload['U_layers'])}")
        _print(f"{'phi':>10} = {payload['phi_per_layer']}")
        _print(f"{'slice3':>10} = {tuple(payload['degree3_slice'])}")
    return 0


def cmd_search_typical(args) -> int:
    if args.V is not None:
        if args.l is not None or args.selector != "default":
            raise ValueError("--V fixes l and the module: it takes no --l or --selector")
        v = CharRep.from_text(args.V)
        ctx = cmbuild.PrimeContext.create(args.p, v.l)
    elif args.l is None:
        ctx = cmbuild.find_l(args.p)
    else:
        ctx = cmbuild.PrimeContext.create(args.p, args.l)
    count = cmbuild.table_size(ctx.l, args.layer_count)  # refused before V and any output
    if args.V is None:
        v = cmbuild.build_V(ctx, args.selector)
    rows = cmbuild.candidate_walk(v, ctx, args.layer_count)
    if args.format == "json":
        # the layout of dumps, written one row at a time as the walk yields it
        head = {"p": ctx.p, "l": ctx.l, "V": v.to_text(), "layer_count": args.layer_count}
        sys.stdout.write(dumps(head)[:-3] + ',\n  "candidates": [')
        row_nl = sep = "\n    "
        for u, r0, r1 in rows:
            out = [sep]
            _write({"U": u.to_text(), "r0": r0, "r1": r1, "hit": r0 != r1}, row_nl, out)
            sys.stdout.write("".join(out))
            sep = "," + row_nl
        sys.stdout.write("\n  ]\n}\n")
    else:
        _print(f"V = {v.to_text()}   ({count} candidates, {args.layer_count} layer(s))")
        for u, r0, r1 in rows:
            _print(f"  {'*' if r0 != r1 else ' '} {u.to_text():<24} r0={r0} r1={r1}")
    return 0


def cmd_verify_polygon(args) -> int:
    t0 = time.monotonic()
    hodge = parse_int_list(args.hodge, "hodge vector")
    newton = parse_newton(args.newton)
    rank = max(sum(hodge), sum(newton.values()))
    if rank > POLYGON_RANK_CAP:
        raise ValueError(f"rank {rank} is above the cap POLYGON_RANK_CAP={POLYGON_RANK_CAP}")
    pd = polygons.PolygonData.create(args.n, hodge, newton)
    checks = [
        {"name": "degree-relation", "passed": polygons.check_degree_relation(pd)},
        {
            "name": "weak-admissibility-endpoints",
            "passed": polygons.check_weak_admissibility_endpoints(pd),
        },
        {"name": "slope-symmetry", "passed": polygons.check_slope_symmetry(pd)},
        {"name": "newton-above-hodge", "passed": polygons.newton_above_hodge(pd)},
    ]
    if args.n % 2 == 1:
        checks.append({"name": "odd-degree-parity", "passed": polygons.check_parity(pd)})
    rep = report(
        "verify-polygon",
        {"n": args.n, "hodge": list(hodge), "newton": args.newton},
        {
            "t_H": polygons.t_H(pd),
            "t_N": str(polygons.t_N(dict(pd.newton))),
            "rank": pd.rank,
        },
        checks,
        t0,
    )
    if args.format == "json":
        _print(dumps(rep))
    else:
        _print(f"n={args.n} rank={pd.rank} t_H={rep['results']['t_H']} t_N={rep['results']['t_N']}")
        _print(render_checks(checks))
    return 0 if rep["passed"] else 1


def cmd_hodge(args) -> int:
    if args.hodge_op == "hypersurface":
        table = hodgecalc.hypersurface(args.d, args.n)
    elif args.hodge_op == "blowup-tower":
        dims = (parse_int_list(args.ambient_dims, "ambient dims")
                if args.ambient_dims is not None else None)
        table = hodgecalc.blow_up_tower(args.d, args.n, args.s, dims)
    elif args.hodge_op == "stack":
        table = hodgecalc.stack_series(args.kind, args.bound)
    else:  # product
        left, right = parse_coeff_table(args.left), parse_coeff_table(args.right)
        # |left|*|right| is an upper bound on the pairs the convolution visits
        hodgecalc.check_table_cost(len(left.coeffs) * len(right.coeffs), "hodge product")
        table = hodgecalc.product(left, right)
    if args.format == "json":
        _print(dumps({"coeffs": coeff_list(table)}))
    else:
        _print(render_table(table))
    return 0


def cmd_construct(args) -> int:
    embellishments = [e for e in (args.embellish or "").split(",") if e]
    cert = pipeline.build_certificate(
        args.p, args.i, args.j, l=args.l, selector=args.selector, embellishments=embellishments
    )
    payload = pipeline.serialize_certificate(cert)
    text = dumps(payload)
    if args.out:
        Path(args.out).write_text(text)
    if args.format == "json":
        _print(text)
    else:
        aux = payload["aux_case"]
        aux_text = aux["kind"]
        if aux["kind"] == "tower":
            aux_text = f"tower(n={aux['n']}, s={aux['s']}, ambient_dims={aux['ambient_dims']})"
        _print(f"target h^{{{args.i},{args.j}}} != h^{{{args.j},{args.i}}}  (p={args.p}, l={cert.cm.ctx.l})")
        _print(f"degree-3 slice: {tuple(cert.slice3)}   oriented={cert.cm.oriented}")
        _print(f"aux case: {aux_text}")
        _print(f"delta result: {cert.delta_result.display()}")
        _print(f"d policy: {cert.d_policy['statement']}")
        _print(render_checks(payload["checks"]))
    return 0


def _check_certificate_inputs(stored) -> None:
    """Raise ValueError unless the JSON holds the input echo regenerate reads."""
    inp = stored.get("inputs") if isinstance(stored, dict) else None
    if not isinstance(inp, dict) or not all(k in inp for k in ("p", "i", "j")):
        raise ValueError('certificate has no "inputs" object with p, i and j')
    ints = [inp[k] for k in ("p", "i", "j", "max_layers", "bound") if k in inp]
    if inp.get("l") is not None:
        ints.append(inp["l"])
    embellish = inp.get("embellish", [])
    if (
        not all(type(x) is int for x in ints)
        or not isinstance(inp.get("selector", ""), str)
        or not isinstance(embellish, list)
        or not all(isinstance(e, str) for e in embellish)
    ):
        raise ValueError(
            "certificate inputs: p, i, j, l, max_layers and bound must be integers, "
            "selector a string and embellish a list of strings"
        )


def regenerate(stored) -> dict:
    """Re-run the pipeline from a certificate's recorded inputs, checked first."""
    _check_certificate_inputs(stored)
    inp = stored["inputs"]
    options = {k: inp[k] for k in ("l", "selector") if k in inp}
    cert = pipeline.build_certificate(
        inp["p"], inp["i"], inp["j"], embellishments=inp.get("embellish", []), **options
    )
    return pipeline.serialize_certificate(cert)


def replay(stored_text: str) -> tuple[dict, str | None]:
    """The certificate regenerated from a stored text, and None when its dumps
    text is the stored text byte for byte, else their mismatch: certify and
    golden both compare here.  Parsing and regeneration raise as they do."""
    stored = load_json(stored_text)
    fresh = regenerate(stored)
    fresh_text = dumps(fresh)
    return fresh, None if fresh_text == stored_text else mismatch(stored, stored_text, fresh_text)


def cmd_certify(args) -> int:
    t0 = time.monotonic()
    fresh, why = replay(read_input(args.certificate))
    checks = [dict(c) for c in fresh["checks"]]
    checks.append({"name": "stored-matches-recomputation", "passed": why is None})
    results = {} if why is None else {"first_difference": why}
    rep = report("certify", {"certificate": args.certificate}, results, checks, t0)
    if args.format == "json":
        _print(dumps(rep))
    else:
        _print(render_checks(checks))
        if why is not None:  # under the failed check
            _print(f"    {why}")
    return 0 if rep["passed"] else 1


_ABSENT = object()


def _shown(value) -> str:
    """A short display of one JSON value: containers as their brackets."""
    if value is _ABSENT:
        return "absent"
    if value and isinstance(value, (dict, list)):
        return "{...}" if isinstance(value, dict) else "[...]"
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def first_difference(stored, fresh) -> str | None:
    """'path: stored X, regenerated Y' at the first place, in document order,
    where two parsed JSON documents differ; None when they are equal.  The
    walk keeps its own stack, so no nesting depth can exhaust Python's."""
    stack = [("", stored, fresh)]
    while stack:
        path, a, b = stack.pop()
        if type(a) is type(b) is dict:
            keys = [*a, *(k for k in b if k not in a)]
            stack.extend(
                (f"{path}.{k}" if path else k, a.get(k, _ABSENT), b.get(k, _ABSENT))
                for k in reversed(keys)
            )
        elif type(a) is type(b) is list:
            pairs = list(enumerate(zip_longest(a, b, fillvalue=_ABSENT)))
            stack.extend((f"{path}[{t}]", x, y) for t, (x, y) in reversed(pairs))
        elif type(a) is not type(b) or a != b:
            return f"{path or '(root)'}: stored {_shown(a)}, regenerated {_shown(b)}"
    return None


def mismatch(stored, stored_text: str, fresh_text: str) -> str:
    """Where a regenerated certificate's text departs from the stored text:
    their first_difference, or the first differing line when both hold the
    same data laid out differently."""
    why = first_difference(stored, load_json(fresh_text))
    if why is None:
        old, new = stored_text.splitlines(), fresh_text.splitlines()
        line = next(
            (t for t, (a, b) in enumerate(zip(old, new)) if a != b),
            min(len(old), len(new)),
        )
        why = f"first difference at line {line + 1}"
    return why


def cmd_golden(args) -> int:
    corpus = Path(args.corpus) if args.corpus else GOLDEN_DIR
    if not corpus.is_dir():
        raise ValueError(f"corpus directory {corpus} not found")
    files = sorted(corpus.glob("*.json"))
    if not files:
        _print(f"warning: corpus {corpus} is empty")
        return 0
    failures = []
    for path in files:
        stored_text = read_input(path)
        try:
            why = replay(stored_text)[1]
        except Exception as e:  # regeneration itself failed
            why = f"regeneration error: {e}"
        if why is not None:
            failures.append((path.name, why))
    for name, why in failures:
        _print(f"MISMATCH {name}: {why}")
    _print(f"golden: {len(files) - len(failures)}/{len(files)} certificates match")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hodge-asym",
        description="Exact bookkeeping for products violating Hodge symmetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("find-l", help="smallest companion prime for p")
    p.add_argument("--p", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_find_l)

    p = sub.add_parser("build-cm", help="character data of the oriented product")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--selector", choices=cmbuild.SELECTORS, default="default")
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(func=cmd_build_cm)

    p = sub.add_parser("search-typical", help="typical candidates and their rank pairs")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--selector", choices=cmbuild.SELECTORS, default="default")
    p.add_argument("--V", type=str, default=None,
                   help='override the coset module, e.g. "l=5; 1:1,4:1"')
    p.add_argument("--layer-count", type=int, default=1)
    add_format(p)
    p.set_defaults(func=cmd_search_typical)

    p = sub.add_parser("verify-polygon", help="polygon-level checks for one degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--hodge", type=str, required=True, help="h^{n,0},...,h^{0,n}")
    p.add_argument("--newton", type=str, required=True, help="slope:mult,...")
    add_format(p)
    p.set_defaults(func=cmd_verify_polygon)

    p = sub.add_parser("hodge", help="coefficient-table calculators")
    hodge_sub = p.add_subparsers(dest="hodge_op", required=True)
    q = hodge_sub.add_parser("hypersurface")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    add_format(q)
    q.set_defaults(func=cmd_hodge)
    q = hodge_sub.add_parser("blowup-tower")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--ambient-dims", type=str, default=None)
    add_format(q)
    q.set_defaults(func=cmd_hodge)
    q = hodge_sub.add_parser("stack")
    q.add_argument("--kind", choices=("mu_p", "Z_mod_p"), required=True)
    q.add_argument("--bound", type=int, default=12)
    add_format(q)
    q.set_defaults(func=cmd_hodge)
    q = hodge_sub.add_parser("product")
    q.add_argument("--left", type=str, required=True, help='{"coeffs": [[i,j,c],...]} or @file')
    q.add_argument("--right", type=str, required=True)
    add_format(q)
    q.set_defaults(func=cmd_hodge)

    p = sub.add_parser("construct", help="emit a construction certificate")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--selector", choices=cmbuild.SELECTORS, default="default")
    p.add_argument("--embellish", type=str, default="",
                   help="comma-separated: " + ",".join(pipeline.EMBELLISHMENTS))
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("certify", help="re-run all checks of a stored certificate")
    p.add_argument("certificate", type=str)
    add_format(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("golden", help="regenerate and byte-compare the corpus")
    p.add_argument("--corpus", type=str, default=None)
    p.set_defaults(func=cmd_golden)

    return parser


def main(argv=None) -> int:
    if os.environ.get("HODGE_ASYM_SEED") is not None:
        sys.stderr.write(
            "error: HODGE_ASYM_SEED is set but this tool uses no randomness; "
            "unset it to proceed\n"
        )
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except pipeline.CertificateFailure as fail:
        _print(dumps({"schema": "hodge-asym/failure/v1", "certificate": fail.report}))
        return 1
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
