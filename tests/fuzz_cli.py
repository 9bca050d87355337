"""Grammar fuzzer for the command line: no input may end in a traceback.

    PYTHONPATH=src python tests/fuzz_cli.py

Draws argument lists over the eight subcommands and the four ``hodge``
operations.  Integers are log-uniform in magnitude up to 10^18, of either
sign; JSON arguments and stored certificates are valid, mutated, malformed,
deeply nested or wrongly typed; every path points into a fresh temporary
directory, and every file the CLI reads may also be /dev/zero or a sparse
file one byte over cli.INPUT_BYTES_CAP.  So that valid input is common too,
build-cm, search-typical and construct have a second branch over (p, l) pairs
with 4 | ord(p mod l) (construct with a target of degree 3 to 12), a quarter
of them just above DIAMOND_COST_CAP or WALK_COST_CAP, certify one over the
valid certificates and one whose recorded l is above DIAMOND_COST_CAP, hodge
blowup-tower one over small legal towers, hodge product one over pairs
of small non-negative tables, and verify-polygon draws
symmetric Hodge vectors, about half with the passing slope n/2.  Each
example runs in its own interpreter, one at a time, and must exit 0, 1 or
2, write no traceback, and use at most CPU_LIMIT_S of CPU time (user plus
system, read as tests/test_input_errors.py reads it); TIMEOUT_S guards a
hang.  Seed and example count are fixed, so a run of this script repeats.
Reached through an import instead (a module that imports this one and calls
main()), the same seed draws other examples, so compare tallies only between
runs of the script itself.  A run ends by printing how often each
subcommand exited with each code and, beside its exit 2, how many distinct
refusals it reached (the ``error:`` lines of its exit-2 runs with their
digits stripped) and which named caps (``..._CAP``) they cite.  A subcommand
that never exits 0, or never 2, is a finding too, as is a golden or
verify-polygon that never exits 1: the run then reached none of that
command's successes, refusals or failed checks (FLOOR).  Each input it
finds belongs in tests/test_input_errors.py as a plain regression case.
The file name keeps it out of the pytest collection.
"""

import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

from hypothesis import HealthCheck, given, seed, settings, strategies as st

import hodge_asym
from hodge_asym import pipeline
from hodge_asym.cli import INPUT_BYTES_CAP, dumps
from hodge_asym.cyclochar import is_prime, multiplicative_order

SEED = 20261019
EXAMPLES = 600
CPU_LIMIT_S = 2.0
TIMEOUT_S = 20
MEMORY_LIMIT = 1 << 30  # address space of each child, as in test_input_errors
ENV = dict(os.environ, PYTHONPATH=str(Path(hodge_asym.__file__).resolve().parents[1]))
ENV.pop("HODGE_ASYM_SEED", None)

# ---------------------------------------------------------------------------
# values


def weighted(*pairs) -> st.SearchStrategy:
    """One of the strategies, each drawn in proportion to its weight."""
    pool = [strategy for weight, strategy in pairs for _ in range(weight)]
    return st.integers(0, len(pool) - 1).flatmap(lambda k: pool[k])


# magnitude log-uniform: a uniform bit length, then a uniform value below it;
# small values, where most inputs are valid, get a branch of their own
log_ints = weighted(
    (3, st.integers(0, 60).flatmap(lambda b: st.integers(-(1 << b), 1 << b))
     .map(lambda v: max(-10**18, min(10**18, v)))),
    (1, st.integers(-2, 40)),
)
int_text = weighted(
    (7, log_ints.map(str)),
    (1, st.sampled_from(["", "x", "1.5", "0x10", "1e3", " 7", "-0", "9" * 5000])),
)
# primes for --p and --l, most of them small enough to get past the caps
prime_text = weighted(
    (2, st.sampled_from([2, 3, 5, 7, 11, 13, 17, 29, 37, 41, 53, 61, 101, 157, 173,
                         2801, 10007, 100049, 1000003, 2147483647]).map(str)),
    (1, int_text),
)
small_text = weighted((2, st.integers(-1, 12).map(str)), (1, int_text))
json_scalars = st.one_of(
    st.none(), st.booleans(), log_ints, st.floats(allow_nan=False), st.text(max_size=8),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=4),
    max_leaves=12,
)
depths = st.sampled_from([1, 40, 900, 1100, 5000, 200_000])
nested = st.one_of(
    depths.map(lambda n: "[" * n + "]" * n),
    depths.map(lambda n: '{"a": ' * n + "1" + "}" * n),
    depths.map(lambda n: '{"coeffs": ' + "[" * n + "]" * n + "}"),
)


def splice(text: str, at: int, cut: int, junk: str) -> str:
    at = at % (len(text) + 1)
    return text[:at] + junk + text[at + cut:]


def mutated(texts) -> st.SearchStrategy:
    """Valid text from ``texts`` with a short run cut out or junk spliced in."""
    return st.builds(splice, texts, st.integers(0, 10**6), st.integers(0, 3),
                     st.text(alphabet='[]{}",:0123456789-.e ', max_size=3))


def table_json(rows) -> str:
    return json.dumps({"coeffs": [list(r) for r in rows]})


coeff_rows = st.lists(st.tuples(log_ints, log_ints, log_ints), max_size=6)
small_tables = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 9)),
                        max_size=12).map(table_json)
valid_tables = weighted((1, coeff_rows.map(table_json)), (3, small_tables))
table_text = weighted(
    (4, valid_tables), (1, mutated(valid_tables)), (1, nested), (1, json_values.map(json.dumps)),
    (1, st.text(max_size=20)),
)

# ---------------------------------------------------------------------------
# arguments: a str, or ("file", prefix, content), ("dir", prefix, {name: content})
# or ("path", prefix, name), which run() makes inside the example's directory;
# a file's content is text, or ZERO (a link to /dev/zero) or OVER_CAP (a sparse
# file one byte over the input cap)
ZERO, OVER_CAP = object(), object()
endless = st.sampled_from([ZERO, OVER_CAP])


def opt(name: str, values) -> st.SearchStrategy:
    """``--name=value``, or, one time in eight, nothing (a missing required
    option exits 2)."""
    return weighted((7, values.map(lambda v: [f"--{name}={v}"])), (1, st.just([])))


def admissible(p: int, l: int) -> bool:
    """PrimeContext accepts (p, l): l is a prime other than p and 4 | ord(p mod l)."""
    return is_prime(l) and l != p and multiplicative_order(p, l) % 4 == 0


# (p, l) pairs that PrimeContext accepts, with l small enough for build-cm and
# search-typical to get past their caps and build
PRIME_PAIRS = [(p, l) for p in range(2, 60) if is_prime(p) for l in range(5, 102)
               if admissible(p, l)]
# accepted pairs just above the cost caps: build-cm, construct and certify refuse
# l >= 173 by DIAMOND_COST_CAP, and search-typical l >= 2833 by WALK_COST_CAP
CAP_PAIRS = [(p, l) for p in range(2, 20) if is_prime(p) for l in (173, 181, 2833, 2837)
             if admissible(p, l)]
prime_pair = weighted((3, st.sampled_from(PRIME_PAIRS)), (1, st.sampled_from(CAP_PAIRS))).map(
    lambda pl: [f"--p={pl[0]}", f"--l={pl[1]}"])


def text_or_file(name: str, texts) -> st.SearchStrategy:
    """``--name=text`` inline, or ``--name=@path`` of a file, present or not."""
    return st.one_of(
        # the kernel refuses a single argument above 128 KiB
        texts.filter(lambda t: len(t) < 100_000).map(lambda t: f"--{name}={t}"),
        st.one_of(texts, endless).map(lambda t: ("file", f"--{name}=@", t)),
        st.just(("path", f"--{name}=@", "missing.json")),
    )


fmt = opt("format", st.sampled_from(["text", "json"] * 4 + ["yaml"]))
selector = opt("selector", st.sampled_from(["default", "alt"] * 4 + ["other"]))
int_list = st.one_of(st.lists(log_ints, max_size=5).map(lambda xs: ",".join(map(str, xs))),
                     st.text(alphabet="0123456789,-/ ", max_size=8))
slope = st.one_of(
    log_ints.map(str),
    st.tuples(log_ints, log_ints).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["1.5", "3/2", "1/0", "2e1", "", "x", "-1/2", "0.000001"]),
)
newton = st.one_of(
    st.lists(st.tuples(slope, int_text), max_size=4)
    .map(lambda items: ",".join(f"{s}:{m}" for s, m in items)),
    st.text(alphabet="0123456789/:,.-e ", max_size=10),
)


def consistent_polygon(hodge: list, slope: str) -> list:
    """Options of a polygon whose Newton rank matches its Hodge rank."""
    return [f"--n={len(hodge) - 1}", f"--hodge={','.join(map(str, hodge))}",
            f"--newton={slope}:{sum(hodge)}"]


def symmetric_polygon(half: list, middle: list, newton_slope: str | None) -> list:
    """Options of a polygon with the symmetric Hodge vector half + middle +
    reversed(half); without a drawn slope, its Newton slope is n/2, with
    which every check passes."""
    hodge = [*half, *middle, *reversed(half)]
    return consistent_polygon(hodge, newton_slope or f"{len(hodge) - 1}/2")


hodge_entries = st.integers(0, 60)
polygon_args = weighted(
    (1, st.tuples(opt("n", int_text), opt("hodge", int_list), opt("newton", newton))
     .map(lambda ps: [a for p in ps for a in p])),
    (1, st.builds(consistent_polygon, st.lists(log_ints.map(abs), min_size=1, max_size=6),
                  slope)),
    (2, st.builds(symmetric_polygon, st.lists(hodge_entries, min_size=1, max_size=4),
                  st.lists(hodge_entries, max_size=1), st.none() | slope)),
)
module_text = st.one_of(
    st.tuples(log_ints, st.lists(st.tuples(log_ints, log_ints), max_size=4)).map(
        lambda t: f"l={t[0]}; " + ",".join(f"{e}:{m}" for e, m in t[1])
    ),
    st.text(alphabet="l=;:,0123456789- ", max_size=12),
)
embellish = st.lists(st.sampled_from(["special-fiber", "polarization", "bogus", ""]),
                     max_size=3).map(",".join)
valid_embellish = st.sampled_from(["", "polarization", "special-fiber"])
# i != j, 3 <= i + j <= 12, in either order
target = st.integers(3, 12).flatmap(
    lambda s: st.integers(0, s).filter(lambda i: 2 * i != s)
    .map(lambda i: [f"--i={i}", f"--j={s - i}"])
)


def legal_tower(d: int, n: int, shape: tuple) -> list:
    """Options of a tower of s blow-ups over the degree-d hypersurface of
    dimension n, shape = (s, offsets): no ambient dims when offsets is None,
    else N_t = dim(Y_t) + 2 + offsets[t] (all zero: the minimal dims)."""
    s, offsets = shape
    dims, cur = [], n
    for offset in offsets or ():
        cur += 2 + offset
        dims.append(cur)
    return [f"--d={d}", f"--n={n}", f"--s={s}"] + ([f"--ambient-dims={','.join(map(str, dims))}"]
                                                  if dims else [])


tower_shape = st.integers(0, 4).flatmap(lambda s: st.tuples(st.just(s), st.one_of(
    st.none(), st.just([0] * s), st.lists(st.integers(0, 3), min_size=s, max_size=s))))
legal_tower_args = st.builds(legal_tower, st.integers(1, 6), st.integers(1, 6), tower_shape)


def command(name: str, *parts) -> st.SearchStrategy:
    return st.tuples(*parts).map(lambda ps: [*name.split(), *[a for p in ps for a in p]])


# stored certificates: valid ones, with inputs replaced or removed, or other text
CERT_INPUTS = (
    (2, 3, 0, ()), (2, 4, 2, ("polarization",)), (3, 4, 1, ()), (2, 3, 0, ("special-fiber",)),
)
CERTS = [
    dumps(pipeline.serialize_certificate(pipeline.build_certificate(p, i, j, embellishments=emb)))
    for p, i, j, emb in CERT_INPUTS
]
INPUT_KEYS = ("p", "i", "j", "l", "selector", "max_layers", "bound", "embellish")
_DROP = object()


def edit_inputs(text: str, edits: list) -> str:
    data = json.loads(text)
    for key, value in edits:
        if value is _DROP:
            data["inputs"].pop(key, None)
        else:
            data["inputs"][key] = value
    # the standard library, as cli.dumps writes exact JSON only and an edit may
    # put a float in; both write a certificate's own values alike
    return json.dumps(data, indent=2) + "\n"


input_value = st.one_of(log_ints, json_values, st.just(_DROP),
                        st.sampled_from([["polarization"], ["special-fiber"], ["bogus"], "alt"]))
WRONG_TYPES = ("2", 2.0, 1e308, [3], {"p": 2}, True, "polarization", ["polarization", 1])
wrongly_typed = st.builds(
    edit_inputs, st.sampled_from(CERTS),
    st.lists(st.tuples(st.sampled_from(INPUT_KEYS), st.sampled_from(WRONG_TYPES)),
             min_size=1, max_size=3),
)
# a valid certificate whose recorded l is above DIAMOND_COST_CAP, which certify refuses
OVER_CAP_CERT = edit_inputs(CERTS[0], [("l", 173)])
certificate_text = st.one_of(
    st.sampled_from(CERTS),
    wrongly_typed,
    st.builds(edit_inputs, st.sampled_from(CERTS),
              st.lists(st.tuples(st.sampled_from(INPUT_KEYS + ("extra",)), input_value),
                       min_size=1, max_size=3)),
    mutated(st.sampled_from(CERTS)),
    nested.map(lambda t: '{"inputs": ' + t + "}"),
    json_values.map(json.dumps),
    st.text(max_size=20),
)
certificate_path = st.one_of(
    st.one_of(certificate_text, endless).map(lambda t: ("file", "", t)),
    st.just(("path", "", "missing.json")),
)
corpus = st.one_of(
    st.just([]),
    # a corpus file is input too: wrongly typed inputs beside a valid certificate
    st.tuples(wrongly_typed, st.sampled_from(CERTS))
    .map(lambda texts: [("dir", "--corpus=", {"bad.json": texts[0], "good.json": texts[1]})]),
    st.dictionaries(st.sampled_from(["a.json", "b.json", "c.txt"]), certificate_text, max_size=2)
    .map(lambda files: [("dir", "--corpus=", files)]),
    st.just([("path", "--corpus=", "missing")]),
    endless.map(lambda content: [("dir", "--corpus=", {"big.json": content})]),
)

commands = st.one_of(
    command("find-l", opt("p", prime_text), fmt),
    command("build-cm", opt("p", prime_text), opt("l", prime_text), selector, fmt),
    command("build-cm", prime_pair, selector, fmt),
    command("search-typical", opt("p", prime_text), opt("l", prime_text), selector,
            opt("V", module_text), opt("layer-count", small_text), fmt),
    command("search-typical", prime_pair, selector,
            opt("layer-count", st.integers(0, 3).map(str)), fmt),
    command("verify-polygon", polygon_args, fmt),
    command("hodge hypersurface", opt("d", int_text), opt("n", small_text), fmt),
    command("hodge blowup-tower", opt("d", int_text), opt("n", small_text),
            opt("s", small_text), opt("ambient-dims", int_list), fmt),
    command("hodge blowup-tower", legal_tower_args, fmt),
    command("hodge stack", opt("kind", st.sampled_from(["mu_p", "Z_mod_p", "bogus"])),
            opt("bound", int_text), fmt),
    command("hodge product", text_or_file("left", table_text).map(lambda a: [a]),
            text_or_file("right", table_text).map(lambda a: [a]), fmt),
    command("hodge product", st.tuples(small_tables, small_tables)
            .map(lambda t: [f"--left={t[0]}", f"--right={t[1]}"]), fmt),
    command("construct", opt("p", prime_text), opt("i", small_text), opt("j", small_text),
            opt("l", prime_text), selector, opt("embellish", embellish),
            st.one_of(st.just([]), st.sampled_from([("path", "--out=", "cert.json"),
                                                    ("path", "--out=", ""),
                                                    ("path", "--out=", "no/such/dir.json")])
                      .map(lambda a: [a])),
            fmt),
    command("construct", prime_pair, target, selector, opt("embellish", valid_embellish),
            fmt),
    command("certify", certificate_path.map(lambda a: [a]), fmt),
    command("certify", st.sampled_from([*CERTS, OVER_CAP_CERT]).map(lambda t: [("file", "", t)]),
            fmt),
    command("golden", corpus),
)


# ---------------------------------------------------------------------------
# running


def write_file(path: Path, content) -> None:
    if content is ZERO:
        path.symlink_to("/dev/zero")
    elif content is OVER_CAP:
        path.touch()
        os.truncate(path, INPUT_BYTES_CAP + 1)
    else:
        path.write_text(content)


def materialize(arg, tmp: Path, index: int) -> str:
    if isinstance(arg, str):
        return arg
    kind, prefix, payload = arg
    if kind == "file":
        path = tmp / f"arg{index}.json"
        write_file(path, payload)
    elif kind == "dir":
        path = tmp / f"dir{index}"
        path.mkdir()
        for name, content in payload.items():
            write_file(path / name, content)
    else:
        path = tmp / payload
    return prefix + str(path)


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run(argv: list) -> tuple[int, str, float]:
    """Exit code, stderr and CPU seconds of one CLI run in a fresh directory,
    whose path reads TMP in the stderr returned."""
    with tempfile.TemporaryDirectory() as tmp:
        args = [materialize(a, Path(tmp), k) for k, a in enumerate(argv)]
        cpu0 = children_cpu_s()
        proc = subprocess.run(
            [sys.executable, "-m", "hodge_asym", *args], cwd=tmp, env=ENV,
            capture_output=True, text=True, timeout=TIMEOUT_S, preexec_fn=limit_memory,
        )
        # a random directory name would make each refusal that names a path a kind of its own
        return proc.returncode, proc.stderr.replace(tmp, "TMP"), children_cpu_s() - cpu0


# (subcommand, exit code) of every example run, and per subcommand the kinds
# of its refusals, printed at the end
EXITS = Counter()
REFUSALS = defaultdict(set)
SUBCOMMANDS = ("find-l", "build-cm", "search-typical", "verify-polygon", "hodge hypersurface",
               "hodge blowup-tower", "hodge stack", "hodge product", "construct", "certify",
               "golden")
# (subcommand, exit code) pairs that a run must reach at least once
FLOOR = ({(name, code) for name in SUBCOMMANDS for code in (0, 2)}
         | {("golden", 1), ("verify-polygon", 1)})


def refusal_kind(err: str) -> str:
    """The refusal's ``error:`` line, from ``error:`` on, without its digits."""
    line = next((line for line in reversed(err.splitlines()) if "error:" in line), "")
    return re.sub(r"[0-9]", "", line[line.find("error:"):])


@seed(SEED)
@settings(max_examples=EXAMPLES, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(commands)
def fuzz(argv):
    code, err, cpu = run(argv)
    name = " ".join(argv[:2] if argv[0] == "hodge" else argv[:1])
    EXITS[name, code] += 1
    if code == 2:
        REFUSALS[name].add(refusal_kind(err))
    assert code in (0, 1, 2), (code, err[-2000:])
    assert "Traceback" not in err, err[-2000:]
    assert cpu <= CPU_LIMIT_S, f"{cpu:.2f} s of CPU"


def main() -> int:
    t0 = time.monotonic()
    fuzz()
    missed = sorted(FLOOR - set(EXITS))
    for (name, code), count in sorted(EXITS.items()):
        kinds = ""
        if code == 2:
            caps = {m.group() for k in REFUSALS[name] if (m := re.search(r"\w+_CAP\b", k))}
            cited = ", ".join(sorted(caps)) or "none"
            kinds = f" ({len(REFUSALS[name])} refusal kinds; caps: {cited})"
        print(f"  {name:<20} exit {code}: {count}{kinds}")
    for name, code in missed:
        print(f"FINDING: {name} never exited {code}")
    print(f"{EXAMPLES} examples, seed {SEED}: no failing example, {len(missed)} coverage "
          f"findings in {time.monotonic() - t0:.0f} s")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
