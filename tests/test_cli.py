import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hodge_asym
from hodge_asym import cmbuild
from hodge_asym.cli import (
    GOLDEN_DIR,
    dumps,
    first_difference,
    main,
    parse_int_list,
    parse_newton,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_seed_guard(monkeypatch, capsys):
    monkeypatch.setenv("HODGE_ASYM_SEED", "42")
    assert main(["find-l", "--p", "2"]) == 2


def test_find_l(capsys):
    code, out = run(capsys, "find-l", "--p", "2")
    assert code == 0 and out.strip() == "l=5 ord=4"
    code, out = run(capsys, "find-l", "--p", "11")
    assert code == 0 and out.strip() == "l=13 ord=12"


def test_find_l_json_report(capsys):
    code, out = run(capsys, "find-l", "--p", "11", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert out == dumps(rep)  # the report's own key order and layout
    assert type(rep.pop("timing_ms")) is int
    assert rep == {
        "schema": "hodge-asym/report/v1",
        "command": "find-l",
        "inputs": {"p": 11, "bound": cmbuild.FIND_L_BOUND},
        "results": {"l": 13, "ord": 12},
        "checks": [],
        "passed": True,
    }


def test_usage_errors(capsys):
    assert main(["find-l"]) == 2  # missing --p
    assert main(["find-l", "--p", "2", "--bound", "1000"]) == 2  # the bound is a constant
    assert main(["no-such-command"]) == 2
    assert main(["find-l", "--p", "4"]) == 2  # not prime
    assert main(["construct", "--p", "2", "--i", "2", "--j", "2"]) == 2


def test_build_cm_json(capsys):
    code, out = run(capsys, "build-cm", "--p", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 2 and data["l"] == 5 and data["ord"] == 4
    assert data["V"] == "l=5; 1:1,4:1"
    assert data["U_layers"] == ["l=5; 1:1,2:1"]
    assert data["phi_per_layer"] == [[3, 4]]
    assert data["W_omega"] == "l=5; 1:2,2:1,4:1"
    assert data["W_o"] == "l=5; 2:1,3:2,4:1"
    assert data["oriented"] is False
    assert data["degree3_slice"] == [0, 5, 2, 1]


def test_search_typical_table(capsys):
    code, out = run(capsys, "search-typical", "--p", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert out == dumps(data)  # written row by row, in the layout of one dumps
    assert len(data["candidates"]) == 4
    assert [c["hit"] for c in data["candidates"]] == [True] * 4
    assert [(c["r0"], c["r1"]) for c in data["candidates"]] == [
        (0, 1), (1, 0), (1, 0), (0, 1),
    ]
    # explicit coset-module override via the text form
    code, out = run(capsys, "search-typical", "--p", "2",
                    "--V", "l=5; 2:1,3:1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["V"] == "l=5; 2:1,3:1"
    assert [(c["r0"], c["r1"]) for c in data["candidates"]] == [
        (1, 0), (0, 1), (0, 1), (1, 0),
    ]


def test_search_typical_streams_the_standard_library_layout(capsys):
    # the rows are written one at a time; together they are one indent=2 document
    code, out = run(capsys, "search-typical", "--p", "2", "--layer-count", "2",
                    "--format", "json")
    assert code == 0
    ctx = cmbuild.find_l(2)
    v = cmbuild.build_V(ctx)
    whole = {
        "p": 2, "l": ctx.l, "V": v.to_text(), "layer_count": 2,
        "candidates": [
            {"U": u.to_text(), "r0": r0, "r1": r1, "hit": r0 != r1}
            for u, r0, r1 in cmbuild.search_table(v, ctx, 2)
        ],
    }
    assert len(whole["candidates"]) > 1
    assert {c["hit"] for c in whole["candidates"]} == {True, False}
    assert out == json.dumps(whole, indent=2) + "\n"


def test_verify_polygon_pass_and_fail(capsys):
    code, _ = run(capsys, "verify-polygon", "--n", "3",
                  "--hodge", "0,5,2,1", "--newton", "3/2:8")
    assert code == 0
    code, _ = run(capsys, "verify-polygon", "--n", "1",
                  "--hodge", "1,0", "--newton", "0:1")
    assert code == 1
    assert main(["verify-polygon", "--n", "1", "--hodge", "1,1", "--newton", "0:1"]) == 2


def test_parsers():
    assert parse_int_list("0,5,2,1", "hodge vector") == (0, 5, 2, 1)
    assert parse_newton("3/2:8") == {Fraction(3, 2): 8}
    assert parse_newton("0:1,1:2") == {Fraction(0): 1, Fraction(1): 2}
    with pytest.raises(ValueError, match="bad hodge vector 'a,b'"):
        parse_int_list("a,b", "hodge vector")


def test_hodge_hypersurface(capsys):
    code, out = run(capsys, "hodge", "hypersurface", "--d", "4", "--n", "2",
                    "--format", "json")
    assert code == 0
    coeffs = {(i, j): c for i, j, c in json.loads(out)["coeffs"]}
    assert coeffs[(1, 1)] == 20 and coeffs[(2, 0)] == 1


def test_hodge_stack_and_tower(capsys):
    code, out = run(capsys, "hodge", "stack", "--kind", "Z_mod_p", "--bound", "3",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["coeffs"] == [[0, 0, 1], [0, 1, 1], [0, 2, 1], [0, 3, 1]]
    code, out = run(capsys, "hodge", "blowup-tower", "--d", "3", "--n", "1",
                    "--s", "1", "--ambient-dims", "3", "--format", "json")
    assert code == 0
    coeffs = {(i, j): c for i, j, c in json.loads(out)["coeffs"]}
    assert coeffs[(2, 1)] == 1


def test_hodge_product(capsys):
    left = '{"coeffs": [[0, 0, 1], [1, 1, 1]]}'
    code, out = run(capsys, "hodge", "product", "--left", left, "--right", left,
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["coeffs"] == [[0, 0, 1], [1, 1, 2], [2, 2, 1]]


def test_construct_and_certify(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out = run(capsys, "construct", "--p", "2", "--i", "3", "--j", "0",
                    "--out", str(cert_path))
    assert code == 0
    stored = json.loads(cert_path.read_text())
    assert stored == json.loads(out)
    assert stored["degree3_slice"] == [0, 5, 2, 1]
    code, _ = run(capsys, "certify", str(cert_path))
    assert code == 0
    # corrupt a value: certify must fail with exit 1
    stored["degree3_slice"] = [1, 2, 5, 0]
    cert_path.write_text(dumps(stored))
    code, _ = run(capsys, "certify", str(cert_path))
    assert code == 1


def test_construct_deterministic_bytes(capsys):
    code, out1 = run(capsys, "construct", "--p", "3", "--i", "4", "--j", "1")
    code2, out2 = run(capsys, "construct", "--p", "3", "--i", "4", "--j", "1")
    assert code == code2 == 0
    assert out1 == out2


def _assert_no_floats(node):
    if isinstance(node, float):
        raise AssertionError(f"float {node} in serialized output")
    if isinstance(node, dict):
        for k, v in node.items():
            _assert_no_floats(v)
    elif isinstance(node, list):
        for v in node:
            _assert_no_floats(v)


def test_no_floats_anywhere(capsys):
    for argv in (
        ["construct", "--p", "2", "--i", "4", "--j", "2"],
        ["construct", "--p", "2", "--i", "5", "--j", "2"],
        ["build-cm", "--p", "2", "--format", "json"],
        ["verify-polygon", "--n", "3", "--hodge", "0,5,2,1",
         "--newton", "3/2:8", "--format", "json"],
    ):
        code, out = run(capsys, *argv)
        assert code == 0
        _assert_no_floats(json.loads(out))


def test_json_round_trip(capsys):
    code, out = run(capsys, "construct", "--p", "2", "--i", "4", "--j", "2")
    assert code == 0
    parsed = json.loads(out)
    assert dumps(parsed) == out  # byte-identical re-serialization
    # reports round-trip too
    code, out = run(capsys, "verify-polygon", "--n", "3", "--hodge", "0,5,2,1",
                    "--newton", "3/2:8", "--format", "json")
    assert code == 0
    assert dumps(json.loads(out)) == out


def test_golden_shipped_corpus(capsys):
    code, out = run(capsys, "golden")
    assert code == 0
    assert "certificates match" in out


def test_golden_corrupted_and_empty(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    code, out = run(capsys, "golden", "--corpus", str(corpus))
    assert code == 0 and "empty" in out
    src = next(GOLDEN_DIR.glob("cert_p2_i3_j0.json"))
    target = corpus / src.name
    data = json.loads(src.read_text())
    data["degree3_slice"] = [9, 9, 9, 9]
    target.write_text(dumps(data))
    code, out = run(capsys, "golden", "--corpus", str(corpus))
    assert code == 1
    assert f"MISMATCH {src.name}: degree3_slice[0]: stored 9, regenerated 0\n" in out
    # the same data laid out differently has no differing path: the line is named
    target.write_text(json.dumps(json.loads(src.read_text()), indent=3) + "\n")
    code, out = run(capsys, "golden", "--corpus", str(corpus))
    assert code == 1
    assert f"MISMATCH {src.name}: first difference at line 2\n" in out
    # a file that cannot be regenerated is a mismatch, named with the error
    target.write_text(dumps({"inputs": {"p": 4, "i": 3, "j": 0}}))
    code, out = run(capsys, "golden", "--corpus", str(corpus))
    assert code == 1
    assert out == (f"MISMATCH {src.name}: regeneration error: p=4 is not prime\n"
                   "golden: 0/1 certificates match\n")
    # a missing corpus is bad input: exit 2, the error on stderr alone
    missing = tmp_path / "missing"
    assert main(["golden", "--corpus", str(missing)]) == 2
    assert capsys.readouterr() == ("", f"error: corpus directory {missing} not found\n")


def test_first_difference_names_the_path_and_both_values():
    assert first_difference({"a": [1, {"b": 2}]}, {"a": [1, {"b": 2}]}) is None
    assert first_difference({"a": 1, "b": 2}, {"b": 2, "a": 1}) is None
    assert first_difference({"a": [1, {"b": 2}]}, {"a": [1, {"b": 3}]}) == (
        "a[1].b: stored 2, regenerated 3"
    )
    assert first_difference({"a": [1]}, {"a": [1, 2]}) == "a[1]: stored absent, regenerated 2"
    assert first_difference({"a": 1, "c": [0]}, {"a": 1}) == "c: stored [...], regenerated absent"
    assert first_difference({"a": 1}, {"a": True}) == "a: stored 1, regenerated true"
    assert first_difference([], {}) == "(root): stored [], regenerated {}"
    # nesting far deeper than Python's recursion limit
    deep = []
    for _ in range(10_000):
        deep = [deep]
    assert first_difference(deep, [[]]) == "[0][0]: stored [...], regenerated absent"


def test_construct_embellished(tmp_path, capsys):
    code, out = run(capsys, "construct", "--p", "2", "--i", "3", "--j", "0",
                    "--embellish", "special-fiber,polarization")
    assert code == 0
    data = json.loads(out)
    assert data["embellishments"]["special_fiber"]["l_factor"] == 0
    assert data["embellishments"]["polarization"]["value_mod_p"] != 0
    assert main(["construct", "--p", "2", "--i", "3", "--j", "0",
                 "--embellish", "bogus"]) == 2


def test_certificate_failure_report(monkeypatch, capsys):
    # a failing check must yield a failure report and exit 1, not a certificate
    from hodge_asym import pipeline

    real = pipeline.quotient_bookkeeping

    def sabotage(diamond):
        quot = real(diamond)
        # transposed edges: delta30 flips sign
        return pipeline.QuotientData(h_i0=quot.h_0j, h_0j=quot.h_i0)

    monkeypatch.setattr(pipeline, "quotient_bookkeeping", sabotage)
    code, out = run(capsys, "construct", "--p", "2", "--i", "3", "--j", "0")
    assert code == 1
    data = json.loads(out)
    assert data["schema"] == "hodge-asym/failure/v1"
    failed = [c["name"] for c in data["certificate"]["checks"] if not c["passed"]]
    assert "delta30-negative" in failed


def test_low_degree_asymmetry_fails_the_certificate(monkeypatch, capsys):
    # the certificate's own degree1-symmetry check reports an asymmetric
    # degree 1, with a failure report and exit 1, not a traceback
    from hodge_asym import hodgecalc, pipeline

    real = cmbuild.equivariant_diamond

    def sabotage(z):
        diamond = real(z)
        return hodgecalc.HodgePolynomial.create(
            dict(diamond.coeffs) | {(1, 0): diamond.coeff(1, 0) + 1}
        )

    monkeypatch.setattr(cmbuild, "equivariant_diamond", sabotage)
    with pytest.raises(pipeline.CertificateFailure):
        pipeline.build_certificate(2, 4, 2)
    code = main(["construct", "--p", "2", "--i", "4", "--j", "2"])
    captured = capsys.readouterr()
    assert code == 1
    data = json.loads(captured.out)
    assert data["schema"] == "hodge-asym/failure/v1"
    failed = [c["name"] for c in data["certificate"]["checks"] if not c["passed"]]
    assert "degree1-symmetry" in failed
    assert "Traceback" not in captured.err


def test_text_outputs(capsys):
    code, out = run(capsys, "hodge", "hypersurface", "--d", "4", "--n", "2")
    assert code == 0 and "rows i = form degree" in out
    code, out = run(capsys, "construct", "--p", "2", "--i", "3", "--j", "0",
                    "--format", "text")
    assert code == 0 and "delta result" in out
    code, out = run(capsys, "build-cm", "--p", "2", "--format", "text")
    assert code == 0 and "W_omega" in out and not out.startswith("{")
    code, out = run(capsys, "search-typical", "--p", "2")
    assert code == 0 and out.count("r0=") == 4


def test_construct_text_names_the_tower(capsys):
    code, out = run(capsys, "construct", "--p", "2", "--i", "4", "--j", "2", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[:5] == [
        "target h^{4,2} != h^{2,4}  (p=2, l=5)",
        "degree-3 slice: (0, 5, 2, 1)   oriented=False",
        "aux case: tower(n=1, s=1, ambient_dims=[3])",
        "delta result: d^2 - 3*d + 2 + (2)*delta(3,1) + delta(4,2)",
        "d policy: nonzero for all but at most 2 integer values of d",
    ]
    code, text = run(capsys, "construct", "--p", "2", "--i", "4", "--j", "2")
    assert code == 0
    assert lines[5:] == [f"  [PASS] {c['name']}" for c in json.loads(text)["checks"]]


def test_malformed_json_shapes_exit_2(tmp_path, capsys):
    assert main(["hodge", "product", "--left", '{"cofs": []}',
                 "--right", '{"coeffs": []}']) == 2
    for bad in ('[1, 2]', '{"coeffs": [[0, 0]]}', '{"coeffs": [[[0], 0, 1]]}',
                '{"coeffs": [[0, 0, 1.5]]}', '{"coeffs": [[0, 0, true]]}',
                '{"coeffs": [[0, 0, "1"]]}'):
        assert main(["hodge", "product", "--left", bad, "--right", '{"coeffs": []}']) == 2
    for i, text in enumerate(("{}", "[]", '{"inputs": {"p": "2", "i": 3, "j": 0}}',
                              '{"inputs": {"p": 2, "i": 3, "j": 0, "embellish": "x"}}')):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text)
        assert main(["certify", str(path)]) == 2, text
    assert "error:" in capsys.readouterr().err


def test_bad_modulus_and_zero_denominator_exit_2(capsys):
    for text in ("l=0; 1:1", "l=-5; 1:1"):
        assert main(["search-typical", "--p", "2", "--V", text]) == 2, text
    assert main(["verify-polygon", "--n", "3", "--hodge", "0,5,2,1",
                 "--newton", "1/0:8"]) == 2
    assert "error:" in capsys.readouterr().err


def test_certify_compares_bytes(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["construct", "--p", "2", "--i", "3", "--j", "0",
                 "--out", str(cert_path)]) == 0
    # the same JSON value, indented differently: not the certificate's bytes
    cert_path.write_text(json.dumps(json.loads(cert_path.read_text()), indent=4) + "\n")
    capsys.readouterr()
    code, out = run(capsys, "certify", str(cert_path), "--format", "json")
    assert code == 1
    checks = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    assert checks["stored-matches-recomputation"] is False


def test_certify_names_the_first_difference(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["construct", "--p", "2", "--i", "3", "--j", "0",
                 "--out", str(cert_path)]) == 0
    stored = json.loads(cert_path.read_text())
    was = stored["degree3_slice"][0]
    stored["degree3_slice"][0] = was + 1
    cert_path.write_text(dumps(stored))
    capsys.readouterr()
    why = f"degree3_slice[0]: stored {was + 1}, regenerated {was}"
    code, out = run(capsys, "certify", str(cert_path))
    assert code == 1
    assert f"[FAIL] stored-matches-recomputation\n    {why}\n" in out
    code, out = run(capsys, "certify", str(cert_path), "--format", "json")
    assert code == 1
    assert json.loads(out)["results"] == {"first_difference": why}


def test_the_layer_limit_is_not_an_option(capsys):
    assert main(["construct", "--p", "2", "--i", "3", "--j", "0", "--max-layers", "3"]) == 2
    assert main(["build-cm", "--p", "2", "--max-layers", "3"]) == 2
    assert "--max-layers" in capsys.readouterr().err


def test_certify_refuses_a_stored_layer_limit_other_than_the_constant(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["construct", "--p", "2", "--i", "3", "--j", "0",
                 "--out", str(cert_path)]) == 0
    stored = json.loads(cert_path.read_text())
    stored["inputs"]["max_layers"] = 5
    cert_path.write_text(dumps(stored))
    capsys.readouterr()
    why = f"inputs.max_layers: stored 5, regenerated {cmbuild.MAX_LAYERS}"
    code, out = run(capsys, "certify", str(cert_path))
    assert code == 1
    assert f"[FAIL] stored-matches-recomputation\n    {why}\n" in out
    code, out = run(capsys, "certify", str(cert_path), "--format", "json")
    assert code == 1
    assert json.loads(out)["results"] == {"first_difference": why}


def test_main_is_reentrant_on_its_one_parser(tmp_path, monkeypatch, capsys):
    # main parses every call with the one parser it builds per process; each
    # call here must print and return what a fresh interpreter does
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to this width
    cert = str(tmp_path / "cert.json")
    calls = (
        (["construct", "--p", "4", "--i", "3", "--j", "0"], 2),  # 4 is not prime
        (["construct", "--p", "2", "--i", "5", "--j", "2", "--out", cert], 0),
        (["certify", cert], 0),
        (["construct", "--p", "two", "--i", "3", "--j", "0"], 2),  # a parse error
        (["golden"], 0),
    )
    for argv, code in calls:
        got = (main(argv), *capsys.readouterr())
        fresh, _ = fresh_cli(*argv)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert got[0] == code, argv


def fresh_cli(*argv: str, **env: str) -> tuple[subprocess.CompletedProcess, float]:
    """The CLI run in a fresh interpreter with extra environment variables,
    and the CPU seconds, user and system, that the child used."""
    env = dict(os.environ, PYTHONPATH=str(Path(hodge_asym.__file__).resolve().parents[1]), **env)
    usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "hodge_asym", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return proc, usage.ru_utime + usage.ru_stime - usage0.ru_utime - usage0.ru_stime


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # every CLI call pays for its imports: dataclasses brings inspect, ast and
    # dis, ~11 ms, and each decorated class then execs its generated methods
    code = ("import sys, hodge_asym.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(hodge_asym.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_golden_is_byte_identical_under_hash_seeds(hash_seed):
    # the certificates' bytes may not depend on the order of str-keyed sets and dicts
    proc, _ = fresh_cli("golden", PYTHONHASHSEED=hash_seed)
    assert (proc.returncode, proc.stdout) == (0, "golden: 14/14 certificates match\n"), proc.stderr


def test_search_typical_takes_counts_of_a_billion_at_once():
    # V's multiplicities enter the walk by binomial coefficients, one
    # _times_power per exponent, so the cost does not grow with them; one
    # step per instance would take 3*10^9 steps.  Start-up is ~0.2 s of CPU
    proc, cpu_s = fresh_cli("search-typical", "--p", "2",
                            "--V", "l=5; 0:1000000000,1:1000000000,4:1000000000")
    assert proc.returncode == 0, proc.stderr
    assert cpu_s < 1.0
    rows = proc.stdout.splitlines()
    assert len(rows) == 5
    assert rows[1].split()[-2:] == ["r0=1166666667666666666500000000",
                                    "r1=1166666667666666667500000000"]
