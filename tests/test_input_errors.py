"""Bad input maps to exit code 2, never to exit 1 or a traceback."""

import importlib
import inspect
import json
import os
import pkgutil
import resource
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

import hodge_asym
from hodge_asym import cmbuild, hodgecalc, pipeline
from hodge_asym.cli import (
    INPUT_BYTES_CAP,
    POLYGON_RANK_CAP,
    READ_CHUNK,
    dumps,
    main,
    parse_newton,
    read_input,
)
from hodge_asym.cmbuild import DIAMOND_COST_CAP, SEARCH_TABLE_CAP, WALK_COST_CAP
from hodge_asym.cyclochar import MODULUS_CAP, P_CAP
from hodge_asym.hodgecalc import TABLE_COST_CAP
from hodge_asym.pipeline import TARGET_DEGREE_CAP

# errors that signal a broken invariant or a failed check, not bad input
NOT_INPUT_ERRORS = {"CertificateFailure", "StructuralViolation", "EqualRanks"}


def defined_exceptions() -> dict[str, type]:
    found = {}
    for info in pkgutil.iter_modules(hodge_asym.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"hodge_asym.{info.name}")
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and issubclass(obj, BaseException)
                and obj.__module__ == module.__name__
            ):
                found[name] = obj
    return found


def test_library_input_errors_are_value_errors():
    # main maps ValueError to exit 2, so an input error is a plain ValueError, and
    # every class the package defines is a broken invariant or a failed check
    found = defined_exceptions()
    assert set(found) == NOT_INPUT_ERRORS
    assert not any(issubclass(found[name], ValueError) for name in NOT_INPUT_ERRORS)


def test_parse_newton_refuses_exponent_notation(capsys):
    for text in ("1e10000000:8", "3E2:1", "1/2:1,2e1:1"):
        with pytest.raises(ValueError):
            parse_newton(text)
    assert parse_newton("3/2:2,1.5:1,2:1") == {Fraction(3, 2): 3, Fraction(2): 1}
    assert parse_newton("1/2:+8, 3/2:8_000") == {Fraction(1, 2): 8, Fraction(3, 2): 8000}
    t0 = time.monotonic()
    code = main(["verify-polygon", "--n", "3", "--hodge", "0,5,2,1",
                 "--newton", "1e10000000:8"])
    assert code == 2
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("newton,item", [
    ("3/2", "3/2"), ("3/2:x", "3/2:x"), (":1", ":1"), ("3/2:8,", ""),
])
def test_verify_polygon_names_a_bad_newton_item(newton, item, capsys):
    argv = ["verify-polygon", "--n", "3", "--hodge", "0,5,2,1", "--newton", newton]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: bad newton item {item!r}\n"


@pytest.mark.parametrize("text,why", [
    ("l=x;", "bad CharRep text 'l=x;'"),
    ("l=5; 1:a", "bad CharRep item '1:a'"),
    ("l=5; 1", "bad CharRep item '1'"),
    ("l=5; :1", "bad CharRep item ':1'"),
])
def test_search_typical_names_a_bad_V_item(text, why, capsys):
    assert main(["search-typical", "--p", "2", "--V", text]) == 2
    assert capsys.readouterr() == ("", f"error: {why}\n")


def test_construct_refuses_unknown_embellishment():
    with pytest.raises(ValueError, match="unknown embellishment 'bogus'"):
        pipeline.build_certificate(2, 3, 0, embellishments=["bogus"])


def test_certify_unknown_embellishment_exits_2(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["construct", "--p", "2", "--i", "3", "--j", "0",
                 "--out", str(cert_path)]) == 0
    stored = json.loads(cert_path.read_text())
    stored["inputs"]["embellish"] = ["bogus"]
    cert_path.write_text(dumps(stored))
    assert main(["certify", str(cert_path)]) == 2


def test_golden_has_no_format_flag(capsys):
    assert main(["golden", "--format", "json"]) == 2


@pytest.mark.parametrize("dims", ["x", "3,,4", ""])
def test_blowup_tower_names_bad_ambient_dims(dims, capsys):
    argv = ["hodge", "blowup-tower", "--d", "3", "--n", "1", "--s", "1", "--ambient-dims", dims]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: bad ambient dims {dims!r}\n"


def test_search_typical_refuses_negative_and_oversized_tables(capsys):
    t0 = time.monotonic()
    for argv in (["--layer-count", "-1"], ["--l", "37", "--layer-count", "1"],
                 ["--layer-count", str(10 ** 100)]):
        assert main(["search-typical", "--p", "2", *argv]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:"), argv
    assert time.monotonic() - t0 < 1.0
    assert main(["search-typical", "--p", "2", "--layer-count", "0"]) == 0
    assert capsys.readouterr().out.count("r0=") == 1


def test_verify_polygon_refuses_ranks_above_the_cap(capsys):
    t0 = time.monotonic()
    for hodge, newton in (("100000000,100000000", "1/2:200000000"),
                          ("50001,50000", "1/2:100001"),
                          ("1,1", "1/2:2,0:200000000")):  # a Newton rank alone
        code = main(["verify-polygon", "--n", "1", "--hodge", hodge, "--newton", newton])
        assert code == 2, (hodge, newton)
        assert "cap" in capsys.readouterr().err
    assert time.monotonic() - t0 < 1.0
    # rank exactly at the cap is still checked
    assert main(["verify-polygon", "--n", "1", "--hodge", "50000,50000",
                 "--newton", "1/2:100000"]) == 0


def limit_memory() -> None:
    # 1 GB of address space: without the cap the run fails with a MemoryError
    # at once instead of allocating a vector of 2*10^9 ints
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def children_cpu_s() -> float:
    """CPU seconds, user and system, of every child this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def assert_refused_naming(cap: str, *argv: str, cpu_s: float = 1.0) -> str:
    """Run the CLI in a fresh interpreter under limit_memory: exit 2 within
    cpu_s seconds of the child's CPU time, no output and no traceback, and
    an error that names the cap (or holds the given text); returns the
    error.  CPU time, not wall-clock time, so that a loaded machine does not
    fail a refusal that does no work; timeout guards a hang."""
    env = dict(os.environ, PYTHONPATH=str(Path(hodge_asym.__file__).resolve().parents[1]))
    cpu0 = children_cpu_s()
    proc = subprocess.run(
        [sys.executable, "-m", "hodge_asym", *argv],
        capture_output=True, text=True, env=env, timeout=10, preexec_fn=limit_memory,
    )
    assert children_cpu_s() - cpu0 < cpu_s
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and cap in proc.stderr
    return proc.stderr


@pytest.mark.parametrize("argv", [
    ["--V", "l=2000000000;"],
    ["--l", "1000000007", "--layer-count", "0"],
])
def test_search_typical_refuses_a_modulus_above_the_cap(argv):
    assert_refused_naming(f"MODULUS_CAP={MODULUS_CAP}", "search-typical", "--p", "2", *argv)


@pytest.mark.parametrize("argv,cap", [
    (["find-l", "--p", "1000000000000000003"], f"P_CAP={P_CAP}"),
    (["construct", "--p", "1000000000000000003", "--i", "4", "--j", "2"], f"P_CAP={P_CAP}"),
    (["construct", "--p", "2", "--i", "4", "--j", "2", "--l", "1009"],
     f"DIAMOND_COST_CAP={DIAMOND_COST_CAP}"),
    (["build-cm", "--p", "2", "--l", "1009"], f"DIAMOND_COST_CAP={DIAMOND_COST_CAP}"),
    (["hodge", "stack", "--kind", "mu_p", "--bound", "10000000"],
     f"TABLE_COST_CAP={TABLE_COST_CAP}"),
    (["hodge", "blowup-tower", "--d", "3", "--n", "1", "--s", "100000"],
     f"TABLE_COST_CAP={TABLE_COST_CAP}"),
    (["hodge", "blowup-tower", "--d", "100000", "--n", "3", "--s", "1"],
     f"TABLE_COST_CAP={TABLE_COST_CAP}"),
    (["hodge", "blowup-tower", "--d", "3", "--n", "1", "--s", "1", "--ambient-dims", "100000"],
     f"TABLE_COST_CAP={TABLE_COST_CAP}"),
    (["hodge", "hypersurface", "--d", "100000", "--n", "5"], f"TABLE_COST_CAP={TABLE_COST_CAP}"),
    (["search-typical", "--p", "2", "--l", "100049", "--layer-count", "0"],
     f"WALK_COST_CAP={WALK_COST_CAP}"),
    # the diamond cap is decided from l before the certificate search walks
    (["construct", "--p", "3", "--i", "4", "--j", "2", "--l", "10009"],
     f"DIAMOND_COST_CAP={DIAMOND_COST_CAP}"),
    (["construct", "--p", "2", "--i", "100000", "--j", "0"],
     f"TARGET_DEGREE_CAP={TARGET_DEGREE_CAP}"),
    (["construct", "--p", "2", "--i", "1000", "--j", "998"],
     f"TARGET_DEGREE_CAP={TARGET_DEGREE_CAP}"),
    # the grid alone, 10,201 cells, is under the cap, but the closed-form middle
    # row's binomials of ~1000-bit numbers took 14-22 s on a 2-vCPU machine
    (["hodge", "hypersurface", "--d", str(10**300), "--n", "100"],
     f"TABLE_COST_CAP={TABLE_COST_CAP}"),
    # an endless file: without the cap the read runs out of memory
    (["certify", "/dev/zero"], f"INPUT_BYTES_CAP={INPUT_BYTES_CAP}"),
    (["hodge", "product", "--left", "@/dev/zero", "--right", '{"coeffs": []}'],
     f"INPUT_BYTES_CAP={INPUT_BYTES_CAP}"),
    (["search-typical", "--p", "2", "--l", "37"], f"SEARCH_TABLE_CAP={SEARCH_TABLE_CAP}"),
    (["verify-polygon", "--n", "1", "--hodge", "50001,50000", "--newton", "1/2:100001"],
     f"POLYGON_RANK_CAP={POLYGON_RANK_CAP}"),
])
def test_costly_inputs_exit_2_naming_the_cap(argv, cap):
    assert_refused_naming(cap, *argv)


@pytest.mark.parametrize("argv", [
    ["search-typical", "--p", "2", "--l", "999961"],
    ["build-cm", "--p", "2", "--l", "999961"],
    ["construct", "--p", "2", "--i", "4", "--j", "2", "--l", "999961"],
])
def test_walk_cap_is_refused_before_V_is_built(argv):
    # building V and its dual and twist at l = 999,961 took 0.5-0.6 s of the
    # child's CPU on a 2-vCPU machine; start-up and the refusal take ~0.07 s.
    # build_cm decides its diamond cap from l first, so only search-typical
    # reaches the walk cap
    cap = (f"WALK_COST_CAP={WALK_COST_CAP}" if argv[0] == "search-typical"
           else f"DIAMOND_COST_CAP={DIAMOND_COST_CAP}")
    assert_refused_naming(cap, *argv, cpu_s=0.3)


@pytest.mark.parametrize("argv", [
    ["--l", "13", "--selector", "alt"],
    ["--l", "5"],
    ["--selector", "alt"],
])
def test_search_typical_V_refuses_the_flags_it_would_ignore(argv):
    # --V fixes l and the module, so --l and --selector would be dropped unread
    assert_refused_naming("--l or --selector", "search-typical", "--p", "2", *argv,
                          "--V", "l=5; 1:1,4:1")


def test_hodge_product_refuses_cell_pairs_above_the_table_cap(tmp_path):
    # two 2,025-cell tables, 4,100,625 cell pairs: 1.8 s of convolution without the cap
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"coeffs": [[i, j, 1] for i in range(45) for j in range(45)]}))
    assert_refused_naming(f"TABLE_COST_CAP={TABLE_COST_CAP}", "hodge", "product",
                          "--left", f"@{table}", "--right", f"@{table}")


def test_hodge_product_text_refuses_a_grid_above_the_table_cap(capsys):
    # one cell on each side, but the text grid would print 1,000,000,001 cells
    argv = ["hodge", "product", "--left", '{"coeffs": [[0,0,1]]}',
            "--right", '{"coeffs": [[1000000000,0,1]]}']
    assert_refused_naming(f"TABLE_COST_CAP={TABLE_COST_CAP}", *argv, "--format", "text")
    # JSON prints no grid, so the same product passes
    assert main([*argv, "--format", "json"]) == 0
    assert "[\n      1000000000,\n" in capsys.readouterr().out


REPEATED_CELL = '{"coeffs": [[0,0,1],[1,2,3],[0,0,2]]}'
ONE_CELL = '{"coeffs": [[0,0,1]]}'


@pytest.mark.parametrize("left,right", [
    (REPEATED_CELL, ONE_CELL), (ONE_CELL, REPEATED_CELL), ("@file", ONE_CELL),
])
def test_hodge_product_refuses_a_repeated_cell(left, right, tmp_path, capsys):
    # a dict of cells kept the last copy only: [[0,0,1],[0,0,2]] printed [[0,0,2]]
    if left == "@file":
        table = tmp_path / "table.json"
        table.write_text(REPEATED_CELL)
        left = f"@{table}"
    assert main(["hodge", "product", "--left", left, "--right", right]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: coefficient table repeats the cell (0,0)\n"


def test_deeply_nested_json_exits_2(tmp_path):
    # json.loads raises RecursionError on this nesting, which is bad input, not a fault
    nested = "[" * 200_000 + "]" * 200_000
    table = tmp_path / "table.json"
    table.write_text(nested)
    err = assert_refused_naming("nested too deeply", "hodge", "product",
                                "--left", f"@{table}", "--right", '{"coeffs": [[0,0,1]]}')
    assert err.count("\n") == 1
    cert = tmp_path / "cert.json"
    cert.write_text('{"inputs": ' + nested + "}")
    err = assert_refused_naming("nested too deeply", "certify", str(cert))
    assert err.count("\n") == 1


def test_files_one_byte_over_the_input_cap_exit_2(tmp_path):
    big = tmp_path / "corpus" / "big.json"
    big.parent.mkdir()
    big.touch()
    os.truncate(big, INPUT_BYTES_CAP)  # sparse: no disk blocks written
    assert len(read_input(big)) == INPUT_BYTES_CAP
    os.truncate(big, INPUT_BYTES_CAP + 1)
    cap = f"INPUT_BYTES_CAP={INPUT_BYTES_CAP}"
    assert_refused_naming(cap, "certify", str(big))
    assert_refused_naming(cap, "hodge", "product", "--left", f"@{big}", "--right", '{"coeffs": []}')
    assert_refused_naming(cap, "golden", "--corpus", str(big.parent))


def test_read_input_reads_a_pipe_to_its_end():
    # a pipe's reported size is 0; this one holds several reads' worth
    text = "ab\n" * READ_CHUNK
    r, w = os.pipe()

    def write() -> None:
        with open(w, "w") as f:
            f.write(text)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        assert read_input(f"/dev/fd/{r}") == text
    finally:
        writer.join(timeout=10)
        os.close(r)
    assert not writer.is_alive()


def coeff_table_text(rows: int, cols: int) -> str:
    return json.dumps({"coeffs": [[i, j, 1] for i in range(rows) for j in range(cols)]})


def test_caps_sit_between_the_benchmark_inputs_and_the_refused_ones(capsys):
    # the largest inputs of the tables benchmark pass
    hodgecalc.blow_up_tower(25, 4, 6)
    hodgecalc.stack_series("mu_p", 200)
    # its products are library calls, 201 x 201 cells, which the CLI cap leaves alone
    hodgecalc.product(hodgecalc.stack_series("mu_p", 200), hodgecalc.stack_series("Z_mod_p", 200))
    thousand = coeff_table_text(40, 25)
    assert main(["hodge", "product", "--left", thousand, "--right", coeff_table_text(20, 25)]) == 0
    assert main(["hodge", "product", "--left", thousand, "--right", coeff_table_text(501, 1)]) == 2
    assert "TABLE_COST_CAP" in capsys.readouterr().err
    # each estimate at its last accepted value and one step above it
    hodgecalc.hypersurface(48, 4)  # 6^3 * 48^2 + 25 = 497,689
    with pytest.raises(ValueError, match="TABLE_COST_CAP"):
        hodgecalc.hypersurface(49, 4)
    hodgecalc.stack_series("Z_mod_p", 706)  # 707^2
    with pytest.raises(ValueError, match="TABLE_COST_CAP"):
        hodgecalc.stack_series("Z_mod_p", 707)
    hodgecalc.blow_up_tower(3, 1, 352)  # dimension 705, 706^2
    with pytest.raises(ValueError, match="TABLE_COST_CAP"):
        hodgecalc.blow_up_tower(3, 1, 353)
    cmbuild.check_walk_cost(2828)  # 2828 * 2827 / 2 = 3,997,378
    with pytest.raises(ValueError, match="WALK_COST_CAP"):
        cmbuild.check_walk_cost(2829)  # 4,000,206
    assert pipeline.choose_aux_case(TARGET_DEGREE_CAP - 199, 199).kind == "tower"
    with pytest.raises(ValueError, match="TARGET_DEGREE_CAP"):
        pipeline.choose_aux_case(TARGET_DEGREE_CAP - 198, 199)
    assert main(["search-typical", "--p", "2", "--l", "2801", "--layer-count", "0"]) == 0
    assert main(["construct", "--p", "2", "--i", "276", "--j", "124"]) == 0


def test_certify_refuses_stored_targets_above_the_degree_cap(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["construct", "--p", "2", "--i", "4", "--j", "2",
                 "--out", str(cert_path)]) == 0
    stored = json.loads(cert_path.read_text())
    stored["inputs"]["i"] = 1000
    cert_path.write_text(dumps(stored))
    assert_refused_naming(f"TARGET_DEGREE_CAP={TARGET_DEGREE_CAP}", "certify", str(cert_path))


def test_certify_refuses_stored_inputs_above_the_diamond_cap(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["construct", "--p", "2", "--i", "4", "--j", "2",
                 "--out", str(cert_path)]) == 0
    stored = json.loads(cert_path.read_text())
    stored["inputs"]["l"] = 1009
    cert_path.write_text(dumps(stored))
    assert_refused_naming(f"DIAMOND_COST_CAP={DIAMOND_COST_CAP}", "certify", str(cert_path))


def test_diamond_cap_admits_the_ladder(capsys):
    assert main(["construct", "--p", "2", "--i", "4", "--j", "2", "--l", "101"]) == 0
