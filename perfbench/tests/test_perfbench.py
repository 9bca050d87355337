"""Tests of the benchmark itself (not of hodge_asym).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from hodge_asym import cli, cmbuild, cyclochar, hodgecalc, pipeline  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    return wl.load_expected()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_requests_other_seed_other_requests(workload, expected):
    first = wl.requests(workload, 7, expected)
    assert wl.requests(workload, 7, expected) == first
    assert wl.requests(workload, 8, expected) != first


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_drawable_request_has_a_recorded_output(workload, expected):
    for seed in range(20):
        for req in wl.requests(workload, seed, expected):
            assert wl.key(req) in expected["outputs"], req
    for req in wl.requests(wl.PROBE, 0, expected) + list(worker.COVERAGE):
        assert wl.key(req) in expected["outputs"], req


def test_small_certs_cover_orientations_and_aux_cases(expected):
    reqs = wl.requests("small-certs", 3, expected)
    assert len(reqs) >= 200
    targets = {(i, j) for _, _, i, j, _ in reqs}
    assert all((j, i) in targets for i, j in targets)
    kinds = {pipeline.choose_aux_case(max(i, j), min(i, j)).kind for i, j in targets}
    assert kinds == {"none", "tower", "p1_power"}
    assert {p for _, p, _, _, _ in reqs} <= set(wl.SMALL_PRIMES)
    assert all(cmbuild.find_l(p).l == 5 for p in wl.SMALL_PRIMES)


def test_program_receives_only_the_generated_inputs(monkeypatch, tmp_path, expected):
    """cli.main sees exactly the generated argv, and never the benchmark seed."""
    seen = []
    real_main = cli.main

    def spy(argv):
        seen.append(list(argv))
        return real_main(argv)

    monkeypatch.setattr(cli, "main", spy)
    ctx = wl.Context(expected["polygon_catalogue"], tmp_path)
    reqs = wl.requests("small-certs", 11, expected)[:5]
    for req in reqs:
        result = wl.execute(req, ctx)
        assert wl.check(req, result, expected) is None
    want = []
    for _, p, i, j, emb in reqs:
        build = ["construct", "--p", str(p), "--i", str(i), "--j", str(j), "--out", ctx.cert_path]
        want += [build + (["--embellish", emb] if emb else []), ["certify", ctx.cert_path]]
    assert seen == want


def test_children_never_carry_the_seed_variable(monkeypatch):
    monkeypatch.setenv("HODGE_ASYM_SEED", "3")
    env = run.child_env()
    assert "HODGE_ASYM_SEED" not in env
    assert str(run.SRC) in env["PYTHONPATH"].split(":")


def _bindings():
    """Every name the tracer may touch: module namespaces and traced class attributes."""
    snap = {id(m): dict(vars(m)) for m in tracing.package_modules()}
    for cls, attr, _, _ in tracing.METHODS:
        snap[(cls.__name__, attr)] = cls.__dict__[attr]
    return snap


def test_tracer_wraps_every_binding_and_restores_it():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # names imported with `from .cyclochar import exterior_power` are wrapped too
        for module in (cyclochar, cmbuild, pipeline):
            assert module.exterior_power is not before[id(cyclochar)]["exterior_power"]
        assert pipeline.blow_up is not before[id(hodgecalc)]["blow_up"]
        tracer.request(pipeline.build_certificate, 2, 4, 2)
        hodgecalc.hypersurface(3, 1) ** 2  # __pow__ reaches the wrapped product
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    for k in before:
        if isinstance(before[k], dict):
            assert before[k].keys() == after[k].keys()
            assert all(after[k][name] is value for name, value in before[k].items())
        else:
            assert after[k] is before[k]
    totals = tracer.layer_totals()
    assert totals["cyclochar.exterior_power"]["calls"] > 0
    assert totals["hodgecalc.product"]["calls"] >= 2
    assert totals["cmbuild.search_typical_U"]["candidates"] == 1


def test_self_time_excludes_wrapped_children():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.request(pipeline.build_certificate, 2, 4, 2, 13)
    finally:
        tracer.restore()
    spans = [s for s in tracer.spans if s]
    (build,) = [s for s in spans if s[3] == "pipeline.build_certificate"]
    children = sum(s[5] - s[4] for s in spans if s[1] == build[0])
    assert children > 0
    got = tracer.layer_totals()["pipeline.build_certificate"]["self_s"]
    assert got == pytest.approx(build[5] - build[4] - children)


def test_wrong_recorded_output_counts_as_failure(tmp_path, expected):
    req = ("hypersurface", 5, 2)
    wrong = {**expected, "outputs": {**expected["outputs"], wl.key(req): "0" * 16}}
    runner = worker.Runner(wrong, workdir=tmp_path)
    assert runner.run(req) is None
    assert (runner.attempted, runner.failed) == (1, 1)
    right = worker.Runner(expected, workdir=tmp_path)
    assert right.run(req) is not None
    assert (right.attempted, right.failed) == (1, 0)


def test_nonzero_exit_counts_as_failure(tmp_path, expected):
    runner = worker.Runner(expected, workdir=tmp_path)
    assert runner.run(("cli", 2, 3, 0, "no-such-embellishment")) is None
    assert runner.failed == 1


def test_run_refuses_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ladder", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_every_metric_run_prints():
    import json

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in doc["per_layer"]}
    printed = {f"{span}.{f}" for span, fields in run.LAYER_FIELDS for f in fields}
    printed |= {f"setup.import.{m}_ms" for m in run.MODULES} | {"trace.overhead_ratio"}
    assert layer_names == printed
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)


def test_per_request_scales_to_reference_speed_and_skips_failures():
    ref = run.REFERENCE_MS / 1000
    run_out = {
        "requests": ["cert|2|4|2|13", "cert|2|4|2|61", "hypersurface|5|2"],
        "passes": [
            [[0.02, 2 * ref], [4.0, ref], None],
            [[0.01, ref], [5.0, ref], None],
            [[0.03, 3 * ref], [6.0, 2 * ref], None],
        ],
    }
    best = run.per_request(run_out)
    assert best == [("cert|2|4|2|13", 0.01), ("cert|2|4|2|61", 4.0)]
    assert run.rung_ms(best) == {"cert_ms.l13": (10.0, "ms"), "cert_ms.l61": (4000.0, "ms")}


def test_repeated_request_counts_once_at_the_median_of_its_runs():
    ref = run.REFERENCE_MS / 1000
    run_out = {
        "requests": ["cert|2|4|2|13", "cert|2|4|2|61", "cert|2|4|2|13"],
        "passes": [
            [[0.02, ref], [4.0, ref], [0.01, ref]],
            [[0.03, ref], [5.0, ref], [0.04, ref]],
        ],
    }
    best = run.per_request(run_out)
    assert best == [("cert|2|4|2|13", 0.025), ("cert|2|4|2|61", 4.5)]
    assert sum(t for _, t in best) == pytest.approx(4.525)
