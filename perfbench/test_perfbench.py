"""Tests of the benchmark itself (not collected by the repository suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

The fast tests check the reference checks and the tracer on small
inputs.  ``test_exact_counts_repeat_and_layer_shares`` runs each workload
traced twice through ``run.py`` (about three minutes on two cores; skip it
with ``-k "not exact_counts"``) and requires the exact counts to repeat
and the layer shares the benchmark is built on to hold.
"""

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import divcurl.cli  # noqa: E402
import divcurl.mesh  # noqa: E402
import divcurl.solver  # noqa: E402
from tracing import Tracer, covered_seconds, layer_metrics  # noqa: E402
from workloads import Level, check_levels, load_references, variant  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_COUNTS = (
    "solver.fill_nnz",
    "solver.minres_iters",
    "problems.exact_u_calls",
    "assembly.nnz",
)


def _ref_levels(workload, key, refs):
    out = []
    for n, values in sorted(refs[workload][key].items(), key=lambda kv: int(kv[0])):
        values = dict(values)
        method = None
        if workload != "discretize_fine":
            values["solver_residual"] = 1e-12
            method = "direct"
        out.append(Level(key, int(n), values, method))
    return out


def test_metric_units_match_benchmark_json():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for m in spec["end_to_end"]:
        assert run.END_TO_END[m["name"]] == m["unit"], m
    for m in spec["per_layer"]:
        assert run._unit(m["name"]) == m["unit"], m


def test_seed_variants_cover_both_betas_and_permute():
    variants = [variant(s, 6) for s in range(8)]
    assert {beta for beta, _ in variants} == {1.0, 5.0}
    assert len({tuple(order) for _, order in variants}) > 1
    assert all(sorted(order) == list(range(6)) for _, order in variants)


def test_reference_values_pass_their_own_checks():
    refs = load_references()
    for workload in refs:
        for key in refs[workload]:
            levels = _ref_levels(workload, key, refs)
            assert check_levels(workload, levels, refs) == [[]] * len(levels)


@pytest.mark.parametrize(
    "field,factor",
    [("err_u", 1 + 1e-5), ("num_free", None), ("nnz", None), ("cavity_c1", 2.0)],
)
def test_checks_flag_a_changed_value(field, factor):
    refs = load_references()
    levels = _ref_levels("ladder_auto", "p4", refs)
    value = levels[1].values[field]
    levels[1].values[field] = value + 1 if factor is None else value * factor
    bad = check_levels("ladder_auto", levels, refs)
    assert any(field in msg for msg in bad[1]), bad


def test_checks_flag_residual_rate_and_raise():
    refs = load_references()
    levels = _ref_levels("ladder_auto", "p1", refs)
    levels[0].values["solver_residual"] = 1e-9  # over the direct limit
    levels[1].method = "minres"  # 1e-12 is within the MINRES limit
    levels[1].values["err_u"] = levels[0].values["err_u"] / 1.5  # rate 0.58
    refs["ladder_auto"]["p1"]["6"]["err_u"] = levels[1].values["err_u"]
    bad = check_levels("ladder_auto", levels, refs)
    assert any("solver_residual" in m for m in bad[0])
    assert len(bad[1]) == 1 and "rate err_u" in bad[1][0]
    broken = [Level("p1", 2, {}, error="Traceback\nMemoryError")]
    assert check_levels("ladder_auto", broken, refs) == [["raised: MemoryError"]]


def test_tracer_spans_counts_and_uninstall():
    originals = (
        divcurl.mesh.build_structured_tet_mesh,
        divcurl.solver.spla,
        divcurl.cli.run_study,
    )
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        config = divcurl.cli.RunConfig(example=1, refinements=(1, 2), solver="minres")
        config.validate()
        config.problem_spec = tracer.wrap_problem(config.problem_spec)
        report = divcurl.cli.run_study(config)
    finally:
        tracer.uninstall()
    assert report.failure is None
    assert originals == (
        divcurl.mesh.build_structured_tet_mesh,
        divcurl.solver.spla,
        divcurl.cli.run_study,
    )
    m = layer_metrics(tracer.spans, tracer.counts)
    assert m["solver.minres_iters"] > 0 and m["solver.fill_nnz"] == 0
    assert m["solver.refine_rounds"] >= 2
    # error_u and error_Qu each evaluate the exact field once per level
    assert m["problems.exact_u_calls"] == 4
    assert m["assembly.free_dofs"] == sum(r["num_free"] for r in report.rows)
    wall = sum(end - start for name, start, end, parent in tracer.spans if parent < 0)
    assert covered_seconds(tracer.spans, ("cli",)) == pytest.approx(wall)
    assert 0 < m["cli.run_study_self_s"] < wall
    assert m["solver.self_s"] <= m["solver.solve_s"]


def _traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=400, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["ladder_auto", "ladder_minres", "discretize_fine"])
def test_exact_counts_repeat_and_layer_shares(workload):
    first = _traced_run(workload, 3)
    second = _traced_run(workload, 3)
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name
    if workload == "ladder_auto":
        assert first["solver.fill_nnz"] > 0 and first["solver.minres_iters"] == 0
        assert first["trace.solve_share"] >= 0.9
    if workload == "ladder_minres":
        assert first["solver.minres_iters"] > 0 and first["solver.fill_nnz"] == 0
    if workload == "discretize_fine":
        assert first["solver.solve_s"] == 0
        assert first["trace.discretize_share"] >= 0.9
