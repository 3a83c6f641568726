"""Tests of the benchmark itself: job lists, the exact check, metric names."""
import json
from fractions import Fraction
from pathlib import Path

import pytest

import run
from jobmix import WORKLOADS, Job, job_rounds
from refcheck import expected_report, load_refs, render, report_matches
from spans import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_job_list(workload):
    assert job_rounds(workload, 7) == job_rounds(workload, 7)
    assert job_rounds(workload, 7) != job_rounds(workload, 8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_rounds_balance_types_and_never_repeat(workload):
    rounds = job_rounds(workload, 3)
    types = {t.name for t in WORKLOADS[workload]}
    for rnd in rounds:
        assert sorted(job.type.name for job in rnd) == sorted(types)
    keys = [job.key for rnd in rounds for job in rnd]
    assert len(keys) == len(set(keys))


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_metric_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    e2e = run.end_to_end_metrics([1.0, 2.0, 3.0], [True] * 3, 1, [1.5] * 3, 0.1, 20.0)
    assert set(e2e) == set(run.END_TO_END)


def test_interaction_list_names_declared_metrics_and_workloads():
    notes = json.loads((HERE / "workloads.json").read_text())
    assert list(notes["workloads"]) == list(WORKLOADS)
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    covered = set()
    for item in notes["interactions"]:
        covered.update(item["metrics"])
        assert item["moves"] in e2e | {None}
        assert {item["on"], item["flat_on"]} <= set(WORKLOADS) | {None}
    assert covered == per_layer


def _perturb(text: str) -> str:
    report = json.loads(text)
    row = report["a"][-1]["matrix"][0]
    x = Fraction(row[0] if isinstance(row[0], str) else row[0]["re"])
    x += Fraction(1, 10**9)
    if isinstance(row[0], str):
        row[0] = f"{x.numerator}/{x.denominator}"
    else:
        row[0] = dict(row[0], re=f"{x.numerator}/{x.denominator}")
    return render(report)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_check_rejects_perturbed_report(workload):
    r = Fraction(7, 5)
    for (name, sign), ref in load_refs(WORKLOADS[workload]).items():
        good = render(expected_report(ref, r))
        assert report_matches(good, ref, r)
        assert not report_matches(_perturb(good), ref, r), (name, sign)
        assert not report_matches(good, ref, Fraction(7, 4)), (name, sign)


def test_traced_job_matches_scaled_reference_and_restores_symheat():
    api = run.import_symheat()
    from symheat import engine, exact

    original = (engine.det_sinhc_pencil, exact.Matrix.matmul)
    jtype = WORKLOADS["wick_heavy"][0]
    job = Job(jtype, -1, Fraction(7, 5))
    ref = load_refs([jtype])[(jtype.name, -1)]
    tracer = Tracer()
    with tracer.installed(), tracer.job(0):
        dt, ok = run.run_job(api, job, ref, tracer)
    assert ok and dt > 0
    assert (engine.det_sinhc_pencil, exact.Matrix.matmul) == original
    names = {s.name for s in tracer.spans}
    assert {"job", "spaces.build", "bundles.build", "engine.solve", "series.det_F",
            "series.det_D", "series.bracket", "wick.average", "cli.report"} <= names
    metrics = run.per_layer_metrics(tracer, 1, [dt], [dt])
    assert set(metrics) == set(run.PER_LAYER)
    breakdown = run.layer_breakdown(tracer.spans)
    shares = [v["share_of_engine_solve"] for v in breakdown["layers"].values()]
    assert sum(shares) == pytest.approx(1.0)
