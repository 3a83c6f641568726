#!/usr/bin/env python3
"""symheat benchmark: seeded job mixes through the `symheat compute` path.

    python3 perfbench/run.py --workload det_heavy --seed 1 --seconds 36 --trace 0

One process, one thread, one client, closed loop: the next job starts only
after the previous one has returned.  Each job makes the public calls
`symheat compute` makes, in-process: space_from_descriptor ->
rep_from_descriptor -> HeatRequest -> heat_coefficients ->
coefficient_report + JSON rendering, and its report is checked exactly
(refcheck.py).  Jobs run in rounds of one job per type and the run stops
at the round boundary nearest to --seconds, so every type has the same
count and the median job falls inside the middle type's group.  Setup
(import symheat, job list, references) is timed here and in eight fresh
interpreters; setup_s is the median of the nine.

On a shared host the same job can take 1.8 times as long
in one minute as in the next.  So end-to-end times are reported in seconds
at reference host speed: a fixed pure-Python kernel (hostspeed.py) is
timed before the first job and after every job, and each job's wall time
is divided by the mean slowdown of the two samples around it (setup by the
first job's).  The raw wall times are printed too.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every job twice,
untraced and traced (alternating which goes first), prints the per-layer
metrics, and writes the spans and a per-layer breakdown to perfbench/out/.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every report was correct.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import hostspeed
from jobmix import WORKLOADS, descriptor, job_rounds
from refcheck import load_refs, render, report_matches

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
SETUP_PROBES = 8

# name -> unit; must match BENCHMARK.json (test_perfbench checks it).
END_TO_END = {
    "job_s.p50": "s",
    "jobs_per_min": "1/min",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
# Times and counts are means per job over the traced run; the overhead ratio
# is the geometric mean over jobs of traced over untraced time of one job.
PER_LAYER = {
    "spaces.build_s": "s",
    "bundles.build_s": "s",
    "bundles.validate_s": "s",
    "bundles.build_rep_calls": "count",
    "bundles.useful_ratio": "ratio",
    "series.det_F_s": "s",
    "series.det_D_s": "s",
    "series.det_F_terms": "count",
    "series.det_D_terms": "count",
    "series.cosh_s": "s",
    "series.cosh_terms": "count",
    "series.bracket_s": "s",
    "series.bracket_terms": "count",
    "series.poly_mul_calls": "count",
    "series.prefactor_s": "s",
    "series.twist_s": "s",
    "wick.average_s": "s",
    "wick.monomials": "count",
    "wick.distinct_moments": "count",
    "wick.reuse_ratio": "ratio",
    "exact.matmul_calls": "count",
    "exact.matmul_s": "s",
    "engine.solve_s": "s",
    "engine.self_s": "s",
    "cli.report_s": "s",
    "trace.overhead_ratio": "ratio",
}
# Inclusive span time behind each per-layer time metric.
SPAN_TIMES = {
    "spaces.build_s": "spaces.build",
    "bundles.build_s": "bundles.build",
    "bundles.validate_s": "bundles.validate",
    "series.det_F_s": "series.det_F",
    "series.det_D_s": "series.det_D",
    "series.cosh_s": "series.cosh",
    "series.bracket_s": "series.bracket",
    "series.prefactor_s": "series.prefactor",
    "series.twist_s": "series.twist",
    "wick.average_s": "wick.average",
    "engine.solve_s": "engine.solve",
    "cli.report_s": "cli.report",
}
LAYERS = ("spaces", "bundles", "series", "wick", "exact", "engine", "cli", "bench")


def import_symheat():
    """Import the checkout's symheat (never an installed copy)."""
    if not (SRC / "symheat" / "__init__.py").is_file():
        raise SystemExit(f"error: no symheat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import symheat
    from symheat.bundles import rep_from_descriptor
    from symheat.spaces import space_from_descriptor

    return SimpleNamespace(
        space_from_descriptor=space_from_descriptor,
        rep_from_descriptor=rep_from_descriptor,
        HeatRequest=symheat.HeatRequest,
        heat_coefficients=symheat.heat_coefficients,
        coefficient_report=symheat.coefficient_report,
        rational=symheat.rational,
    )


def setup(workload: str, seed: int):
    """From before `import symheat` until the job list is ready."""
    t0 = time.perf_counter()
    api = import_symheat()
    rounds = job_rounds(workload, seed)
    refs = load_refs(WORKLOADS[workload])
    return time.perf_counter() - t0, api, rounds, refs


def probe_setup(workload: str, seed: int) -> float:
    """setup() in a fresh interpreter, as a `symheat compute` user pays it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return float(out.split()[-1])


def run_job(api, job, ref, tracer=None) -> tuple[float, bool]:
    """One job from descriptor to checked report; returns (seconds, ok)."""
    span = tracer.span if tracer else lambda name: nullcontext()
    t0 = time.perf_counter()
    try:
        d = descriptor(job)
        with span("spaces.build"):
            model = api.space_from_descriptor(d["space"])
        if tracer:
            tracer.set_model(model)
        with span("bundles.build"):
            rep = api.rep_from_descriptor(model, d.get("bundle"), d.get("twist"))
        with span("engine.solve"):
            coeffs = api.heat_coefficients(api.HeatRequest(model, rep, d["k_max"]))
        with span("cli.report"):
            text = render(api.coefficient_report(coeffs, mode="exact"))
        ok = report_matches(text, ref, job.radius)
        if not ok:
            print(f"wrong report: {job.key}", file=sys.stderr)
    except Exception:  # a failing job is counted, the run goes on
        traceback.print_exc()
        ok = False
    return time.perf_counter() - t0, ok


def run_rounds(rounds, seconds: float, do_job) -> int:
    """Closed loop over whole rounds; returns the number of rounds run.

    The run stops at the round boundary nearest to --seconds, judged by the
    last round's length, so a run lasts --seconds give or take half a round.
    """
    start = time.perf_counter()
    job_id = 0
    for n, rnd in enumerate(rounds, 1):
        t0 = time.perf_counter()
        for job in rnd:
            do_job(job_id, job)
            job_id += 1
        now = time.perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            return n
    return len(rounds)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end_metrics(times, oks, n_rounds, speed, setup_s, rss_mb) -> dict:
    """Job i's time is divided by its host speed factor speed[i]; setup by
    the first job's factor, the nearest in time."""
    norm = [t / f for t, f in zip(times, speed)]
    per_round = len(times) // n_rounds
    round_s = [sum(norm[i:i + per_round]) for i in range(0, len(norm), per_round)]
    return {
        "job_s.p50": statistics.median(norm),
        "jobs_per_min": 60 * per_round / statistics.median(round_s),
        "setup_s": setup_s / speed[0],
        "peak_rss_mb": rss_mb,
        "ok_share": sum(oks) / len(oks),
    }


def per_layer_metrics(tracer, n_jobs: int, untraced, traced) -> dict:
    total = {name: 0.0 for name in SPAN_TIMES.values()}
    terms = {"series.det_F": 0, "series.det_D": 0, "series.cosh": 0}
    bracket_terms = {}
    engine_self = matmul_calls = matmul_s = 0.0
    for s in tracer.spans:
        if s.name in total:
            total[s.name] += s.duration
        if s.name in terms:
            terms[s.name] += s.terms
        if s.name == "series.bracket":
            bracket_terms[s.job] = s.terms  # the last product is the bracket
        if s.name == "engine.solve":
            engine_self += s.self_s
        matmul_calls += s.matmul_calls
        matmul_s += s.matmul_s
    c = tracer.counts
    out = {metric: total[name] / n_jobs for metric, name in SPAN_TIMES.items()}
    out.update({
        "bundles.build_rep_calls": c["bundles.build_rep_calls"] / n_jobs,
        "bundles.useful_ratio": n_jobs / c["bundles.build_rep_calls"],
        "series.det_F_terms": terms["series.det_F"] / n_jobs,
        "series.det_D_terms": terms["series.det_D"] / n_jobs,
        "series.cosh_terms": terms["series.cosh"] / n_jobs,
        "series.bracket_terms": sum(bracket_terms.values()) / n_jobs,
        "series.poly_mul_calls": c["series.poly_mul_calls"] / n_jobs,
        "wick.monomials": c["wick.monomials"] / n_jobs,
        "wick.distinct_moments": len(tracer.moment_keys) / n_jobs,
        "wick.reuse_ratio": 1 - len(tracer.moment_keys) / c["wick.monomials"],
        "exact.matmul_calls": matmul_calls / n_jobs,
        "exact.matmul_s": matmul_s / n_jobs,
        "engine.self_s": engine_self / n_jobs,
        "trace.overhead_ratio": statistics.geometric_mean(
            [t / u for t, u in zip(traced, untraced)]),
    })
    return out


def layer_breakdown(spans) -> dict:
    """Self time per layer, with its share of engine.solve and of the job."""
    by_id = {s.id: s for s in spans}

    def in_solve(s):
        while s is not None:
            if s.name == "engine.solve":
                return True
            s = by_id.get(s.parent)
        return False

    self_s = dict.fromkeys(LAYERS, 0.0)
    in_solve_s = dict.fromkeys(LAYERS, 0.0)
    solve_s = job_s = 0.0
    for s in spans:
        layer = "bench" if s.name == "job" else s.name.split(".")[0]
        inside = in_solve(s)
        self_s[layer] += s.self_s
        self_s["exact"] += s.matmul_s
        if inside:
            in_solve_s[layer] += s.self_s
            in_solve_s["exact"] += s.matmul_s
        if s.name == "engine.solve":
            solve_s += s.duration
        if s.name == "job":
            job_s += s.duration
    n_jobs = sum(1 for s in spans if s.name == "job")
    return {
        "jobs": n_jobs,
        "job_s": job_s / n_jobs,
        "engine_solve_s": solve_s / n_jobs,
        "layers": {
            layer: {
                "self_s": self_s[layer] / n_jobs,
                "share_of_job": self_s[layer] / job_s,
                "share_of_engine_solve": in_solve_s[layer] / solve_s,
            }
            for layer in LAYERS
        },
    }


def environment(api, args, threads_env) -> dict:
    backend = type(api.rational(0))
    return {
        "rational_backend": f"{backend.__module__}.{backend.__qualname__}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "SYMHEAT_THREADS": threads_env,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def write_trace_files(args, env, tracer, rounds_jobs, metrics):
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, "jobs": rounds_jobs}) + "\n")
        for s in tracer.spans:
            fh.write(json.dumps(s.to_json()) + "\n")
    job_type = {j["id"]: j["type"] for j in rounds_jobs}
    types = sorted(set(job_type.values()))
    breakdown = {
        "env": env,
        "trace.overhead_ratio": metrics["trace.overhead_ratio"],
        "all": layer_breakdown(tracer.spans),
        "by_type": {
            t: layer_breakdown([s for s in tracer.spans if job_type[s.job] == t])
            for t in types
        },
    }
    with open(f"{stem}.breakdown.json", "w", encoding="utf-8") as fh:
        json.dump(breakdown, fh, indent=2)
        fh.write("\n")
    return f"{stem}.breakdown.json"


def measure_end_to_end(api, rounds, refs, args, setup_times):
    """Untraced run; returns (metrics, per-job ok flags)."""
    times, oks, jobs = [], [], []
    samples = [hostspeed.sample()]

    def do_job(job_id, job):
        dt, ok = run_job(api, job, refs[(job.type.name, job.sign)])
        samples.append(hostspeed.sample())
        times.append(dt)
        oks.append(ok)
        jobs.append(job)

    n_rounds = run_rounds(rounds, args.seconds, do_job)
    # A job's speed factor is the mean of the host samples on either side of it.
    speed = [hostspeed.factor((a + b) / 2) for a, b in zip(samples, samples[1:])]
    setup_s = statistics.median(setup_times)
    print(f"jobs {len(times)} in {n_rounds} rounds; job_s.p50 over {len(times)} jobs "
          "(job_s.p90 needs >= 100 jobs: not reported)")
    print(f"host speed factor (kernel seconds / {hostspeed.REFERENCE_S} s): median "
          f"{statistics.median(speed):.3f}, range {min(speed):.3f}-{max(speed):.3f}")
    print(f"raw wall: job_s.p50 {statistics.median(times):.4f} s, jobs_per_min "
          f"{60 * len(times) / sum(times):.4f}, setup_s {setup_s:.4f} s")
    for t in WORKLOADS[args.workload]:
        own = [dt for dt, job in zip(times, jobs) if job.type is t]
        print(f"type {t.name}: {len(own)} jobs, raw median {statistics.median(own):.4f} s")
    metrics = end_to_end_metrics(times, oks, n_rounds, speed, setup_s, peak_rss_mb())
    return metrics, oks


def measure_per_layer(api, rounds, refs, args, env):
    """Each job untraced and traced, alternating which goes first."""
    from spans import Tracer

    tracer = Tracer()
    untraced, traced, oks, jobs = [], [], [], []

    def do_job(job_id, job):
        ref = refs[(job.type.name, job.sign)]
        for is_traced in ((False, True) if job_id % 2 == 0 else (True, False)):
            if is_traced:
                with tracer.installed(), tracer.job(job_id):
                    dt, ok = run_job(api, job, ref, tracer)
                traced.append(dt)
            else:
                dt, ok = run_job(api, job, ref)
                untraced.append(dt)
            oks.append(ok)
        jobs.append(job)

    run_rounds(rounds, args.seconds, do_job)
    metrics = per_layer_metrics(tracer, len(jobs), untraced, traced)
    job_list = [{"id": i, "type": j.type.name, "sign": j.sign,
                 "radius": f"{j.radius.numerator}/{j.radius.denominator}"}
                for i, j in enumerate(jobs)]
    path = write_trace_files(args, env, tracer, job_list, metrics)
    print(f"jobs {len(jobs)} (each run untraced and traced); breakdown in {path}")
    return metrics, oks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Runs use the engine's default of one thread; a set SYMHEAT_THREADS is
    # recorded, then dropped.
    threads_env = os.environ.pop("SYMHEAT_THREADS", None)

    setup_s, api, rounds, refs = setup(args.workload, args.seed)
    if args.setup_probe:
        print(setup_s)
        return 0
    env = environment(api, args, threads_env)
    print("env " + json.dumps(env), flush=True)

    if args.trace:
        metrics, oks = measure_per_layer(api, rounds, refs, args, env)
        units = PER_LAYER
    else:
        setup_times = [setup_s] + [probe_setup(args.workload, args.seed)
                                   for _ in range(SETUP_PROBES)]
        metrics, oks = measure_end_to_end(api, rounds, refs, args, setup_times)
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    failed = oks.count(False)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(oks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
