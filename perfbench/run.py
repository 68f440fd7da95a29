"""Benchmark entry point for thetaquot.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/).  One
process runs one workload: an untimed warm-up pass, then timed passes until
S seconds have passed.  Every output is checked against perfbench's
reference.  The last line of stdout is a JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1, where one untraced
pass is followed by traced passes).  Details (every pass, every job, the
environment and, when traced, the spans) are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import mpmath

import pace
import workloads
from tracer import (
    EXACT_COUNTERS,
    MINING_FNS,
    MODULAR_FNS,
    NUMERIC_FNS,
    RECOGNIZE_FNS,
    Tracer,
)

SETUP_LAUNCHES = 7
ROOT = Path.cwd()
OUT_DIR = Path(__file__).resolve().parent / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_max_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(pacer) -> tuple[float, float]:
    """Median time, own and scaled by the pacer, for a fresh interpreter to
    import thetaquot.cli (which builds the catalog).  One untimed launch
    first writes the bytecode."""
    cmd = [sys.executable, "-c", "import thetaquot.cli"]
    env = _child_env()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    intervals = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        intervals.append((t0, time.perf_counter()))
    paced = pacer.scale(intervals)
    return (
        statistics.median(own for own, _ in paced),
        statistics.median(own * k for own, k in paced),
    )


def _fingerprint(x) -> str:
    """Canonical text of an output, for comparing traced and untraced runs."""
    from thetaquot.numeric import BigReal

    if hasattr(x, "to_json_obj"):
        return json.dumps(x.to_json_obj(), sort_keys=True)
    if isinstance(x, BigReal):
        return repr(x.value._mpf_)
    if isinstance(x, dict):
        return "{" + ",".join(f"{k!r}:{_fingerprint(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(_fingerprint(v) for v in x) + ")"
    if hasattr(x, "__dataclass_fields__"):
        return _fingerprint({f: getattr(x, f) for f in x.__dataclass_fields__})
    return repr(x)


def execute(jobs, pacer=None) -> dict:
    """Run every job once, timing each job.  With a pacer, a job's time is
    its own share of its interval, and each job gets the pacer's scale
    factor (see pace.py)."""
    outputs, errors, intervals, cpus = [], [], [], []
    for job in jobs:
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            outputs.append(job.run())
            errors.append(None)
        except Exception:  # a raising job is a failed job; keep measuring
            outputs.append(None)
            errors.append(traceback.format_exc(limit=3))
        cpus.append(time.process_time() - c0)
        intervals.append((t0, time.perf_counter()))
    if pacer is None:
        paced = [(t1 - t0, 1.0) for t0, t1 in intervals]
    else:
        paced = pacer.scale(intervals)
    times = [own for own, _ in paced]
    names = [j.name for j in jobs]
    return {
        "wall_s": sum(times),
        "cpu_s": sum(cpus),
        "job_s": dict(zip(names, times)),
        "job_cpu_s": dict(zip(names, cpus)),
        "job_scale": dict(zip(names, (k for _, k in paced))),
        "outputs": outputs,
        "errors": errors,
    }


def check(jobs, rec: dict) -> dict:
    """Check a pass's outputs (untimed) and replace them by digests."""
    failures = {}
    digests = []
    for job, out, err in zip(jobs, rec.pop("outputs"), rec.pop("errors")):
        if err is None:
            try:
                err = job.check(out)
            except Exception:
                err = "check raised: " + traceback.format_exc(limit=3)
        if err is not None:
            failures[job.name] = err
        digests.append(hashlib.sha256(_fingerprint(out).encode()).hexdigest())
    rec["failures"] = failures
    rec["digests"] = digests
    return rec


def run_pass(jobs, pacer=None) -> dict:
    return check(jobs, execute(jobs, pacer))


def run_pass_traced(jobs, tracer) -> dict:
    tracer.reset()
    tracer.install()
    try:
        rec = execute(jobs)
    finally:
        tracer.uninstall()
    rec["totals"] = {k: list(v) for k, v in tracer.totals.items()}
    rec["counters"] = dict(tracer.counters)
    rec["spans"] = tracer.spans
    return check(jobs, rec)


def timed_passes(jobs, seconds: float, pacer) -> list[dict]:
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(jobs, pacer))
    return passes


def per_layer_metrics(traced: list[dict], untraced_wall: float) -> dict:
    totals, counters = traced[0]["totals"], traced[0]["counters"]

    def med(name, field):  # median over traced passes of calls/incl/self
        return statistics.median(p["totals"].get(name, [0, 0.0, 0.0])[field] for p in traced)

    m = {}

    def calls_self(name):
        m[f"{name}.calls"] = (totals.get(name, [0])[0], "count")
        m[f"{name}.self_s"] = (med(name, 2), "s")

    for name in ("series.mul", "series.add", "series.build"):
        calls_self(name)
    m["series.mul.term_pairs"] = (counters.get("series.mul.term_pairs", 0), "count")
    m["series.mul.max_coeff_bits"] = (counters.get("series.mul.max_coeff_bits", 0), "bits")
    for fn in NUMERIC_FNS:
        calls_self(f"numeric.{fn}")
    m["numeric.agm_iterations"] = (counters.get("numeric.agm_iterations", 0), "count")
    for fn in MINING_FNS:
        if fn != "mine":
            calls_self(f"mining.{fn}")
    m["mining.mine.self_s"] = (med("mining.mine", 2), "s")
    m["mining.matrix_cells"] = (counters.get("mining.matrix_cells", 0), "count")
    m["mining.candidates_rejected"] = (counters.get("mining.candidates_rejected", 0), "count")
    attempts = counters.get("mining.validate_attempts", 0)
    accepted = counters.get("mining.validate_accepted", 0)
    m["mining.accept_ratio"] = (accepted / attempts if attempts else 0.0, "ratio")
    m["mining.truncation_retries"] = (counters.get("mining.truncation_retries", 0), "count")
    for fn in RECOGNIZE_FNS:
        calls_self(f"recognize.{fn}")
    m["recognize.lattice_dim_max"] = (counters.get("recognize.lattice_dim_max", 0), "count")
    for fn in MODULAR_FNS:
        m[f"modular.{fn}.self_s"] = (med(f"modular.{fn}", 2), "s")
    for kind in ("closed_form", "poly_relation", "series_identity"):
        m[f"catalog.verify_entry.{kind}.s"] = (med(f"catalog.verify_entry.{kind}", 1), "s")
    m["catalog.remine_entry.calls"] = (totals.get("catalog.remine_entry", [0])[0], "count")
    m["catalog.remine_entry.s"] = (med("catalog.remine_entry", 1), "s")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


def end_to_end_metrics(timed, setup_raw, setup_s) -> tuple[dict, dict]:
    """(raw, scaled) medians over the timed passes; the scaled ones are the
    reported metrics."""

    def medians(scaled: bool) -> dict:
        def f(p, key):
            return {n: t * (p["job_scale"][n] if scaled else 1.0) for n, t in p[key].items()}

        return {
            "setup_s": setup_s if scaled else setup_raw,
            "wall_s": statistics.median(sum(f(p, "job_s").values()) for p in timed),
            "job_max_s": max(
                statistics.median(f(p, "job_s")[n] for p in timed) for n in timed[0]["job_s"]
            ),
            "cpu_s": statistics.median(sum(f(p, "job_cpu_s").values()) for p in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    raw, scaled = medians(False), medians(True)
    return raw, {k: (v, END_TO_END_UNITS[k]) for k, v in scaled.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "thetaquot" / "__init__.py").is_file():
        print(
            f"error: {ROOT} holds no thetaquot source tree (src/thetaquot); "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = environment()
    jobs = workloads.build_jobs(args.workload, args.seed, workloads.load_reference())

    warm = run_pass(jobs)
    problems = []
    all_passes = [warm]
    if not args.trace:
        pacer = pace.Pacer()
        try:
            setup_raw, setup_s = measure_setup(pacer)
            timed = timed_passes(jobs, args.seconds, pacer)
        finally:
            pacer.close()
        all_passes += timed
        raw, metrics = end_to_end_metrics(timed, setup_raw, setup_s)
        traced = []
    else:
        t_start = time.perf_counter()
        untraced = run_pass(jobs)
        all_passes.append(untraced)
        tracer = Tracer()
        traced = []
        while not traced or time.perf_counter() - t_start < args.seconds:
            rec = run_pass_traced(jobs, tracer)
            traced.append(rec)
            all_passes.append(rec)
        for rec in traced:
            for name in EXACT_COUNTERS:
                if rec["counters"].get(name, 0) != traced[0]["counters"].get(name, 0):
                    problems.append(f"exact counter {name} differs between traced passes")
        metrics = per_layer_metrics(traced, untraced["wall_s"])
        raw = {}

    for p in all_passes[1:]:
        if p["digests"] != warm["digests"]:
            kind = "traced" if "counters" in p else "untraced"
            problems.append(f"outputs of a {kind} pass differ from the warm-up pass")
    attempted = len(jobs) * len(all_passes)
    failed = sum(len(p["failures"]) for p in all_passes)
    correct = failed == 0 and not problems

    OUT_DIR.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "jobs": [j.name for j in jobs],
        "passes": [
            {k: v for k, v in p.items() if k not in ("digests", "spans")} for p in all_passes
        ],
        "problems": sorted(set(problems)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled_metrics": raw,
    }
    if traced:
        detail["spans"] = {
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "first_traced_pass": traced[0]["spans"],
        }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail) + "\n")

    for p in all_passes:
        for name, why in p["failures"].items():
            print(f"FAILED {name}: {why}", file=sys.stderr)
    for why in sorted(set(problems)):
        print(f"PROBLEM {why}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"{args.workload} seed={args.seed}: {len(all_passes) - 1} measured passes of "
        f"{len(jobs)} jobs, fail_frac={failed / attempted:.4f}; details in {out}"
    )
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v} {u}" + (f" (unscaled {raw[k]})" if k in raw else ""))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
