"""Self-test of the benchmark's checks and tracer.

    python3 perfbench/selftest.py      # from the root of a checkout, ~35 s

1. The reference checks reject deliberately wrong outputs: a re-mining that
   returns the printed table-2 polynomial for u = A(8,6;q)^6 must fail the
   catalog's table2 job, and each other workload's check must reject a
   corrupted output.
2. The exact counters of the traced run repeat across two traced runs of the
   same workload and seed, each in its own process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import run as R  # noqa: E402
import workloads as W  # noqa: E402
from tracer import EXACT_COUNTERS  # noqa: E402


def _job(jobs, name):
    return next(j for j in jobs if j.name == name)


def wrong_outputs_rejected() -> list[str]:
    errors = []
    ref = W.load_reference()
    m = W._mods()
    cat, mining, series = m["catalog"], m["mining"], m["series"]

    # catalog: the printed table-2 polynomial as the re-mined relation
    printed = cat.get_entry("table2").poly
    real_remine = cat.remine_entry
    cat.remine_entry = lambda *a, **k: mining.MinedRelation(
        poly=printed, degree=printed.max_single_degree, validated_grid_order=120,
        u_binding=mining.ABinding(series.ThetaSpec(8, 6), 6), v_binding="sqrt_m",
    )
    try:
        jobs = [_job(W.build_jobs("catalog", 0, ref), "table2")]
        rec = R.run_pass(jobs)
    finally:
        cat.remine_entry = real_remine
    if "table2" not in rec["failures"]:
        errors.append("catalog: printed table-2 polynomial was accepted")

    # mine: the table-3 polynomial reported for the table-1 job
    want = ref["mine"]["table1"]
    wrong = mining.MinedRelation(
        poly=cat.get_entry("table3").poly, degree=want["degree"],
        validated_grid_order=want["validated_grid_order"],
    )
    if _job(W.build_jobs("mine", 0, ref), "table1").check(wrong) is None:
        errors.append("mine: wrong relation accepted")

    # precision: a wrong recognized polynomial and a perturbed modulus
    jobs = W.build_jobs("precision", 0, ref)
    rec_job = next(j for j in jobs if j.name.startswith("recognize"))
    poly = m["recognize"].IntPoly.normalized([1, -8])
    if rec_job.check(poly) is None:
        errors.append("precision: wrong recognized polynomial accepted")
    mod_job = next(j for j in jobs if j.name.startswith("moduli"))
    points, k4 = mod_job.run()
    if mod_job.check((points, k4 * (1 + Fraction(1, 10 ** 1500)))) is None:
        errors.append("precision: perturbed landen_k4 accepted")

    # expand: a sign flip in eta, disagreeing A constructions, a wrong eta5
    jobs = W.build_jobs("expand", 0, ref)
    eta_job = next(j for j in jobs if j.name.startswith("eta_series"))
    eta = eta_job.run()
    if eta_job.check(eta + series.PuiseuxSeries.monomial(2, 5)) is None:
        errors.append("expand: corrupted eta series accepted")
    a_job = next(j for j in jobs if j.name.startswith("A(1,4)"))
    t, p = a_job.run()
    if a_job.check((t, p + series.PuiseuxSeries.monomial(1, 7))) is None:
        errors.append("expand: disagreeing A constructions accepted")
    e5_job = next(j for j in jobs if j.name.startswith("eta5"))
    h, y = e5_job.run()
    if e5_job.check((h, y + series.PuiseuxSeries.monomial(1, 3))) is None:
        errors.append("expand: wrong eta5 accepted")
    return errors


def counts_repeat(workload: str = "catalog", seed: int = 3) -> list[str]:
    out = R.OUT_DIR / f"{workload}-seed{seed}-trace1.json"
    runs = []
    for _ in range(2):
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", workload, "--seed", str(seed), "--seconds", "0",
             "--trace", "1"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        detail = json.loads(out.read_text())
        traced = [p for p in detail["passes"] if "counters" in p]
        runs.append({k: traced[0]["counters"].get(k, 0) for k in EXACT_COUNTERS})
    if runs[0] != runs[1]:
        return [f"{workload}: exact counters differ between runs: {runs}"]
    if not all(runs[0][k] for k in ("series.mul.term_pairs", "numeric.agm_iterations",
                                    "mining.matrix_cells")):
        return [f"{workload}: exact counters were not exercised: {runs[0]}"]
    print(f"exact counters repeat: {runs[0]}")
    return []


def main() -> int:
    errors = wrong_outputs_rejected() + counts_repeat()
    for e in errors:
        print("FAIL", e)
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
