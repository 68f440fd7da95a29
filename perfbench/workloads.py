"""The benchmark's four workloads: job lists, their inputs and output checks.

Every job calls thetaquot through module attributes (``mining.mine``, not a
name imported here), so the outside-in tracer sees the calls it wraps.  A
job's ``check`` returns None for a correct output or a one-line reason.

Sizes are chosen so one pass takes a few seconds on a 2-core machine with
mpmath's pure-Python backend; see README.md for the reasoning per workload.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import mpmath

WORKLOADS = ("catalog", "mine", "precision", "expand")
REFERENCE = Path(__file__).with_name("reference.json")

# catalog: `verify --all` at 60 digits and r in {1, 2, 3}, at order 60
# instead of 150, and without table5's re-mining fallback (that fallback
# is the 12 s table-5 mining job on its own)
CATALOG_DIGITS = 60
CATALOG_ORDER = 60
CATALOG_RS = (1, 2, 3)
CATALOG_NO_FALLBACK = ("table5",)

# mine: CLI `mine` jobs; bindings use the miner's names for --v
MINE_JOBS = {
    "table1": dict(a="1", p="3", power=12, qscale="1", v="m", max_degree=7, order=150),
    "table4": dict(
        a="-2", p="8", power=12, qscale="1", v="m_q2_squared", max_degree=5, order=150
    ),
}
MINE_DIGITS = 60

# precision
MODULUS_DIGITS = 2000
MODULUS_RS = (1, 2, 3)
CLOSED_FORM_DIGITS = 400
CLOSED_FORM_RS = (1, 2, 3)
RECOGNIZE_DIGITS = 400
RECOGNIZE_MAX_DEGREE = 8
# r whose A(1,4;q)^24 is algebraic of degree 4, so each seed costs one LLL
# climb through the same lattice sizes; r = 13 is left out because its
# recognition runs 3 % faster than the others'
RECOGNIZE_POOL = (5, 9, 25)
ETA5_DIGITS = 500
ETA5_R = 1

# expand: the quotient pairs of the catalog's triple-product check
JTP_PAIRS = (
    ("1", "4"), ("1", "3"), ("-1", "6"), ("-2", "8"), ("1", "5"),
    ("1/2", "4"), ("1/2", "2"),
)
ETA_ORDER = (800, 9)  # (base, seeded extra below this)
A_ORDER = (200, 3)
MODULUS_ORDER = (100, 3)  # q-order of sqrt(m) against the exp form
ETA5_ORDER = (125, 2)  # the slowest job, by a clear margin


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _mods():
    """The thetaquot modules (``thetaquot.recognize`` on the package is the
    function, so modules come from sys.modules)."""
    import thetaquot.catalog  # noqa: F401

    return {
        n: sys.modules[f"thetaquot.{n}"]
        for n in ("series", "numeric", "mining", "recognize", "modular", "catalog")
    }


def _seeded(base_extra: tuple[int, int], rng: random.Random) -> int:
    base, extra = base_extra
    return base + rng.randrange(extra)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _catalog_jobs(ref: dict, rng: random.Random) -> list[Job]:
    m = _mods()
    cat = m["catalog"]
    jobs = []
    for eid, want in ref["catalog"].items():
        if eid in CATALOG_NO_FALLBACK:
            def run(eid=eid):
                return cat.verify_entry(eid, CATALOG_DIGITS, CATALOG_ORDER, CATALOG_RS)
        else:
            def run(eid=eid):
                return cat.verify_entry_with_fallback(
                    eid, CATALOG_DIGITS, CATALOG_ORDER, CATALOG_RS
                )

        def check(rep, want=want):
            return _check_entry(rep, want)

        jobs.append(Job(eid, run, check))
    return jobs


def relation_record(rel) -> dict | None:
    """What the reference holds of a mined relation (no residual strings)."""
    if rel is None:
        return None
    return {
        "poly": rel.poly.to_json_obj(),
        "degree": rel.degree,
        "validated_grid_order": rel.validated_grid_order,
    }


def entry_record(rep) -> dict:
    """What the reference holds of a catalog entry report."""
    return {
        "verdict": rep.verdict,
        "series_order": rep.series_order,
        "remined": relation_record(rep.remined),
    }


def _check_entry(rep, want: dict) -> str | None:
    got = entry_record(rep)
    for key in ("verdict", "series_order", "remined"):
        if got[key] != want[key]:
            return f"{key} {got[key]}, expected {want[key]}"
    return None


# ---------------------------------------------------------------------------
# mine
# ---------------------------------------------------------------------------


def mine_job(job: dict):
    """What `thetaquot mine` runs for one set of CLI arguments."""
    m = _mods()
    mining = m["mining"]
    spec = m["series"].ThetaSpec(Fraction(job["a"]), Fraction(job["p"]))
    binding = mining.ABinding(spec, job["power"], Fraction(job["qscale"]))
    u, v = mining.build_binding_series(binding, job["v"], Fraction(job["order"]))
    return mining.mine(
        u, v, job["max_degree"], None,
        u_binding=binding, v_binding=job["v"], digits=MINE_DIGITS,
    )


def _check_relation(rel, want: dict) -> str | None:
    got = relation_record(rel)
    return None if got == want else f"mined {got}, expected {want}"


def _mine_jobs(ref: dict, rng: random.Random) -> list[Job]:
    jobs = []
    for name, args in MINE_JOBS.items():
        want = ref["mine"][name]
        jobs.append(
            Job(
                name,
                lambda args=args: mine_job(args),
                lambda rel, want=want: _check_relation(rel, want),
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# precision
# ---------------------------------------------------------------------------


def _closed_form_moduli(digits: int) -> dict[int, mpmath.mpf]:
    with mpmath.workdps(digits + 20):
        s2, s3, s6 = mpmath.sqrt(2), mpmath.sqrt(3), mpmath.sqrt(6)
        return {1: 1 / s2, 2: s2 - 1, 3: (s6 - s2) / 4, 4: 3 - 2 * s2}


def _reference_modulus(r: int, digits: int) -> mpmath.mpf:
    """k_r from mpmath's own theta functions, independent of thetaquot."""
    with mpmath.workdps(digits + 20):
        return mpmath.kfrom(q=mpmath.exp(-mpmath.pi * mpmath.sqrt(r)))


def _moduli_job(r_seed: int):
    m = _mods()
    points = {
        r: m["numeric"].singular_modulus(r, MODULUS_DIGITS)
        for r in MODULUS_RS + (r_seed,)
    }
    k4 = m["modular"].landen_k4(points[1].k)
    return points, k4


def _check_moduli(out, r_seed: int) -> str | None:
    points, k4 = out
    want = _closed_form_moduli(MODULUS_DIGITS)
    want[r_seed] = _reference_modulus(r_seed, MODULUS_DIGITS)
    with mpmath.workdps(MODULUS_DIGITS + 20):
        tol = mpmath.mpf(10) ** (-(MODULUS_DIGITS - 10))
        for r, ep in points.items():
            if abs(ep.k.value - want[r]) > tol:
                return f"singular_modulus({r}) differs from k_{r}"
        if abs(k4.value - want[4]) > tol:
            return "landen_k4(k_1) differs from k_4 = 3 - 2 sqrt(2)"
    return None


def _recognize_job(r: int):
    m = _mods()
    numeric = m["numeric"]
    q = numeric.nome_from_r(r, RECOGNIZE_DIGITS)
    spec = m["series"].ThetaSpec(1, 4)
    x = numeric.eval_A(spec, q, RECOGNIZE_DIGITS) ** 24
    return m["recognize"].recognize(x, RECOGNIZE_MAX_DEGREE, RECOGNIZE_DIGITS)


def _eta5_job():
    numeric = _mods()["numeric"]
    q = numeric.nome_from_r(ETA5_R, ETA5_DIGITS)
    return numeric.eval_eta5(q, ETA5_DIGITS)


def _check_eta5(y, want: str) -> str | None:
    with mpmath.workdps(ETA5_DIGITS + 20):
        digits = min(ETA5_DIGITS, len(want)) - 10
        if abs(y.value - mpmath.mpf(want)) > mpmath.mpf(10) ** (-digits):
            return "eval_eta5 differs from the recorded value"
    return None


def _precision_jobs(ref: dict, rng: random.Random) -> list[Job]:
    m = _mods()
    cat = m["catalog"]
    r_seed = rng.choice(RECOGNIZE_POOL)
    jobs = [
        Job(
            f"moduli r={','.join(map(str, MODULUS_RS))},{r_seed}",
            lambda: _moduli_job(r_seed),
            lambda out: _check_moduli(out, r_seed),
        )
    ]
    for eid, want in ref["precision"]["closed_form"].items():
        jobs.append(
            Job(
                eid,
                lambda eid=eid: cat.verify_entry(
                    eid, CLOSED_FORM_DIGITS, CATALOG_ORDER, CLOSED_FORM_RS
                ),
                lambda rep, want=want: _check_entry(rep, want),
            )
        )
    want_poly = ref["precision"]["recognize"][str(r_seed)]
    jobs.append(
        Job(
            f"recognize r={r_seed}",
            lambda: _recognize_job(r_seed),
            lambda poly: None
            if poly.to_json_obj() == want_poly
            else f"recognized {poly}, expected {want_poly}",
        )
    )
    want_eta5 = ref["precision"]["eta5"]
    jobs.append(Job("eval_eta5", _eta5_job, lambda y: _check_eta5(y, want_eta5)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def _pentagonal_eta(hi: int) -> dict[int, int]:
    """prod (1 - q^n) below q^hi by Euler's pentagonal number theorem."""
    out = {}
    k = 0
    while True:
        grew = False
        for j in ((k, -k) if k else (0,)):
            e = j * (3 * j - 1) // 2
            if e < hi:
                out[e] = -1 if j % 2 else 1
                grew = True
        if not grew:
            return out
        k += 1


def _check_eta(ser, order: int) -> str | None:
    if ser.denom != 1 or ser.hi != order:
        return f"eta series on grid 1/{ser.denom} known below {ser.hi}, expected 1/1 and {order}"
    if ser.coeffs != _pentagonal_eta(order):
        return "eta coefficients differ from the pentagonal-number expansion"
    return None


def _check_agree(pair, order, what: str) -> str | None:
    """Both constructions agree and are known through q^(order - 1)."""
    a, b = pair
    if not a.agrees_with(b):
        return f"{what}: the two constructions disagree"
    known = min(a.knowledge_order(), b.knowledge_order())
    if known <= order - 1:
        return f"{what}: known only below q^{known}, expected q^{order - 1}"
    return None


def _check_eta5_series(pair, order: int) -> str | None:
    h, y = pair
    resid = y * y + (1 + h) * y - 1
    if resid.coeffs:
        return "eta5 does not satisfy y^2 + (1 + h5) y - 1 = 0"
    if resid.knowledge_order() < order:
        return f"eta5 relation known only below q^{resid.knowledge_order()}"
    return None


def _expand_jobs(ref: dict, rng: random.Random) -> list[Job]:
    ser = _mods()["series"]
    jobs = []
    n_eta = _seeded(ETA_ORDER, rng)
    jobs.append(
        Job(
            f"eta_series(1, {n_eta})",
            lambda: ser.eta_series(1, n_eta),
            lambda out: _check_eta(out, n_eta),
        )
    )
    for a, p in JTP_PAIRS:
        n = _seeded(A_ORDER, rng)
        spec = ser.ThetaSpec(Fraction(a), Fraction(p))
        name = f"A({a},{p}) order {n}"
        jobs.append(
            Job(
                name,
                lambda spec=spec, n=n: (
                    ser.A_series(spec, n), ser.A_series_product(spec, n)
                ),
                lambda out, n=n, name=name: _check_agree(out, n, name),
            )
        )
    n_m = _seeded(MODULUS_ORDER, rng)
    jobs.append(
        Job(
            f"sqrt(m) order {n_m}",
            lambda: (
                ser.sqrt_series(ser.modulus_series(n_m)), ser.nome_sqrt_exp_form(n_m)
            ),
            lambda out: _check_agree(out, n_m, "sqrt(m) vs exp form"),
        )
    )
    n_5 = _seeded(ETA5_ORDER, rng)
    jobs.append(
        Job(
            f"eta5 order {n_5}",
            lambda: (ser.h5_series(n_5), ser.eta5_series(n_5)),
            lambda out: _check_eta5_series(out, n_5),
        )
    )
    rng.shuffle(jobs)
    return jobs


_BUILDERS = {
    "catalog": _catalog_jobs,
    "mine": _mine_jobs,
    "precision": _precision_jobs,
    "expand": _expand_jobs,
}


def build_jobs(workload: str, seed: int, ref: dict) -> list[Job]:
    """The job list of one workload; ``seed`` fixes the precision and expand
    inputs (catalog and mine are the fixed user commands)."""
    return _BUILDERS[workload](ref, random.Random(seed))
