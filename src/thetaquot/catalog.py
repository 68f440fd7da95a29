"""Data-driven catalog of evaluation identities and polynomial relations.

Each entry pairs a left-hand construction with a closed-form or polynomial
right side, and is verified by exact series arithmetic and/or
high-precision numerics across a set of singular arguments.  Most closed
forms are data: each side a signed rational times rational powers of named
factors (theta sums, eta and theta quotients at the nome, q, k, k', k_4r,
K/pi and a few binomials in k), all run by one evaluator.  Entries are
never silently corrected: where a printed identity fails its checks, the
catalog carries both the printed variant (flagged, with the failure
documented) and a corrected or re-mined counterpart that passes.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import partial

# numeric before series: without a bytecode cache, this order peaks 0.2 MB lower
from .numeric import (
    GUARD,
    BigReal,
    big_real,
    ellipk,
    eval_A,
    eval_eta,
    nome_from_r,
    pi_at,
    real_eval_series,
    residual_str,
    singular_point,
    theta_sum,
)
from .series import (
    A_series,
    A_series_product,
    PuiseuxSeries,
    ThetaSpec,
    common_known_order,
    modulus_series,
    nome_sqrt_exp_form,
    sqrt_series,
    theta_series,
)
from .modular import check_theorem3_instance, landen_k4
from .mining import (
    ABinding,
    BivarIntPoly,
    MinedRelation,
    MiningError,
    build_binding_series,
    get_v_binding,
    mine,
    passes,
    _first_nonzero,
)
from .values import Value, replace

__all__ = [
    "CatalogEntry",
    "EntryReport",
    "Report",
    "catalog_ids",
    "get_entry",
    "verify_entry",
    "verify_entry_with_fallback",
    "verify_all",
    "remine_entry",
]


class ResidualRecord(Value):
    label: str
    digits: int
    residual: str
    passed: bool


class CheckData(Value):
    """The one mutable value class; ``records`` starts as a fresh list."""

    records: list[ResidualRecord]
    series_order: int | None = None
    series_ok: bool = True
    notes: str = ""

    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None

    def __init__(self, records: list[ResidualRecord] | None = None, *args, **kwargs):
        super().__init__([] if records is None else records, *args, **kwargs)


class EntryReport(Value):
    id: str
    verdict: str  # pass | fail | flagged
    residuals: tuple[ResidualRecord, ...]
    series_order: int | None
    notes: str
    remined: MinedRelation | None = None

    def to_json_obj(self) -> dict:
        return {
            "id": self.id,
            "verdict": self.verdict,
            "series_order": self.series_order,
            "residuals": [
                {"r": rec.label, "digits": rec.digits, "residual": rec.residual}
                for rec in self.residuals
            ],
            "notes": self.notes,
            "remined": None if self.remined is None else self.remined.to_json_obj(),
        }


class Report(Value):
    digits: int
    order: int
    r_list: tuple[Fraction, ...]
    entries: tuple[EntryReport, ...]

    def to_json_obj(self) -> dict:
        return {
            "run": {
                "digits": self.digits,
                "order": self.order,
                "rs": [str(r) for r in self.r_list],
            },
            "entries": [e.to_json_obj() for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2)

    def failures(self) -> list[str]:
        return [e.id for e in self.entries if e.verdict == "fail"]


class RemineSpec(Value):
    u_binding: ABinding
    v_binding: str
    s_max: int
    note: str


class CatalogEntry(Value):
    id: str
    kind: str  # closed_form | poly_relation | series_identity
    statement: str
    check: Callable[["CatalogEntry", int, int, Sequence[Fraction]], CheckData]
    status_expectation: str = "expected_pass"
    # a closed form's ((c, factors), (c, factors)), each side c times the
    # product of x^e over its (x, e) factors; see _factor for the x
    sides: tuple | None = None
    poly: BivarIntPoly | None = None
    u_binding: ABinding | None = None
    v_binding: str | None = None
    remine: RemineSpec | None = None


def _record(
    data: CheckData, label: str, digits: int, residual: BigReal, *terms: BigReal
) -> None:
    """Record a residual of a closed form, series identity or relation,
    judged by ``mining.passes`` against the ``terms`` it was summed from."""
    ok = passes(residual, digits, *terms)
    data.records.append(ResidualRecord(label, digits, residual_str(residual, digits), ok))


# ---------------------------------------------------------------------------
# closed forms: each side is c times a product of rational powers of factors
# ---------------------------------------------------------------------------


def _at_each_r(sides: Callable[[Fraction, int], tuple[BigReal, BigReal]]):
    """A closed-form check: lhs - rhs, with (lhs, rhs) from ``sides(r,
    digits)``, at every r, relative to the larger side."""

    def run(entry, digits, M, r_list):
        data = CheckData()
        for r in r_list:
            lhs, rhs = sides(r, digits)
            _record(data, f"r={r}", digits, lhs - rhs, lhs, rhs)
        return data

    return run


# the named factors at a point ep, given the value of any other named factor
_POINT_FACTORS = {
    "q": lambda ep, digits, value: ep.q,
    "k": lambda ep, digits, value: ep.k,
    "k'": lambda ep, digits, value: ep.kprime,
    # the paper's k11 = k_r, k12 = k'_r, k21 = k_4r and k22 = k'_4r; its
    # k21 = (2 - k11^2 - 2 k12)/k11^2 is the Landen descent of k11, taken
    # from landen_k4, whose form has no cancellation as k11 -> 0
    "k4": lambda ep, digits, value: landen_k4(ep.k),
    "k4'": lambda ep, digits, value: (1 - value("k4") ** 2).sqrt(),
    "K/pi": lambda ep, digits, value: ellipk(ep.k) / pi_at(digits),
    "1-k": lambda ep, digits, value: 1 - ep.k,
    "1+k": lambda ep, digits, value: 1 + ep.k,
    "1-k^2": lambda ep, digits, value: 1 - ep.k ** 2,
    # thm2's 2 + k - 2 sqrt(1+k) = (sqrt(1+k) - 1)^2 = (k / (1 + sqrt(1+k)))^2,
    # a form that does not cancel as k -> 0
    "1+sqrt(1+k)": lambda ep, digits, value: 1 + (1 + ep.k).sqrt(),
}


def _factor(factor, ep, digits: int, value) -> BigReal:
    """One factor at the point ep: an integer, a named point value or
    binomial, or ("theta", a, b, alternating), ("eta", p) or ("A", a, p) at
    the point's nome."""
    if isinstance(factor, int):
        return big_real(factor, digits)
    if isinstance(factor, str):
        return _POINT_FACTORS[factor](ep, digits, value)
    kind, *args = factor
    if kind == "theta":
        a, b, alternating = args
        return theta_sum(a, b, ep.q, digits, alternating=alternating)
    if kind == "eta":
        return eval_eta(args[0], ep.q, digits)
    return eval_A(ThetaSpec(*args), ep.q, digits)


def _side(c, factors, value, digits: int) -> BigReal:
    """c times the product of x^e over the (x, e) ``factors``, with one root:
    the integer powers as they are, times (prod x^(e D))^(1/D) over the
    fractional ones, D the lcm of their denominators."""
    D = math.lcm(*(Fraction(e).denominator for _, e in factors))
    whole, inner = big_real(c, digits), big_real(1, digits)
    for x, e in factors:
        if Fraction(e).denominator == 1:
            whole *= value(x) ** int(e)
        else:
            inner *= value(x) ** int(e * D)
    return whole * inner ** Fraction(1, D)


def _sides_at(sides, r, digits: int) -> tuple[BigReal, BigReal]:
    """Both sides of a closed form's data at singular_point(r, digits), each
    factor evaluated once."""
    ep = singular_point(r, digits)
    values = {}

    def value(factor):
        if factor not in values:
            values[factor] = _factor(factor, ep, digits, value)
        return values[factor]

    return tuple(_side(c, factors, value, digits) for c, factors in sides)


def _check_sides(entry, digits, M, r_list):
    """A closed form written as data: its two ``sides`` at every r."""
    return _at_each_r(partial(_sides_at, entry.sides))(entry, digits, M, r_list)


def _eq27(r, digits):
    # the nome alone: nothing here needs the modulus, so r beyond the reach
    # of singular_modulus's certification still gets a residual
    q = nome_from_r(r, digits)
    u = eval_A(ThetaSpec(1, 4), q, digits)
    v = eval_A(ThetaSpec(1, 4), q * q, digits)
    return 16 * u ** 8 + u ** 16 * v ** 8, v ** 16


def _check_thm3(entry, digits, M, r_list):
    data = CheckData()
    points = [
        ("x=0.3", big_real(Fraction(3, 10), digits)),
        ("x=1/sqrt2", big_real(Fraction(1, 2), digits).sqrt()),
        ("x=0.6", big_real(Fraction(3, 5), digits)),
    ]
    for label, x in points:
        _record(data, label, digits, check_theorem3_instance(x))
    return data


# eq45's multiplier M = theta3(q^i)^2 / theta3(q^j)^2, for one of the two
# orders (i, j) of the nome scales 1 and 5
_EQ45_M = {(1, 5): "theta3_sq_ratio(q,q5)", (5, 1): "theta3_sq_ratio(q5,q)"}


def _eq45(i: int, j: int, r, digits):
    ep = singular_point(r, digits)
    t3 = {s: theta_sum(1, 0, ep.q ** s, digits, alternating=False) for s in (1, 5)}
    m5 = (t3[i] / t3[j]) ** 2
    m = ep.k ** 2
    return (5 * m5 - 1) ** 5 * (1 - m5), 256 * m * (1 - m) * m5


def _check_eq45(entry, digits, M, r_list):
    """The exact series picks the convention, and only its numerics run.

    With x = theta3(q^i)^2 and y = theta3(q^j)^2, so that M = x/y, and with
    m m' = c / a^4, where a = theta3(q)^2 and c = q t2^4 t4^4 (t2 =
    q^(-1/4) theta2, t4 = theta4), the relation times y^6 a^4 reads
    a^4 (5x - y)^5 (y - x) = 256 c x y^5, with no series inverted."""
    t3sq = {s: theta_series(s, 0, M, alternating=False) ** 2 for s in (1, 5)}
    a = t3sq[1]
    t2t4 = theta_series(1, 1, M, alternating=False) * theta_series(1, 0, M)
    c = PuiseuxSeries.monomial(1, 1) * t2t4 ** 4
    residuals = {
        (i, j): a ** 4 * (5 * t3sq[i] - t3sq[j]) ** 5 * (t3sq[j] - t3sq[i])
        - 256 * c * t3sq[i] * t3sq[j] ** 5
        for i, j in _EQ45_M
    }
    winners = [ij for ij, res in residuals.items() if res.is_zero()]
    if len(winners) != 1:
        names = [_EQ45_M[ij] for ij in winners]
        return CheckData(
            series_ok=False,
            notes=f"conventions whose series residual vanishes: {names!r} "
            "(expected exactly one)",
        )
    (i, j), = winners
    data = _at_each_r(partial(_eq45, i, j))(entry, digits, M, r_list)
    order = residuals[i, j].knowledge_order()
    data.notes = (
        f"multiplier convention satisfying the relation: {_EQ45_M[i, j]}; "
        f"its series residual is zero below q^{order}, the other's is not"
    )
    return data


# ---------------------------------------------------------------------------
# series identities
# ---------------------------------------------------------------------------


def _check_eq32(entry, digits, M, r_list):
    data = CheckData()
    q_order = M // 2 + 2
    lhs = sqrt_series(modulus_series(q_order))
    rhs = nome_sqrt_exp_form(q_order)
    agree = lhs.agrees_with(rhs)
    known = common_known_order(lhs, rhs)
    data.series_ok = bool(agree and known >= M)
    data.series_order = int(known)
    data.notes = "sqrt of the squared-modulus series vs the divisor-sum exp form"
    return data


JTP_PAIRS = (
    ThetaSpec(1, 4),
    ThetaSpec(1, 3),
    ThetaSpec(-1, 6),
    ThetaSpec(-2, 8),
    ThetaSpec(1, 5),
    ThetaSpec(Fraction(1, 2), 4),
    ThetaSpec(Fraction(1, 2), 2),
)


def _check_jtp(entry, digits, M, r_list):
    data = CheckData()
    q_order = 26
    min_known = None
    ok = True
    for spec in JTP_PAIRS:
        via_theta = A_series(spec, q_order)
        via_product = A_series_product(spec, q_order)
        agree = via_theta.agrees_with(via_product)
        known_grid = common_known_order(via_theta, via_product)
        ok = ok and agree and known_grid >= 200
        if min_known is None or known_grid < min_known:
            min_known = known_grid
    # the (8, 6) quotient has a negative product exponent at n = 0; its two
    # constructions are compared numerically instead
    spec86 = ThetaSpec(8, 6)
    q = nome_from_r(1, digits)
    direct = eval_A(spec86, q, digits)
    # the series is cut at q^order = e^(-pi order) below the working precision
    order = math.ceil((digits + GUARD) * math.log(10) / math.pi)
    series_val = real_eval_series(A_series(spec86, order), q)
    _record(data, "(8,6) two-path r=1", digits, direct - series_val, direct)
    data.series_ok = bool(ok)
    data.series_order = int(min_known)
    data.notes = "theta/eta form vs n>=0 product form for seven parameter pairs"
    return data


PREFACTOR_CASES = (
    (ThetaSpec(1, 4), Fraction(1, 24)),
    (ThetaSpec(1, 3), Fraction(1, 12)),
    (ThetaSpec(8, 6), Fraction(-11, 6)),
    (ThetaSpec(-1, 6), Fraction(-13, 12)),
    (ThetaSpec(-2, 8), Fraction(-23, 12)),
    (ThetaSpec(1, 5), Fraction(-1, 60)),
    (ThetaSpec(Fraction(1, 2), 4), Fraction(-11, 96)),
    (ThetaSpec(Fraction(1, 2), 2), Fraction(1, 48)),
)


def _check_prefactors(entry, digits, M, r_list):
    data = CheckData()
    bad = [
        f"(a={spec.a}, p={spec.p})"
        for spec, printed in PREFACTOR_CASES
        if -spec.delta != printed
    ]
    data.series_ok = not bad
    data.notes = (
        "printed prefactor exponents all equal -delta(a, p)"
        if not bad
        else f"prefactor mismatch at {', '.join(bad)}"
    )
    return data


# ---------------------------------------------------------------------------
# polynomial relation entries
# ---------------------------------------------------------------------------


def _check_poly_relation(entry, digits, M, r_list):
    data = CheckData()
    # series residual through M grid rows above the base monomial exponent
    u, v = build_binding_series(entry.u_binding, entry.v_binding, Fraction(M))
    ok = _first_nonzero(entry.poly, u, v, M) is None
    data.series_ok = ok
    data.series_order = M if ok else None
    if not ok:
        data.notes = "series residual is nonzero within the checked window"
    for r in r_list:
        uval = entry.u_binding.numeric(r, digits)
        vval = get_v_binding(entry.v_binding).numeric(r, digits)
        terms = entry.poly.eval_terms(uval, vval)
        _record(data, f"r={r}", digits, sum(terms[1:], terms[0]), *terms)
    return data


TABLE1_POLY = BivarIntPoly.normalized(
    [
        (4, 5, 1), (4, 4, -4), (4, 3, 6), (4, 2, -4), (4, 1, 1),
        (3, 6, -16), (3, 5, 84), (3, 4, -12480), (3, 3, -40712),
        (3, 2, -12480), (3, 1, 84), (3, 0, -16),
        (2, 5, 196830), (2, 4, -787320), (2, 3, 1180980),
        (2, 2, -787320), (2, 1, 196830),
        (1, 5, 19131876), (1, 4, -76527504), (1, 3, 114791256),
        (1, 2, -76527504), (1, 1, 19131876),
        (0, 5, 387420489), (0, 4, -1549681956), (0, 3, 2324522934),
        (0, 2, -1549681956), (0, 1, 387420489),
    ]
)

TABLE2_POLY = BivarIntPoly.normalized(
    [
        (8, 4, 1), (8, 2, -1), (6, 6, 16), (6, 4, -24), (6, 2, -24),
        (6, 0, 16), (4, 4, -486), (4, 2, 486), (0, 4, -19683), (0, 2, 19683),
    ]
)

TABLE3_POLY = BivarIntPoly.normalized(
    [
        (4, 3, 1), (4, 1, -1), (3, 2, 16), (2, 3, -18), (2, 1, 18),
        (1, 4, 4), (1, 2, -8), (1, 0, 4), (0, 3, 1), (0, 1, -1),
    ]
)

TABLE4_POLY = BivarIntPoly.normalized(
    [(4, 1, -1), (2, 1, -64), (0, 2, 256), (0, 1, -512), (0, 0, 256)]
)

TABLE5_POLY = BivarIntPoly.normalized(
    [
        (4, 0, 1), (0, 11, 1), (0, 10, 55), (0, 9, 1205), (0, 8, 13090),
        (0, 7, 69585), (0, 6, 134761), (0, 5, -69585), (0, 4, 13090),
        (0, 3, -1205), (0, 2, 55), (0, 1, -1),
    ]
)


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------


def _entries() -> list[CatalogEntry]:
    F = Fraction
    entries: list[CatalogEntry] = []

    def closed_form(eid, statement, lhs, rhs, **kwargs):
        entries.append(
            CatalogEntry(
                eid, "closed_form", statement, _check_sides, sides=(lhs, rhs), **kwargs
            )
        )

    for s in (0, 1, 2):
        closed_form(
            f"eq11_s{s}",
            f"bilateral sum of q^(n^2+{2 * s}n) equals q^(-{s * s}) sqrt(2K(k)/pi)",
            (1, ((("theta", 1, 2 * s, False), 1),)),
            (1, (("q", -s * s), (2, F(1, 2)), ("K/pi", F(1, 2)))),
        )
    for s in (0, 1):
        m = 2 * s + 1
        closed_form(
            f"eq12_s{s}",
            f"bilateral sum of q^(n^2+{m}n) via the k11/k12/k21/k22 chain",
            (1, ((("theta", 1, m, False), 1),)),
            (1, (
                (2, F(5, 6)), ("q", F(-m * m, 4)), ("k", F(1, 6)), ("k'", F(1, 6)),
                ("k4", F(1, 6)), ("k4'", F(-1, 3)), ("K/pi", F(1, 2)),
            )),
        )
    closed_form(
        "eq13",
        "eta(q)^8 = 2^(8/3) pi^-4 q^(-1/3) k^(2/3) k'^(8/3) K^4",
        (1, ((("eta", 1), 8),)),
        (1, (
            (2, F(8, 3)), ("K/pi", 4), ("q", F(-1, 3)), ("k", F(2, 3)), ("k'", F(8, 3)),
        )),
    )
    closed_form(
        "eq15_as_printed",
        "A(1,4;q)^24 = 16(1-k^2)/k^2 (printed form; fails)",
        (1, ((("A", 1, 4), 24),)),
        (16, (("1-k^2", 1), ("k", -2))),
        status_expectation="known_discrepancy",
    )
    closed_form(
        "eq15_corrected",
        "A(1,4;q)^24 = 16(1-k^2)^2/k^2 (corrected form)",
        (1, ((("A", 1, 4), 24),)),
        (16, (("1-k^2", 2), ("k", -2))),
    )
    closed_form(
        "thm1",
        "alternating sum of q^(2n^2+n) equals q^(1/24) eta(q^4) (4(1-k^2)/k)^(1/12)",
        (1, ((("theta", 2, 1, True), 1),)),
        (1, (
            ("q", F(1, 24)), (("eta", 4), 1), (4, F(1, 12)), ("1-k^2", F(1, 12)),
            ("k", F(-1, 12)),
        )),
    )
    closed_form(
        "eq18",
        "A(1/2,2;q) = (4(1-k)^4 / (k(1+k)^2))^(1/24)",
        (1, ((("A", F(1, 2), 2), 1),)),
        (1, ((4, F(1, 24)), ("1-k", F(1, 6)), ("k", F(-1, 24)), ("1+k", F(-1, 12)))),
    )
    closed_form(
        "thm2",
        "alternating sum of q^(2n^2+3n/2) equals q^(-11/96) eta(q^4) "
        "(4(1-k)^4 (2+k-2 sqrt(1+k))^12 / (k^13 (1+k)^2))^(1/48)",
        (1, ((("theta", 2, F(3, 2), True), 1),)),
        (1, (
            ("q", F(-11, 96)), (("eta", 4), 1), (4, F(1, 48)), ("1-k", F(1, 12)),
            ("k", F(11, 48)), ("1+sqrt(1+k)", F(-1, 2)), ("1+k", F(-1, 24)),
        )),
    )
    entries.append(
        CatalogEntry(
            id="eq27",
            kind="closed_form",
            statement="degree-2 modular equation 16u^8 + u^16 v^8 - v^16 = 0 "
            "for the (1,4) quotient at nomes (q, q^2)",
            check=_at_each_r(_eq27),
        )
    )
    entries.append(
        CatalogEntry(
            id="thm3_instance",
            kind="closed_form",
            statement="functional equation Q(S_2(x)) = P_2(Q(x)) for the "
            "(1,4) quotient, rearranged to avoid inverting Q",
            check=_check_thm3,
        )
    )
    entries.append(
        CatalogEntry(
            id="eq32",
            kind="series_identity",
            statement="sqrt of the squared-modulus series equals "
            "4 q^(1/2) exp(-4 sum q^n sum_{d|n} (-1)^(d+n/d)/d)",
            check=_check_eq32,
        )
    )
    entries.append(
        CatalogEntry(
            id="table1",
            kind="poly_relation",
            statement="relation between u = A(1,3;q)^12 and v = m(q)",
            check=_check_poly_relation,
            poly=TABLE1_POLY,
            u_binding=ABinding(ThetaSpec(1, 3), 12),
            v_binding="m",
        )
    )
    entries.append(
        CatalogEntry(
            id="table2",
            kind="poly_relation",
            statement="printed relation between u = A(8,6;q)^6 and v = k "
            "(fails; the printed polynomial matches u = A(8,6;q)^3)",
            check=_check_poly_relation,
            poly=TABLE2_POLY,
            u_binding=ABinding(ThetaSpec(8, 6), 6),
            v_binding="sqrt_m",
            remine=RemineSpec(
                ABinding(ThetaSpec(8, 6), 6),
                "sqrt_m",
                7,
                note="re-mined with u = A(8,6;q)^6 as printed; the result is "
                "the printed polynomial with all u-exponents halved",
            ),
            status_expectation="known_discrepancy",
        )
    )
    entries.append(
        CatalogEntry(
            id="table3",
            kind="poly_relation",
            statement="relation between u = A(-1,6;q)^6 and v = k",
            check=_check_poly_relation,
            poly=TABLE3_POLY,
            u_binding=ABinding(ThetaSpec(-1, 6), 6),
            v_binding="sqrt_m",
        )
    )
    entries.append(
        CatalogEntry(
            id="table4",
            kind="poly_relation",
            statement="relation between u = A(-2,8;q)^12 and v = m(q^2)^2",
            check=_check_poly_relation,
            poly=TABLE4_POLY,
            u_binding=ABinding(ThetaSpec(-2, 8), 12),
            v_binding="m_q2_squared",
        )
    )
    entries.append(
        CatalogEntry(
            id="table5",
            kind="poly_relation",
            statement="printed pairing u = A(1,5;q^2)^15 with v = eta5(q^4)^5 "
            "(fails; the polynomial holds when u and v share one argument)",
            check=_check_poly_relation,
            poly=TABLE5_POLY,
            u_binding=ABinding(ThetaSpec(1, 5), 15, Fraction(2)),
            v_binding="eta5_q4_pow5",
            remine=RemineSpec(
                ABinding(ThetaSpec(1, 5), 15, Fraction(4)),
                "eta5_q4_pow5",
                12,
                note="re-mined with the nome of u aligned to the q^4 argument "
                "of v; the mined polynomial is the printed one verbatim",
            ),
            status_expectation="known_discrepancy",
        )
    )
    entries.append(
        CatalogEntry(
            id="eq45",
            kind="closed_form",
            statement="(5 M5 - 1)^5 (1 - M5) = 256 m m' M5 fixes the degree-5 "
            "multiplier convention (the exact series picks one of the two "
            "theta-quotient candidates)",
            check=_check_eq45,
        )
    )
    entries.append(
        CatalogEntry(
            id="jtp_consistency",
            kind="series_identity",
            statement="triple-product consistency of the quotient's two "
            "constructions",
            check=_check_jtp,
        )
    )
    entries.append(
        CatalogEntry(
            id="prefactor_consistency",
            kind="series_identity",
            statement="printed prefactor exponents equal -delta(a, p)",
            check=_check_prefactors,
        )
    )
    return entries


_CATALOG: dict[str, CatalogEntry] = {e.id: e for e in _entries()}
_ORDER: list[str] = list(_CATALOG)


def catalog_ids() -> list[str]:
    return list(_ORDER)


def get_entry(entry_id: str) -> CatalogEntry:
    if entry_id not in _CATALOG:
        raise KeyError(
            f"unknown catalog entry {entry_id!r}; known ids: {', '.join(_ORDER)}"
        )
    return _CATALOG[entry_id]


def verify_entry(
    entry_id: str,
    digits: int = 60,
    M: int = 150,
    r_list: Sequence[Fraction | int] = (1, 2, 3),
) -> EntryReport:
    """Run one entry's checks; a numeric residual passes by
    ``mining.passes``."""
    entry = get_entry(entry_id)
    rs = [Fraction(r) for r in r_list]
    data = entry.check(entry, digits, M, rs)
    passed = data.series_ok and all(rec.passed for rec in data.records)
    if passed:
        verdict = "pass"
    elif entry.status_expectation == "known_discrepancy":
        verdict = "flagged"
    else:
        verdict = "fail"
    notes = data.notes
    if verdict == "flagged" and not notes:
        notes = "known discrepancy confirmed"
    return EntryReport(
        id=entry.id,
        verdict=verdict,
        residuals=tuple(data.records),
        series_order=data.series_order,
        notes=notes,
        remined=None,
    )


def remine_entry(entry_id: str, digits: int = 60) -> MinedRelation:
    """Mine a replacement relation for a flagged polynomial entry, validated
    by the miner's own contract before being returned."""
    entry = get_entry(entry_id)
    if entry.remine is None:
        raise ValueError(f"entry {entry_id!r} has no re-mining recipe")
    spec = entry.remine
    return mine(
        None,
        None,
        spec.s_max,
        u_binding=spec.u_binding,
        v_binding=spec.v_binding,
        digits=digits,
    )


def verify_entry_with_fallback(
    entry_id: str,
    digits: int = 60,
    M: int = 150,
    r_list: Sequence[Fraction | int] = (1, 2, 3),
) -> EntryReport:
    """verify_entry plus, for an entry with a re-mining recipe (the flagged
    tables 2 and 5), a re-mined replacement when it does not pass."""
    report = verify_entry(entry_id, digits, M, r_list)
    recipe = get_entry(entry_id).remine
    if report.verdict == "pass" or recipe is None:
        return report
    lead = report.notes + "; " if report.notes else ""
    try:
        remined = remine_entry(entry_id, digits)
    except MiningError as exc:
        return replace(report, verdict="fail", notes=f"{lead}re-mining failed: {exc}")
    return replace(report, verdict="flagged", notes=lead + recipe.note, remined=remined)


def verify_all(
    digits: int = 60,
    M: int = 150,
    r_list: Sequence[Fraction | int] = (1, 2, 3),
) -> Report:
    """Verify every catalog entry in turn; flagged entries with a re-mining
    recipe get a re-mined replacement attached."""
    rs = tuple(Fraction(r) for r in r_list)
    entries = tuple(verify_entry_with_fallback(eid, digits, M, rs) for eid in _ORDER)
    return Report(digits=digits, order=M, r_list=rs, entries=entries)
