"""Command-line front end.

Subcommands: ``eval`` (numeric values), ``series`` (exact expansions),
``mine`` (relation mining), ``recognize`` (algebraic recognition), and
``verify`` (catalog runs with JSON reports).  Rationals are passed as
"num/den" strings or decimal literals; exact paths never touch binary
floats.  Exit codes: 0 all requested checks pass, 1 verification failures
present, 2 usage, domain or file errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .recognize import NotFound, recognize as recognize_poly
from .numeric import (
    BigReal,
    CertificationError,
    MIN_DIGITS,
    big_real,
    ellipk,
    eval_A,
    eval_eta,
    eval_eta5,
    eval_h5,
    inverse_modulus,
    nome_from_r,
    singular_modulus,
    theta_sum,
)
from .values import ThetaSpec

MIN_ORDER = 40
MAX_DIGITS = 5000
# the names of mining.V_BINDINGS, so that building the parser needs no
# mining import (tests/test_layers.py pins them to the registry)
V_NAMES = ("eta5_q4_pow5", "m", "m_q2_squared", "sqrt_m")


class UsageError(Exception):
    pass


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse rational {text!r}: {exc}") from exc


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _nome(args, digits: int) -> BigReal:
    if args.r is not None:
        r = parse_rational(args.r)
        _require(r > 0, "--r must be positive")
        return nome_from_r(r, digits)
    if args.q is not None:
        q = big_real(args.q, digits)
        _require(0 < q < 1, "--q must lie in (0, 1)")
        return q
    raise UsageError("provide a nome via --r or --q")


def _cmd_eval(args) -> int:
    digits = args.digits
    fn = args.fn
    if fn == "K":
        _require(args.x is not None, "eval --fn K needs --x (the modulus)")
        value = ellipk(big_real(parse_rational(args.x), digits))
    elif fn == "k":
        _require(args.r is not None, "eval --fn k needs --r")
        value = singular_modulus(parse_rational(args.r), digits).k
    elif fn == "ki":
        _require(args.x is not None, "eval --fn ki needs --x")
        value = inverse_modulus(big_real(parse_rational(args.x), digits))
    elif fn == "eta":
        scale = parse_rational(args.p) if args.p is not None else Fraction(1)
        value = eval_eta(scale, _nome(args, digits), digits)
    elif fn == "theta":
        _require(args.a is not None and args.b is not None, "theta needs --a and --b")
        value = theta_sum(
            parse_rational(args.a), parse_rational(args.b), _nome(args, digits), digits
        )
    elif fn == "A":
        _require(args.a is not None and args.p is not None, "A needs --a and --p")
        spec = ThetaSpec(parse_rational(args.a), parse_rational(args.p))
        value = eval_A(spec, _nome(args, digits), digits)
    elif fn == "h5":
        value = eval_h5(_nome(args, digits), digits)
    elif fn == "eta5":
        value = eval_eta5(_nome(args, digits), digits)
    elif fn == "Sn":
        _require(args.n is not None and args.x is not None, "Sn needs --n and --x")
        from .modular import s_n

        value = s_n(big_real(parse_rational(args.x), digits), args.n, digits)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown function {fn!r}")
    print(value.nstr(digits))
    return 0


def _build_series(args) -> PuiseuxSeries:
    from .series import (A_series, eta5_series, eta_series, h5_series,
                          modulus_series, rescale, theta_series)

    order = Fraction(args.order)
    fn = args.fn
    if fn == "eta":
        scale = parse_rational(args.p) if args.p is not None else Fraction(1)
        ser = eta_series(scale, order)
    elif fn == "theta":
        _require(args.a is not None and args.b is not None, "theta needs --a and --b")
        ser = theta_series(parse_rational(args.a), parse_rational(args.b), order)
    elif fn == "m":
        ser = modulus_series(order)
    elif fn == "A":
        _require(args.a is not None and args.p is not None, "A needs --a and --p")
        ser = A_series(ThetaSpec(parse_rational(args.a), parse_rational(args.p)), order)
    elif fn == "h5":
        ser = h5_series(order)
    elif fn == "eta5":
        ser = eta5_series(order)
    else:  # pragma: no cover
        raise UsageError(f"unknown series {fn!r}")
    if args.scale is not None:
        ser = rescale(ser, parse_rational(args.scale))
    return ser


def _cmd_series(args) -> int:
    import json

    _require(args.order >= 1, "--order must be positive")
    ser = _build_series(args)
    print(ser.to_str())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(ser.to_json_obj(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {args.json} ({len(ser.nums)} terms)", file=sys.stderr)
    return 0


def _cmd_mine(args) -> int:
    from . import mining

    _require(args.max_degree >= 1, "--max-degree must be at least 1")
    spec = ThetaSpec(parse_rational(args.a), parse_rational(args.p))
    qscale = parse_rational(args.qscale) if args.qscale else Fraction(1)
    binding = mining.ABinding(spec, args.power, qscale)
    try:
        rel = mining.mine(
            None, None, args.max_degree, u_binding=binding, v_binding=args.v,
            digits=args.digits,
        )
    except mining.MiningError as exc:
        raise UsageError(str(exc)) from exc
    print(f"relation: {rel.poly}")
    print(f"degree: {rel.degree}; series rows certified: {rel.validated_grid_order}")
    for chk in rel.numeric_checks:
        print(f"numeric residual at r={chk.r}: {chk.residual} ({chk.digits} digits)")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rel.to_json())
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_recognize(args) -> int:
    import json

    digits = args.digits
    quotient = (args.a, args.p, args.power, args.r)
    if args.literal is not None:
        _require(quotient == (None,) * 4, "--value excludes --a, --p, --power and --r")
        x = big_real(args.literal, digits)
        _require(abs(x) < float("inf"), "--value must be a finite real number")
    else:
        _require(None not in quotient, "recognize needs --value or --a --p --power --r")
        spec = ThetaSpec(parse_rational(args.a), parse_rational(args.p))
        q = nome_from_r(parse_rational(args.r), digits)
        x = eval_A(spec, q, digits) ** args.power
    try:
        poly = recognize_poly(x, args.max_degree, digits)
    except NotFound as exc:
        print(f"NotFound: {exc}")
        return 1
    print(f'polynomial "{poly}"')
    print("coefficients (low degree first):", json.dumps(poly.to_json_obj()))
    return 0


def _cmd_verify(args) -> int:
    from . import catalog
    from .mining import MiningError

    digits = args.digits
    _require(args.order >= MIN_ORDER, f"--order must be at least {MIN_ORDER}")
    rs = tuple(parse_rational(tok) for tok in args.rs.split(","))
    _require(all(r > 0 for r in rs), "all r values must be positive")
    try:
        if args.all:
            report = catalog.verify_all(digits=digits, M=args.order, r_list=rs)
            entries = report.entries
        else:
            entry_report = catalog.verify_entry_with_fallback(
                args.entry, digits, args.order, rs
            )
            entries = (entry_report,)
            report = catalog.Report(
                digits=digits, order=args.order, r_list=rs, entries=entries
            )
    except MiningError as exc:
        raise UsageError(str(exc)) from exc
    for e in entries:
        extra = f" series_order={e.series_order}" if e.series_order is not None else ""
        print(f"{e.id}: {e.verdict}{extra}" + (f" ({e.notes})" if e.notes else ""))
        if e.remined is not None:
            print(f"  re-mined replacement: {e.remined.poly}")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"wrote {args.report}", file=sys.stderr)
    return 1 if report.failures() else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetaquot",
        description="exact-arithmetic workbench for theta quotients: "
        "evaluation, series expansion, relation mining, algebraic "
        "recognition, and identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a function at high precision")
    p_eval.add_argument(
        "--fn",
        required=True,
        choices=["K", "k", "ki", "eta", "theta", "A", "h5", "eta5", "Sn"],
    )
    p_eval.add_argument("--a")
    p_eval.add_argument("--p")
    p_eval.add_argument("--b")
    p_eval.add_argument("--n", type=int)
    nome = p_eval.add_mutually_exclusive_group()
    nome.add_argument("--r")
    nome.add_argument("--q")
    p_eval.add_argument("--x")
    p_eval.add_argument("--digits", type=int, default=60)
    p_eval.set_defaults(func=_cmd_eval)

    p_series = sub.add_parser("series", help="expand an exact q-series")
    p_series.add_argument(
        "--fn", required=True, choices=["eta", "theta", "m", "A", "h5", "eta5"]
    )
    p_series.add_argument("--a")
    p_series.add_argument("--p")
    p_series.add_argument("--b")
    p_series.add_argument("--scale", help="substitute q -> q^scale afterwards")
    p_series.add_argument("--order", type=int, required=True)
    p_series.add_argument("--json", help="write the series as JSON to this file")
    p_series.set_defaults(func=_cmd_series)

    p_mine = sub.add_parser("mine", help="mine an integer relation P(u, v) = 0")
    p_mine.add_argument("--a", required=True)
    p_mine.add_argument("--p", required=True)
    p_mine.add_argument("--power", type=int, required=True)
    p_mine.add_argument("--qscale", help="nome scale of u (default 1)")
    p_mine.add_argument("--v", required=True, choices=V_NAMES)
    p_mine.add_argument("--max-degree", type=int, required=True)
    p_mine.add_argument("--digits", type=int, default=60)
    p_mine.add_argument("--out", help="write the relation as JSON to this file")
    p_mine.set_defaults(func=_cmd_mine)

    p_rec = sub.add_parser("recognize", help="find a small integer polynomial "
                           "vanishing at a real value")
    p_rec.add_argument(
        "--value", dest="literal", metavar="VALUE", help="decimal literal to recognize"
    )
    p_rec.add_argument("--a")
    p_rec.add_argument("--p")
    p_rec.add_argument("--power", type=int)
    p_rec.add_argument("--r")
    p_rec.add_argument("--max-degree", type=int, required=True)
    p_rec.add_argument("--digits", type=int, default=60)
    p_rec.set_defaults(func=_cmd_recognize)

    p_ver = sub.add_parser("verify", help="verify catalog entries")
    group = p_ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--entry", help="catalog entry id")
    group.add_argument("--all", action="store_true")
    p_ver.add_argument("--digits", type=int, default=60)
    p_ver.add_argument("--order", type=int, default=150)
    p_ver.add_argument("--rs", default="1,2,3", help="comma-separated r values")
    p_ver.add_argument("--report", help="write the JSON report to this file")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if "digits" in args:  # eval, mine, recognize and verify
            d = args.digits
            _require(d >= MIN_DIGITS, f"--digits must be at least {MIN_DIGITS}")
            _require(d <= MAX_DIGITS, f"--digits must be at most {MAX_DIGITS}")
        return args.func(args)
    except (UsageError, ValueError, KeyError, OSError, CertificationError) as exc:
        # a KeyError's str() is the repr of its message, quotes included
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
