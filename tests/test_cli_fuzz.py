"""The CLI's exit contract over drawn argv of all five subcommands.

``main`` returns and never raises.  Exit 1 comes only from ``verify`` with
a failing entry or from ``recognize`` finding nothing.  Exit 2 leaves
stdout empty and prints one ``error:`` line or an argparse usage.

The draws are bounded so that every example is cheap: nomes q <= 0.9 (the
direct sums slow down as q nears 1), digits <= 80, series orders <= 40,
``--max-degree`` <= 2, r < 10^9 (k_r's AGM takes seconds at r = 10^12) or
r = 10^400, and ``--n`` <= 10^3.
``eval`` and ``recognize`` draw a, b and p with decimal exponents up to
+-400, skipping -299..-3, where q^a or q^p lies so near 1 that the sums
take up to 10^6 terms: in range, but slow.  ``series`` draws a, b, p and
``--scale`` as small rationals or in the same way, skipping the same band,
where a theta series below q^40 has up to 10^6 terms a side.  ``mine``
draws a, p and ``--qscale`` as small rationals or with decimal exponents
of 300..400 either way, skipping -299..299: there the grid or the leading
exponent of u makes its rows, and so its series, up to 10^6 terms long.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from thetaquot.catalog import catalog_ids
from thetaquot.cli import main
from thetaquot.mining import V_BINDINGS

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def decimal(mantissas, exponents):
    return st.builds(lambda m, e: f"{m}e{e}", mantissas, exponents)


def sometimes(valid, invalid, one_in=8):
    """``invalid`` about one draw in ``one_in``, else ``valid``, so that most
    examples get past the argument checks to the computation."""
    return st.tuples(st.integers(1, one_in), valid, invalid).map(
        lambda t: t[2] if t[0] == one_in else t[1]
    )


WIDE = sometimes(
    decimal(st.integers(1, 9), st.integers(-400, -300) | st.integers(-2, 400)),
    st.sampled_from(["0", "-2", "-3/2", "x"]),
)
EXTREME = decimal(st.integers(1, 9), st.integers(-400, -300) | st.integers(300, 400))
SMALL = sometimes(st.sampled_from(["1", "2", "3", "1/2", "3/2", "5"]), st.sampled_from(["0", "-1", "x"]))
PERIOD = sometimes(st.sampled_from(["4", "3", "5", "6", "8"]), st.sampled_from(["0", "-1", "x"]))
NOME = sometimes(
    decimal(st.integers(1, 9), st.integers(-400, -1)),
    st.sampled_from(["0.9", "0", "1", "-0.5", "nan", "x"]),
)
R = sometimes(
    decimal(st.integers(1, 9), st.integers(-2, 8)),
    st.sampled_from(["1e400", "1/3", "0", "-1", "x"]),
)
MODULUS = sometimes(
    decimal(st.integers(1, 9), st.integers(-20, -1)),
    st.sampled_from(["1/2", "0", "1", "2", "-1"]),
)
DIGITS = sometimes(st.integers(20, 80), st.sampled_from([19, 5001]))
ORDER = sometimes(st.just(40), st.just(39))
DEGREE = sometimes(st.integers(1, 2), st.just(0))


def options(**draws):
    """Each named option as ``--name=value``, drawn three times in four and
    left out otherwise (``=`` keeps a negative value from reading as an
    option)."""
    present = {
        k: st.tuples(st.integers(1, 4), v).map(lambda t: None if t[0] == 4 else t[1])
        for k, v in draws.items()
    }
    return st.fixed_dictionaries(present).map(
        lambda d: [f"--{k}={v}" for k, v in d.items() if v is not None]
    )


def one_or_the_other(first, second):
    """The argv ``first`` or ``second``, and now and then both or neither."""
    return st.tuples(st.integers(0, 5), first, second).map(
        lambda t: [t[1], t[1], t[2], t[2], t[1] + t[2], []][t[0]]
    )


def check(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert (argv[0] == "verify" and ": fail" in out) or (
            argv[0] == "recognize" and out.startswith("NotFound: ")
        ), (argv, out)
    if code == 2:
        assert out == "", (argv, out)
        lines = err.splitlines()
        if lines and lines[0].startswith("usage: "):
            assert ": error: " in lines[-1], (argv, err)
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)


@FUZZ
@given(
    st.sampled_from(["K", "k", "ki", "eta", "theta", "A", "h5", "eta5", "Sn"]),
    options(a=WIDE, b=WIDE, p=WIDE, x=MODULUS, n=st.integers(-1, 1000), digits=DIGITS),
    one_or_the_other(R.map(lambda r: [f"--r={r}"]), NOME.map(lambda q: [f"--q={q}"])),
)
def test_eval(fn, opts, nome):
    check(["eval", f"--fn={fn}"] + opts + nome)


@FUZZ
@given(
    st.sampled_from(["eta", "theta", "m", "A", "h5", "eta5"]),
    st.integers(-1, 40),
    options(a=SMALL | WIDE, b=SMALL | WIDE, p=SMALL | WIDE, scale=SMALL | WIDE),
)
def test_series(fn, order, opts):
    check(["series", f"--fn={fn}", f"--order={order}"] + opts)


@FUZZ
@given(
    SMALL | EXTREME, PERIOD | EXTREME, st.integers(-2, 13),
    sometimes(st.sampled_from(sorted(V_BINDINGS)), st.just("k")),
    DEGREE, options(qscale=SMALL | EXTREME, digits=DIGITS),
)
def test_mine(a, p, power, v, degree, opts):
    check([
        "mine", f"--a={a}", f"--p={p}", f"--power={power}", f"--v={v}",
        f"--max-degree={degree}",
    ] + opts)


@FUZZ
@given(
    DEGREE,
    one_or_the_other(
        sometimes(WIDE, st.sampled_from(["0", "nan"])).map(lambda v: [f"--value={v}"]),
        st.tuples(WIDE, WIDE, st.integers(-30, 30), R).map(
            lambda t: [f"--a={t[0]}", f"--p={t[1]}", f"--power={t[2]}", f"--r={t[3]}"]
        ),
    ),
    options(digits=DIGITS),
)
def test_recognize(degree, quantity, opts):
    check(["recognize", f"--max-degree={degree}"] + quantity + opts)


@FUZZ
@given(
    st.sampled_from(list(catalog_ids()) + ["zzz"]),
    st.lists(st.sampled_from(["1", "2", "1/2", "3", "0", "-1", "x"]), min_size=1, max_size=2),
    ORDER,
    options(digits=DIGITS),
)
def test_verify(entry, rs, order, opts):
    check(["verify", f"--entry={entry}", f"--rs={','.join(rs)}", f"--order={order}"] + opts)
