"""The golden corpus: CLI outputs pinned byte for byte.

Each case is one ``thetaquot`` command, run in-process in an empty working
directory.  Its record is the exit status, stdout, stderr and every file
the command wrote.  ``tests/golden/<group>.txt`` holds the records of one
group, each under a ``#### <name>`` line, and tests/test_golden.py rebuilds
them and compares bytes.

Regenerate with ``PYTHONPATH=src python tests/golden_corpus.py``.  That is
a deliberate act: a change that regenerates lists every moved record in
CHANGES.md.  No golden value may be a known wrong one, so an ``eval`` case
enters only if its value at d digits equals its value at 2d + 20 digits
rounded to d.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath
from mpmath import mp

from thetaquot.cli import main

GOLDEN = Path(__file__).with_name("golden")
HEADER = "#### "

EVAL_FNS = {
    "theta(2,1)": ["--fn", "theta", "--a", "2", "--b", "1"],
    "theta(2,3/2)": ["--fn", "theta", "--a", "2", "--b", "3/2"],
    "A(1,4)": ["--fn", "A", "--a", "1", "--p", "4"],
    "k": ["--fn", "k"],
    "eta": ["--fn", "eta"],
    "eta5": ["--fn", "eta5"],
    "h5": ["--fn", "h5"],
}
EVAL_RS = ("1", "2", "3", "1/2", "300")
EVAL_QS = ("1/2", "0.1", "1e-20")  # for every function of a nome, so not k
EVAL_DIGITS = (60, 200)
EVAL_EXTRA = {
    "Sn n=2 x=0.3": ["--fn", "Sn", "--n", "2", "--x", "0.3", "--digits", "60"],
    "K x=1/2": ["--fn", "K", "--x", "1/2", "--digits", "60"],
}

SERIES_FNS = {
    "eta": ["--fn", "eta"],
    "m": ["--fn", "m"],
    "A(1,4)": ["--fn", "A", "--a", "1", "--p", "4"],
    "h5": ["--fn", "h5"],
    "eta5": ["--fn", "eta5"],
    "theta(2,1)": ["--fn", "theta", "--a", "2", "--b", "1"],
}
SERIES_ORDERS = (20, 60)

# the two README jobs, then tables 1-4 with the catalog's bindings (table 2
# with the cube of A(8,6), the power its printed polynomial belongs to)
MINE_JOBS = {
    "readme A(1,4)^12 m": [
        "--a", "1", "--p", "4", "--power", "12", "--v", "m",
        "--max-degree", "3",
    ],
    "readme A(1,5;q^4)^15 eta5_q4_pow5": [
        "--a", "1", "--p", "5", "--power", "15", "--qscale", "4",
        "--v", "eta5_q4_pow5", "--max-degree", "12",
    ],
    "table1": [
        "--a", "1", "--p", "3", "--power", "12", "--v", "m",
        "--max-degree", "7",
    ],
    "table2": [
        "--a", "8", "--p", "6", "--power", "3", "--v", "sqrt_m",
        "--max-degree", "12",
    ],
    "table3": [
        "--a=-1", "--p", "6", "--power", "6", "--v", "sqrt_m",
        "--max-degree", "6",
    ],
    "table4": [
        "--a=-2", "--p", "8", "--power", "12", "--v", "m_q2_squared",
        "--max-degree", "5",
    ],
}

RECOGNIZE_JOBS = {
    "readme A(1,4)^24 r=1": [
        "--a", "1", "--p", "4", "--power", "24", "--r", "1",
        "--digits", "80", "--max-degree", "4",
    ],
    "readme value": [
        "--value", "0.17157287525380990239662255210", "--max-degree", "4",
        "--digits", "28",
    ],
}

VERIFY_DIGITS = (60, 100, 200)


def _eval_cases() -> dict[str, list[str]]:
    cases = {}
    for label, fn in EVAL_FNS.items():
        for r in EVAL_RS:
            for d in EVAL_DIGITS:
                cases[f"{label} r={r} digits={d}"] = fn + ["--r", r, "--digits", str(d)]
        for q in EVAL_QS if label != "k" else ():
            for d in EVAL_DIGITS:
                cases[f"{label} q={q} digits={d}"] = fn + ["--q", q, "--digits", str(d)]
    cases.update(EVAL_EXTRA)
    return {name: ["eval"] + argv for name, argv in cases.items()}


def _series_cases() -> dict[str, list[str]]:
    cases = {}
    for label, fn in SERIES_FNS.items():
        for order in SERIES_ORDERS:
            for scale in (None, "4"):
                name = f"{label} order={order}" + (f" scale={scale}" if scale else "")
                argv = ["series"] + fn + ["--order", str(order)]
                if scale:
                    argv += ["--scale", scale]
                cases[name] = argv + ["--json", "series.json"]
    return cases


def cases(group: str) -> dict[str, list[str]]:
    """The argv of every case of ``group``, by name."""
    if group == "eval":
        return _eval_cases()
    if group == "series":
        return _series_cases()
    if group == "mine":
        return {
            name: ["mine"] + argv + ["--out", "relation.json"]
            for name, argv in MINE_JOBS.items()
        }
    if group == "recognize":
        return {name: ["recognize"] + argv for name, argv in RECOGNIZE_JOBS.items()}
    if group == "verify":
        return {
            f"all digits={d}": [
                "verify", "--all", "--digits", str(d), "--report", "report.json",
            ]
            for d in VERIFY_DIGITS
        }
    raise KeyError(group)


GROUPS = ("eval", "series", "mine", "recognize", "verify")


def run_case(argv: list[str]) -> str:
    """The record of one command: exit status, stdout, stderr and the files
    it wrote, in one text."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            parts = [f"exit {code}\n", "== stdout\n", out.getvalue()]
            parts += ["== stderr\n", err.getvalue()]
            for name in sorted(os.listdir()):
                parts += [f"== file {name}\n", Path(name).read_text()]
        finally:
            os.chdir(home)
    return "".join(parts)


def render(records: dict[str, str]) -> str:
    return "".join(f"{HEADER}{name}\n{text}" for name, text in records.items())


def read_group(group: str) -> dict[str, str]:
    """The records of ``group`` as the corpus holds them."""
    records: dict[str, str] = {}
    name = None
    for line in (GOLDEN / f"{group}.txt").read_text().splitlines(keepends=True):
        if line.startswith(HEADER):
            name = line[len(HEADER):-1]
            records[name] = ""
        else:
            records[name] += line
    return records


def _printed_value(argv: list[str]) -> str:
    record = run_case(argv)
    assert record.startswith("exit 0\n"), (argv, record)
    return record.split("== stdout\n")[1].split("\n")[0]


def _stable(argv: list[str]) -> bool:
    """Whether the value printed at d digits is the value at 2d + 20 digits
    rounded to d."""
    d = int(argv[argv.index("--digits") + 1])
    hi = list(argv)
    hi[hi.index("--digits") + 1] = str(2 * d + 20)
    with mp.workdps(2 * d + 60):
        rounded = mpmath.nstr(mpmath.mpf(_printed_value(hi)), d)
    return rounded == _printed_value(argv)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for group in GROUPS:
        argvs = cases(group)
        if group == "eval":
            dropped = [name for name, argv in argvs.items() if not _stable(argv)]
            for name in dropped:
                print(f"eval {name}: unstable under doubled digits, left out")
                del argvs[name]
        records = {name: run_case(argv) for name, argv in argvs.items()}
        (GOLDEN / f"{group}.txt").write_text(render(records))
        print(f"{group}: {len(records)} records", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
