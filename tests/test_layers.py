"""Layer contracts.

No module imports mpmath, except numeric.py inside the ``BigReal.value``
accessor, which hands tests and the benchmark an ``mpf``; no module reads
that accessor, and no launch of the CLI loads mpmath, dataclasses, inspect
or typing.  The reals are numeric.py's own integer type, reached through
``BigReal``'s operators and numeric's functions, and no module enters one
of mpmath's precision contexts or reads its ambient precision.

Only sparse units are inverted: ``invert_unit`` runs a recurrence whose cost
grows with the unit's number of terms, so every series the package builds
hands it a theta or eta series, never a dense one.

The miner eliminates its coefficient matrix block by block: on a table of
stride g, a column visits only the rows of its lead's class mod g.

The product form is built on its own: ``A_series_product`` reaches no theta,
eta or inverse construction and no series product, so comparing it with
``A_series`` compares two independent constructions."""

import ast
import math
import os
import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

import pytest

import thetaquot
import thetaquot.series as series_module
from thetaquot import mining
from thetaquot.catalog import JTP_PAIRS, remine_entry
from thetaquot.mining import ABinding
from thetaquot.series import ThetaSpec

PACKAGE = Path(thetaquot.__file__).parent
MPMATH_NAMES = {"mpmath", "mp", "mpf"}
CONTEXTS = {"workdps", "workprec", "extradps", "extraprec"}
AMBIENT = {"prec", "dps", "pi"}  # read from mp: the ambient precision, or pi at it
CONTEXT_OWNERS = {"mp", "mpmath", "mpmath.mp"}


def scan(path: Path) -> tuple[list[str], list[str]]:
    """Each import of mpmath (or of its names through another module), and
    each precision context or read of the ambient precision, as
    ``line: source``."""
    tree = ast.parse(path.read_text(), str(path))
    imports, contexts = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit, uses = any(a.name.split(".")[0] == "mpmath" for a in node.names), imports
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[0] == "mpmath" or any(
                a.name in MPMATH_NAMES for a in node.names
            )
            uses = imports
        elif isinstance(node, ast.Attribute):
            hit = node.attr in CONTEXTS or (
                node.attr in AMBIENT and ast.unparse(node.value) in CONTEXT_OWNERS
            )
            uses = contexts
        else:
            continue
        if hit:
            uses.append(f"{node.lineno}: {ast.unparse(node)}")
    return imports, contexts


MODULES = sorted(PACKAGE.glob("*.py"))


def accessor_lines(path: Path) -> set[int]:
    """The lines of every function named ``value``."""
    tree = ast.parse(path.read_text(), str(path))
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "value"
        for line in range(node.lineno, node.end_lineno + 1)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_numeric_imports_mpmath(path):
    imports = scan(path)[0]
    if path.name == "numeric.py":
        assert imports  # the accessor's: the scan must see it
        inside = accessor_lines(path)
        outside = [i for i in imports if int(i.split(":")[0]) not in inside]
        assert outside == [], "numeric.py imports mpmath outside BigReal.value"
    else:
        assert imports == [], f"{path.name} reaches mpmath outside numeric.py"


# the CLI jobs a launch must run without loading mpmath: the README's
# recognize and mine jobs among them
LAUNCH_JOBS = [
    ["eval", "--fn", "k", "--r", "2"],
    ["series", "--fn", "m", "--order", "20"],
    ["verify", "--entry", "table4"],
    ["recognize", "--value", "0.17157287525380990239662255210", "--max-degree", "4",
     "--digits", "28"],
    ["mine", "--a", "1", "--p", "4", "--power", "12", "--v", "m", "--max-degree", "3",
     "--out", "rel.json"],
]
LAUNCH = """
import sys
import thetaquot.cli as cli

def check(after):
    loaded = sorted({forbidden!r} & set(sys.modules))
    assert not loaded, f"{{after}} loaded {{loaded}}"

check("import thetaquot.cli")
for argv in {jobs!r}:
    assert cli.main(argv) == 0, argv
    check(argv)
"""


def run_script(tmp_path, script: str, *flags: str) -> str:
    """Run ``script`` in a fresh interpreter that finds this package; its
    standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent)] + sys.path)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def launch(tmp_path, forbidden: set[str], *flags: str) -> None:
    """Import the CLI and run every ``LAUNCH_JOBS`` command in one fresh
    interpreter, checking after each that no ``forbidden`` module is loaded."""
    run_script(tmp_path, LAUNCH.format(jobs=LAUNCH_JOBS, forbidden=forbidden), *flags)
    assert (tmp_path / "rel.json").exists()


def test_no_launch_loads_mpmath(tmp_path):
    launch(tmp_path, {"mpmath"})


def test_no_launch_loads_dataclasses_or_typing(tmp_path):
    # their import and a dataclass's generated methods cost more than the
    # package's own start-up; -S leaves out site, whose .pth files may
    # import typing before any code of the package runs
    launch(tmp_path, {"dataclasses", "inspect", "typing"}, "-S")


# the package's modules that every launch loads (CORE) and those that a
# subcommand imports only when it runs (LAZY), and which of LAZY and json
# each launch loads: the import alone (no argv) and eval load none of them,
# and only series, mine and verify load series
CORE = {"cli", "numeric", "recognize", "values"}
LAZY = {"catalog", "mining", "modular", "series"}
LOADS = [
    ([], set()),
    (LAUNCH_JOBS[0], set()),
    (["eval", "--fn", "A", "--a", "1", "--p", "4", "--r", "2"], set()),
    (LAUNCH_JOBS[3], {"json"}),
    (["recognize", "--a", "1", "--p", "4", "--power", "12", "--r", "2", "--max-degree",
      "4"], {"json"}),
    (LAUNCH_JOBS[1], {"series", "json"}),
    (["eval", "--fn", "Sn", "--n", "3", "--x", "1/2"], {"modular"}),
    (LAUNCH_JOBS[-1], {"mining", "series", "json"}),
    (LAUNCH_JOBS[2], LAZY | {"json"}),
]
LOADED = """
import sys
import thetaquot.cli as cli

argv = {argv!r}
assert not argv or cli.main(argv) == 0, argv
print(*(m.removeprefix("thetaquot.") for m in sys.modules
        if m.startswith("thetaquot.") or m == "json"))
"""


@pytest.mark.parametrize(
    "argv, loads", LOADS, ids=[" ".join(argv[:3]) or "import" for argv, _ in LOADS]
)
def test_each_launch_loads_only_what_it_runs(tmp_path, argv, loads):
    out = run_script(tmp_path, LOADED.format(argv=argv))
    assert set(out.splitlines()[-1].split()) == CORE | loads


def test_mine_choices_are_the_binding_names():
    # the parser lists them without importing mining
    from thetaquot import cli

    assert cli.V_NAMES == tuple(sorted(mining.V_BINDINGS))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_enters_an_mpmath_context(path):
    assert scan(path)[1] == [], f"{path.name} depends on mpmath's ambient precision"


def value_reads(path: Path) -> list[str]:
    """Each read of an attribute named ``value``, as ``line: source``."""
    tree = ast.parse(path.read_text(), str(path))
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "value"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_numeric_reads_a_real_value(path):
    # BigReal.value is an mpf for tests and the benchmark: every module
    # reaches a real through BigReal's operators and numeric's functions,
    # and numeric's kernels through the mantissa and exponent, so no report
    # can inherit mpmath's ambient precision and no run imports mpmath
    assert value_reads(path) == [], f"{path.name} reads BigReal.value"


def test_the_context_scan_sees_contexts_and_ambient_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "with mp.workdps(30):\n    x = mp.pi\n"
        "with mpmath.workprec(mp.prec + 10):\n    y = mpmath.mp.dps\n"
        "z = mpmath.libmp.mpf_pi(53)\n"
    )
    assert sorted(scan(probe)[1]) == [
        "1: mp.workdps",
        "2: mp.pi",
        "3: mp.prec",
        "3: mpmath.workprec",
        "4: mpmath.mp.dps",
    ]
    assert value_reads(probe) == []
    probe.write_text("class R:\n    def value(self):\n        import mpmath\n\ny = R().value\n")
    assert value_reads(probe) == ["5: R().value"]
    assert accessor_lines(probe) == {2, 3} and scan(probe)[0] == ["3: import mpmath"]


def test_only_sparse_units_are_inverted(monkeypatch):
    # every inversion and division by a unit runs the one recurrence of
    # _divide; invert_unit is its quotient of 1
    handed = []  # (terms, length, inside exp_series) per unit
    in_exp = []
    divide, exp = series_module._divide, series_module.exp_series

    def recording_divide(num, u):
        handed.append((len(u.nums), u.hi - min(u.nums), bool(in_exp)))
        return divide(num, u)

    def recording_exp(u):
        in_exp.append(u)
        try:
            return exp(u)
        finally:
            in_exp.pop()

    monkeypatch.setattr(series_module, "_divide", recording_divide)
    monkeypatch.setattr(series_module, "exp_series", recording_exp)
    series_module.modulus_series(150)
    series_module.k_series(150)
    series_module.A_series(ThetaSpec(1, 3), 150)
    series_module.h5_series(150)
    series_module.eta5_series(150)
    ABinding(ThetaSpec(1, 3), -12).series(Fraction(150))
    series_module.nome_sqrt_exp_form(101)
    assert len(handed) >= 6  # one per construction but the exp form
    for terms, length, inside_exp in handed:
        assert terms <= 2 * math.sqrt(length) + 2, f"{terms} terms over {length}"
        assert not inside_exp, "exp_series inverted a unit"


def test_each_column_visits_only_the_rows_of_its_class(monkeypatch):
    # table 5's re-mining runs on a table of stride 4, so each coefficient
    # matrix is block diagonal over the classes mod 4, and each block is
    # eliminated on its own: a column visits only the rows of its class
    built, visits = [], []
    build, echelon = mining.build_coeff_matrix, mining._echelon_mod_p

    def recording_build(u, v, s, rows, table=None, residue=None):
        out = build(u, v, s, rows, table, residue)
        matrix, cols, base, _ = out
        assert table.stride == 4 and residue is not None
        assert all(table.span(i, j)[0] % 4 == residue for i, j in cols)
        assert len(matrix) == len(range(base + (residue - base) % 4, base + rows, 4))
        built.append(matrix)
        return out

    def recording_echelon(rows, ncols, width, p):
        assert any(rows is m for m in built), "rows of more than one class"
        ech, pivots = echelon(rows, ncols, width, p)
        # at each column, the rows below the pivots before it
        visits.append(sum(max(len(rows) - bisect_left(pivots, c), 0) for c in range(ncols)))
        return ech, pivots

    monkeypatch.setattr(mining, "build_coeff_matrix", recording_build)
    monkeypatch.setattr(mining, "_echelon_mod_p", recording_echelon)
    remine_entry("table5")
    # 41 blocks over s = 1..11; one elimination per degree visited 64,675
    assert len(visits) == 41
    assert sum(visits) <= 16_245


@pytest.mark.parametrize("order", [26, 202])
def test_product_form_is_independent_of_theta_over_eta(monkeypatch, order):
    def forbidden(*args, **kwargs):
        raise AssertionError("the product form reached the theta/eta side")

    for name in ("theta_series", "eta_series", "invert_unit", "_theta_over_eta"):
        monkeypatch.setattr(series_module, name, forbidden)
    monkeypatch.setattr(series_module.PuiseuxSeries, "__mul__", forbidden)
    for spec in JTP_PAIRS:
        assert not series_module.A_series_product(spec, order).is_zero()
