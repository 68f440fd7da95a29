"""Layer contracts.

No module imports mpmath, except numeric.py inside the ``BigReal.value``
accessor, which hands tests and the benchmark an ``mpf``; no module reads
that accessor, and no launch of the CLI loads mpmath, dataclasses, inspect
or typing.  The reals are numeric.py's own integer type, reached through
``BigReal``'s operators and numeric's functions, and no module enters one
of mpmath's precision contexts or reads its ambient precision.  Only the
launches that evaluate load numeric: cli.py and recognize.py, which every
launch loads, import it in the functions that evaluate.

Only sparse units are inverted: ``invert_unit`` runs a recurrence whose cost
grows with the unit's number of terms, so every series the package builds
hands it a theta or eta series, never a dense one.

One function, ``mining.passes``, decides whether a relation or catalog
residual passes: it alone names the tolerance ``ten_to``.

A function of one real works at that real's digits: it takes no ``digits``
of its own, so there is one way to call it.

The miner eliminates its coefficient matrix block by block: on a table of
stride g, a column visits only the rows of its lead's class mod g.

The product form is built on its own: ``A_series_product`` reaches no theta,
eta or inverse construction and no series product, so comparing it with
``A_series`` compares two independent constructions."""

import ast
import inspect
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
from thetaquot import mining, modular, numeric
from thetaquot.catalog import JTP_PAIRS, remine_entry
from thetaquot.mining import ABinding
from thetaquot.series import ThetaSpec, modulus_series

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
# each launch loads: the import alone (no argv) loads none of them, only
# the commands that evaluate (eval, recognize, mine and verify) load
# numeric, and only series, mine and verify load series
CORE = {"cli", "recognize", "values"}
LAZY = {"catalog", "mining", "modular", "numeric", "series"}
LOADS = [
    ([], set()),
    (LAUNCH_JOBS[0], {"numeric"}),
    (["eval", "--fn", "A", "--a", "1", "--p", "4", "--r", "2"], {"numeric"}),
    (LAUNCH_JOBS[3], {"numeric", "json"}),
    (["recognize", "--a", "1", "--p", "4", "--power", "12", "--r", "2", "--max-degree",
      "4"], {"numeric", "json"}),
    (LAUNCH_JOBS[1], {"series", "json"}),
    (["eval", "--fn", "Sn", "--n", "3", "--x", "1/2"], {"modular", "numeric"}),
    (LAUNCH_JOBS[-1], {"mining", "numeric", "series", "json"}),
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


def top_level_imports(path: Path) -> set[str]:
    """Every module name, and each dotted part of one, that an import run
    by importing ``path`` names: imports in function bodies run later."""
    names, todo = set(), list(ast.parse(path.read_text(), str(path)).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names.update(part for a in node.names for part in a.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
            if node.module:
                names.update(node.module.split("."))
        todo.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("name", ["cli.py", "recognize.py"])
def test_no_launch_compiles_numeric_until_it_evaluates(name):
    # every launch imports cli, and the package imports recognize, so
    # numeric is imported by the functions that evaluate
    assert "numeric" not in top_level_imports(PACKAGE / name)


def test_the_top_level_scan_skips_only_function_bodies(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "if True:\n    from .numeric import big_real\n"
        "class C:\n    import thetaquot.series\n"
        "def f():\n    from . import mining\n"
    )
    assert top_level_imports(probe) == {"numeric", "big_real", "thetaquot", "series"}


def functions_naming(path: Path, name: str) -> list[str | None]:
    """The enclosing function of each import, name or attribute ``name`` in
    ``path``, None at module level."""
    owners = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (
            isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and name in (node.name, node.asname)
        ):
            owners.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(), str(path)), None)
    return owners


def test_one_module_decides_whether_a_residual_passes():
    # every pass threshold of a relation or catalog residual is mining's
    # passes: the catalog names no tolerance of its own
    assert functions_naming(PACKAGE / "catalog.py", "ten_to") == []
    assert set(functions_naming(PACKAGE / "mining.py", "ten_to")) == {"passes"}


def test_the_naming_scan_sees_imports_names_and_attributes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .numeric import ten_to\n"
        "def f():\n    return ten_to(1)\n"
        "class C:\n    def g(self):\n        def h():\n            numeric.ten_to(2)\n"
    )
    assert functions_naming(probe, "ten_to") == [None, "f", "h"]


# each function of a real, and how to call it on a real x in (0, 1)
FUNCTIONS_OF_A_REAL = {
    "ellipk": (numeric.ellipk, lambda f, x: f(x)),
    "inverse_modulus": (numeric.inverse_modulus, lambda f, x: f(x)),
    "real_eval_series": (numeric.real_eval_series, lambda f, x: f(modulus_series(20), x)),
    "s_n": (modular.s_n, lambda f, x: f(x, 2)),
    "landen_k4": (modular.landen_k4, lambda f, x: f(x)),
    "check_theorem3_instance": (modular.check_theorem3_instance, lambda f, x: f(x)),
}


@pytest.mark.parametrize("digits", [23, 61])
@pytest.mark.parametrize("name", list(FUNCTIONS_OF_A_REAL))
def test_a_function_of_a_real_works_at_its_digits(name, digits):
    fn, call = FUNCTIONS_OF_A_REAL[name]
    assert "digits" not in inspect.signature(fn).parameters
    x = numeric.big_real(Fraction(3, 10), digits)
    assert call(fn, x).digits == digits


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
