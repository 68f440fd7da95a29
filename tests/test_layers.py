"""Layer contracts.

One module owns the reals: numeric.py is the only module of the package
that imports mpmath, and the others reach real numbers through ``BigReal``
and numeric's functions.  No module enters one of mpmath's precision
contexts or reads its ambient precision: numeric.py runs every operation
at its own explicit bit count.

Only sparse units are inverted: ``invert_unit`` runs a recurrence whose cost
grows with the unit's number of terms, so every series the package builds
hands it a theta or eta series, never a dense one.

The product form is built on its own: ``A_series_product`` reaches no theta,
eta or inverse construction and no series product, so comparing it with
``A_series`` compares two independent constructions."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

import thetaquot
import thetaquot.series as series_module
from thetaquot.catalog import JTP_PAIRS
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_numeric_imports_mpmath(path):
    imports = scan(path)[0]
    if path.name == "numeric.py":
        assert imports  # the owner: the scan must see its imports
    else:
        assert imports == [], f"{path.name} reaches mpmath outside numeric.py"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_enters_an_mpmath_context(path):
    assert scan(path)[1] == [], f"{path.name} depends on mpmath's ambient precision"


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


@pytest.mark.parametrize("order", [26, 202])
def test_product_form_is_independent_of_theta_over_eta(monkeypatch, order):
    def forbidden(*args, **kwargs):
        raise AssertionError("the product form reached the theta/eta side")

    for name in ("theta_series", "eta_series", "invert_unit", "_theta_over_eta"):
        monkeypatch.setattr(series_module, name, forbidden)
    monkeypatch.setattr(series_module.PuiseuxSeries, "__mul__", forbidden)
    for spec in JTP_PAIRS:
        assert not series_module.A_series_product(spec, order).is_zero()
