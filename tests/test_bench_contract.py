"""The names the benchmark under perfbench/ wraps or reads: every one must
exist, or every benchmark job fails while the rest of the suite passes."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from thetaquot.numeric import big_real
from thetaquot.recognize import NotFound, lll_reduce, recognize
from thetaquot.series import PuiseuxSeries

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _wrapped_names():
    tracer = _tracer()
    for module, names in (
        ("series", tracer.SERIES_BUILDERS),
        ("numeric", tracer.NUMERIC_FNS),
        ("mining", tracer.MINING_FNS),
        ("recognize", tracer.RECOGNIZE_FNS),
        ("modular", tracer.MODULAR_FNS),
        ("catalog", tracer.CATALOG_FNS),
    ):
        for name in names:
            yield module, name


READ_NAMES = [
    ("numeric", "last_agm_iterations"),
    ("mining", "InsufficientTruncation"),
    ("mining", "ValidationFailed"),
    ("catalog", "verify_entry"),
    ("catalog", "get_entry"),
    ("catalog", "catalog_ids"),
    ("catalog", "verify_entry_with_fallback"),
    ("mining", "ABinding"),
    ("mining", "MinedRelation"),
    ("series", "ThetaSpec"),
    ("numeric", "nome_from_r"),
    ("numeric", "eval_h5"),
    ("recognize", "IntPoly"),
]


@pytest.mark.parametrize("module, name", [*_wrapped_names(), *READ_NAMES])
def test_module_attribute_exists(module, name):
    mod = importlib.import_module(f"thetaquot.{module}")
    assert callable(getattr(mod, name))


def _modules_after_importing_the_catalog() -> set[str]:
    """sys.modules of a fresh interpreter that imported thetaquot.catalog."""
    src = Path(importlib.import_module("thetaquot").__file__).parent.parent
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    script = "import sys, thetaquot.catalog; print(*sys.modules)"
    return set(
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
    )


def test_importing_the_catalog_loads_every_module_the_benchmark_reads():
    # the benchmark imports thetaquot.catalog alone and then reads six
    # modules from sys.modules; recognize is loaded only by the package's
    # re-exports, so a leaner thetaquot/__init__.py must still load it
    loaded = _modules_after_importing_the_catalog()
    read = ("series", "numeric", "mining", "recognize", "modular", "catalog")
    assert {f"thetaquot.{name}" for name in read} <= loaded


def test_importing_the_catalog_leaves_the_process_pool_unloaded():
    # nothing in the package uses a process pool; importing its modules
    # would add to every launch's start-up time, which the benchmark measures
    loaded = _modules_after_importing_the_catalog()
    assert "concurrent.futures.process" not in loaded


def test_singular_modulus_is_not_memoized(monkeypatch):
    # the benchmark's moduli job times the kernel, so every call must run
    # its two theta sums
    numeric = importlib.import_module("thetaquot.numeric")
    theta_sum = numeric.theta_sum
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return theta_sum(*args, **kwargs)

    monkeypatch.setattr(numeric, "theta_sum", counting)
    first = numeric.singular_modulus(2, 60)
    second = numeric.singular_modulus(2, 60)
    assert calls == [(1, 1), (1, 0)] * 2
    assert first is not second and first.k == second.k


def test_entry_kinds_name_the_tracer_spans():
    # the tracer names each verify_entry span catalog.verify_entry.<kind>,
    # and the benchmark reads exactly these three
    from thetaquot.catalog import catalog_ids, get_entry

    kinds = {get_entry(eid).kind for eid in catalog_ids()}
    assert kinds <= {"closed_form", "poly_relation", "series_identity"}


@pytest.mark.parametrize(
    "name", ["coeffs", "denom", "hi", "agrees_with", "knowledge_order"]
)
def test_series_attribute_exists(name):
    x = PuiseuxSeries.from_pairs([(0, 1), ("1/2", "-1/3")], order=3)
    assert hasattr(x, name)


def test_lll_reduce_takes_basis():
    # the tracer's lll_reduce hook reads the lattice as kwargs["basis"]
    assert "basis" in inspect.signature(lll_reduce).parameters


@pytest.mark.parametrize(
    "value, d_max, dims",
    [("pi", 4, [2, 3, 4, 5]), ("sqrt2", 4, [2, 3]), ("8", 3, [2])],
)
def test_recognize_calls_lll_once_per_degree(monkeypatch, value, d_max, dims):
    # recognize.lll_reduce.calls counts the degrees tried and
    # recognize.lattice_dim_max reads the rows of the tracer's argument,
    # so recognize must call the module attribute once per degree d, on
    # d + 1 rows passed as the first argument or as basis=
    seen = []

    def counting(*args, **kwargs):
        basis = args[0] if args else kwargs["basis"]
        seen.append(len(basis))
        return lll_reduce(*args, **kwargs)

    recognize_mod = importlib.import_module("thetaquot.recognize")
    monkeypatch.setattr(recognize_mod, "lll_reduce", counting)
    with mpmath.workdps(80):
        x = {"pi": mpmath.pi, "sqrt2": mpmath.sqrt(2), "8": 8}[value]
        x = big_real(+mpmath.mpf(x), 60)
    try:
        recognize(x, d_max, 60)
    except NotFound:
        assert value == "pi"
    assert seen == dims


# the calls perfbench/workloads.py and perfbench/record.py make, by their
# positional and keyword shapes: a parameter renamed, reordered or made
# keyword-only must fail here, not in every benchmark job of its kind
CALL_SHAPES = [
    ("numeric", "eval_A", ("spec", "q", 400), {}),
    ("numeric", "eval_eta5", ("q", 500), {}),
    ("numeric", "eval_h5", ("q", 500), {}),
    ("recognize", "recognize", ("x", 8, 400), {}),
    (
        "mining", "mine", ("u", "v", 7, None),
        {"u_binding": "binding", "v_binding": "m", "digits": 60},
    ),
    ("catalog", "verify_entry", ("table1", 60, 60, (1, 2, 3)), {}),
]


@pytest.mark.parametrize(
    "module, name, args, kwargs", CALL_SHAPES, ids=[name for _, name, _, _ in CALL_SHAPES]
)
def test_benchmark_call_shapes_bind(module, name, args, kwargs):
    fn = getattr(importlib.import_module(f"thetaquot.{module}"), name)
    inspect.signature(fn).bind(*args, **kwargs)


def test_coeff_matrix_is_one_packed_int_per_row():
    # the tracer counts mining.matrix_cells as len(result[0]) *
    # len(result[1]) of build_coeff_matrix: grid rows times monomials
    from thetaquot.mining import build_coeff_matrix
    from thetaquot.series import A_series, ThetaSpec, modulus_series

    u, v = A_series(ThetaSpec(1, 4), 30) ** 12, modulus_series(30)
    matrix, cols = build_coeff_matrix(u, v, 2, 12)[:2]
    assert len(matrix) == 12 and all(type(row) is int for row in matrix)
    assert cols == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (1, 2), (2, 1), (2, 2)]
