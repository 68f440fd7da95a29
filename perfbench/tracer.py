"""Outside-in tracer: wraps thetaquot's public functions without touching src/.

Each wrapped call records a span (id, parent id, name, start, end) in memory
and adds to per-name totals of calls, inclusive seconds and self seconds
(duration minus the time covered by child spans).  Counter bookkeeping runs
after the span's clock stops and is charged to no span's self time.

A function is wrapped at its module attribute and at every other binding of
the same object inside ``thetaquot.*`` (``from .x import f`` copies), so calls
between modules are seen as well as calls from the benchmark.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# Functions wrapped as spans, by module.  A span is named "<module>.<fn>",
# except that the series constructors are pooled as "series.build".
SERIES_BUILDERS = (
    "eta_series", "theta_series", "A_series", "A_series_product",
    "modulus_series", "h5_series", "eta5_series", "sqrt_series",
    "invert_unit", "exp_series", "rescale", "nome_sqrt_exp_form",
)
NUMERIC_FNS = (
    "singular_modulus", "theta_sum", "eval_eta", "eval_A", "eval_eta5",
    "ellipk", "real_eval_series",
)
MINING_FNS = (
    "build_binding_series", "build_coeff_matrix", "exact_nullspace",
    "validate", "mine",
)
RECOGNIZE_FNS = ("lll_reduce", "recognize")
MODULAR_FNS = ("s_n", "landen_k4", "check_theorem3_instance")
CATALOG_FNS = ("remine_entry",)  # verify_entry is wrapped per entry kind

# counters that must repeat exactly across traced runs of one seed
EXACT_COUNTERS = (
    "series.mul.term_pairs",
    "series.mul.max_coeff_bits",
    "numeric.agm_iterations",
    "mining.matrix_cells",
    "mining.candidates_rejected",
    "mining.truncation_retries",
)


def _coeff_bits(series) -> int:
    best = 0
    for c in series.coeffs.values():
        b = max(c.numerator.bit_length(), c.denominator.bit_length())
        if b > best:
            best = b
    return best


class Tracer:
    """Collects spans and counters between ``install`` and ``uninstall``."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 1
        self._last_retry = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)
        self._last_retry = None

    def _span(self, name, fn, args, kwargs, after=None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [sid, 0.0]
        self._stack.append(frame)
        result = exc = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            exc = e
        t1 = perf_counter()
        self._stack.pop()
        dur = t1 - t0
        tot = self.totals[name]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - frame[1]
        self.spans.append((sid, parent, name, t0, t1))
        if isinstance(exc, self._retry_cls) and exc is not self._last_retry:
            self._last_retry = exc  # count once, where it first leaves a span
            self.counters["mining.truncation_retries"] += 1
        if after is not None:
            after(args, kwargs, result, exc)
        if self._stack:
            # the parent's children cover this span and its bookkeeping
            self._stack[-1][1] += perf_counter() - t0
        if exc is not None:
            raise exc
        return result

    def _wrapper(self, name, fn, after=None, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if name_of is None else name_of(args, kwargs)
            return tracer._span(span, fn, args, kwargs, after)

        return traced

    # -- counters -----------------------------------------------------------

    def _after_mul(self, args, kwargs, result, exc):
        if exc is not None:
            return
        a, b = args
        nb = len(b.coeffs) if hasattr(b, "coeffs") else 1
        self.counters["series.mul.term_pairs"] += len(a.coeffs) * nb
        bits = _coeff_bits(result)
        if bits > self.counters["series.mul.max_coeff_bits"]:
            self.counters["series.mul.max_coeff_bits"] = bits

    def _after_ellipk(self, args, kwargs, result, exc):
        if exc is None:
            self.counters["numeric.agm_iterations"] += self._agm_iterations()

    def _after_matrix(self, args, kwargs, result, exc):
        if exc is None:
            matrix, cols = result[0], result[1]
            self.counters["mining.matrix_cells"] += len(matrix) * len(cols)

    def _after_validate(self, args, kwargs, result, exc):
        self.counters["mining.validate_attempts"] += 1
        if exc is None:
            self.counters["mining.validate_accepted"] += 1
        elif isinstance(exc, self._rejected_cls):
            self.counters["mining.candidates_rejected"] += 1

    def _after_lll(self, args, kwargs, result, exc):
        dim = len(args[0]) if args else len(kwargs["basis"])
        if dim > self.counters["recognize.lattice_dim_max"]:
            self.counters["recognize.lattice_dim_max"] = dim

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_everywhere(self, module, fn_name, span, **kw) -> None:
        original = getattr(module, fn_name)
        wrapped = self._wrapper(span, original, **kw)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "thetaquot" or name.startswith("thetaquot.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, attr, wrapped)

    def install(self) -> None:
        # thetaquot.recognize on the package is the function, so modules are
        # looked up in sys.modules
        import thetaquot.cli  # noqa: F401  (binds every from-import copy)
        from thetaquot.catalog import get_entry
        from thetaquot.mining import InsufficientTruncation, ValidationFailed
        from thetaquot.numeric import last_agm_iterations
        from thetaquot.series import PuiseuxSeries

        self._retry_cls = InsufficientTruncation
        self._rejected_cls = ValidationFailed
        self._agm_iterations = last_agm_iterations

        mods = {n: sys.modules[f"thetaquot.{n}"] for n in
                ("series", "numeric", "mining", "recognize", "modular", "catalog")}
        mul = self._wrapper("series.mul", PuiseuxSeries.__mul__, after=self._after_mul)
        add = self._wrapper("series.add", PuiseuxSeries.__add__)
        self._patch(PuiseuxSeries, "__mul__", mul)
        self._patch(PuiseuxSeries, "__rmul__", mul)
        self._patch(PuiseuxSeries, "__add__", add)
        self._patch(PuiseuxSeries, "__radd__", add)
        for fn in SERIES_BUILDERS:
            self._wrap_everywhere(mods["series"], fn, "series.build")
        after = {
            "ellipk": self._after_ellipk,
            "build_coeff_matrix": self._after_matrix,
            "validate": self._after_validate,
            "lll_reduce": self._after_lll,
        }
        for layer, fns in (
            ("numeric", NUMERIC_FNS),
            ("mining", MINING_FNS),
            ("recognize", RECOGNIZE_FNS),
            ("modular", MODULAR_FNS),
            ("catalog", CATALOG_FNS),
        ):
            for fn in fns:
                self._wrap_everywhere(
                    mods[layer], fn, f"{layer}.{fn}", after=after.get(fn)
                )

        def entry_kind(args, kwargs):
            entry_id = args[0] if args else kwargs["entry_id"]
            return f"catalog.verify_entry.{get_entry(entry_id).kind}"

        self._wrap_everywhere(mods["catalog"], "verify_entry", None, name_of=entry_kind)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
