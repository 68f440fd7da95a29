"""Relation mining: coefficient matrix, exact nullspace, rediscovery of the
catalog relations, validation guards, and stability properties."""

import functools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetaquot import catalog, mining
from thetaquot.numeric import big_real, eval_A, nome_from_r, singular_point
from thetaquot.series import (
    A_series,
    PuiseuxSeries,
    ThetaSpec,
    modulus_series,
    rescale,
    sqrt_series,
)
from thetaquot.mining import (
    ABinding,
    BivarIntPoly,
    InsufficientTruncation,
    MinedRelation,
    MiningError,
    MiningNotFound,
    ValidationFailed,
    build_binding_series,
    build_coeff_matrix,
    exact_nullspace,
    get_v_binding,
    mine,
    validate,
)

# relations certified against closed-form and numeric oracles; see the
# catalog tests for the corresponding residual checks
REL_14 = BivarIntPoly.normalized(
    [(0, 0, 16), (0, 1, -32), (0, 2, 16), (2, 1, -1)]
)
REL_M2_8 = BivarIntPoly.normalized(
    [(4, 1, -1), (2, 1, -64), (0, 2, 256), (0, 1, -512), (0, 0, 256)]
)
REL_M1_6 = BivarIntPoly.normalized(
    [
        (4, 3, 1), (4, 1, -1), (3, 2, 16), (2, 3, -18), (2, 1, 18),
        (1, 4, 4), (1, 2, -8), (1, 0, 4), (0, 3, 1), (0, 1, -1),
    ]
)


P61, P89 = (1 << 61) - 1, (1 << 89) - 1


def rank_mod_p(rows, p=P61):
    """Reference rank over the prime field: plain Gaussian elimination."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        for r in range(rank + 1, len(m)):
            f = m[r][col] * inv % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def bareiss_nullspace(matrix):
    """Reference kernel: fraction-free (Bareiss) row echelon form, then
    back-substitution in Fractions, scaled as ``exact_nullspace`` scales."""
    if not matrix:
        return []
    m = [row[:] for row in matrix]
    nrows, ncols = len(m), len(m[0])
    pivots, prev, r = [], 1, 0
    for col in range(ncols):
        if r >= nrows:
            break
        # the nonzero pivot with the smallest bit length, for growth control
        best = None
        for i in range(r, nrows):
            bits = abs(m[i][col]).bit_length()
            if bits and (best is None or bits < abs(m[best][col]).bit_length()):
                best = i
        if best is None:
            continue
        m[r], m[best] = m[best], m[r]
        piv = m[r][col]
        for i in range(r + 1, nrows):
            xi = m[i][col]
            for j in range(col, ncols):
                m[i][j] = (piv * m[i][j] - xi * m[r][j]) // prev
        pivots.append(col)
        prev = piv
        r += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [F(0)] * ncols
        x[fc] = F(1)
        for rix in range(len(pivots) - 1, -1, -1):
            pc, row = pivots[rix], m[rix]
            s = sum((row[c] * x[c] for c in range(pc + 1, ncols) if x[c]), F(0))
            x[pc] = -s / row[pc]
        den = math.lcm(*(val.denominator for val in x))
        ints = [int(val * den) for val in x]
        g = math.gcd(*ints)
        sign = 1 if next(val for val in ints if val) > 0 else -1
        basis.append([sign * val // g for val in ints])
    return basis


@st.composite
def planted_kernel_matrices(draw):
    """C B with B of rank < its 1-14 columns, entries below 2^100 in
    absolute value and more rows than rank."""
    ncols = draw(st.integers(1, 14))
    rank = draw(st.integers(0, ncols - 1))
    nrows = rank + draw(st.integers(1, 4))
    top = (1 << draw(st.integers(1, 100))) // max(rank, 1)
    entry = st.integers(-top, top)
    b = [[draw(entry) for _ in range(ncols)] for _ in range(rank)]
    c = [[draw(st.integers(-1, 1)) for _ in range(rank)] for _ in range(nrows)]
    return [
        [sum(c[i][k] * b[k][j] for k in range(rank)) for j in range(ncols)]
        for i in range(nrows)
    ]


def echelon_mod_p_lists(rows, p):
    """Reference echelon form mod p on lists of ints, one field operation at
    a time: the same pivot choice, row swaps and unit pivots as
    ``mining._echelon_mod_p``."""
    m = [[x % p for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        inv = pow(m[piv][col], -1, p)
        prow = [x * inv % p for x in m[piv]]
        m[piv] = m[rank]
        m[rank] = prow
        for r in range(rank + 1, nrows):
            f = m[r][col]
            if f:
                row = m[r]
                for cix in range(col, ncols):
                    row[cix] = (row[cix] - f * prow[cix]) % p
        pivots.append(col)
    return m[: len(pivots)], pivots


def packed_fields(row, n, width):
    """The n ``width``-byte fields of a packed row, lowest first; a row
    that holds more raises OverflowError."""
    raw = row.to_bytes(n * width, "little")
    return [
        int.from_bytes(raw[at : at + width], "little") for at in range(0, n * width, width)
    ]


@st.composite
def elimination_matrices(draw):
    """1-12 by 1-12 integer matrices (so 1 x n, n x 1, tall and wide) with
    entries up to 2^200 in absolute value, multiples of the first two
    primes among them, zero rows and columns, and planted rank deficiency."""
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    top = 1 << draw(st.sampled_from([1, 8, 61, 62, 89, 90, 200]))
    entry = st.one_of(
        st.integers(-top, top),
        st.sampled_from([(1 << 61) - 1, -2 * ((1 << 89) - 1)]),
    )
    if draw(st.booleans()):
        rank = draw(st.integers(0, min(nrows, ncols)))
        b = [[draw(entry) // max(rank, 1) for _ in range(ncols)] for _ in range(rank)]
        c = [[draw(st.integers(-1, 1)) for _ in range(rank)] for _ in range(nrows)]
        m = [
            [sum(c[i][k] * b[k][j] for k in range(rank)) for j in range(ncols)]
            for i in range(nrows)
        ]
    else:
        m = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(m)
    ]


@st.composite
def block_diagonal_matrices(draw):
    """(g, leads, matrix): fields mod 2^61 - 1 on 0-16 grid rows and 1-12
    columns, g in 1..5, column c nonzero only on the rows t = leads[c] mod
    g, as the coefficient matrix of a table of stride g is; some columns
    zero or a combination of earlier columns of their class, so ranks fall
    short."""
    p = P61
    g, nrows = draw(st.integers(1, 5)), draw(st.integers(0, 16))
    leads = draw(st.lists(st.integers(0, 8), min_size=1, max_size=12))
    field = st.one_of(st.just(0), st.integers(1, p - 1))
    columns = []
    for c, lead in enumerate(leads):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        same = [k for k in range(c) if (leads[k] - lead) % g == 0]
        if kind == "combination" and same:
            coefs = [draw(field) for _ in same]
            col = [sum(a * columns[k][t] for a, k in zip(coefs, same)) % p for t in range(nrows)]
        elif kind == "zero":
            col = [0] * nrows
        else:
            col = [draw(field) if t >= lead and (t - lead) % g == 0 else 0 for t in range(nrows)]
        columns.append(col)
    return g, leads, [[col[t] for col in columns] for t in range(nrows)]


def full_echelon_mod_p(rows, ncols, width, p):
    """``mining._echelon_mod_p`` as first written, every row eliminated
    from the first column on: the elimination with waiting rows must give
    its echelon rows and pivots bit for bit."""
    bits = 8 * width
    mask = (1 << bits) - 1
    fold = mining._mersenne_fold(p, width, ncols)
    # the rows below the pivots, in the order the swaps leave them
    m = list(rows)
    ech = []
    pivots = []
    for col in range(ncols):
        if not m:
            break
        fs = [(row & mask) % p for row in m]
        piv = next((r for r, f in enumerate(fs) if f), None)
        if piv is None:
            m = [row >> bits for row in m]
            continue
        prow = fold(fold(m[piv]) * pow(fs[piv], -1, p))
        ech.append(prow)
        # the pivot row trades places with the first row, then leaves
        m[piv], fs[piv] = m[0], fs[0]
        m = [
            (row + (p - f) * prow if f else row) >> bits
            for row, f in zip(m[1:], fs[1:])
        ]
        pivots.append(col)
    return ech, pivots


def kernel_lifts(blocks, ncols, width, p, eliminate):
    """(free columns, reduced vectors mod p, lifts) of a ``_ReducedKernel``
    mod p whose blocks are eliminated by ``eliminate``."""
    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(mining, "_echelon_mod_p", eliminate)
        kernel = mining._ReducedKernel([(p, blocks, width)], ncols)
    free = kernel._free
    return free, [kernel._solve(fc) for fc in free], [kernel._lift(fc) for fc in free]


def pack_row(fields, width):
    return int.from_bytes(b"".join(f.to_bytes(width, "little") for f in fields), "little")


@st.composite
def tall_matrices(draw):
    """(p, fields): 1-10 columns and 1-12 more rows than columns mod 2^61 - 1
    or 2^89 - 1, each field x or x + p (below 2^(e+1) either way).  The
    first ``ncols`` rows are random, or combinations of fewer rows, so that
    a pivot must come from a row past them, or every row is, so that the
    matrix has a kernel."""
    p = draw(st.sampled_from([P61, P89]))
    ncols = draw(st.integers(1, 10))
    nrows = ncols + draw(st.integers(1, 12))
    low = {"random": 0, "deficient top": ncols, "kernel": nrows}[
        draw(st.sampled_from(["random", "deficient top", "kernel"]))
    ]
    field = st.one_of(st.just(0), st.integers(1, p - 1))
    basis = [[draw(field) for _ in range(ncols)] for _ in range(draw(st.integers(0, ncols - 1)))]
    matrix = []
    for t in range(nrows):
        if t < low:
            coefs = [draw(field) for _ in basis]
            row = [sum(a * b[c] for a, b in zip(coefs, basis)) % p for c in range(ncols)]
        else:
            row = [draw(field) for _ in range(ncols)]
        matrix.append([x + p * draw(st.booleans()) for x in row])
    return p, matrix


# OEIS A000043: the exponents e of the Mersenne primes 2^e - 1
A000043 = (
    2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
    3217, 4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243,
    110503, 132049, 216091,
)


def lucas_lehmer(e):
    """Whether 2^e - 1 is prime, for an odd prime e."""
    m = (1 << e) - 1
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


def mine_14(order=62, M=120, s_max=3, **kw):
    u = A_series(ThetaSpec(1, 4), order) ** 12
    v = modulus_series(order)
    return mine(
        u, v, s_max, M,
        u_binding=ABinding(ThetaSpec(1, 4), 12), v_binding="m", **kw,
    )


class TestBivarIntPoly:
    def test_normalization(self):
        p = BivarIntPoly.normalized([(1, 0, -4), (0, 1, 2), (0, 1, 2)])
        # duplicates merged, content removed, lexicographically first term
        # positive
        assert p.terms == ((0, 1, 1), (1, 0, -1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            BivarIntPoly.normalized([])
        with pytest.raises(ValueError):
            BivarIntPoly.normalized([(0, 0, 0)])

    def test_json_roundtrip(self):
        assert BivarIntPoly.from_json_obj(REL_M1_6.to_json_obj()) == REL_M1_6


class TestExactNullspace:
    def test_rank_one(self):
        assert exact_nullspace([[1, 2], [2, 4]]) == [[2, -1]]

    def test_identity_trivial_kernel(self):
        assert exact_nullspace([[1, 0], [0, 1]]) == []

    def test_single_row(self):
        assert exact_nullspace([[1, 1]]) == [[1, -1]]

    def test_random_kernel_vectors_annihilate(self):
        rng = random.Random(2718)
        for _ in range(15):
            rows = rng.randint(2, 6)
            cols = rng.randint(2, 6)
            m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            basis = exact_nullspace(m)
            for vec in basis:
                for row in m:
                    assert sum(a * x for a, x in zip(row, vec)) == 0
            # dimension check against rank over a prime field is implicit in
            # the annihilation plus the pivot structure; spot check sizes
            assert len(basis) <= cols

    @settings(max_examples=80, deadline=None)
    @given(planted_kernel_matrices())
    def test_planted_kernels_match_bareiss(self, matrix):
        assert exact_nullspace(matrix) == bareiss_nullspace(matrix)

    def test_large_kernel_entries_climb_the_ladder(self):
        # a kernel entry near 2^200 needs the 2^521 - 1 rung
        big = 3 ** 127
        assert exact_nullspace([[big, 5, 0]]) == [[5, -big, 0], [0, 0, 1]]

    def test_unlucky_first_prime(self):
        # mod 2^61 - 1 the first column vanishes, so the first prime's kernel
        # [1, 0] fails the exact check
        p = (1 << 61) - 1
        assert exact_nullspace([[p, 1]]) == [[1, -p]]
        assert exact_nullspace([[p, 0], [0, 1]]) == []

    def test_ladder_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(mining, "_PRIMES", mining._PRIMES[:1])
        with pytest.raises(MiningError, match="too large"):
            exact_nullspace([[(1 << 61) - 1, 1]])

    def test_ladder_is_mersenne_primes(self):
        exps = mining._MERSENNE_EXPONENTS
        start = A000043.index(61)
        assert exps == A000043[start : start + len(exps)]
        assert mining._PRIMES == tuple((1 << e) - 1 for e in exps)
        # rungs past 2^4423 - 1 take seconds each; they rest on the citation
        assert all(lucas_lehmer(e) for e in exps if e <= 4423)

    def test_lazy_basis_resumes_after_a_climb(self):
        # the second vector's entry -5/2^40 is beyond the reconstruction's
        # reach mod 2^61 - 1, where -5 * 2^21 / 1 has the larger quotient, so
        # it lifts to a small wrong vector that only the exact check refuses;
        # the next rung resumes at its free column
        matrix = [[1, -1, 0, 0], [0, 0, 2 ** 40, 5]]
        primes = []

        def matrices():
            for p in mining._PRIMES:
                primes.append(p)
                yield (p, *mining._pack_rows(matrix, p))

        kernel = mining._ReducedKernel(matrices(), 4)
        assert kernel.lift(2) == [[1, 1, 0, 0]]
        kernel.accept(2)
        assert primes == [P61]
        (bad,) = kernel.lift(4)
        assert bad == [0, 0, 10485760, -1]
        assert any(sum(a * x for a, x in zip(row, bad)) for row in matrix)
        assert primes == [P61]
        kernel.climb()
        assert kernel.lift(4) == [[0, 0, 5, -(2 ** 40)]]
        assert primes == [P61, P89]
        assert exact_nullspace(matrix) == bareiss_nullspace(matrix)

    def test_resume_skips_a_prime_unlucky_on_the_solved_columns(self):
        # [2, -1, 0] checks at 2^61 - 1 and the column-2 lift fails; mod
        # 2^89 - 1 the row is [0, 0, 1], whose free columns are not those
        # already solved, so that rung is skipped and a later one resumes
        p = (1 << 89) - 1
        matrix = [[p, 2 * p, 1]]
        assert exact_nullspace(matrix) == bareiss_nullspace(matrix)
        assert exact_nullspace(matrix) == [[2, -1, 0], [1, 0, -p]]

    @pytest.mark.parametrize("e", [61, 89, 521])
    @settings(max_examples=60, deadline=None)
    @given(elimination_matrices())
    @example([[0, 0, 0]])
    @example([[5], [0], [-7]])
    @example([[3, 6, 9], [1, 2, 3], [0, 0, 0], [2, 4, 6]])
    # the largest input: every field at 2^(e+1) - 1, on 31 rows
    @example([[1] * 5 for _ in range(31)])
    def test_packed_elimination_matches_the_list_oracle(self, e, matrix):
        # rows come packed with fields below 2^(e+1), not always below p: an
        # odd entry is packed as the largest such field of its residue
        p = (1 << e) - 1
        top = 1 << e + 1
        width = mining._field_bytes(p, len(matrix))
        ncols = len(matrix[0])

        def field(x):
            r = x % p
            return r + p * ((top - 1 - r) // p) if x % 2 else r

        rows = [
            int.from_bytes(
                b"".join(field(x).to_bytes(width, "little") for x in row), "little"
            )
            for row in matrix
        ]
        ech, pivots = mining._echelon_mod_p(rows, ncols, width, p)
        # an echelon row is packed from its pivot column on, every field
        # below 2^(e+1)
        fields = [packed_fields(row, ncols - pc, width) for row, pc in zip(ech, pivots)]
        assert all(f < top for row in fields for f in row)
        got = [[0] * pc + [f % p for f in row] for row, pc in zip(fields, pivots)]
        assert (got, pivots) == echelon_mod_p_lists(matrix, p)

    @settings(max_examples=150, deadline=None)
    @given(block_diagonal_matrices())
    # no rows; one class with every column; a class with no rows
    @example((3, [0, 1, 2], []))
    @example((1, [0, 0], [[1, 2], [2, 4]]))
    @example((5, [0, 4], [[1, 0], [0, 0], [3, 0]]))
    def test_block_elimination_matches_one_block(self, case):
        # each class's block eliminated on its own, pivots merged by global
        # column: the same free columns and the same reduced vectors mod p
        # as one elimination of the whole matrix
        g, leads, matrix = case
        p, ncols = P61, len(leads)
        width = mining._field_bytes(p, max(len(matrix), 1))

        blocks = []
        for r in sorted({lead % g for lead in leads}):
            columns = [c for c, lead in enumerate(leads) if lead % g == r]
            rows = [
                pack_row([row[c] for c in columns], width)
                for t, row in enumerate(matrix)
                if t % g == r
            ]
            blocks.append((columns, rows))
        one_block = [(range(ncols), [pack_row(row, width) for row in matrix])]
        whole = mining._ReducedKernel([(p, one_block, width)], ncols)
        split = mining._ReducedKernel([(p, blocks, width)], ncols)
        pivots = echelon_mod_p_lists(matrix, p)[1]
        assert split._free == whole._free == [c for c in range(ncols) if c not in pivots]
        for fc in whole._free:
            x = split._solve(fc)
            assert x == whole._solve(fc)
            assert all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in matrix)

    @settings(max_examples=60, deadline=None)
    @given(tall_matrices())
    # the first two rows zero: both pivots come from the rows waiting
    @example((P61, [[0, 0], [0, 0], [5, 0], [P61 + 3, 7]]))
    # a free column first: every row joins before any pivot
    @example((P89, [[0, 1], [0, 0], [0, 2], [0, 0]]))
    # a pivot from a row waiting, then one from the first rows again
    @example((P61, [[0, 1, 0], [0, 2, 1], [0, 0, 0], [4, 0, 0], [1, 1, 1]]))
    def test_waiting_rows_join_as_they_would_have_been(self, case):
        p, matrix = case
        ncols, width = len(matrix[0]), mining._field_bytes(p, len(matrix))
        rows = [pack_row(row, width) for row in matrix]
        assert mining._echelon_mod_p(rows, ncols, width, p) == full_echelon_mod_p(
            rows, ncols, width, p
        )
        blocks = [(range(ncols), rows)]
        assert kernel_lifts(blocks, ncols, width, p, mining._echelon_mod_p) == kernel_lifts(
            blocks, ncols, width, p, full_echelon_mod_p
        )

    def test_benchmark_blocks_join_as_they_would_have_been(self, monkeypatch):
        # every block of every degree of the mine workload's table-1 and
        # table-4 jobs, and of table 2's and table 5's re-mining
        matrices = []
        record_eliminations(monkeypatch, matrices)
        for a, p, v, s_max in ((1, 3, "m", 7), (-2, 8, "m_q2_squared", 5)):
            binding = ABinding(ThetaSpec(a, p), 12)
            mine(
                *build_binding_series(binding, v, F(150)), s_max,
                u_binding=binding, v_binding=v,
            )
        for entry in ("table2", "table5"):
            catalog.remine_entry(entry)
        monkeypatch.undo()
        degrees = [range(1, 7), range(1, 5), range(1, 7), range(1, 12)]
        assert [(ncols, p) for ncols, (p, _, _) in matrices] == [
            ((s + 1) ** 2, P61) for ds in degrees for s in ds
        ]
        for ncols, (p, blocks, width) in matrices:
            for columns, rows in blocks:
                assert mining._echelon_mod_p(
                    rows, len(columns), width, p
                ) == full_echelon_mod_p(rows, len(columns), width, p)
            assert kernel_lifts(
                blocks, ncols, width, p, mining._echelon_mod_p
            ) == kernel_lifts(blocks, ncols, width, p, full_echelon_mod_p)

    @pytest.mark.parametrize("e", [61, 89, 521])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 31, 32])
    def test_fold_of_a_product_of_largest_fields(self, e, n):
        # n fields at 2^(e+1) - 1, the most a folded field may hold, squared:
        # the middle field is n (2^(e+1) - 1)^2, which needs every one of
        # _field_bytes' 2e + bitlen(n) + 2 bits when n + 1 is a power of two
        # (at n = 31 these are a whole number of bytes for each e here)
        p = (1 << e) - 1
        width = mining._field_bytes(p, n)
        top = (1 << e + 1) - 1
        x = int.from_bytes(top.to_bytes(width, "little") * n, "little")
        fold = mining._mersenne_fold(p, width, 2 * n - 1)
        fields = packed_fields(fold(x * x), 2 * n - 1, width)
        assert all(f < 2 << e for f in fields)
        assert [f % p for f in fields] == [
            min(k + 1, 2 * n - 1 - k) * top * top % p for k in range(2 * n - 1)
        ]

    def test_lucas_lehmer_rejects_composites(self):
        assert [e for e in (3, 5, 7, 11, 13, 23, 29, 31) if lucas_lehmer(e)] == [
            3, 5, 7, 13, 31,
        ]


def fraction_matrix_kernel(u, v, cols, rows):
    """Reference kernel: the coefficient matrix of u^i v^j, one column per
    (i, j) in ``cols``, as Fractions, each row scaled to integers by the lcm
    of its denominators."""
    prods = [(i, j, u ** i * v ** j) for i, j in cols]
    denom = math.lcm(*(p.denom for _, _, p in prods))
    base = min(
        min(p.coeffs) * (denom // p.denom) for _, _, p in prods if not p.is_zero()
    )
    matrix = []
    for e in range(base, base + rows):
        row = [p.coefficient(F(e, denom)) for _, _, p in prods]
        den = math.lcm(*(x.denominator for x in row))
        matrix.append([int(x * den) for x in row])
    return exact_nullspace(matrix)


def reference_coeff_matrix(u, v, s, rows):
    """The integer coefficient matrix of u^i v^j (0 <= i, j <= s) from exact
    series products: (matrix, columns, base index, grid denominator,
    scale), every column put over the lcm ``scale`` of the products'
    scales, on the lcm of their grids from the least leading index."""
    cols = sorted(((i, j) for i in range(s + 1) for j in range(s + 1)), key=sum)
    prods = [u ** i * v ** j for i, j in cols]
    denom = math.lcm(*(p.denom for p in prods))
    base = min(min(p.nums) * (denom // p.denom) for p in prods if p.nums)
    top = base + rows
    for p in prods:
        if p.hi is not None and p.hi * (denom // p.denom) < top:
            raise InsufficientTruncation("short", required_grid_order=top)
    scale = math.lcm(*(p.scale for p in prods))
    rebased = [
        {k * (denom // p.denom): c * (scale // p.scale) for k, c in p.nums.items()}
        for p in prods
    ]
    matrix = [[col.get(e, 0) for col in rebased] for e in range(base, top)]
    return matrix, cols, base, denom, scale


def unpack_rows(rows, ncols, width, p):
    """Packed rows as lists of fields reduced mod p."""
    return [[f % p for f in packed_fields(row, ncols, width)] for row in rows]


def rows_mod_p(u, v, s, rows, p=P61, table=None, residue=None):
    """build_coeff_matrix's rows mod p as lists, with its other results."""
    if table is None:
        table = mining.MonomialTable(u, v, rows, p)
    m, cols, base, denom = build_coeff_matrix(u, v, s, rows, table, residue)
    return unpack_rows(m, len(cols), table.width, p), cols, base, denom


def reference_mod_p(u, v, s, rows, p=P61):
    """The reference matrix over Q, mod p, with its other results."""
    matrix, cols, base, denom, scale = reference_coeff_matrix(u, v, s, rows)
    inv = pow(scale, -1, p)
    return [[x * inv % p for x in row] for row in matrix], cols, base, denom


def all_bytes_coeff_matrix(u, v, s, rows, table, residue=None):
    """``build_coeff_matrix`` as first written, every byte of each field
    copied: the live-byte copy must return the same rows."""
    cols = mining._columns(s)
    base = table.base(s)
    top = base + rows
    spans = [table.span(i, j) for i, j in cols]
    g, width = table.stride, table.width
    # the rows kept are first + k h below top, so field k of a kept column,
    # at grid index lead + k g, lands k g/h rows below its lead's row
    first, h = (base, 1) if residue is None else (base + (residue - base) % g, g)
    nrows = len(range(first, top, h))
    block = [(c, lead) for c, (lead, _) in zip(cols, spans) if (lead - first) % h == 0]
    step = len(block) * width
    cells = bytearray(nrows * step)  # the rows' bytes, one after another
    for c, ((i, j), lead) in enumerate(block):
        x = table.fields(i, j)
        off = (lead - first) // h
        if x and off < nrows:
            # one strided byte slice per byte of a field
            n = -(-(nrows - off) * h // g)
            raw = (x & ((1 << 8 * width * n) - 1)).to_bytes(n * width, "little")
            for t in range(width):
                cells[off * step + c * width + t :: g // h * step] = raw[t::width]
    matrix = [int.from_bytes(cells[k * step : (k + 1) * step], "little") for k in range(nrows)]
    return matrix, [c for c, _ in block], base, table.denom


def assert_live_bytes_suffice(u, v, s, rows, p):
    """``build_coeff_matrix`` equals the all-bytes copy on a table mod p, for
    the whole matrix and for every block."""
    table = mining.MonomialTable(u, v, rows, p)
    for r in [None, *table.residues(s)]:
        got = build_coeff_matrix(u, v, s, rows, table, r)
        assert got == all_bytes_coeff_matrix(u, v, s, rows, table, r)


@st.composite
def scaled_pairs(draw):
    """(u, v, s, rows): series on grids 1-6 with rational coefficients (so
    scales other than 1) and a nonzero leading term, negative valuations
    allowed, terms a multiple of 1-3 grid points apart (so packed on a
    stride above 1 when the grid is 1), exact or known at least ``rows``
    past it; 1 <= s <= 3."""
    s, rows = draw(st.integers(1, 3)), draw(st.integers(1, 14))
    spacing = draw(st.integers(1, 3))

    def one():
        denom = draw(st.integers(1, 6))
        lead = draw(st.integers(-2 * denom, 2 * denom))
        span = rows * denom + draw(st.integers(0, 2 * denom))
        coeff = st.builds(F, st.integers(-9, 9), st.integers(1, 12))
        steps = draw(st.lists(st.integers(1, max(span // spacing, 1)), max_size=10))
        coeffs = {lead + k * spacing: draw(coeff) for k in steps}
        coeffs[lead] = F(draw(st.sampled_from([-3, -1, 1, 2])), draw(st.integers(2, 12)))
        hi = None if draw(st.booleans()) else lead + span
        return PuiseuxSeries(denom, coeffs, hi)

    return one(), one(), s, rows


RECONSTRUCTION_PRIMES = (P61, P89, (1 << 521) - 1)


def reach(p, d):
    """The largest |n| with 2 |n| d max(T, |n|, d) < p: the fractions over
    d that ``_rational_mod_p`` must recover."""
    m = max(mining.QUOTIENT_T, d)
    n = (p - 1) // (2 * d * m)
    return math.isqrt((p - 1) // (2 * d)) if n >= m else n


@st.composite
def fractions_in_reach(draw):
    """(p, n, d): n/d in lowest terms within reach mod p, with sizes drawn
    log-uniformly so that both ends of the reach are hit."""
    p = draw(st.sampled_from(RECONSTRUCTION_PRIMES))
    d = draw(st.integers(1, 1 << draw(st.integers(0, p.bit_length() // 2 - 1))))
    top = reach(p, d)
    size = min(top, 1 << draw(st.integers(0, top.bit_length())))
    n = draw(st.integers(-size, size))
    g = math.gcd(n, d)
    return p, n // g, d // g


class TestRationalReconstruction:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(RECONSTRUCTION_PRIMES), st.data())
    def test_every_answer_is_a_reduced_preimage(self, p, data):
        # residues of fractions of every size, and random ones, which are
        # mostly refused
        e = p.bit_length()
        n = data.draw(st.integers(-(1 << e), 1 << e))
        d = data.draw(st.integers(1, 1 << data.draw(st.integers(0, e - 1))))
        a = data.draw(st.sampled_from([n * pow(d, -1, p) % p, n % p]))
        got = mining._rational_mod_p(a, p)
        if got is not None:
            n, d = got
            assert d > 0 and math.gcd(n, d) == 1 and (n - a * d) % p == 0

    @settings(max_examples=300, deadline=None)
    @given(fractions_in_reach())
    @example((P61, -reach(P61, 1), 1))
    @example((P61, 1, reach(P61, 1)))
    @example((P89, -1, 3 ** 26))
    def test_fractions_in_reach_come_back(self, case):
        # every n/d with 2 |n| d max(T, |n|, d) < p, so every one with
        # 2 |n| d T < p and |n|, d <= T
        p, n, d = case
        assert mining._rational_mod_p(n * pow(d, -1, p) % p, p) == (n, d)

    def test_zero_residue_is_zero(self):
        for p in RECONSTRUCTION_PRIMES:
            assert mining._rational_mod_p(0, p) == (0, 1)

    def test_the_product_reach_alone_is_ambiguous(self):
        # 2^35 and 1/2^26 share a residue mod 2^61 - 1, and both have
        # |n| d < p/(2T) = 2^36; the larger quotient picks 1/2^26
        assert pow(1 << 26, -1, P61) == 1 << 35
        assert mining._rational_mod_p(1 << 35, P61) == (1, 1 << 26)


class TestBuildCoeffMatrix:
    @settings(max_examples=60, deadline=None)
    @given(scaled_pairs())
    # dense factors with scales 7 and 11: every field of every product is
    # a full sum, which overflows its field unless products are folded twice
    @example(
        (
            PuiseuxSeries(1, {k: F(-(k + 3) ** 5, 7) for k in range(-1, 30)}, 29),
            PuiseuxSeries(1, {k: F((2 * k + 1) ** 7, 11) for k in range(1, 31)}, 31),
            3,
            14,
        )
    )
    def test_rows_mod_p_equal_the_reference_over_q(self, pair):
        u, v, s, rows = pair
        for p in (P61, P89):
            want, cols, base, denom = reference_mod_p(u, v, s, rows, p)
            assert rows_mod_p(u, v, s, rows, p) == (want, cols, base, denom)
            # block by block: a column is nonzero only on the rows of its
            # lead's class mod the stride, and each class's block is the
            # reference cut to those rows and columns
            table = mining.MonomialTable(u, v, rows, p)
            g = table.stride
            leads = [table.span(i, j)[0] for i, j in cols]
            assert all(
                x == 0
                for k, row in enumerate(want)
                for x, lead in zip(row, leads)
                if (base + k - lead) % g
            )
            residues = table.residues(s)
            assert residues == sorted({lead % g for lead in leads})
            for r in residues:
                block = [c for c, lead in zip(cols, leads) if lead % g == r]
                kept = [row for k, row in enumerate(want) if (base + k - r) % g == 0]
                assert rows_mod_p(u, v, s, rows, p, table, r) == (
                    [[row[cols.index(c)] for c in block] for row in kept],
                    block,
                    base,
                    denom,
                )

    @pytest.mark.parametrize("p", mining._PRIMES[:6], ids=lambda p: f"2^{p.bit_length()}-1")
    def test_live_bytes_match_the_all_bytes_copy(self, p):
        # table 1's pair packs on stride 1, table 5's re-mined pair on 4
        table1 = build_binding_series(ABinding(ThetaSpec(1, 3), 12), "m", F(60))
        table5 = build_binding_series(ABinding(ThetaSpec(1, 5), 15, F(4)), "eta5_q4_pow5", F(80))
        for (u, v), s, rows, stride in ((table1, 4, 45, 1), (table5, 5, 70, 4)):
            assert mining.MonomialTable(u, v, rows, p).stride == stride
            assert_live_bytes_suffice(u, v, s, rows, p)

    @settings(max_examples=25, deadline=None)
    @given(scaled_pairs(), st.sampled_from(mining._PRIMES[:6]))
    def test_live_bytes_match_on_scaled_pairs(self, pair, p):
        assert_live_bytes_suffice(*pair, p)

    def test_table1_matrices_form_no_series_product(self, monkeypatch):
        # the matrices are built mod p from u and v alone: exact series
        # products are left to the series build and the Horner certificate
        binding = ABinding(ThetaSpec(1, 3), 12)
        u, v = build_binding_series(binding, "m", F(150))
        shapes = [binding.shape, get_v_binding("m").shape]
        all_rows = {
            s: (s + 1) ** 2 + 10 + mining._valuation_spread(shapes, s) for s in range(1, 8)
        }
        calls = []

        def counting(self, other):
            calls.append(other)
            return real_mul(self, other)

        real_mul = PuiseuxSeries.__mul__
        monkeypatch.setattr(PuiseuxSeries, "__mul__", counting)
        table = mining.MonomialTable(u, v, all_rows[7], P61)
        for s in range(1, 7):
            build_coeff_matrix(u, v, s, all_rows[s], table)
        # nor does a table for a prime climbed to
        climbed = mining.MonomialTable(u, v, all_rows[6], P89)
        build_coeff_matrix(u, v, 6, all_rows[6], climbed)
        assert calls == []
        u * v
        assert len(calls) == 1

    def test_rational_columns_match_row_scaled_fractions(self):
        # u has halves and v thirds, so u^i v^j has scale 2^i 3^j
        u = PuiseuxSeries.from_pairs([(1, F(1, 2)), (2, 1), (5, -3)], order=40)
        v = u * u * F(4, 3)
        m, cols, base, denom, _ = reference_coeff_matrix(u, v, 2, 19)
        assert [(u ** i * v ** j).scale for i, j in cols] == [
            2 ** i * 3 ** j for i, j in cols
        ]
        assert all(isinstance(x, int) for row in m for x in row)
        assert rows_mod_p(u, v, 2, 19) == reference_mod_p(u, v, 2, 19)
        ker = exact_nullspace(m)
        assert ker == fraction_matrix_kernel(u, v, cols, 19)
        relation = BivarIntPoly.normalized([(0, 1, 3), (2, 0, -4)])
        assert relation in [
            BivarIntPoly.normalized([(i, j, c) for (i, j), c in zip(cols, vec)])
            for vec in ker
        ]

    def test_constant_inputs(self):
        one = PuiseuxSeries.constant(1)
        m, cols, base, denom = rows_mod_p(one, one, 1, 5)
        assert base == 0
        assert all(not any(row) for row in m[1:])
        assert m[0] == [1, 1, 1, 1]

    @pytest.mark.parametrize(
        "u",
        [
            PuiseuxSeries.from_pairs([(F(-1, 2), 3), (1, F(-2, 5))], order=7),
            PuiseuxSeries.from_pairs([(3, F(-5, 4))], order=5),
            PuiseuxSeries.constant(F(7, 2)),
        ],
    )
    def test_unit_monomials_are_the_power_tables(self, u):
        # u^i v^0 and u^0 v^j are the power tables' own entries: the same
        # fields, mod p, as the exact products with the exact 1, and known as
        # far as those
        # v has even exponents only, so beside the one-term u's (one known
        # two grid rows past its lead, one exact) the fields hold every
        # second grid row
        v = rescale(modulus_series(3), 2)
        table = mining.MonomialTable(u, v, 4, P61)
        assert table.stride == (1 if len(u.nums) > 1 else 2)
        for i, j in [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)]:
            (lead, known), packed = table.span(i, j), table.fields(i, j)
            want = u ** i * v ** j
            f = table.denom // want.denom
            if want.nums:
                assert lead == min(want.nums) * f
            if want.hi is not None:
                assert lead + known <= want.hi * f
            g = table.stride
            n = -(-known // g)
            fields = unpack_rows([packed], n, table.width, P61)[0]
            inv = pow(want.scale, -1, P61)
            assert fields == [
                want.nums.get((lead + k * g) // f, 0) * inv % P61
                if (lead + k * g) % f == 0 else 0
                for k in range(n)
            ]
        assert not table._products  # no product was formed
        assert (table.span(0, 0), table.fields(0, 0)) == ((0, 4), 1)

    def test_rows_start_at_most_negative_exponent(self):
        u, v = PuiseuxSeries.from_pairs([(-1, 1), (0, 1)], order=20), modulus_series(20)
        table = mining.MonomialTable(u, v, 8, P61)
        m, cols, base, denom = build_coeff_matrix(u, v, 2, 8, table)
        assert base == -2 * denom // denom * 1 - 0 or base == -2  # u^2 reaches -2
        assert base == -2

    def test_a14_nine_rows_kernel_is_one_dimensional(self):
        u = A_series(ThetaSpec(1, 4), 30) ** 12
        v = modulus_series(30)
        m, cols, base, denom, _ = reference_coeff_matrix(u, v, 2, 9)
        ker = exact_nullspace(m)
        assert len(ker) == 1
        # the rows mod p lift to the same kernel
        table = mining.MonomialTable(u, v, 9, P61)
        rows = build_coeff_matrix(u, v, 2, 9, table)[0]
        one_block = [(range(len(cols)), rows)]
        kernel = mining._ReducedKernel([(P61, one_block, table.width)], len(cols))
        assert kernel.lift(len(cols)) == ker
        poly = BivarIntPoly.normalized(
            [(i, j, c) for (i, j), c in zip(cols, ker[0])]
        )
        assert poly == REL_14

    def test_insufficient_truncation_reports_requirement(self):
        u = A_series(ThetaSpec(1, 4), 8) ** 12
        v = modulus_series(8)
        with pytest.raises(InsufficientTruncation) as exc:
            build_coeff_matrix(u, v, 3, 60, mining.MonomialTable(u, v, 60, P61))
        assert exc.value.required_grid_order > 0


def record_eliminations(monkeypatch, matrices=None):
    """A list that gets (columns, p) for each prime a ``_ReducedKernel``
    eliminates its matrix mod, once per prime whatever its number of
    blocks; ``matrices``, when given, gets (columns, (p, blocks, width))."""
    eliminations = []
    real_init = mining._ReducedKernel.__init__

    def init(kernel, items, ncols):
        def recorded():
            for item in items:
                eliminations.append((ncols, item[0]))
                if matrices is not None:
                    matrices.append((ncols, item))
                yield item

        real_init(kernel, recorded(), ncols)

    monkeypatch.setattr(mining._ReducedKernel, "__init__", init)
    return eliminations


class TestMine:
    def test_rediscovers_corrected_1_4_relation(self):
        rel = mine_14()
        assert rel.poly == REL_14
        assert rel.degree == 2
        assert len(rel.numeric_checks) == 2

    def test_shared_tables_build_the_standalone_matrices(self, monkeypatch):
        # mine builds one table per prime, cut to the largest matrix's rows,
        # and powers as far as the degrees reached; every degree's matrix
        # must equal, mod p, the one that build_coeff_matrix builds from u
        # and v on its own, and the reference over Q
        standalone = mining.build_coeff_matrix
        calls = []

        def recording(u, v, s, rows, table=None, residue=None):
            # one record per degree, whatever its number of blocks
            if not calls or calls[-1][2] != s:
                calls.append((u, v, s, rows, table))
            return standalone(u, v, s, rows, table, residue)

        monkeypatch.setattr(mining, "build_coeff_matrix", recording)
        # at s_max = 2 the s = 2 matrix is the largest, so the cut is tight
        assert mine_14(s_max=2).poly == REL_14
        assert [s for _, _, s, _, _ in calls] == [1, 2]
        (u, v, _, _, table), _ = calls
        assert len(table._pows[0]) == 3 and all(call[4] is table for call in calls)
        assert table.rows == calls[-1][3] and table.p == P61
        for u, v, s, rows, table in calls:
            got = rows_mod_p(u, v, s, rows, table=table)
            assert got == rows_mod_p(u, v, s, rows)
            assert got == reference_mod_p(u, v, s, rows)

    def test_rank_profile_matches_rank_of_each_column_subset(self):
        # the columns are ordered by total degree, so for every d the basis
        # vectors of total degree <= d, cut to the columns of total degree
        # <= d, are those columns' reduced kernel, and give their rank
        u = A_series(ThetaSpec(-2, 8), 90) ** 12
        v = rescale(modulus_series(45), 2) ** 2
        shapes = [(w.leading()[0], F(1, w.denom)) for w in (u, v)]
        for s in (4, 5):
            rows = (s + 1) ** 2 + 10 + mining._valuation_spread(shapes, s)
            m, cols, _, _, _ = reference_coeff_matrix(u, v, s, rows)
            assert rows_mod_p(u, v, s, rows) == reference_mod_p(u, v, s, rows)
            basis = exact_nullspace(m)
            for d in range(2 * s + 1):
                n = sum(1 for i, j in cols if i + j <= d)
                assert all(i + j <= d for i, j in cols[:n])
                sub = [row[:n] for row in m]
                low = [vec[:n] for vec in basis if not any(vec[n:])]
                assert low == bareiss_nullspace(sub)
                assert n - len(low) == rank_mod_p(sub)
        # at s = 5 the kernel has two vectors each of total degree 6, 7, 8
        degrees = [sum(cols[max(k for k, c in enumerate(x) if c)]) for x in basis]
        assert degrees == [5, 6, 6, 7, 7, 8, 8, 9]

    def test_three_term_variant_fails_certification(self):
        # the 2-variable relation u^2 v + 16 v - 16 (the shape implied by
        # the uncorrected 24th-power evaluation) must NOT validate; the
        # miner can only return the 4-term corrected relation
        bad = BivarIntPoly.normalized([(2, 1, 1), (0, 1, 16), (0, 0, -16)])
        u = A_series(ThetaSpec(1, 4), 62) ** 12
        v = modulus_series(62)
        rel = MinedRelation(
            poly=bad, degree=2, validated_grid_order=19,
            u_binding=ABinding(ThetaSpec(1, 4), 12), v_binding="m",
        )
        with pytest.raises(ValidationFailed):
            validate(rel, digits=40, u=u, v=v)

    def test_rediscovers_table4_relation(self):
        u = A_series(ThetaSpec(-2, 8), 90) ** 12
        v = rescale(modulus_series(45), 2) ** 2
        rel = mine(
            u, v, 5, 150,
            u_binding=ABinding(ThetaSpec(-2, 8), 12), v_binding="m_q2_squared",
        )
        assert rel.poly == REL_M2_8
        assert rel.degree == 4

    def test_rediscovers_table3_relation(self, monkeypatch):
        # these series are short of the largest matrix plus the validation
        # rows: mine rebuilds them from the bindings once, before any matrix
        events = []
        for name in ("build_binding_series", "build_coeff_matrix"):
            def recording(*args, _fn=getattr(mining, name), _name=name):
                events.append(_name)
                return _fn(*args)

            monkeypatch.setattr(mining, name, recording)
        u = A_series(ThetaSpec(-1, 6), 60) ** 6
        v = sqrt_series(modulus_series(61))
        rel = mine(
            u, v, 5, None,
            u_binding=ABinding(ThetaSpec(-1, 6), 6), v_binding="sqrt_m",
        )
        assert rel.poly == REL_M1_6
        assert events[0] == "build_binding_series"
        assert events.count("build_binding_series") == 1

    def test_unbuilt_pair_is_built_once_before_the_first_matrix(self, monkeypatch):
        # with bindings and no series, mine sizes its rows from the declared
        # shapes and builds u and v once, as far as its largest matrix and
        # validation window reach
        events = []

        def build(*args):
            events.append(("build", args[2]))
            return real_build(*args)

        def matrix(*args):
            events.append("matrix")
            return real_matrix(*args)

        real_build, real_matrix = mining.build_binding_series, mining.build_coeff_matrix
        monkeypatch.setattr(mining, "build_binding_series", build)
        monkeypatch.setattr(mining, "build_coeff_matrix", matrix)
        rel = mine(
            None, None, 5, u_binding=ABinding(ThetaSpec(-1, 6), 6), v_binding="sqrt_m"
        )
        assert rel.poly == REL_M1_6
        builds = [e for e in events if e != "matrix"]
        assert events.index("matrix") == len(builds) == 1
        assert rel.validated_grid_order <= builds[0][1]

    def test_zero_quotient_is_refused_before_anything_is_built(self, monkeypatch):
        # A(1, 1/1000; q) is identically zero (ThetaSpec.is_zero), and so is
        # every positive power of it
        def build(*args):
            raise AssertionError("mine built a series")

        monkeypatch.setattr(mining, "build_binding_series", build)
        with pytest.raises(MiningError, match="identically zero products"):
            mine(None, None, 1, u_binding=ABinding(ThetaSpec(1, F(1, 1000)), 1), v_binding="m")

    def test_zero_factor_is_refused_by_mine_and_validate(self):
        # a factor with no known nonzero term makes every product with it
        # vanish, so neither a matrix nor a certificate is formed from it
        zero = PuiseuxSeries.from_pairs([], order=F(5, 3))
        v = modulus_series(10)
        rel = MinedRelation(poly=REL_14, degree=2, validated_grid_order=5)
        for pair in ((zero, v), (v, zero)):
            with pytest.raises(MiningError, match="identically zero products"):
                mine(*pair, 1, 5)
            with pytest.raises(MiningError, match="identically zero products"):
                validate(rel, 40, *pair)

    def test_bound_pair_that_reaches_the_rows_is_not_rebuilt(self, monkeypatch):
        # the benchmark's mine jobs pass series built at order 150
        binding = ABinding(ThetaSpec(-2, 8), 12)
        u, v = build_binding_series(binding, "m_q2_squared", F(150))

        def build(*args):
            raise AssertionError("mine built series it was given")

        monkeypatch.setattr(mining, "build_binding_series", build)
        rel = mine(u, v, 5, None, u_binding=binding, v_binding="m_q2_squared")
        assert rel.poly == REL_M2_8

    def test_no_degree_one_relation_for_1_4(self):
        with pytest.raises(MiningNotFound) as exc:
            mine_14(s_max=1, M=120)
        assert exc.value.rank_profile.get(1) == 4  # full column rank at s=1

    def test_not_found_reports_the_full_rank_of_each_degree(self, monkeypatch):
        matrices = {}  # by degree, whatever its number of blocks

        def recording(u, v, s, rows, table, residue=None):
            matrices[s] = reference_coeff_matrix(u, v, s, rows)[:2]
            return real_matrix(u, v, s, rows, table, residue)

        def reject(rel, **kwargs):
            raise ValidationFailed("forced")

        real_matrix = mining.build_coeff_matrix
        monkeypatch.setattr(mining, "build_coeff_matrix", recording)
        monkeypatch.setattr(mining, "validate", reject)
        with pytest.raises(MiningNotFound) as exc:
            mine_14(s_max=3)
        assert "rejected candidates: s=2: " in str(exc.value)
        assert exc.value.rank_profile == {
            s: len(cols) - len(exact_nullspace(m)) for s, (m, cols) in matrices.items()
        }

    def test_not_found_counts_the_candidates_that_failed_only_numerically(self, monkeypatch):
        # REL_14 passes the series check; with the numeric rule refusing
        # everything it is the one candidate rejected through degree 2
        monkeypatch.setattr(mining, "passes", lambda residual, digits, *terms: False)
        with pytest.raises(MiningNotFound) as exc:
            mine_14(s_max=2)
        message = str(exc.value)
        assert "; kernel vectors that passed the series check and failed numerically: 1;" in message
        assert f"rejected candidates: s=2: {REL_14} rejected (numeric residual " in message

    def test_not_found_counts_no_candidate_that_failed_the_series_check(self, monkeypatch):
        def reject(rel, **kwargs):  # nonzero past every matrix row
            raise ValidationFailed("forced", exponent=F(10 ** 6))

        monkeypatch.setattr(mining, "validate", reject)
        with pytest.raises(MiningNotFound) as exc:
            mine_14(s_max=2)
        assert "rejected candidates: s=2: " in str(exc.value)
        assert "failed numerically" not in str(exc.value)

    def test_full_kernel_solved_only_after_restricted_candidates_fail(
        self, monkeypatch
    ):
        # one elimination per degree serves every total degree, and only the
        # vectors that mine asks for are lifted
        eliminations, lifted = record_eliminations(monkeypatch), {}

        def lift(kernel, end):
            vecs = real_lift(kernel, end)
            lifted.setdefault(kernel.ncols, []).extend(vecs)
            return vecs

        real_lift = mining._ReducedKernel.lift
        monkeypatch.setattr(mining._ReducedKernel, "lift", lift)
        assert mine_14().poly == REL_14
        assert eliminations == [(4, P61), (9, P61)]
        # s = 2: the kernel's one vector, of total degree 3, validates
        assert lifted == {4: [], 9: [[16, -32, 0, 16, 0, 0, 0, -1, 0]]}

    def test_scale_divisible_by_the_first_prime_skips_it(self, monkeypatch):
        # mod 2^61 - 1 the scale of u / (2^61 - 1) has no inverse, so its
        # tables start at the next prime, and the relation is REL_14's
        eliminations = record_eliminations(monkeypatch)
        u = A_series(ThetaSpec(1, 4), 62) ** 12
        v = modulus_series(62)
        scaled = mine(u * F(1, P61), v, 3, 120).poly
        primes = [p for _, p in eliminations]
        assert P61 not in primes and P89 in primes
        # P(u / p, v) = 0 has the coefficients of REL_14 times p^i
        assert all(c % P61 ** i == 0 for i, _, c in scaled.terms)
        back = BivarIntPoly.normalized([(i, j, c // P61 ** i) for i, j, c in scaled.terms])
        assert back == REL_14

    @pytest.mark.parametrize(
        "c, caught_by", [(3 ** 26, "reconstruction"), (2 ** 40, "residual")]
    )
    def test_bad_lift_climbs_to_the_next_prime(self, monkeypatch, c, caught_by):
        # v = c u, so the kernel vector at column u is (0, -1/c, 1), beyond
        # the reach |n| d < p/(2T) = 2^36 mod 2^61 - 1 and within it mod
        # 2^89 - 1.  Mod 2^61 - 1, no quotient of -1/3^26's Euclidean
        # algorithm exceeds T, so the lift fails at once; -1/2^40 = -2^21
        # there, which reconstructs as -2^21/1 (its quotient is near 2^40),
        # a small wrong fraction whose residual is nonzero on the matrix rows
        eliminations, verdicts = record_eliminations(monkeypatch), []

        def recording(rel, **kwargs):
            try:
                out = real_validate(rel, **kwargs)
            except ValidationFailed as exc:
                verdicts.append(exc.exponent)
                raise
            verdicts.append("ok")
            return out

        real_validate = mining.validate
        monkeypatch.setattr(mining, "validate", recording)
        u = PuiseuxSeries.from_pairs([(1, 1), (3, 1)])
        rel = mine(u, u * c, 1, 30)
        assert rel.poly == BivarIntPoly.normalized([(0, 1, 1), (1, 0, -c)])
        assert [p for _, p in eliminations] == [P61, P89]
        # the residual of the wrong lift is nonzero at q^1, u's leading term
        assert verdicts == (["ok"] if caught_by == "reconstruction" else [1, "ok"])

    def test_a_bad_lift_after_the_validated_candidate_climbs(self, monkeypatch):
        # u = 2^-40 and v = 5 have two relations of total degree 1: 2^40 u -
        # 1, which sorts first, and v - 5.  Mod 2^61 - 1 the entry -2^-40 of
        # u's vector is -2^21, which reconstructs as -2^21/1, and the bad
        # lift u - 2^21 sorts after v - 5, which validates.  The bad lift is
        # found on the matrix rows, and the degree climbs to 2^89 - 1, where
        # both vectors lift exactly
        eliminations = record_eliminations(monkeypatch)
        u, v = PuiseuxSeries.constant(F(1, 2 ** 40)), PuiseuxSeries.constant(5)
        rel = mine(u, v, 1, 10)
        assert rel.poly == BivarIntPoly.normalized([(1, 0, 2 ** 40), (0, 0, -1)])
        assert [p for _, p in eliminations] == [P61, P89]

    def test_table1_is_lifted_from_the_first_prime(self, monkeypatch):
        # its degree-6 vector has entries up to 2,324,522,934 ~ 2^31.1, in
        # reach mod 2^61 - 1: every degree is eliminated once, mod 2^61 - 1,
        # and the one candidate lifted validates
        eliminations, validated = record_eliminations(monkeypatch), []

        def recording(rel, **kwargs):
            validated.append(rel.degree)
            return real_validate(rel, **kwargs)

        real_validate = mining.validate
        monkeypatch.setattr(mining, "validate", recording)
        binding = ABinding(ThetaSpec(1, 3), 12)
        rel = mine(None, None, 7, u_binding=binding, v_binding="m")
        assert rel.degree == 6 and rel.poly.term_count() == 27
        assert max(abs(c) for _, _, c in rel.poly.terms) == 2324522934
        assert eliminations == [((s + 1) ** 2, P61) for s in range(1, 7)]
        assert validated == [6]

    def test_short_unbound_pair_raises_insufficient_truncation(self):
        # with no bindings mine cannot rebuild the series, so a pair too
        # short for the degree-3 rows is refused by build_coeff_matrix
        u = A_series(ThetaSpec(1, 4), 20) ** 12
        with pytest.raises(InsufficientTruncation):
            mine(u, modulus_series(20), 3, None)

    def test_stability_under_forty_extra_orders(self):
        base = mine_14(order=62, M=120).poly
        longer = mine_14(order=85, M=160).poly
        assert base == longer

    def test_stability_heavy_catalog_cases(self):
        # the two largest mining jobs: the 27-term degree-6 relation for the
        # (1,3) quotient and the degree-11 relation of the degree-5 tower
        cases = [
            (ABinding(ThetaSpec(1, 3), 12), "m", 7, 220),
            (ABinding(ThetaSpec(1, 5), 15, F(4)), "eta5_q4_pow5", 12, 300),
        ]
        for binding, vname, s_max, q_order in cases:
            polys = []
            for extra in (0, 40):
                u, v = build_binding_series(binding, vname, F(q_order + extra))
                rel = mine(u, v, s_max, None, u_binding=binding, v_binding=vname)
                polys.append(rel.poly)
            assert polys[0] == polys[1], (binding, vname)

    def test_scale_invariance(self):
        u = A_series(ThetaSpec(1, 4), 62) ** 12
        v = modulus_series(62)
        c = F(3, 2)
        rel_scaled = mine(u * c, v, 3, 120)
        # the scaled relation satisfies P'(c u, v) = 0, so substituting the
        # scaled variable back and clearing content must recover the
        # unscaled relation
        terms = [
            (i, j, F(coef) * c ** i) for i, j, coef in rel_scaled.poly.terms
        ]
        den = 1
        for _, _, coef in terms:
            den = den * coef.denominator // __import__("math").gcd(den, coef.denominator)
        back = BivarIntPoly.normalized(
            [(i, j, int(coef * den)) for i, j, coef in terms]
        )
        assert back == mine(u, v, 3, 120).poly


class TestValidate:
    def test_table4_numeric_residuals(self):
        u = A_series(ThetaSpec(-2, 8), 90) ** 12
        v = rescale(modulus_series(45), 2) ** 2
        rel = mine(
            u, v, 5, 150,
            u_binding=ABinding(ThetaSpec(-2, 8), 12), v_binding="m_q2_squared",
            digits=60,
        )
        import mpmath

        for chk in rel.numeric_checks:
            assert mpmath.mpf(chk.residual) < mpmath.mpf("1e-40")

    def test_corrupted_coefficient_caught_by_series_check(self):
        rel = mine_14()
        bad_terms = [
            (i, j, c + 1 if (i, j) == (0, 0) else c)
            for i, j, c in rel.poly.terms
        ]
        bad = MinedRelation(
            poly=BivarIntPoly.normalized(bad_terms),
            degree=rel.degree,
            validated_grid_order=19,
            u_binding=rel.u_binding,
            v_binding=rel.v_binding,
        )
        u = A_series(ThetaSpec(1, 4), 62) ** 12
        v = modulus_series(62)
        with pytest.raises(ValidationFailed, match="series residual"):
            validate(bad, digits=40, u=u, v=v)

    def test_revalidation_of_returned_relation(self):
        # soundness: every returned relation passes validate again with
        # extra orders and two numeric points
        rel = mine_14()
        again = validate(rel, digits=60)
        assert again.poly == rel.poly
        assert len(again.numeric_checks) == 2

    def test_residual_window_does_not_shrink_with_the_grid(self):
        # u - v = q^40 + q^(201/2) from base exponent 1: the term on the
        # finer grid, past the window, must not narrow the window to rows of
        # half a unit, which would end it below q^40
        poly = BivarIntPoly.normalized([(1, 0, 1), (0, 1, -1)])
        v = PuiseuxSeries.from_pairs([(1, 1), (2, -3)], order=200)
        for tail in ([(40, 1), (F(201, 2), 1)], [(40, 1)]):
            u = v + PuiseuxSeries.from_pairs(tail)
            assert mining._first_nonzero(poly, u, v, 60) == (39, 40)

    def test_validate_without_bindings_needs_series(self):
        rel = MinedRelation(poly=REL_14, degree=2, validated_grid_order=19)
        with pytest.raises(ValidationFailed, match="no series"):
            validate(rel, digits=40)

    def test_validate_fallback_numeric_via_series(self):
        # without bindings the numeric certification falls back to
        # evaluating the supplied series
        u = A_series(ThetaSpec(1, 4), 62) ** 12
        v = modulus_series(62)
        rel = mine(u, v, 3, 120)
        assert rel.u_binding is None
        assert len(rel.numeric_checks) == 2


# A(a, p)^power against m at max-degree 12, power the denominator of the
# lead: the relation's (degree, terms, certified rows), or None where the
# matrix has full rank at every degree
PAST_THE_TABLES = {
    (1, 6, 12): (4, 17, 68),
    (2, 6, 6): (4, 10, 68),
    (3, 6, 4): (12, 31, 228),
    (2, 8, 12): (2, 3, 48),
    (4, 8, 3): (8, 7, 132),
    (5, 10, 12): (12, 69, 276),
    (1, 5, 60): None,
    (2, 5, 60): None,
    (3, 9, 4): None,
    (2, 10, 30): None,
    (4, 10, 30): None,
    (1, 8, 48): None,
    (1, 7, 84): None,
}


@functools.cache  # the relation is immutable; two tests share the A(5,10)^12 one
def mine_against_m(a, p, power, digits=60):
    return mine(
        None, None, 12, u_binding=ABinding(ThetaSpec(a, p), power), v_binding="m",
        digits=digits,
    )


class TestPastTheTables:
    @pytest.mark.parametrize("a, p, power", PAST_THE_TABLES)
    def test_pinned_relation_or_full_rank(self, a, p, power):
        expected = PAST_THE_TABLES[a, p, power]
        if expected is None:
            with pytest.raises(MiningNotFound) as exc:
                mine_against_m(a, p, power)
            assert exc.value.rank_profile == {s: (s + 1) ** 2 for s in range(1, 13)}
            return
        rel = mine_against_m(a, p, power)
        assert (rel.degree, rel.poly.term_count(), rel.validated_grid_order) == expected
        # apart from the miner: A from eval_A and m = k^2 from singular_point,
        # at twice the digits and at r = 3, a point the miner does not check
        for r in (1, 2, 3):
            u = eval_A(ThetaSpec(a, p), nome_from_r(r, 120), 120) ** power
            m = singular_point(r, 120).k ** 2
            terms = [c * u ** i * m ** j for i, j, c in rel.poly.terms]
            size = max(abs(t) for t in terms)
            assert abs(sum(terms[1:], terms[0])) < size * big_real("1e-100", 120)

    def test_large_terms_pass_at_sixty_digits(self):
        # the absolute 10^(-digits/2) this relation was once held to failed
        # it at r = 2, where its residual 1.0588e-22 is a relative 3.4e-76
        # of its largest term, 3.112e53; judged against its terms, it is
        # found at 60 digits as at 200
        rel = mine_against_m(5, 10, 12)
        assert rel.poly == mine_against_m(5, 10, 12, digits=200).poly
        assert (rel.poly.term_count(), rel.validated_grid_order) == (69, 276)
        assert [c.residual for c in rel.numeric_checks] == ["6.0185e-36", "1.0588e-22"]


class TestRelationFile:
    def test_json_schema_and_roundtrip(self):
        rel = mine_14()
        obj = rel.to_json_obj()
        assert set(obj) == {"u", "v", "poly", "validated_grid_order", "numeric_checks"}
        assert obj["u"] == {"a": "1", "p": "4", "power": 12}
        assert obj["v"] == "m"
        assert all(isinstance(c, str) for _, _, c in obj["poly"])
        assert all(
            set(chk) == {"r", "digits", "residual"} for chk in obj["numeric_checks"]
        )
        back = MinedRelation.from_json(rel.to_json())
        assert back.poly == rel.poly
        assert back.u_binding == rel.u_binding
        assert back.v_binding == rel.v_binding

    def test_qscale_serialized_only_when_nontrivial(self):
        b = ABinding(ThetaSpec(1, 5), 15, F(4))
        assert b.to_json_obj()["qscale"] == "4"
        assert "qscale" not in ABinding(ThetaSpec(1, 4), 12).to_json_obj()
        assert ABinding.from_json_obj(b.to_json_obj()) == b

    @pytest.mark.parametrize("qscale", ["0", "-1/2"])
    def test_non_positive_qscale_rejected(self, qscale):
        obj = {"a": "1", "p": "5", "power": 15, "qscale": qscale}
        with pytest.raises(ValueError, match="qscale must be positive"):
            ABinding.from_json_obj(obj)


def assert_shape(binding, tight=False):
    """A binding's declared (lead, step) against its series to relative
    order 40: it leads at lead and every term lies on lead + step Z; if
    ``tight``, the offsets from lead have gcd step."""
    lead, step = binding.shape
    ser = binding.series(F(40))
    assert ser.leading()[0] == lead
    offsets = [(e - lead) / step for e, _ in ser.terms()]
    assert all(k.denominator == 1 for k in offsets)
    assert not tight or math.gcd(*(int(k) for k in offsets)) == 1


class TestVBindings:
    @pytest.mark.parametrize(
        "name,val", [("m", (1, 1)), ("sqrt_m", (F(1, 2), 1)), ("m_q2_squared", (4, 2)),
                     ("eta5_q4_pow5", (4, 4))]
    )
    def test_series_leading_exponent(self, name, val):
        # each v declares its (lead, step), and its series has that shape
        assert get_v_binding(name).shape == val
        assert_shape(get_v_binding(name), tight=True)

    def test_build_binding_series_pair(self):
        u, v = build_binding_series(ABinding(ThetaSpec(1, 4), 12), "m", F(40))
        assert u.leading()[0] == F(-1, 2)
        assert v.leading()[0] == 1


# every u the catalog, the CLI examples and the tests bind, plus the two
# half-integer quotients
A_BINDINGS = (
    ABinding(ThetaSpec(1, 4), 12),
    ABinding(ThetaSpec(1, 3), 12),
    ABinding(ThetaSpec(8, 6), 6),
    ABinding(ThetaSpec(-1, 6), 6),
    ABinding(ThetaSpec(-2, 8), 12),
    ABinding(ThetaSpec(1, 5), 15, F(2)),
    ABinding(ThetaSpec(1, 5), 15, F(4)),
    ABinding(ThetaSpec(F(1, 2), 4), 1),
    ABinding(ThetaSpec(F(1, 2), 2), 1),
)
BINDING_SERIES = {
    **{f"A({b.spec.a},{b.spec.p};q^{b.qscale})^{b.power}": b.series
       for b in A_BINDINGS},
    **{name: b.series for name, b in mining.V_BINDINGS.items()},
}


def plain_first_nonzero(poly, u, v, through_rows):
    """Reference for ``mining._first_nonzero``: P(u, v) by plain Horner in
    u, one product per u-degree, from u and v cut as the certificate cuts
    them, with the certificate's knowledge check."""
    vu, vv = u.leading()[0], v.leading()[0]
    base = min(i * vu + j * vv for i, j, _ in poly.terms)
    top = math.floor(base) + through_rows
    u, v = (w.truncate(w.leading()[0] + top - base) for w in (u, v))
    q = [PuiseuxSeries.zero() for _ in range(poly.max_single_degree + 1)]
    for i, j, c in poly.terms:
        q[i] = q[i] + v ** j * c
    residual = q[-1]
    for q_i in reversed(q[:-1]):
        residual = residual * u + q_i
    need = top * residual.denom
    if residual.hi is not None and residual.hi < need:
        raise InsufficientTruncation("short", required_grid_order=need)
    residual = residual.truncate(top)
    if not residual.nums:
        return None
    lead = min(residual.nums)
    return lead - math.floor(base * residual.denom), F(lead, residual.denom)


def chain_horner_residual(poly, u, v, through_rows):
    """``mining._horner_residual`` as first written, each Q_i a chain of
    pairwise sums of scalar multiples of the V^j: the one sum per u-degree
    must give the same residual and the same InsufficientTruncation."""
    vu, vv = u.leading()[0], v.leading()[0]
    base_exp = min(i * vu + j * vv for i, j, _ in poly.terms)
    top = math.floor(base_exp) + through_rows
    reach = top - base_exp
    u, v = u.truncate(vu + reach), v.truncate(vv + reach)
    a = math.gcd(*(i for i, _, _ in poly.terms)) or 1
    b = math.gcd(*(j for _, j, _ in poly.terms)) or 1
    u, v = u ** a, v ** b
    v_pows = [PuiseuxSeries.constant(1), v]
    while len(v_pows) <= max(j for _, j, _ in poly.terms) // b:
        v_pows.append(v_pows[-1] * v)
    q = [PuiseuxSeries.zero() for _ in range(max(i for i, _, _ in poly.terms) // a + 1)]
    for i, j, c in poly.terms:
        q[i // a] = q[i // a] + v_pows[j // b] * c
    residual = q[-1]
    for q_i in reversed(q[:-1]):
        residual = residual * u + q_i
    need = top * residual.denom
    if residual.hi is not None and residual.hi < need:
        raise InsufficientTruncation(
            f"residual known to grid order {residual.hi} < required {need}",
            required_grid_order=need,
        )
    return residual.truncate(top), base_exp


@st.composite
def certificate_pairs(draw):
    """(u, v, n): series on grids 1/1 to 1/6 with rational coefficients (so
    scales other than 1) and a nonzero leading term, negative valuations
    allowed, exact or known 1 to n + 2 grid units past it, so often cut too
    short for n rows."""
    n = draw(st.integers(1, 10))
    coeff = st.builds(F, st.integers(-9, 9), st.integers(1, 12))

    def one():
        denom = draw(st.integers(1, 6))
        lead = draw(st.integers(-2 * denom, 2 * denom))
        span = draw(st.integers(1, (n + 2) * denom))
        coeffs = {lead + k: draw(coeff) for k in draw(st.lists(st.integers(1, span), max_size=10))}
        coeffs[lead] = draw(coeff.filter(bool))
        return PuiseuxSeries(denom, coeffs, None if draw(st.booleans()) else lead + span)

    return one(), one(), n


@st.composite
def strided_relations(draw):
    """Relations whose u-exponents are multiples of a and v-exponents
    multiples of b, a and b in 1..3, each at most 3 times that; or in u
    alone or v alone, where the other gcd is 0."""
    shape = draw(st.sampled_from(["both", "u only", "v only"]))
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    i = st.integers(0, 0 if shape == "v only" else 3).map(lambda k: a * k)
    j = st.integers(0, 0 if shape == "u only" else 3).map(lambda k: b * k)
    terms = draw(
        st.dictionaries(st.tuples(i, j), st.integers(-4, 4).filter(bool), min_size=1)
    )
    return BivarIntPoly.normalized([(i, j, c) for (i, j), c in terms.items()])


@st.composite
def known_pairs(draw):
    """(u, v, n): series on the 1, 1/2, 1/3 or 1/5 grid with a nonzero
    leading term (negative valuations allowed), exact or truncated with
    relative order at least n."""
    n = draw(st.integers(1, 12))

    def one():
        denom = draw(st.sampled_from([1, 2, 3, 5]))
        lead = draw(st.integers(-2 * denom, 2 * denom))
        span = n * denom + draw(st.integers(0, 2 * denom))
        coeffs = {lead + k: draw(st.integers(-5, 5))
                  for k in draw(st.lists(st.integers(1, span), max_size=12))}
        coeffs[lead] = draw(st.sampled_from([-3, -1, 1, 2]))
        hi = None if draw(st.booleans()) else lead + span
        return PuiseuxSeries(denom, coeffs, hi)

    return one(), one(), n


@st.composite
def a_bindings(draw):
    """u = A(a, p; q^qscale)^power with p up to 120, a/p not an integer
    (A(a, p; q) is zero there), a power of either sign and qscale 1, 2 or
    1/3."""
    p = draw(st.fractions(min_value=F(1, 4), max_value=120, max_denominator=4))
    a = draw(
        st.fractions(min_value=-p, max_value=2 * p, max_denominator=4).filter(
            lambda a: (a / p).denominator != 1
        )
    )
    power = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return ABinding(ThetaSpec(a, p), power, draw(st.sampled_from([F(1), F(2), F(1, 3)])))


class TestShapes:
    @pytest.mark.parametrize(
        "binding", A_BINDINGS, ids=lambda b: f"A({b.spec.a},{b.spec.p};q^{b.qscale})^{b.power}"
    )
    def test_declared_shape_is_the_series_shape(self, binding):
        assert_shape(binding, tight=True)

    @settings(max_examples=40, deadline=None)
    @given(a_bindings())
    @example(ABinding(ThetaSpec(1, 60), 1))
    def test_drawn_terms_lie_on_the_declared_shape(self, binding):
        assert_shape(binding)

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=F(1, 4), max_value=120, max_denominator=4),
        st.one_of(
            st.integers(-2, 2),
            st.fractions(min_value=-1, max_value=2, max_denominator=12),
        ),
    )
    # A(1, 1/1000; q): a/p = 1000
    @example(F(1, 1000), 1000)
    # A(0, 120; q): its cancelled theta sum starts at q^(p/12) = q^10
    @example(F(120), 0)
    def test_is_zero_is_the_series_zero(self, p, ratio):
        # a/p is drawn, integer or not; A's lead is below p/12 <= 10 unless
        # it is zero, so a nonzero A has a term below q^10, and a zero A
        # built to q^11 knows its eta(q^p) past the constant term
        spec = ThetaSpec(ratio * p, p)
        assert spec.is_zero == A_series(spec, 11).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=F(1, 4), max_value=120, max_denominator=4),
        st.integers(-2, 2),
        st.fractions(min_value=-1, max_value=1, max_denominator=12),
    )
    @example(F(120), 0, F(1))
    @example(F(120), 2, F(1))
    def test_a_zero_quotient_builds_at_every_order(self, p, ratio, t):
        # a zero A's declared lead is p/12, so at an order at or below it no
        # term of its eta(q^p) is known; A is built as zero all the same
        spec = ThetaSpec(ratio * p, p)
        assert spec.lead == p / 12
        assert A_series(spec, t * p / 12).is_zero()


class TestKnownThrough:
    @pytest.mark.parametrize("name", list(BINDING_SERIES))
    @settings(max_examples=12, deadline=None)
    @given(order=st.fractions(min_value=1, max_value=45, max_denominator=12))
    def test_bindings_reach_their_relative_order(self, name, order):
        assert BINDING_SERIES[name](order).relative_order() >= order

    @settings(max_examples=40, deadline=None)
    @given(a_bindings(), st.fractions(min_value=1, max_value=20, max_denominator=6))
    # A(1, 60; q) leads at q^(541/120), more than 2 orders up
    @example(ABinding(ThetaSpec(1, 60), 1), F(10))
    @example(ABinding(ThetaSpec(1, 120), -2, F(1, 3)), F(1))
    def test_a_bindings_reach_their_relative_order_at_every_p(self, binding, order):
        assert binding.series(order).relative_order() >= order

    @settings(max_examples=150, deadline=None)
    @given(known_pairs(), st.integers(1, 3), st.data())
    def test_relative_order_covers_matrices_and_residuals(self, pair, s, data):
        u, v, n = pair
        assert min(u.relative_order(), v.relative_order()) >= n
        build_coeff_matrix(u, v, s, n, mining.MonomialTable(u, v, n, P61))
        terms = data.draw(
            st.dictionaries(st.tuples(st.integers(0, s), st.integers(0, s)),
                            st.integers(-4, 4).filter(bool), min_size=1)
        )
        poly = BivarIntPoly.normalized([(i, j, c) for (i, j), c in terms.items()])
        # on its window the Horner residual is the sum of the monomial
        # products at full length, and the verdict is read from it
        residual, base = mining._horner_residual(poly, u, v, n)
        top = math.floor(base) + n
        full = sum(
            (u ** i * v ** j * c for i, j, c in poly.terms), PuiseuxSeries.zero()
        )
        assert residual.knowledge_order() == top
        assert full.knowledge_order() is None or full.knowledge_order() >= top
        assert (residual - full).truncate(top).is_zero()
        ok = mining._first_nonzero(poly, u, v, n) is None
        assert ok == full.truncate(top).is_zero()
        # a residual that vanishes collapses to the integer grid
        square = BivarIntPoly.normalized([(2, 0, 1), (0, 1, -1)])
        assert mining._first_nonzero(square, u, u * u, n) is None

    @settings(max_examples=200, deadline=None)
    @given(known_pairs(), strided_relations(), st.integers(0, 3))
    # all exponents even, with a residual that vanishes and one that does not
    @example(
        (PuiseuxSeries(1, {1: 1, 2: -3}, None), PuiseuxSeries(1, {1: 1, 2: -3}, 9), 4),
        BivarIntPoly.normalized([(2, 0, 1), (0, 2, -1)]),
        0,
    )
    @example(
        (PuiseuxSeries(1, {1: 1, 2: -3}, None), PuiseuxSeries(2, {-1: 2, 3: 1}, 9), 4),
        BivarIntPoly.normalized([(0, 0, 1), (2, 2, -1), (4, 0, 3)]),
        0,
    )
    # u alone, past the rows u is known for
    @example(
        (PuiseuxSeries(3, {2: 1, 5: 1}, 20), PuiseuxSeries(1, {0: 1}, None), 5),
        BivarIntPoly.normalized([(3, 0, 1), (6, 0, -2)]),
        2,
    )
    def test_powers_of_u_and_v_give_the_plain_horner_verdict(self, pair, poly, extra):
        # the certificate evaluates P(u, v) as P'(u^a, v^b); its first
        # nonzero coefficient and its InsufficientTruncation must be those
        # of plain Horner in u, also past the rows the pair is known for
        u, v, n = pair

        def verdict(first_nonzero):
            try:
                return first_nonzero(poly, u, v, n + extra)
            except InsufficientTruncation as exc:
                return "short", exc.required_grid_order

        assert verdict(mining._first_nonzero) == verdict(plain_first_nonzero)

    @settings(max_examples=100, deadline=None)
    @given(certificate_pairs(), strided_relations())
    # u-degrees 1 and 2 empty, v on a finer grid than u, both short
    @example(
        (PuiseuxSeries(2, {-1: F(1, 3), 1: F(2, 5)}, 5), PuiseuxSeries(6, {1: 2, 4: F(-1, 4)}, 9), 4),
        BivarIntPoly.normalized([(0, 0, 1), (0, 3, -2), (3, 0, 3), (3, 3, 1)]),
    )
    # Q_0 = V + V^2 is known only as far as V is, short of the one row
    @example(
        (PuiseuxSeries(1, {0: 1}, 1), PuiseuxSeries(3, {1: 1}, 2), 1),
        BivarIntPoly.normalized([(0, 1, 1), (0, 2, 1)]),
    )
    # Q_0 = (V - 1)^2 cancels its constant and q^(1/2) terms
    @example(
        (PuiseuxSeries(1, {1: 3}, None), PuiseuxSeries(2, {0: 1, 1: F(1, 2), 3: F(-1, 3)}, 7), 3),
        BivarIntPoly.normalized([(0, 0, 1), (0, 1, -2), (0, 2, 1), (2, 1, 1)]),
    )
    # a residual that vanishes: u = v^2
    @example(
        (
            PuiseuxSeries(2, {2: F(1, 9), 3: F(4, 15), 4: F(4, 25)}, 7),
            PuiseuxSeries(2, {1: F(1, 3), 2: F(2, 5)}, 6),
            3,
        ),
        BivarIntPoly.normalized([(1, 0, 1), (0, 2, -1)]),
    )
    def test_one_sum_per_u_degree_matches_the_chain(self, pair, poly):
        u, v, n = pair

        def outcome(horner):
            try:
                residual, base = horner(poly, u, v, n)
            except InsufficientTruncation as exc:
                return "short", exc.required_grid_order
            return (residual.denom, residual.nums, residual.scale, residual.hi), base

        assert outcome(mining._horner_residual) == outcome(chain_horner_residual)

    def test_unknown_v_binding(self):
        with pytest.raises(ValueError, match="unknown v binding 'zz'"):
            get_v_binding("zz")
