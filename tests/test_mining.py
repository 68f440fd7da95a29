"""Relation mining: coefficient matrix, exact nullspace, rediscovery of the
catalog relations, validation guards, and stability properties."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetaquot import mining
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


def rank_mod_p(rows, p=(1 << 61) - 1):
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

    def test_lazy_basis_resumes_after_a_climb(self, monkeypatch):
        # the second vector's entry 2^40 is past the reconstruction bound
        # mod 2^61 - 1; the next rung resumes at its free column
        matrix = [[1, -1, 0, 0], [0, 0, 2 ** 40, 5]]
        primes = []

        def echelon(rows, p):
            primes.append(p)
            return real_echelon(rows, p)

        real_echelon = mining._echelon_mod_p
        monkeypatch.setattr(mining, "_echelon_mod_p", echelon)
        basis = mining._kernel_basis(matrix)
        assert next(basis) == [1, 1, 0, 0]
        assert primes == [(1 << 61) - 1]
        assert list(basis) == [[0, 0, 5, -(2 ** 40)]]
        assert primes == [(1 << 61) - 1, (1 << 89) - 1]
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
    def test_packed_elimination_matches_the_list_oracle(self, e, matrix):
        p = (1 << e) - 1
        assert mining._echelon_mod_p(matrix, p) == echelon_mod_p_lists(matrix, p)

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


class TestBuildCoeffMatrix:
    def test_rational_columns_match_row_scaled_fractions(self):
        # u has halves and v thirds, so u^i v^j has scale 2^i 3^j
        u = PuiseuxSeries.from_pairs([(1, F(1, 2)), (2, 1), (5, -3)], order=40)
        v = u * u * F(4, 3)
        m, cols, base, denom = build_coeff_matrix(u, v, 2, 19)
        assert [(u ** i * v ** j).scale for i, j in cols] == [
            2 ** i * 3 ** j for i, j in cols
        ]
        assert all(isinstance(x, int) for row in m for x in row)
        ker = exact_nullspace(m)
        assert ker == fraction_matrix_kernel(u, v, cols, 19)
        relation = BivarIntPoly.normalized([(0, 1, 3), (2, 0, -4)])
        assert relation in [
            BivarIntPoly.normalized([(i, j, c) for (i, j), c in zip(cols, vec)])
            for vec in ker
        ]

    def test_constant_inputs(self):
        one = PuiseuxSeries.constant(1)
        m, cols, base, denom = build_coeff_matrix(one, one, 1, 5)
        assert base == 0
        assert all(not any(row) for row in m[1:])

    @pytest.mark.parametrize(
        "u",
        [
            PuiseuxSeries.from_pairs([(F(-1, 2), 3), (1, F(-2, 5))], order=7),
            PuiseuxSeries.from_pairs([], order=F(5, 3)),
            PuiseuxSeries.constant(F(7, 2)),
        ],
    )
    def test_unit_monomials_are_the_power_tables(self, u):
        # u^i v^0 and u^0 v^j are read from the power tables: the same
        # series, field by field, as the product with the exact 1
        v = modulus_series(6)
        table = mining.MonomialTable(u, v, 2)
        one = PuiseuxSeries.constant(1)
        for i, j in [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)]:
            got, want = table.product(i, j), table.u_pows[i] * table.v_pows[j]
            assert (got.denom, got.nums, got.scale, got.hi) == (
                want.denom, want.nums, want.scale, want.hi
            )
        assert table.product(2, 0) is table.u_pows[2]
        assert table.product(0, 0) == one

    def test_rows_start_at_most_negative_exponent(self):
        u = PuiseuxSeries.from_pairs([(-1, 1), (0, 1)], order=20)
        m, cols, base, denom = build_coeff_matrix(u, modulus_series(20), 2, 8)
        assert base == -2 * denom // denom * 1 - 0 or base == -2  # u^2 reaches -2
        assert base == -2

    def test_a14_nine_rows_kernel_is_one_dimensional(self):
        u = A_series(ThetaSpec(1, 4), 30) ** 12
        v = modulus_series(30)
        m, cols, base, denom = build_coeff_matrix(u, v, 2, 9)
        ker = exact_nullspace(m)
        assert len(ker) == 1
        poly = BivarIntPoly.normalized(
            [(i, j, c) for (i, j), c in zip(cols, ker[0])]
        )
        assert poly == REL_14

    def test_insufficient_truncation_reports_requirement(self):
        u = A_series(ThetaSpec(1, 4), 8) ** 12
        v = modulus_series(8)
        with pytest.raises(InsufficientTruncation) as exc:
            build_coeff_matrix(u, v, 3, 60)
        assert exc.value.required_grid_order > 0


class TestMine:
    def test_rediscovers_corrected_1_4_relation(self):
        rel = mine_14()
        assert rel.poly == REL_14
        assert rel.degree == 2
        assert len(rel.numeric_checks) == 2

    def test_shared_tables_build_the_standalone_matrices(self, monkeypatch):
        # mine builds its power tables once at s_max, cut to the largest
        # matrix's rows; every degree's matrix must equal the one that
        # build_coeff_matrix builds from u and v on its own
        standalone = mining.build_coeff_matrix
        calls = []

        def recording(u, v, s, rows, table=None):
            calls.append((u, v, s, rows, table))
            return standalone(u, v, s, rows, table)

        monkeypatch.setattr(mining, "build_coeff_matrix", recording)
        # at s_max = 2 the s = 2 matrix is the largest, so the cut is tight
        assert mine_14(s_max=2).poly == REL_14
        assert [s for _, _, s, _, _ in calls] == [1, 2]
        (u, v, _, _, table), _ = calls
        assert len(table.u_pows) == 3 and all(call[4] is table for call in calls)
        assert table.u_pows[1].hi < u.hi and table.v_pows[1].hi < v.hi
        for u, v, s, rows, table in calls:
            matrix, cols, base, denom = standalone(u, v, s, rows, table)
            assert (matrix, cols, base, denom) == standalone(u, v, s, rows)

    def test_rank_profile_matches_rank_of_each_column_subset(self):
        # the columns are ordered by total degree, so for every d the basis
        # vectors of total degree <= d, cut to the columns of total degree
        # <= d, are those columns' reduced kernel, and give their rank
        u = A_series(ThetaSpec(-2, 8), 90) ** 12
        v = rescale(modulus_series(45), 2) ** 2
        for s in (4, 5):
            rows = (s + 1) ** 2 + 10 + mining._valuation_spread(u, v, s)
            m, cols, _, _ = build_coeff_matrix(u, v, s, rows)
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
        # with bindings and no series, mine reads the leading exponents from
        # a one-order build, then builds u and v once, as far as its largest
        # matrix and validation window reach
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
        assert events.index("matrix") == len(builds) == 2
        assert builds[0] == ("build", 1)
        assert rel.validated_grid_order <= builds[1][1]

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
        matrices = []

        def recording(*args):
            matrices.append(real_matrix(*args))
            return matrices[-1]

        def reject(rel, **kwargs):
            raise ValidationFailed("forced")

        real_matrix = mining.build_coeff_matrix
        monkeypatch.setattr(mining, "build_coeff_matrix", recording)
        monkeypatch.setattr(mining, "validate", reject)
        with pytest.raises(MiningNotFound) as exc:
            mine_14(s_max=3)
        assert "rejected candidates: s=2: " in str(exc.value)
        assert exc.value.rank_profile == {
            s: len(cols) - len(exact_nullspace(m))
            for s, (m, cols, _, _) in enumerate(matrices, start=1)
        }

    def test_full_kernel_solved_only_after_restricted_candidates_fail(
        self, monkeypatch
    ):
        # one elimination per degree serves every total degree, and only the
        # vectors that mine asks for are lifted
        eliminations, lifted = [], []

        def echelon(rows, p):
            eliminations.append((len(rows[0]), p))
            return real_echelon(rows, p)

        def kernel(matrix):
            lifted.append([])
            for vec in real_kernel(matrix):
                lifted[-1].append(vec)
                yield vec

        real_echelon, real_kernel = mining._echelon_mod_p, mining._kernel_basis
        monkeypatch.setattr(mining, "_echelon_mod_p", echelon)
        monkeypatch.setattr(mining, "_kernel_basis", kernel)
        assert mine_14().poly == REL_14
        assert eliminations == [(4, (1 << 61) - 1), (9, (1 << 61) - 1)]
        # s = 2: the kernel's one vector, of total degree 3, validates
        assert lifted == [[], [[16, -32, 0, 16, 0, 0, 0, -1, 0]]]

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
            assert mining._series_vanishes(poly, u, v, 60) == (False, 39)

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


class TestVBindings:
    @pytest.mark.parametrize(
        "name,val", [("m", F(1)), ("sqrt_m", F(1, 2)), ("m_q2_squared", F(4)),
                     ("eta5_q4_pow5", F(4))]
    )
    def test_series_leading_exponent(self, name, val):
        ser = get_v_binding(name).series(F(30))
        assert ser.leading()[0] == val

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


class TestKnownThrough:
    @pytest.mark.parametrize("name", list(BINDING_SERIES))
    @settings(max_examples=12, deadline=None)
    @given(order=st.fractions(min_value=1, max_value=45, max_denominator=12))
    def test_bindings_reach_their_relative_order(self, name, order):
        assert BINDING_SERIES[name](order).relative_order() >= order

    @settings(max_examples=150, deadline=None)
    @given(known_pairs(), st.integers(1, 3), st.data())
    def test_relative_order_covers_matrices_and_residuals(self, pair, s, data):
        u, v, n = pair
        assert min(u.relative_order(), v.relative_order()) >= n
        build_coeff_matrix(u, v, s, n)
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
        ok, _ = mining._series_vanishes(poly, u, v, n)
        assert ok == full.truncate(top).is_zero()
        # a residual that vanishes collapses to the integer grid
        square = BivarIntPoly.normalized([(2, 0, 1), (0, 1, -1)])
        assert mining._series_vanishes(square, u, u * u, n)[0]

    def test_unknown_v_binding(self):
        with pytest.raises(ValueError, match="unknown v binding 'zz'"):
            get_v_binding("zz")
