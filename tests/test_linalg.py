"""Exact/randomized rank agreement, determinants, null spaces, and local Smith form."""

import functools
import itertools
import random
import time
from array import array

import pytest

from conftest import (
    gf16_mul_reference,
    gf16_tables_reference,
    gf2_divmod,
    gf2_gcd,
    random_poly,
)
from webfoam.errors import InternalConsistencyError
from webfoam.homology import random_complex
from webfoam.laurent import (
    LaurentPoly,
    ONE,
    P,
    T1,
    T2,
    ZERO,
    gf2_divexact,
    gf2_mul,
    gf2_valuation,
    packed_divexact,
    packed_mul,
)
from webfoam import linalg
from webfoam.linalg import (
    GF2_16_MODULUS,
    adjugate,
    det_poly,
    fraction_rank,
    gf16_inv,
    gf16_mul,
    identity,
    is_zero_matrix,
    mat_mul,
    nullspace_frac,
    rank_f2,
    rank_frac_exact,
    rank_frac_randomized,
    smith_normal_form,
)


def gf16_pow_reference(a: int, n: int) -> int:
    """a^n in GF(2^16) for n >= 0, by square-and-multiply on the bit loop."""
    result = 1
    while n:
        if n & 1:
            result = gf16_mul_reference(result, a)
        a = gf16_mul_reference(a, a)
        n >>= 1
    return result


@functools.cache
def power_reference(a: int, e: int) -> int:
    """a^e in GF(2^16) for nonzero a, inverting by a^(2^16 - 2)."""
    if e < 0:
        a, e = gf16_pow_reference(a, (1 << 16) - 2), -e
    return gf16_pow_reference(a, e)


def eval_reference(p: LaurentPoly, point: tuple[int, int, int]) -> int:
    """Value of ``p`` at a nonzero point, term by term."""
    acc = 0
    for exps in p.terms:
        term = 1
        for a, e in zip(point, exps):
            term = gf16_mul_reference(term, power_reference(a, e))
        acc ^= term
    return acc


def rank_gf16_reference(rows: list[list[int]]) -> int:
    """Rank over GF(2^16) by Gauss-Jordan elimination on the bit loop."""
    m = [list(row) for row in rows]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = gf16_pow_reference(m[rank][c], (1 << 16) - 2)
        m[rank] = [gf16_mul_reference(inv, x) for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [x ^ gf16_mul_reference(f, y) for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def gf16_product_reference(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            acc = [s ^ gf16_mul_reference(x, y) for s, y in zip(acc, brow)]
        out.append(acc)
    return out


class TestGF16:
    @staticmethod
    def pow_mod(base, n, mod):
        result = 1
        while n:
            if n & 1:
                result = gf2_divmod(gf2_mul(result, base), mod)[1]
            base = gf2_divmod(gf2_mul(base, base), mod)[1]
            n >>= 1
        return result

    def test_modulus_is_irreducible(self):
        # x^(2^16) == x mod f, and gcd(x^(2^8) + x, f) = 1: no factor of
        # degree dividing 16 except 16 itself.
        x16 = self.pow_mod(0b10, 1 << 16, GF2_16_MODULUS)
        assert x16 == 0b10
        x8 = self.pow_mod(0b10, 1 << 8, GF2_16_MODULUS)
        assert gf2_gcd(x8 ^ 0b10, GF2_16_MODULUS) == 1

    def test_x_is_primitive(self):
        # 65535 = 3 * 5 * 17 * 257, so x generates the multiplicative
        # group exactly when x^(65535/p) != 1 for each prime p
        order = (1 << 16) - 1
        assert 3 * 5 * 17 * 257 == order
        assert self.pow_mod(0b10, order, GF2_16_MODULUS) == 1
        for p in (3, 5, 17, 257):
            assert self.pow_mod(0b10, order // p, GF2_16_MODULUS) != 1

    def test_mul_matches_the_bit_loop(self, rng):
        pairs = [(rng.randrange(0, 1 << 16), rng.randrange(0, 1 << 16)) for _ in range(2000)]
        pairs += [(0, 0), (0, 1), (1, 0), (0, 0xFFFF), (0xFFFF, 0), (1, 1), (0xFFFF, 0xFFFF)]
        pairs += [(0, rng.randrange(1, 1 << 16)) for _ in range(20)]
        pairs += [(rng.randrange(1, 1 << 16), 0) for _ in range(20)]
        for a, b in pairs:
            assert gf16_mul(a, b) == gf16_mul_reference(a, b), (a, b)

    def test_tables_match_the_bit_loop(self, monkeypatch):
        monkeypatch.setattr(linalg, "_GF_EXP", array("H"))
        linalg._build_gf_tables()
        exp, log = gf16_tables_reference()
        assert linalg._GF_EXP == exp
        assert linalg._GF_LOG == log

    def test_tables_match_square_and_multiply(self, rng, monkeypatch):
        # the build and gf16_tables_reference run the same recurrence, so
        # sampled powers are also checked against an independent route
        monkeypatch.setattr(linalg, "_GF_EXP", array("H"))
        linalg._build_gf_tables()
        order = (1 << 16) - 1
        sample = [0, 1, 15, 16, order - 1] + [rng.randrange(order) for _ in range(200)]
        for i in sample:
            power = gf16_pow_reference(0b10, i)
            assert linalg._GF_EXP[i] == linalg._GF_EXP[i + order] == power, i
            assert linalg._GF_LOG[power] == i, i

    def test_field_inverses(self):
        for a in range(1, 1 << 16):
            assert gf16_mul_reference(a, gf16_inv(a)) == 1, a
        with pytest.raises(ZeroDivisionError):
            gf16_inv(0)

    def test_distributivity_sample(self, rng):
        for _ in range(100):
            a, b, c = (rng.randrange(0, 1 << 16) for _ in range(3))
            assert gf16_mul(a, b ^ c) == gf16_mul(a, b) ^ gf16_mul(a, c)

    def test_evaluation_matches_square_and_multiply(self, rng):
        linalg._build_gf_tables()
        for _ in range(60):
            logs = tuple(rng.randrange(0, (1 << 16) - 1) for _ in range(3))
            point = tuple(gf16_pow_reference(0b10, l) for l in logs)
            p = random_poly(rng, 5, 4096)
            assert linalg._eval_poly_gf16(p, logs) == eval_reference(p, point)

    @pytest.mark.parametrize(
        "rows, cols, inner",
        [(9, 4, None), (4, 9, None), (6, 6, None), (8, 7, 3), (5, 10, 2), (7, 7, 6)],
        ids=["tall", "wide", "square", "tall-rank-3", "wide-rank-2", "square-rank-6"],
    )
    def test_rank_matches_the_reference_elimination(self, rng, rows, cols, inner):
        # echelon form in place gives the pivot count of a full Gauss-Jordan
        # reduction; a product through ``inner`` columns has rank at most that
        for _ in range(20):
            if inner is None:
                density = rng.choice([0.3, 0.7, 1.0])
                m = [
                    [rng.randrange(1, 1 << 16) if rng.random() < density else 0
                     for _ in range(cols)]
                    for _ in range(rows)
                ]
            else:
                a = [[rng.randrange(1 << 16) for _ in range(inner)] for _ in range(rows)]
                b = [[rng.randrange(1 << 16) for _ in range(cols)] for _ in range(inner)]
                m = gf16_product_reference(a, b)
            expected = rank_gf16_reference(m)
            assert linalg._rank_gf16([list(row) for row in m]) == expected
            if inner is not None:
                assert expected == inner

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_suite_matrices_evaluate_as_the_reference(self, seed, monkeypatch):
        # the same draws give the same GF(2^16) matrices as evaluating each
        # term by square-and-multiply at the drawn point
        evaluated = []
        rank_gf16 = linalg._rank_gf16

        def recorded(rows):
            evaluated.append(list(rows))
            return rank_gf16(rows)

        monkeypatch.setattr(linalg, "_rank_gf16", recorded)
        for k in range(200):
            d = random_complex(k, 2 + k % 11).differential
            evaluated.clear()
            rank_frac_randomized(d, random.Random(seed))
            draws = random.Random(seed)
            assert len(evaluated) == linalg.RANDOM_RANK_TRIALS
            for rows in evaluated:
                point = tuple(draws.randrange(1, 1 << 16) for _ in range(3))
                assert rows == [[eval_reference(x, point) for x in row] for row in d]


def det_oracle(mat):
    """Permutation-expansion determinant (char 2: signs vanish)."""
    n = len(mat)
    total = ZERO
    for perm in itertools.permutations(range(n)):
        prod = ONE
        for i in range(n):
            prod = prod * mat[i][perm[i]]
        total = total + prod
    return total


class TestDeterminant:
    def test_small_cases(self):
        assert det_poly([[P]]) == P
        assert det_poly([[T for T in (ONE, P)], [P, ONE]]) == ONE + P * P
        assert det_poly(identity(4)) == ONE

    def test_matches_permutation_expansion(self, rng):
        for _ in range(25):
            n = rng.randint(1, 3)
            mat = [[random_poly(rng, 2, 1) for _ in range(n)] for _ in range(n)]
            assert det_poly(mat) == det_oracle(mat)

    def test_adjugate_identity(self, rng):
        for _ in range(10):
            mat = [[random_poly(rng, 2, 1) for _ in range(3)] for _ in range(3)]
            d = det_poly(mat)
            product = mat_mul(mat, adjugate(mat))
            expected = linalg.mat_scale(d, identity(3))
            assert product == expected

    def test_solve_unimodular_rejects_singular(self):
        singular = [[ONE, ONE], [ONE, ONE]]
        with pytest.raises(InternalConsistencyError):
            linalg.solve_unimodular(singular, identity(2))

    def test_solve_unimodular_rejects_a_non_unit_determinant(self):
        with pytest.raises(InternalConsistencyError, match="det = T1"):
            linalg.solve_unimodular([[T1, ZERO], [ZERO, ONE]], identity(2))
        with pytest.raises(ValueError, match="square"):
            linalg.solve_unimodular([[ONE, ZERO]], [[ONE]])
        with pytest.raises(ValueError, match="square"):
            linalg.solve_unimodular(identity(2), [[ONE]])

    def test_solve_unimodular_matches_the_adjugate(self, rng):
        # products of elementary matrices I + c*E_ij have determinant 1,
        # so the solution is adj(M) * B, with adj computed by cofactors
        for _ in range(20):
            n = rng.randint(1, 4)
            mat = list(identity(n))
            for _ in range(rng.randint(0, 6) if n > 1 else 0):
                i, j = rng.sample(range(n), 2)
                c = random_poly(rng, 2, 1)
                mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
            k = rng.randint(1, 3)
            rhs = tuple(tuple(random_poly(rng, 2, 1) for _ in range(k)) for _ in range(n))
            assert det_poly(mat) == ONE
            solution = linalg.solve_unimodular(mat, rhs)
            assert solution == mat_mul(adjugate(mat), rhs)
            assert mat_mul(mat, solution) == rhs


class TestRank:
    def test_trivial_cases(self):
        assert rank_frac_exact(identity(3)) == 3
        assert rank_frac_exact([[ZERO] * 4 for _ in range(4)]) == 0
        assert fraction_rank(identity(3)) == 3
        assert fraction_rank([[ZERO] * 4 for _ in range(4)]) == 0

    def test_unknot_u_squared_plus_p(self):
        # rows ((P,0,0),(0,0,0),(1,0,0)): one independent column
        mat = [[P, ZERO, ZERO], [ZERO, ZERO, ZERO], [ONE, ZERO, ZERO]]
        assert fraction_rank(mat) == 1

    def test_rank_drops_on_dependent_rows(self):
        mat = [[P, ONE], [P * P, P]]  # second row = P * first
        assert rank_frac_exact(mat) == 1

    def test_exact_and_randomized_agree_on_random_matrices(self, rng):
        for trial in range(30):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            mat = [
                [random_poly(rng, 3, 2) for _ in range(cols)] for _ in range(rows)
            ]
            exact = rank_frac_exact(mat)
            randomized = rank_frac_randomized(mat, random.Random(trial))
            assert randomized <= exact
            assert fraction_rank(mat, seed=trial) == exact

    def test_rank_is_transpose_invariant(self, rng):
        for _ in range(20):
            mat = [[random_poly(rng, 2, 1) for _ in range(4)] for _ in range(3)]
            assert rank_frac_exact(mat) == rank_frac_exact([list(r) for r in zip(*mat)])


def sparse_matrix(rng, rows, cols):
    """A random matrix with at least half its entries zero."""
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    zero = set(rng.sample(cells, (len(cells) + 1) // 2))
    return tuple(
        tuple(ZERO if (i, j) in zero else random_poly(rng, 3, 1) for j in range(cols))
        for i in range(rows)
    )


class TestBareissKernel:
    def test_gauss_jordan_form(self, rng):
        # with reduce_above, pivot i sits in row i and equals the last
        # pivot, every other pivot column is zero in that row, and the
        # rows past the rank vanish; the plain form has the same pivots.
        # The last 30 matrices are at least half zero.
        for trial in range(60):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            if trial < 30:
                mat = [[random_poly(rng, 2, 1) for _ in range(cols)] for _ in range(rows)]
            else:
                mat = sparse_matrix(rng, rows, cols)
            reduced, pivots, last, _ = linalg._bareiss(mat, reduce_above=True)
            assert linalg._bareiss(mat, reduce_above=False)[1] == pivots
            assert len(pivots) == rank_frac_randomized(mat, random.Random(0))
            for i, row in enumerate(reduced):
                for k, pc in enumerate(pivots):
                    assert row[pc] == (last if k == i else ZERO)
                if i >= len(pivots):
                    assert not any(row)


def laplace_det(mat):
    """Cofactor expansion along the first row (char 2: signs vanish)."""
    if len(mat) == 1:
        return mat[0][0]
    total = ZERO
    for j, x in enumerate(mat[0]):
        if x:
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total = total + x * laplace_det(minor)
    return total


def unimodular(rng, n, steps):
    """A product of elementary matrices I + c*E_ij: determinant 1."""
    mat = list(identity(n))
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = random_poly(rng, 2, 1)
        mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
    return mat


class TestPackedPaths:
    """The dense and the sparse packed kernel as each other's oracle."""

    @staticmethod
    def count_products(monkeypatch):
        """Count the kernel's products on each path; returns the live counts."""
        calls = {"dense": 0, "sparse": 0}

        def counting(path, product):
            def counted(a, b):
                calls[path] += 1
                return product(a, b)

            return counted

        monkeypatch.setattr(linalg, "gf2_mul", counting("dense", gf2_mul))
        monkeypatch.setattr(linalg, "packed_mul", counting("sparse", packed_mul))
        return calls

    def on_both_paths(self, monkeypatch, func, *args):
        """``func(*args)`` with dense entries forced, then with sparse ones."""
        calls = self.count_products(monkeypatch)
        monkeypatch.setattr(linalg, "DENSE_BUDGET_BITS", 1 << 62)
        dense = func(*args)
        dense_calls = dict(calls)
        monkeypatch.setattr(linalg, "DENSE_BUDGET_BITS", 0)
        sparse = func(*args)
        # each run multiplies on its own path only
        assert dense_calls["sparse"] == 0
        assert calls["dense"] == dense_calls["dense"]
        return dense, sparse

    def test_rank_det_and_nullspace_agree(self, monkeypatch, rng):
        for _ in range(40):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            mat = [[random_poly(rng, 3, 2) for _ in range(cols)] for _ in range(rows)]
            for func in (rank_frac_exact, nullspace_frac):
                dense, sparse = self.on_both_paths(monkeypatch, func, mat)
                assert dense == sparse
            if rows == cols:
                dense, sparse = self.on_both_paths(monkeypatch, det_poly, mat)
                assert dense == sparse
                if rows <= 4:
                    assert dense == laplace_det(mat)

    def test_laplace_oracle_on_a_rank_deficient_matrix(self, monkeypatch):
        mat = [[P, ONE, T1], [P * P, P, P * T1], [ONE, T1, P]]
        for det in self.on_both_paths(monkeypatch, det_poly, mat):
            assert det == laplace_det(mat) == ZERO

    def test_solve_unimodular_agrees(self, monkeypatch, rng):
        for _ in range(12):
            n = rng.randint(1, 6)
            mat = unimodular(rng, n, rng.randint(0, 8))
            rhs = tuple(tuple(random_poly(rng, 2, 1) for _ in range(2)) for _ in range(n))
            dense, sparse = self.on_both_paths(
                monkeypatch, linalg.solve_unimodular, mat, rhs
            )
            assert dense == sparse
            assert mat_mul(mat, dense) == rhs

    def test_default_path_follows_the_box(self, monkeypatch):
        calls = self.count_products(monkeypatch)
        assert rank_frac_exact([[P, ONE], [T1, P]]) == 2
        assert calls["dense"] > 0 and calls["sparse"] == 0
        # spreads of 2000 in every variable: a box of 4001^3 bits
        far = LaurentPoly([(1000, 1000, 1000), (-1000, -1000, -1000)])
        dense_calls = calls["dense"]
        assert rank_frac_exact([[far, ONE], [T1, far]]) == 2
        assert calls["dense"] == dense_calls and calls["sparse"] > 0

    @pytest.mark.parametrize(
        "divide, encode",
        [
            (gf2_divexact, lambda exps: sum(1 << e for e in exps)),
            (packed_divexact, frozenset),
        ],
        ids=["dense", "sparse"],
    )
    def test_inexact_division_raises(self, divide, encode):
        rng = random.Random(20240)
        for _ in range(200):
            a = rng.sample(range(40), rng.randint(1, 8))
            b = rng.sample(range(12), rng.randint(2, 4))
            quotient, rest = gf2_divmod(sum(1 << e for e in a), sum(1 << e for e in b))
            if rest:
                with pytest.raises(ValueError):
                    divide(encode(a), encode(b))
            else:
                assert divide(encode(a), encode(b)) == encode(
                    k for k in range(quotient.bit_length()) if quotient >> k & 1
                )
        # t^30001 + 1 over 1 + t + t^2: the primitive cube roots of unity
        # are roots of the divisor only; a division from the low end
        # without a stop would run on forever
        start = time.perf_counter()
        with pytest.raises(ValueError):
            divide(encode([30001, 0]), encode([2, 1, 0]))
        assert time.perf_counter() - start < 5


class TestNullspace:
    def test_kernel_vectors_annihilate(self, rng):
        for _ in range(25):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            mat = [
                [random_poly(rng, 2, 1) for _ in range(cols)] for _ in range(rows)
            ]
            basis = nullspace_frac(mat)
            assert len(basis) == cols - rank_frac_exact(mat)
            for vec in basis:
                assert any(bool(x) for x in vec)
                for row in mat:
                    acc = ZERO
                    for a, b in zip(row, vec):
                        acc = acc + a * b
                    assert acc == ZERO


class TestSparseKernel:
    """Matrices at least half zero, so the kernel's zero-skipping updates run."""

    def test_det_matches_laplace(self, rng):
        for _ in range(40):
            n = rng.randint(2, 5)
            mat = sparse_matrix(rng, n, n)
            assert det_poly(mat) == laplace_det(mat)

    def test_solve_unimodular(self, rng):
        for _ in range(20):
            n = rng.randint(2, 6)
            mat = unimodular(rng, n, rng.randint(1, n))
            rhs = sparse_matrix(rng, n, rng.randint(1, 3))
            solution = linalg.solve_unimodular(mat, rhs)
            assert mat_mul(mat, solution) == rhs

    def test_nullspace(self, rng):
        for trial in range(30):
            rows, cols = rng.randint(1, 5), rng.randint(2, 6)
            mat = sparse_matrix(rng, rows, cols)
            basis = nullspace_frac(mat)
            assert len(basis) == cols - rank_frac_randomized(mat, random.Random(trial))
            for vec in basis:
                assert any(vec)
                assert is_zero_matrix(mat_mul(mat, [[x] for x in vec]))


class TestRankBound:
    def test_bounded_rank_on_the_suite_modules(self):
        # d*d = 0 bounds rank(d) by n // 2, the bound DifferentialModule uses
        for k in range(200):
            d = random_complex(k, 2 + k % 11).differential
            n = len(d)
            assert fraction_rank(d, max_rank=n // 2) == fraction_rank(d)

    def test_a_bound_set_too_low_is_caught(self):
        # with max_rank=1 the box is 2 x 2 x 1, so T1 -> t, T2 -> t^2 and
        # det = T2 + T1^2 packs to t^2 + t^2 = 0: the exact route loses a
        # pivot and the randomized rank exceeds it
        mat = [[ONE, T1], [T1, T2]]
        assert fraction_rank(mat) == 2
        assert rank_frac_exact(mat, max_rank=1) == 1
        message = r"exceeds exact rank 1 \(seed 0, 2x2 matrix\)"
        with pytest.raises(InternalConsistencyError, match=message):
            fraction_rank(mat, max_rank=1)

    def test_a_bound_above_the_shape_changes_nothing(self, rng):
        for _ in range(10):
            mat = [[random_poly(rng, 2, 1) for _ in range(3)] for _ in range(4)]
            assert linalg._bareiss(mat, False, max_rank=9) == linalg._bareiss(mat, False)


class TestMatMul:
    def test_matches_ring_products(self, rng):
        for _ in range(30):
            n, k, m = (rng.randint(1, 4) for _ in range(3))
            a = sparse_matrix(rng, n, k) if rng.random() < 0.5 else [
                [random_poly(rng, 3, 2) for _ in range(k)] for _ in range(n)
            ]
            b = [[random_poly(rng, 3, 2) for _ in range(m)] for _ in range(k)]
            expected = tuple(
                tuple(sum((a[i][t] * b[t][j] for t in range(k)), ZERO) for j in range(m))
                for i in range(n)
            )
            assert mat_mul(a, b) == expected


class TestMatrixType:
    def test_matrix_functions_return_tuple_rows(self):
        m = [[ONE, T1], [ZERO, ONE]]  # list rows in, tuple rows out
        results = {
            "identity": identity(2),
            "zeros": linalg.zeros(2, 3),
            "mat_add": linalg.mat_add(m, m),
            "mat_mul": mat_mul(m, m),
            "mat_scale": linalg.mat_scale(P, m),
            "adjugate": adjugate(m),
            "solve_unimodular": linalg.solve_unimodular(m, m),
            "nullspace_frac": nullspace_frac([[ONE, T1]]),
        }
        # every public function annotated to return a Matrix is listed
        public = {name: getattr(linalg, name) for name in linalg.__all__}
        returning = {
            name for name, f in public.items()
            if getattr(f, "__annotations__", {}).get("return") == "Matrix"
        }
        assert returning == set(results)
        for name, mat in results.items():
            assert type(mat) is tuple and mat, name
            assert all(type(row) is tuple for row in mat), name


class TestRankF2:
    def test_against_naive_elimination(self, rng):
        def naive(rows, cols):
            mat = [[(r >> j) & 1 for j in range(cols)] for r in rows]
            rank = 0
            for c in range(cols):
                piv = next(
                    (i for i in range(rank, len(mat)) if mat[i][c]), None
                )
                if piv is None:
                    continue
                mat[rank], mat[piv] = mat[piv], mat[rank]
                for i in range(len(mat)):
                    if i != rank and mat[i][c]:
                        mat[i] = [x ^ y for x, y in zip(mat[i], mat[rank])]
                rank += 1
            return rank

        for _ in range(100):
            cols = rng.randint(1, 10)
            rows = [rng.getrandbits(cols) for _ in range(rng.randint(1, 10))]
            assert rank_f2(rows) == naive(rows, cols)


def random_gf2poly(rng, max_degree=4):
    return rng.getrandbits(max_degree + 1)


def minors(mat, k):
    """All k x k minors, for the determinantal-divisor oracle."""
    rows = range(len(mat))
    cols = range(len(mat[0]))

    def det(rsel, csel):
        if len(rsel) == 1:
            return mat[rsel[0]][csel[0]]
        total = 0
        for i, c in enumerate(csel):
            sub = det(rsel[1:], csel[:i] + csel[i + 1 :])
            total ^= gf2_mul(mat[rsel[0]][c], sub)
        return total

    for rsel in itertools.combinations(rows, k):
        for csel in itertools.combinations(cols, k):
            yield det(rsel, csel)


def random_local_unit(rng, max_degree=3):
    """A polynomial with constant term 1: a unit of F2[t]_(t), not of F2[t]."""
    return rng.getrandbits(max_degree + 1) | 1


class TestSmithNormalForm:
    def test_determinantal_divisors(self, rng):
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            mat = [
                [random_gf2poly(rng) for _ in range(cols)] for _ in range(rows)
            ]
            exps = smith_normal_form(mat)
            # t^(a_1 + ... + a_k) generates the ideal of k x k minors
            # over the local ring: its exponent is their least valuation
            for k in range(1, len(exps) + 1):
                least = min(gf2_valuation(d) for d in minors(mat, k) if d)
                assert sum(exps[:k]) == least
            if len(exps) < min(rows, cols):
                assert not any(minors(mat, len(exps) + 1))

    def test_valuations_invariant_under_unimodular_ops(self, rng):
        base = [[0b10000, 0, 0b11], [0, 0b100, 0], [0, 0, 0]]
        reference = smith_normal_form(base)
        assert reference == [0, 2]
        for _ in range(20):
            mat = [list(row) for row in base]
            for _ in range(6):
                i, j = rng.sample(range(3), 2)
                c = random_gf2poly(rng, 2)
                if rng.random() < 0.5:
                    mat[i] = [x ^ gf2_mul(c, y) for x, y in zip(mat[i], mat[j])]
                else:
                    for row in mat:
                        row[i] ^= gf2_mul(c, row[j])
            # scalings by local units change the Euclidean invariant
            # factors over F2[t] but not the local exponents
            for i in range(3):
                u = random_local_unit(rng)
                mat[i] = [gf2_mul(u, x) for x in mat[i]]
            for j in range(3):
                u = random_local_unit(rng)
                for row in mat:
                    row[j] = gf2_mul(u, row[j])
            assert smith_normal_form(mat) == reference

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        t = sympy.Symbol("t")
        domain = sympy.GF(2)[t]

        def to_sympy(a):
            return sum((t**k for k in range(a.bit_length()) if a >> k & 1), 0)

        def from_sympy(expr):
            poly = sympy.Poly(expr, t, modulus=2)
            return sum(1 << k for (k,), c in poly.terms() if int(c) % 2)

        rng = random.Random(20240)
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            mat = [
                [random_gf2poly(rng, 5) if rng.random() < 0.8 else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            reference = sympy_snf(
                sympy.Matrix([[to_sympy(a) for a in row] for row in mat]), domain=domain
            )
            diag = [from_sympy(reference[k, k]) for k in range(min(rows, cols))]
            exps = smith_normal_form(mat)
            assert exps == [gf2_valuation(d) for d in diag if d], mat
            assert exps == sorted(exps)
