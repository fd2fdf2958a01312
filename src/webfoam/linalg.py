"""Exact linear algebra over the Laurent ring.

Matrices are tuples of rows (tuples) of :class:`~webfoam.laurent.LaurentPoly`
entries; inputs may be any sequences of rows.  Everything here is exact:

* one fraction-free (Bareiss) elimination kernel, which stays in the
  ring R: each row is first scaled by a monomial unit so its entries are
  polynomials, and every division by the previous pivot is exact.  Rank
  over Frac(R), determinants, unimodular solves and fraction-field null
  spaces are all read off its output;
* a cross-checking randomized rank that evaluates the matrix at random
  points of GF(2^16) and eliminates over that field (Schwartz-Zippel).
  All field arithmetic goes through one pair of discrete-log tables:
  each point is held by the logs of its coordinates, so a monomial
  evaluates with one lookup, negative exponents included;
* adjugates by cofactors, each a Bareiss determinant, kept as an oracle
  independent of the Gauss-Jordan read-offs (``reduce_above``) behind
  unimodular solves and null spaces;
* the exponents of the Smith form over the local ring F2[t]_(t), for
  torsion analysis of specialized differentials.

The kernel does not work on exponent triples.  After the row shift,
the entries of row i have degree at most s_i(v) in each variable T_v,
so a k x k minor has degree at most the sum of the k largest row
spreads in T_v.  Every nonzero entry the kernel stores is a minor no
larger than the rank, so with d_v one more than the sum of the
k = min(rows, cols, max_rank) largest spreads -- ``max_rank`` being an
optional proven bound on the rank -- the Kronecker substitution
T1 -> t, T2 -> t^d1, T3 -> t^(d1*d2)
(:func:`~webfoam.laurent.kronecker_pack`) is injective on all of them,
and the kernel runs in F2[t].  The numerator
``row*pivot + factor*pivot_row`` may leave the box and wrap, but the
substitution is a ring homomorphism and F2[t] is a domain, so its exact
quotient by the previous pivot is the image of the true minor and
unpacks uniquely.  Entries are dense bit-packed integers when the box is
small enough (:data:`DENSE_BUDGET_BITS`), and sparse exponent sets
otherwise.  The rows are unpacked only under ``reduce_above``, for the
solve and the null space; a rank or a determinant reads only the pivot
columns and the last pivot.

The two rank routes are deliberately independent; :func:`fraction_rank`
runs both and raises :class:`~webfoam.errors.InternalConsistencyError`
if they ever disagree (the check is :func:`check_rank_agreement`, which
callers that keep an exact rank and re-run only the randomized route
share).
"""

from __future__ import annotations

import random
from array import array
from typing import Sequence

from .errors import InternalConsistencyError
from .laurent import (
    LaurentPoly,
    ONE,
    ZERO,
    add_product,
    gf2_divexact,
    gf2_exponents,
    gf2_from_exponents,
    gf2_mul,
    gf2_valuation,
    kronecker_pack,
    kronecker_unpack,
    packed_divexact,
    packed_mul,
    poly_divexact,  # no caller here; kept as the attribute a tracer wraps
)

Matrix = tuple[tuple[LaurentPoly, ...], ...]

__all__ = [
    "identity",
    "zeros",
    "mat_add",
    "mat_mul",
    "mat_scale",
    "is_zero_matrix",
    "rank_frac_exact",
    "rank_frac_randomized",
    "fraction_rank",
    "check_rank_agreement",
    "det_poly",
    "adjugate",
    "solve_unimodular",
    "nullspace_frac",
    "rank_f2",
    "smith_normal_form",
    "GF2_16_MODULUS",
    "gf16_mul",
    "gf16_inv",
    "RANDOM_RANK_TRIALS",
]

#: Number of independent GF(2^16) evaluations used by the randomized rank.
RANDOM_RANK_TRIALS = 3

#: Largest rows * cols * (bits of the packed box) for which the Bareiss
#: kernel stores entries as dense bit-packed F2[t] integers, so that the
#: stored entries fit in 4 MB; larger boxes use sparse exponent sets.
DENSE_BUDGET_BITS = 1 << 25


# ---------------------------------------------------------------------------
# Dense matrix plumbing over the Laurent ring.
# ---------------------------------------------------------------------------


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def zeros(rows: int, cols: int) -> Matrix:
    return ((ZERO,) * cols,) * rows


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch")
    # each output entry sums its products in one term set, over the
    # nonzero entries of its row of a that meet a nonzero entry of b
    rows = [[(k, x.terms) for k, x in enumerate(row) if x] for row in a]
    cols = [{k: y.terms for k, y in enumerate(col) if y} for col in zip(*b)]
    out = []
    for row in rows:
        out_row = []
        for col in cols:
            acc: set = set()
            for k, x in row:
                y = col.get(k)
                if y is not None:
                    add_product(acc, x, y)
            out_row.append(LaurentPoly(acc) if acc else ZERO)
        out.append(tuple(out_row))
    return tuple(out)


def mat_scale(c: LaurentPoly, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def _bareiss(
    mat: Sequence[Sequence[LaurentPoly]],
    reduce_above: bool,
    max_rank: int | None = None,
) -> tuple[list[list[LaurentPoly]], list[int], LaurentPoly, tuple[int, int, int]]:
    """Fraction-free (Bareiss) elimination, the one kernel behind this module.

    Each row is first multiplied by the monomial T^-shift that makes all
    its exponents nonnegative.  The pivot is the first nonzero entry, in
    column order, of the first remaining row with a nonzero entry in a
    non-pivot column; only non-pivot columns are updated, and in
    characteristic 2 the Bareiss cross term is an addition.  Every
    division by the previous pivot is exact.

    The loop runs on packed entries (see the module docstring): after
    the shift, row i spreads over s_i(v) powers of T_v, and with d_v one
    more than the sum of the k = min(rows, cols, max_rank) largest
    s_i(v), every nonzero minor the kernel stores -- none is larger
    than the rank -- lies in the box [0, d1) x [0, d2) x [0, d3).
    Entries are packed on entry by T1 -> t, T2 -> t^d1,
    T3 -> t^(d1*d2).  They are dense bit-packed F2[t] integers when
    rows * cols * d1 * d2 * d3 is at most :data:`DENSE_BUDGET_BITS`, and
    frozensets of packed exponents otherwise; in both, addition is ``^``.
    An entry whose update has both terms zero is left alone, and a zero
    factor drops the cross term.

    ``max_rank`` must bound the rank.  One set too low shrinks the box
    and can only lower the packed rank, since the packing is a ring
    homomorphism into a domain; :func:`fraction_rank` then sees the
    randomized rank exceed the exact one and raises.

    With ``reduce_above`` the rows above each pivot are eliminated too
    (fraction-free Gauss-Jordan), so every pivot entry ends equal to the
    last pivot, and the reduced rows are unpacked and returned; without
    it the rows list is empty.  Also returns the pivot columns (pivot i
    sits in row i), the last pivot (ONE when there is none) and the sum
    of the row shifts: the row scalings multiplied the determinant of a
    square matrix by T^-total.
    """
    lows: list[tuple[int, int, int]] = []
    spreads: tuple[list[int], list[int], list[int]] = ([], [], [])
    for row in mat:
        terms = [t for x in row for t in x.terms]
        if terms:
            e1, e2, e3 = zip(*terms)
            lo = (min(e1), min(e2), min(e3))
            spreads[0].append(max(e1) - lo[0])
            spreads[1].append(max(e2) - lo[1])
            spreads[2].append(max(e3) - lo[2])
        else:
            lo = (0, 0, 0)
        lows.append(lo)
    rows = len(mat)
    cols = len(mat[0]) if mat else 0
    k = min(rows, cols) if max_rank is None else min(rows, cols, max_rank)
    d1, d2, d3 = (1 + sum(sorted(s, reverse=True)[:k]) for s in spreads)
    if rows * cols * d1 * d2 * d3 <= DENSE_BUDGET_BITS:
        zero, one, mul, div = 0, 1, gf2_mul, gf2_divexact
        encode, decode = gf2_from_exponents, gf2_exponents
    else:
        zero, one, mul, div = frozenset(), frozenset((0,)), packed_mul, packed_divexact
        encode = decode = frozenset
    m = [
        [encode(kronecker_pack(x, d1, d2, lo)) if x else zero for x in row]
        for row, lo in zip(mat, lows)
    ]
    free = list(range(cols))
    pivot_cols: list[int] = []
    prev_pivot = one
    for r in range(rows):
        found = next(
            ((i, j) for i in range(r, rows) for j in free if m[i][j]), None
        )
        if found is None:
            break
        pr, pc = found
        m[r], m[pr] = m[pr], m[r]
        pivot_row = m[r]
        pivot = pivot_row[pc]
        free.remove(pc)
        for i in range(rows) if reduce_above else range(r + 1, rows):
            if i == r:
                continue
            row = m[i]
            factor = row[pc]
            for j in free:
                x, y = row[j], pivot_row[j]
                # num may wrap past the box; its exact quotient, a minor, does not
                if factor and y:
                    num = mul(x, pivot) ^ mul(factor, y) if x else mul(factor, y)
                elif x:
                    num = mul(x, pivot)
                else:
                    continue
                row[j] = div(num, prev_pivot)
            row[pc] = zero
            if i < r:
                row[pivot_cols[i]] = pivot
        pivot_cols.append(pc)
        prev_pivot = pivot
    t1, t2, t3 = (sum(lo[v] for lo in lows) for v in range(3))
    return (
        [[kronecker_unpack(decode(x), d1, d2) for x in row] for row in m]
        if reduce_above
        else [],
        pivot_cols,
        kronecker_unpack(decode(prev_pivot), d1, d2),
        (t1, t2, t3),
    )


def rank_frac_exact(
    mat: Sequence[Sequence[LaurentPoly]], max_rank: int | None = None
) -> int:
    """Rank over Frac(R) by fraction-free (Bareiss) elimination.

    ``max_rank``, when given, must be a proven upper bound on the rank;
    it shrinks the packed box (see :func:`_bareiss`).
    """
    return len(_bareiss(mat, reduce_above=False, max_rank=max_rank)[1])


def det_poly(mat: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant of a square matrix over the Laurent ring."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    _, pivot_cols, last, total = _bareiss(mat, reduce_above=False)
    if len(pivot_cols) < n:
        return ZERO
    # Bareiss leaves det of the row-scaled matrix in the last pivot; undo
    # the monomial row scalings (swaps are signless in characteristic 2).
    return last.shifted(*total)


def _minor(mat: Sequence[Sequence[LaurentPoly]], drop_row: int, drop_col: int) -> Matrix:
    return tuple(
        tuple(x for j, x in enumerate(row) if j != drop_col)
        for i, row in enumerate(mat)
        if i != drop_row
    )


def adjugate(mat: Sequence[Sequence[LaurentPoly]]) -> Matrix:
    """Adjugate matrix: adj(M)[i][j] = det of the (j, i) minor (char 2)."""
    n = len(mat)
    return tuple(tuple(det_poly(_minor(mat, j, i)) for j in range(n)) for i in range(n))


def solve_unimodular(
    mat: Sequence[Sequence[LaurentPoly]], rhs: Sequence[Sequence[LaurentPoly]]
) -> Matrix:
    """Solve M X = B over the Laurent ring for M with det(M) = 1.

    Reduces ``[M | B]`` by fraction-free Gauss-Jordan elimination; the
    M block ends as the last pivot d = det(M) times a permutation, so
    row i of the B block is d times row ``pivot_cols[i]`` of X.  Raises
    :class:`InternalConsistencyError` when det(M) is not 1, since the
    callers rely on unimodularity for the solution to stay in the ring.
    """
    n = len(mat)
    if len(rhs) != n or any(len(row) != n for row in mat):
        raise ValueError("solve needs a square matrix and a right side of as many rows")
    reduced, pivot_cols, last, total = _bareiss(
        [(*row, *extra) for row, extra in zip(mat, rhs)], reduce_above=True
    )
    covers = sorted(pivot_cols) == list(range(n))
    d = last.shifted(*total) if covers else ZERO
    if d != ONE:
        raise InternalConsistencyError(f"matrix is not unimodular: det = {d}")
    # d == 1 makes the last pivot the unit T^-total: dividing is a shift.
    solution: list = [()] * n
    for row, pc in zip(reduced, pivot_cols):
        solution[pc] = tuple(x.shifted(*total) for x in row[n:])
    return tuple(solution)


def nullspace_frac(mat: Sequence[Sequence[LaurentPoly]]) -> Matrix:
    """Basis of the right null space over Frac(R), with ring entries.

    After fraction-free Gauss-Jordan elimination every pivot entry equals
    the last pivot d, so free column f gives the kernel vector with d at
    f, row i's entry in column f at ``pivot_cols[i]`` (characteristic 2:
    no sign) and zero elsewhere.  Its entries are minors of the matrix
    after each row is scaled by a monomial.
    """
    cols = len(mat[0]) if mat else 0
    reduced, pivot_cols, last, _ = _bareiss(mat, reduce_above=True)
    basis = []
    for f in range(cols):
        if f in pivot_cols:
            continue
        vec = [ZERO] * cols
        vec[f] = last
        for row, pc in zip(reduced, pivot_cols):
            vec[pc] = row[f]
        basis.append(tuple(vec))
    return tuple(basis)


# ---------------------------------------------------------------------------
# GF(2^16) arithmetic and the randomized rank.
# ---------------------------------------------------------------------------

#: x^16 + x^12 + x^3 + x + 1, irreducible over GF(2) and with x primitive
#: (both verified in tests), so every nonzero element is a power of x.
GF2_16_MODULUS = (1 << 16) | (1 << 12) | (1 << 3) | (1 << 1) | 1

_GF_BITS = 16
#: Order of the multiplicative group of GF(2^16).
_GF_ORDER = (1 << _GF_BITS) - 1

#: ``_GF_EXP[i] = x^i`` for ``i < 2 * _GF_ORDER`` and ``_GF_LOG[x^i] = i``.
#: Built on first use by :func:`_build_gf_tables` (about 11 ms in a fresh
#: CPython 3.11 process), so that importing the package costs nothing;
#: unsigned 16-bit arrays keep the pair at 384 KB.
_GF_EXP = array("H")
_GF_LOG = array("H")


def _build_gf_tables() -> None:
    """Fill the tables one power of x at a time: shift, then reduce."""
    global _GF_EXP, _GF_LOG
    exp = array("H", [0]) * _GF_ORDER
    log = array("H", [0]) * (1 << _GF_BITS)
    a = 1
    for i in range(_GF_ORDER):
        exp[i] = a
        log[a] = i
        a <<= 1
        if a >> _GF_BITS:
            a ^= GF2_16_MODULUS
    # callers test _GF_EXP, so it is bound last: once it is nonempty,
    # both tables are whole
    _GF_LOG = log
    _GF_EXP = exp * 2


def gf16_mul(a: int, b: int) -> int:
    if not (a and b):
        return 0
    if not _GF_EXP:
        _build_gf_tables()
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def gf16_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in GF(2^16)")
    if not _GF_EXP:
        _build_gf_tables()
    return _GF_EXP[_GF_ORDER - _GF_LOG[a]]


def _eval_poly_gf16(p: LaurentPoly, logs: tuple[int, int, int]) -> int:
    """Value of ``p`` at the point (x^l1, x^l2, x^l3), given as its ``logs``.

    The monomial T^e takes the value x^(l1*e1 + l2*e2 + l3*e3), so each
    term is one table lookup and negative exponents need no inverse.
    """
    l1, l2, l3 = logs
    acc = 0
    for e1, e2, e3 in p.terms:
        acc ^= _GF_EXP[(l1 * e1 + l2 * e2 + l3 * e3) % _GF_ORDER]
    return acc


def _rank_gf16(m: list[list[int]]) -> int:
    """Rank of a nonempty matrix over GF(2^16), reduced in place.

    Only the pivot count is read, so each pivot clears the rows below it
    (row echelon form) and its row is not normalized.
    """
    cols = len(m[0])
    rank = 0
    for c in range(cols):
        pr = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        inv = gf16_inv(m[rank][c])
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = gf16_mul(inv, m[i][c])
                m[i] = [x ^ gf16_mul(f, y) for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def rank_frac_randomized(
    mat: Sequence[Sequence[LaurentPoly]], rng: random.Random
) -> int:
    """Rank by evaluation at random nonzero points of GF(2^16).

    Evaluation can only lower the rank, so the maximum over
    :data:`RANDOM_RANK_TRIALS` independent trials is reported.
    """
    if not mat or not mat[0]:
        return 0
    if not _GF_EXP:
        _build_gf_tables()
    best = 0
    for _ in range(RANDOM_RANK_TRIALS):
        logs = tuple(_GF_LOG[rng.randrange(1, 1 << _GF_BITS)] for _ in range(3))
        evaluated = [[_eval_poly_gf16(x, logs) for x in row] for row in mat]
        best = max(best, _rank_gf16(evaluated))
    return best


def check_rank_agreement(
    exact: int, randomized: int, seed: int, shape: tuple[int, int]
) -> None:
    """Raise InternalConsistencyError unless the two rank routes agree.

    Both messages name the ``seed`` and the matrix ``shape`` (rows, cols).
    """
    where = f"(seed {seed}, {shape[0]}x{shape[1]} matrix)"
    if randomized > exact:
        raise InternalConsistencyError(
            f"randomized rank {randomized} exceeds exact rank {exact} {where}"
        )
    if randomized != exact:
        raise InternalConsistencyError(
            f"randomized rank {randomized} disagrees with exact rank {exact} "
            f"{where}; this should be astronomically unlikely"
        )


def fraction_rank(
    mat: Sequence[Sequence[LaurentPoly]], seed: int = 0, max_rank: int | None = None
) -> int:
    """Rank over the fraction field, computed two independent ways.

    Exact fraction-free elimination and randomized GF(2^16) evaluation
    must agree; disagreement raises InternalConsistencyError.  The exact
    route takes ``max_rank``, a proven bound on the rank; a bound set too
    low surfaces as that disagreement.
    """
    exact = rank_frac_exact(mat, max_rank)
    randomized = rank_frac_randomized(mat, random.Random(seed))
    shape = (len(mat), len(mat[0]) if mat else 0)
    check_rank_agreement(exact, randomized, seed, shape)
    return exact


# ---------------------------------------------------------------------------
# Rank over F2 and the local Smith form over F2[t]_(t).
# ---------------------------------------------------------------------------


def rank_f2(rows: Sequence[int]) -> int:
    """Rank of a bit-packed matrix over F2 (bit j of row i is entry (i, j))."""
    basis: dict[int, int] = {}  # leading bit -> reduced row
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return len(basis)


def smith_normal_form(mat: Sequence[Sequence[int]]) -> list[int]:
    """Exponents a_1 <= a_2 <= ... of the Smith form over F2[t]_(t).

    Entries are bit-packed univariate polynomials.  Over the local ring
    the Smith form is diag(t^a_1, t^a_2, ...), and only these exponents
    are returned; zero rows/columns are dropped.  Each step takes a
    nonzero entry t^v * u of least valuation v (u(0) = 1, so u is a
    local unit), replaces every other row with t^v * f in the pivot
    column by u*row + f*pivot_row, and drops the pivot row and column.
    Every step is invertible over the local ring, and v is least, so
    the pivot divides its row and clearing it only scales by units.
    """
    m = [list(row) for row in mat]
    exps: list[int] = []
    while True:
        best = min(
            (
                (gf2_valuation(x), i, j)
                for i, row in enumerate(m)
                for j, x in enumerate(row)
                if x
            ),
            default=None,
        )
        if best is None:
            return exps
        v, pi, pj = best
        pivot_row = m.pop(pi)
        u = pivot_row.pop(pj) >> v
        for i, row in enumerate(m):
            f = row.pop(pj) >> v
            if f:
                m[i] = [gf2_mul(u, x) ^ gf2_mul(f, y) for x, y in zip(row, pivot_row)]
        exps.append(v)
