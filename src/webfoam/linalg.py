"""Exact linear algebra over the Laurent ring and its fraction field.

Matrices are lists of rows; entries are :class:`~webfoam.laurent.LaurentPoly`
(or :class:`~webfoam.laurent.RationalFunction` where stated).  Everything
here is exact:

* rank over Frac(R) by fraction-free Bareiss elimination, with entries
  kept polynomial (each row is first scaled by a monomial unit);
* a cross-checking randomized rank that evaluates the matrix at random
  points of GF(2^16) and eliminates over that field (Schwartz-Zippel);
* determinants, adjugates and fraction-field null spaces for the small
  operator matrices used elsewhere;
* Smith normal form over the Euclidean domain F2[t] for torsion
  analysis of specialized differentials.

The two rank routes are deliberately independent; :func:`fraction_rank`
runs both and raises :class:`~webfoam.errors.InternalConsistencyError`
if they ever disagree (the check is :func:`check_rank_agreement`, which
callers that keep an exact rank and re-run only the randomized route
share).

Entry types and routes: :func:`fraction_rank` and
:func:`rank_frac_randomized` accept LaurentPoly and RationalFunction
entries.  LaurentPoly entries go straight to Bareiss elimination and are
evaluated directly at each GF(2^16) point.  A row holding a
RationalFunction is first multiplied by the product of its denominators
for the exact route, and each RationalFunction entry is evaluated as
numerator times the inverse of its denominator for the randomized route
(a point where a denominator vanishes is resampled).  Every other
function here takes LaurentPoly entries only, except
:func:`nullspace_frac`, which works over RationalFunction internally.
"""

from __future__ import annotations

import random
from typing import Sequence

from .errors import InternalConsistencyError
from .laurent import (
    LaurentPoly,
    ONE,
    RationalFunction,
    ZERO,
    gf2_divmod,
    gf2_mul,
    poly_divexact,
)

Matrix = list[list[LaurentPoly]]

__all__ = [
    "identity",
    "zeros",
    "mat_add",
    "mat_mul",
    "mat_scale",
    "transpose",
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


# ---------------------------------------------------------------------------
# Dense matrix plumbing over the Laurent ring.
# ---------------------------------------------------------------------------


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch")
    bt = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = ZERO
            for x, y in zip(row, col):
                if x and y:
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_scale(c: LaurentPoly, a: Matrix) -> Matrix:
    return [[c * x for x in row] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def _clear_rows_to_polynomials(mat: Matrix) -> tuple[Matrix, list[tuple[int, int, int]]]:
    """Scale each row by a monomial so all entries have nonnegative exponents.

    Returns the scaled matrix together with the per-row shifts applied
    (each row was multiplied by T^{-shift}).  Unit row scalings preserve
    rank; the determinant picks up the product of the units.
    """
    out = []
    shifts = []
    for row in mat:
        nonzero = [x for x in row if x]
        if not nonzero:
            out.append(list(row))
            shifts.append((0, 0, 0))
            continue
        lo = tuple(
            min(x.exponent_range()[0][i] for x in nonzero) for i in range(3)
        )
        out.append([x.shifted(-lo[0], -lo[1], -lo[2]) for x in row])
        shifts.append(lo)  # type: ignore[arg-type]
    return out, shifts


def rank_frac_exact(mat: Sequence[Sequence[LaurentPoly]]) -> int:
    """Rank over Frac(R) by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in mat]
    if not m or not m[0]:
        return 0
    m, _ = _clear_rows_to_polynomials(m)
    rows, cols = len(m), len(m[0])
    rank = 0
    prev_pivot = ONE
    r = 0
    while r < rows and rank < cols:
        # full pivot search in the remaining submatrix
        pr = pc = -1
        for i in range(r, rows):
            for j in range(rank, cols):
                if m[i][j]:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        m[r], m[pr] = m[pr], m[r]
        for row in m:
            row[rank], row[pc] = row[pc], row[rank]
        pivot = m[r][rank]
        for i in range(r + 1, rows):
            for j in range(rank + 1, cols):
                # char 2: the Bareiss cross term is an addition
                num = m[i][j] * pivot + m[i][rank] * m[r][j]
                m[i][j] = poly_divexact(num, prev_pivot)
            m[i][rank] = ZERO
        prev_pivot = pivot
        rank += 1
        r += 1
    return rank


def det_poly(mat: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant of a square matrix over the Laurent ring."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return ONE
    m = [list(row) for row in mat]
    m, shifts = _clear_rows_to_polynomials(m)
    total_shift = tuple(sum(s[i] for s in shifts) for i in range(3))
    prev_pivot = ONE
    for k in range(n):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                cswap = next(
                    (j for j in range(k + 1, n) if any(m[i][j] for i in range(k, n))),
                    None,
                )
                if cswap is None:
                    return ZERO
                for row in m:
                    row[k], row[cswap] = row[cswap], row[k]
                if not m[k][k]:
                    swap = next(i for i in range(k + 1, n) if m[i][k])
                    m[k], m[swap] = m[swap], m[k]
            else:
                m[k], m[swap] = m[swap], m[k]
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * pivot + m[i][k] * m[k][j]
                m[i][j] = poly_divexact(num, prev_pivot)
            m[i][k] = ZERO
        prev_pivot = pivot
    # Bareiss leaves det of the scaled matrix in the last pivot; undo the
    # monomial row scalings (swaps are signless in characteristic 2).
    return m[n - 1][n - 1].shifted(*total_shift)


def _minor(mat: Sequence[Sequence[LaurentPoly]], drop_row: int, drop_col: int) -> Matrix:
    return [
        [x for j, x in enumerate(row) if j != drop_col]
        for i, row in enumerate(mat)
        if i != drop_row
    ]


def adjugate(mat: Sequence[Sequence[LaurentPoly]]) -> Matrix:
    """Adjugate matrix: adj(M)[i][j] = det of the (j, i) minor (char 2)."""
    n = len(mat)
    return [[det_poly(_minor(mat, j, i)) for j in range(n)] for i in range(n)]


def solve_unimodular(mat: Matrix, rhs: Matrix) -> Matrix:
    """Solve M X = B over the Laurent ring for M with det(M) = 1.

    Raises :class:`InternalConsistencyError` when det(M) is not 1, since
    the callers rely on unimodularity for the solution to stay in the ring.
    """
    d = det_poly(mat)
    if d != ONE:
        raise InternalConsistencyError(
            f"matrix is not unimodular: det = {d}"
        )
    return mat_mul(adjugate(mat), rhs)


def nullspace_frac(mat: Sequence[Sequence[LaurentPoly]]) -> list[list[LaurentPoly]]:
    """Basis of the right null space over Frac(R), denominators cleared.

    Each returned vector has LaurentPoly entries (scaled by a common
    nonzero factor, which is irrelevant for span computations).
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if cols == 0:
        return []
    work = [[RationalFunction.of(x) for x in row] for row in mat]
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv_pivot = RationalFunction(work[r][c].den, work[r][c].num)
        work[r] = [x * inv_pivot for x in work[r]]
        for i in range(rows):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [
                    x + factor * y for x, y in zip(work[i], work[r])
                ]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        vec = [RationalFunction.of(ZERO)] * cols
        vec[f] = RationalFunction.of(ONE)
        for row_idx, pc in enumerate(pivot_cols):
            vec[pc] = work[row_idx][f]  # char 2: no sign to flip
        common = ONE
        for x in vec:
            common = common * x.den
        cleared = [poly_divexact(x.num * common, x.den) for x in vec]
        basis.append(cleared)
    return basis


# ---------------------------------------------------------------------------
# GF(2^16) arithmetic and the randomized rank.
# ---------------------------------------------------------------------------

#: x^16 + x^12 + x^3 + x + 1, irreducible over GF(2) (verified in tests).
GF2_16_MODULUS = (1 << 16) | (1 << 12) | (1 << 3) | (1 << 1) | 1

_GF_BITS = 16


def gf16_mul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a >> _GF_BITS:
            a ^= GF2_16_MODULUS
    return result


def gf16_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in GF(2^16)")
    # extended Euclid on bit-packed polynomials
    r0, r1 = GF2_16_MODULUS, a
    s0, s1 = 0, 1
    while r1 != 1:
        q, r = gf2_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ gf2_mul(q, s1)
    return gf2_divmod(s1, GF2_16_MODULUS)[1]


def _gf16_pow(a: int, n: int) -> int:
    if n < 0:
        return _gf16_pow(gf16_inv(a), -n)
    result = 1
    while n:
        if n & 1:
            result = gf16_mul(result, a)
        a = gf16_mul(a, a)
        n >>= 1
    return result


def _eval_poly_gf16(
    p: LaurentPoly, point: tuple[int, int, int], powers: dict[tuple[int, int], int]
) -> int:
    """Value of ``p`` at ``point``; ``powers`` caches the point's variable powers."""
    acc = 0
    for exps in p.terms:
        term = 1
        for i, e in enumerate(exps):
            if e:
                power = powers.get((i, e))
                if power is None:
                    power = powers[(i, e)] = _gf16_pow(point[i], e)
                term = gf16_mul(term, power)
        acc ^= term
    return acc


def _eval_entry_gf16(
    x: LaurentPoly | RationalFunction,
    point: tuple[int, int, int],
    powers: dict[tuple[int, int], int],
) -> int | None:
    """Value of a matrix entry at ``point``, or None where its denominator vanishes."""
    if isinstance(x, LaurentPoly):
        return _eval_poly_gf16(x, point, powers)
    den = _eval_poly_gf16(x.den, point, powers)
    if den == 0:
        return None
    return gf16_mul(_eval_poly_gf16(x.num, point, powers), gf16_inv(den))


def _rank_gf16(rows: list[list[int]]) -> int:
    m = [list(r) for r in rows]
    if not m:
        return 0
    cols = len(m[0])
    rank = 0
    for c in range(cols):
        pr = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        inv = gf16_inv(m[rank][c])
        m[rank] = [gf16_mul(inv, x) for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [x ^ gf16_mul(f, y) for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def rank_frac_randomized(
    mat: Sequence[Sequence[LaurentPoly | RationalFunction]],
    rng: random.Random,
    trials: int = RANDOM_RANK_TRIALS,
) -> int:
    """Rank by evaluation at random nonzero points of GF(2^16).

    Evaluation can only lower the rank, so the maximum over independent
    trials is reported.  Points where some denominator vanishes are
    resampled.
    """
    if not mat or not mat[0]:
        return 0
    best = 0
    for _ in range(trials):
        for _attempt in range(64):
            point = (
                rng.randrange(1, 1 << _GF_BITS),
                rng.randrange(1, 1 << _GF_BITS),
                rng.randrange(1, 1 << _GF_BITS),
            )
            powers: dict[tuple[int, int], int] = {}
            evaluated = [
                [_eval_entry_gf16(x, point, powers) for x in row] for row in mat
            ]
            if all(v is not None for row in evaluated for v in row):
                best = max(best, _rank_gf16(evaluated))  # type: ignore[arg-type]
                break
        else:  # pragma: no cover - needs 64 unlucky samples in a row
            raise InternalConsistencyError(
                "could not sample a point avoiding all denominators"
            )
    return best


def check_rank_agreement(exact: int, randomized: int, seed: int) -> None:
    """Raise InternalConsistencyError unless the two rank routes agree."""
    if randomized > exact:
        raise InternalConsistencyError(
            f"randomized rank {randomized} exceeds exact rank {exact}"
        )
    if randomized != exact:
        raise InternalConsistencyError(
            f"randomized rank {randomized} disagrees with exact rank {exact} "
            f"(seed {seed}); this should be astronomically unlikely"
        )


def _cleared_row(
    row: Sequence[LaurentPoly | RationalFunction],
) -> Sequence[LaurentPoly]:
    """The row times the product of its denominators, as ring elements."""
    if all(isinstance(x, LaurentPoly) for x in row):
        return row  # type: ignore[return-value]
    fractions = [
        x if isinstance(x, RationalFunction) else RationalFunction.of(x) for x in row
    ]
    common = ONE
    for x in fractions:
        common = common * x.den
    return [poly_divexact(x.num * common, x.den) for x in fractions]


def fraction_rank(
    mat: Sequence[Sequence[LaurentPoly | RationalFunction]],
    seed: int = 0,
) -> int:
    """Rank over the fraction field, computed two independent ways.

    Exact fraction-free elimination and randomized GF(2^16) evaluation
    must agree; disagreement raises InternalConsistencyError.  Entries
    may be LaurentPoly or RationalFunction values.
    """
    exact = rank_frac_exact([_cleared_row(row) for row in mat])
    randomized = rank_frac_randomized(mat, random.Random(seed))
    check_rank_agreement(exact, randomized, seed)
    return exact


# ---------------------------------------------------------------------------
# Rank over F2 and Smith normal form over F2[t].
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
    """Diagonal of the Smith normal form over F2[t].

    Entries are bit-packed univariate polynomials.  The returned list
    holds the nonzero invariant factors d_1 | d_2 | ... (monic is
    automatic over F2); zero rows/columns are dropped.
    """
    m = [list(row) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag: list[int] = []
    top = 0
    while True:
        # locate a nonzero entry of minimal degree in the remaining block
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] and (best is None or m[i][j].bit_length() < best[2]):
                    best = (i, j, m[i][j].bit_length())
        if best is None:
            break
        bi, bj, _ = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        while True:
            pivot = m[top][top]
            # clear the column
            dirty = False
            for i in range(top + 1, rows):
                if m[i][top]:
                    q, r = gf2_divmod(m[i][top], pivot)
                    m[i] = [x ^ gf2_mul(q, y) for x, y in zip(m[i], m[top])]
                    if r:
                        m[top], m[i] = m[i], m[top]
                        dirty = True
                        break
            if dirty:
                continue
            # clear the row
            for j in range(top + 1, cols):
                if m[top][j]:
                    q, r = gf2_divmod(m[top][j], pivot)
                    for i in range(top, rows):
                        m[i][j] ^= gf2_mul(q, m[i][top])
                    if r:
                        for i in range(top, rows):
                            m[i][top], m[i][j] = m[i][j], m[i][top]
                        dirty = True
                        break
            if not dirty:
                break
        # enforce d_k | (remaining entries): fold offending rows in
        pivot = m[top][top]
        offender = None
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if m[i][j] and gf2_divmod(m[i][j], pivot)[1]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[top] = [x ^ y for x, y in zip(m[top], m[offender])]
            continue  # re-run the reduction at the same corner
        diag.append(pivot)
        top += 1
        if top >= rows or top >= cols:
            break
    return diag
