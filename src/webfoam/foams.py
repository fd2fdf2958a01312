"""Closed-foam evaluations: dotted spheres and dotted theta foams.

The two closed-foam families evaluate to elements of the Laurent ring.
A sphere with m dots evaluates to 0 for m < 2, to 1 for m = 2, and each
further pair of dots contributes a factor of the distinguished element P.
A theta foam (three disks sharing a circle) with dots (m1, m2, m3)
vanishes when all three counts are positive, when the total is even, or
when the total is below three; the base case (0, 1, 2) evaluates to 1
and any entry of size at least 3 can be reduced by 2 at the cost of a
factor of P.

The reduction here always sorts descending and reduces the largest
entry.  The rules are order-independent (reducing any entry >= 3 gives
the same value); the test suite confirms this exhaustively rather than
assuming it.
"""

from __future__ import annotations

import functools

from .laurent import LaurentPoly, P, ZERO

__all__ = [
    "eval_sphere",
    "eval_theta",
    "pairing_matrix",
    "THETA_BASIS_DOTS",
]

#: Dot triples indexing the rank-6 pairing: first entry 0, middle in
#: {0, 1}, last in {0, 1, 2}.
THETA_BASIS_DOTS: tuple[tuple[int, int, int], ...] = tuple(
    (0, m, n) for m in (0, 1) for n in (0, 1, 2)
)


def eval_sphere(m: int) -> LaurentPoly:
    """Evaluation of the m-dotted sphere: 0, 0, 1, then P per extra dot pair.

    >>> print(eval_sphere(2))
    1
    >>> eval_sphere(5) == ZERO
    True
    >>> eval_sphere(6) == P * P
    True
    """
    if m < 0:
        raise ValueError("dot count must be nonnegative")
    if m % 2 == 1 or m == 0:
        return ZERO
    return P ** (m // 2 - 1)


@functools.lru_cache(maxsize=None)
def _eval_theta_sorted(triple: tuple[int, int, int]) -> LaurentPoly:
    # a loop, not a recursion: one reduction per factor of P, so deep dot
    # counts stay within the interpreter's recursion limit
    a, b, c = triple  # descending
    factors = 0
    while True:
        if c > 0 or (a + b + c) % 2 == 0 or a + b + c < 3:
            return ZERO
        if (a, b, c) == (2, 1, 0):
            return P**factors
        a, b, c = sorted((a - 2, b, c), reverse=True)
        factors += 1


def eval_theta(m1: int, m2: int, m3: int) -> LaurentPoly:
    """Evaluation of the theta foam with the given dot counts.

    Symmetric in its arguments; every nonzero value is a power of P.

    >>> print(eval_theta(0, 1, 2))
    1
    >>> eval_theta(1, 1, 1) == ZERO
    True
    >>> eval_theta(0, 3, 4) == P * P
    True
    """
    if m1 < 0 or m2 < 0 or m3 < 0:
        raise ValueError("dot counts must be nonnegative")
    return _eval_theta_sorted(tuple(sorted((m1, m2, m3), reverse=True)))


def pairing_matrix() -> list[list[LaurentPoly]]:
    """Gram matrix of theta evaluations on the standard dotted family.

    Entry (i, j) is the evaluation of the theta foam whose dot counts
    are the componentwise sum of ``THETA_BASIS_DOTS[i]`` and
    ``THETA_BASIS_DOTS[j]``.  The matrix is unimodular.
    """
    return [
        [eval_theta(a[0] + v[0], a[1] + v[1], a[2] + v[2]) for v in THETA_BASIS_DOTS]
        for a in THETA_BASIS_DOTS
    ]
