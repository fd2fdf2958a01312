"""Differential modules over the Laurent ring and their rank/torsion data.

A differential module is a free module of finite rank with a square-zero
endomorphism.  There is no homological grading; a two-term complex
``A: R^a -> R^b`` embeds as the square-zero block matrix
``((0, A), (0, 0))`` on ``R^(b+a)``.

Three quantities are computed exactly:

* the homology rank over the fraction field, ``n - 2*rank(d)``;
* the homology dimension over F2 after evaluating every entry at
  T1 = T2 = T3 = 1, which can only be larger;
* after substituting ``T_i = 1 + c_i t`` along a line direction, the
  Smith form ``diag(t^a_i)`` over the local ring F2[t]_(t) of the
  cleared differential, whose positive exponents ``a_i`` are the
  torsion exponents of the homology over that ring.  With ``r`` the
  free rank and ``l`` the number of torsion summands, the specialized
  dimension satisfies ``f2_dim = r + 2*l``; the identity is asserted on
  every analysis.

Shipped models: the mapping cone of P times the identity on R^2 (pure
torsion, two summands with exponent 4), and the rank-6 cone of
``u^2 + P`` on the circle model (free of rank 4).  A seeded generator
produces random square-zero modules for the property suites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import InputError, InternalConsistencyError, ValidationError, _read_json
from .laurent import (
    LaurentPoly,
    P,
    ZERO,
    eval_at_ones,
    format_line_image,
    gf2_mul_one_plus_t_pow,
    leading_form,
    substitute_line,
)
from . import linalg
from .linalg import Matrix

__all__ = [
    "DifferentialModule",
    "SpecializationReport",
    "DIRECTIONS",
    "cone_of_p",
    "linked_handcuffs_model",
    "random_complex",
    "order_four_certificate",
    "complex_from_dict",
    "complex_to_dict",
    "load_complex",
]

#: The two shipped substitution directions.
DIRECTIONS: tuple[tuple[int, int, int], ...] = ((1, 1, 1), (1, 1, 0))


@dataclass(frozen=True)
class SpecializationReport:
    """Rank and torsion data of a differential module along a line."""

    direction: tuple[int, int, int]
    frac_rank: int
    f2_dim: int
    r: int
    l: int
    torsion_exponents: tuple[int, ...]
    degenerate_direction: bool

    def to_dict(self) -> dict:
        return {
            "direction": ",".join(str(c) for c in self.direction),
            "frac_rank": self.frac_rank,
            "f2_dim": self.f2_dim,
            "r": self.r,
            "l": self.l,
            "torsion_exponents": list(self.torsion_exponents),
            "degenerate_direction": self.degenerate_direction,
        }


@dataclass(frozen=True, eq=False)
class DifferentialModule:
    """Free module over the Laurent ring with a square-zero endomorphism.

    The constructor stores both matrices as tuples of tuple rows, and
    the attributes cannot be rebound.  The exact (Bareiss) rank of the
    differential is computed once, on the first :meth:`frac_rank`
    request, and the randomized GF(2^16) cross-check runs once for each
    distinct seed passed to :meth:`frac_rank`.  ``two_term``, when set,
    is the map ``a: R^(rank - len(a)) -> R^len(a)`` whose mapping cone is
    the differential (:meth:`from_map`).
    """

    differential: Matrix
    two_term: Matrix | None = None
    # seed -> the exact rank of the differential, cross-checked at that seed
    _ranks: dict[int, int] = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        d = tuple(map(tuple, self.differential))
        n = len(d)
        if any(len(row) != n for row in d):
            raise ValidationError(f"differential must be {n}x{n}")
        if not linalg.is_zero_matrix(linalg.mat_mul(d, d)):
            raise ValidationError("differential does not square to zero")
        object.__setattr__(self, "differential", d)
        if self.two_term is not None:
            object.__setattr__(self, "two_term", tuple(map(tuple, self.two_term)))

    @classmethod
    def from_map(cls, a: Sequence[Sequence[LaurentPoly]]) -> "DifferentialModule":
        """Mapping cone of ``a: R^cols -> R^rows`` as a square-zero block."""
        return cls(_cone(a), two_term=a)

    @property
    def rank(self) -> int:
        return len(self.differential)

    # -- rank computations -------------------------------------------

    def frac_rank(self, seed: int = 0) -> int:
        """Homology rank over the fraction field: n - 2*rank(d).

        The differential's rank runs through both the exact and the
        randomized route (they must agree).  The exact rank is memoized;
        a seed not seen before re-runs only the randomized route.
        """
        ranks = self._ranks
        if not ranks:
            # d*d = 0 (checked on construction) bounds rank(d) by rank // 2
            ranks[seed] = linalg.fraction_rank(
                self.differential, seed=seed, max_rank=self.rank // 2
            )
        elif seed not in ranks:
            exact = next(iter(ranks.values()))
            randomized = linalg.rank_frac_randomized(
                self.differential, random.Random(seed)
            )
            linalg.check_rank_agreement(exact, randomized, seed, (self.rank, self.rank))
            ranks[seed] = exact
        return self.rank - 2 * ranks[seed]

    def two_term_ranks(self, seed: int = 0) -> tuple[int, int]:
        """(kernel rank, cokernel rank) of the underlying map over Frac(R).

        The differential is the mapping cone of the map, so both have the
        same rank, read off :meth:`frac_rank` with its memo and cross-check.
        """
        if self.two_term is None:
            raise ValueError("module was not built from a two-term map")
        rows = len(self.two_term)
        rank_a = (self.rank - self.frac_rank(seed)) // 2
        return self.rank - rows - rank_a, rows - rank_a

    def f2_dim(self) -> int:
        """Homology dimension over F2 after evaluating at T = (1, 1, 1)."""
        packed = []
        for row in self.differential:
            bits = 0
            for j, x in enumerate(row):
                if eval_at_ones(x):
                    bits |= 1 << j
            packed.append(bits)
        return self.rank - 2 * linalg.rank_f2(packed)

    def bockstein(
        self, direction: tuple[int, int, int], seed: int = 0
    ) -> SpecializationReport:
        """Torsion analysis along a substitution direction.

        The substituted differential is cleared to a matrix over F2[t]
        by a common unit at t = 0; the positive exponents of its Smith
        form over the local ring F2[t]_(t) are the torsion exponents.
        The generic rank it is compared with is :meth:`frac_rank` at
        ``seed``.
        """
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        substituted = [
            [substitute_line(x, direction) for x in row] for row in self.differential
        ]
        max_k = max((k for row in substituted for _, k in row), default=0)
        cleared = [
            [gf2_mul_one_plus_t_pow(num, max_k - k) for num, k in row]
            for row in substituted
        ]
        exps = linalg.smith_normal_form(cleared)
        torsion = tuple(a for a in exps if a > 0)
        r = self.rank - 2 * len(exps)
        l = len(torsion)
        f2 = self.f2_dim()
        where = f"along direction {','.join(map(str, direction))} (seed {seed})"
        if f2 != r + 2 * l:
            raise InternalConsistencyError(
                f"universal-coefficient identity violated {where}: "
                f"f2_dim {f2} != {r} + 2*{l}"
            )
        fr = self.frac_rank(seed)
        if r < fr:
            raise InternalConsistencyError(
                f"free rank {r} {where} is below the generic rank {fr}"
            )
        return SpecializationReport(
            direction=direction,
            frac_rank=fr,
            f2_dim=f2,
            r=r,
            l=l,
            torsion_exponents=torsion,
            degenerate_direction=r > fr,
        )


def _cone(a: Sequence[Sequence[LaurentPoly]]) -> Matrix:
    """The square-zero block ((0, a), (0, 0)) of ``a: R^cols -> R^rows``."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    return tuple((ZERO,) * rows + tuple(r) for r in a) + linalg.zeros(cols, rows + cols)


def cone_of_p() -> DifferentialModule:
    """Mapping cone of P times the identity on R^2: pure torsion."""
    a = [[P, ZERO], [ZERO, P]]
    return DifferentialModule.from_map(a)


def linked_handcuffs_model() -> DifferentialModule:
    """Cone of u^2 + P on the rank-3 circle model.

    The map has rank 1 over the fraction field, so kernel and cokernel
    are each of rank 2 and the homology is free of rank 4 with no
    torsion in either shipped direction.
    """
    # the one model built on the operators
    from .operators import unknot_module

    return DifferentialModule.from_map(unknot_module().images["e"])


def random_complex(seed: int, size: int) -> DifferentialModule:
    """Seeded random square-zero module of the given rank (at most 12).

    Built as a mapping cone of a sparse random matrix over the ring,
    then conjugated by random elementary matrices with monomial
    multipliers; conjugation preserves squaring to zero and all the
    homological invariants of interest.
    """
    if size < 2 or size > 12:
        raise ValueError("size must be between 2 and 12")
    rng = random.Random(seed)
    rows = rng.randint(1, size - 1)
    cols = size - rows

    def random_entry() -> LaurentPoly:
        if rng.random() < 0.45:
            return ZERO
        acc = ZERO
        for _ in range(rng.randint(1, 2)):
            acc = acc + LaurentPoly.monomial(
                rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-1, 1)
            )
        return acc

    a = [[random_entry() for _ in range(cols)] for _ in range(rows)]
    d = [list(r) for r in _cone(a)]
    for _ in range(size):
        i, j = rng.sample(range(size), 2)
        c = LaurentPoly.monomial(
            rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-1, 1)
        )
        # conjugate by I + c*E_ij: row_i += c*row_j, then col_j += c*col_i
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        for row in d:
            row[j] = row[j] + c * row[i]
    return DifferentialModule(d)


def order_four_certificate() -> tuple[tuple[str, str, bool], ...]:
    """Computed evidence that P vanishes to order exactly 4 at (1,1,1).

    Returns ``(claim, computed value, holds)`` triples.
    """
    entries = []

    order, lead = leading_form(P)
    entries.append(("order of vanishing of P at (1,1,1)", str(order), order == 4))

    expected_lead = (
        LaurentPoly.monomial(2, 2, 0)
        + LaurentPoly.monomial(2, 0, 2)
        + LaurentPoly.monomial(0, 2, 2)
    )
    entries.append(
        (
            "symbolic substitution T_i = 1 + z_i*t, leading term",
            f"({str(lead).replace('T', 'z')}) * t^{order}",
            (order, lead) == (4, expected_lead),
        )
    )

    for direction, k, claim in (
        ((1, 1, 1), 1, "image of P along (1,1,1), exactly t^4/(1+t)"),
        ((1, 1, 0), 2, "image of P along (1,1,0), exactly t^4/(1+t)^2"),
    ):
        img = substitute_line(P, direction)
        entries.append((claim, format_line_image(*img), img == (0b10000, k)))
    return tuple(entries)


# ---------------------------------------------------------------------------
# JSON input format for differential modules.
# ---------------------------------------------------------------------------


def complex_from_dict(data: object, source: str = "<complex>") -> DifferentialModule:
    def fail(path: str, message: str) -> InputError:
        return InputError(f"{source}: {path}: {message}")

    if not isinstance(data, dict):
        raise fail("$", "expected a JSON object")
    rank = data.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise fail("rank", "expected a nonnegative integer")
    rows = data.get("differential")
    if not isinstance(rows, list) or len(rows) != rank:
        raise fail("differential", f"expected a list of {rank} rows")
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != rank:
            raise fail(f"differential[{i}]", f"expected a list of {rank} entries")
        out = []
        for j, entry in enumerate(row):
            if not isinstance(entry, str):
                raise fail(f"differential[{i}][{j}]", "expected a string")
            try:
                out.append(LaurentPoly.parse(entry))
            except ValueError as exc:
                raise fail(f"differential[{i}][{j}]", str(exc)) from exc
        parsed.append(out)
    try:
        return DifferentialModule(parsed)
    except ValidationError as exc:
        # structurally fine but semantically invalid: keep the distinction
        raise ValidationError(f"{source}: {exc}") from exc


def complex_to_dict(module: DifferentialModule) -> dict:
    return {
        "rank": module.rank,
        "differential": [[str(x) for x in row] for row in module.differential],
    }


def load_complex(path: str | Path) -> DifferentialModule:
    path = Path(path)
    return complex_from_dict(_read_json(path), source=str(path))
