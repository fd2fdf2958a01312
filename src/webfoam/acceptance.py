"""The full verification suite behind ``webfoam verify-all``.

Each check is a pure function of a :class:`CheckContext` that returns
its failures and a one-line summary.  :func:`run_all` owns the context,
the verdict and the budget: a check passes when it reports no failure
and stays within its wall-clock budget, and its detail is the summary,
or else the failures joined by ``"; "``.  A check that raises
:class:`~webfoam.errors.InternalConsistencyError` becomes a failing
result carrying the exception text, and the remaining checks still run;
so does any other exception a check raises, named by its type, except
``MemoryError``, which ends the run.  An ``InputError`` or
``ValidationError`` fails its check the same way, as an ordinary
failure.  The Tait check records each bad corpus file as
``<file name>: <message>`` and goes on with the other webs.

The same checks back the acceptance test module, so the CLI table and
the test suite can never drift apart.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import homology, linalg, operators, webs
from .errors import InputError, InternalConsistencyError, ValidationError
from .foams import eval_sphere, eval_theta
from .laurent import LaurentPoly, ONE, P, ZERO

__all__ = ["CheckContext", "CheckResult", "CHECKS", "run_all"]


@dataclass(frozen=True)
class CheckContext:
    """The values a ``verify-all`` run may set; each check reads what it needs."""

    #: Directory of web JSON files for the Tait check; None means the shipped corpus.
    corpus: Path | None = None
    #: Seed of the randomized rank in the property suite.
    seed: int = 0


#: A check's outcome: its failures (empty when it passed) and a summary.
Outcome = tuple[list[str], str]


@dataclass(frozen=True)
class CheckResult:
    key: str
    passed: bool
    detail: str
    seconds: float
    budget: float
    #: The check raised InternalConsistencyError or another unexpected
    #: exception; ``detail`` holds its text.
    internal_error: bool = False

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "passed": self.passed,
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
            "budget": self.budget,
        }


def _fail(messages: list[str], condition: bool, label: str) -> bool:
    if not condition:
        messages.append(label)
    return condition


# ---------------------------------------------------------------------------
# 1. Tait formula identity.
# ---------------------------------------------------------------------------


def check_tait_formula(ctx: CheckContext) -> Outcome:
    max_vertices = 10
    problems: list[str] = []
    pinned = {"dodecahedron": 60, "petersen": 0}
    counts = {}
    corpus = ctx.corpus or webs.corpus_dir()
    paths = sorted(corpus.glob("*.json"))
    for path in paths:
        name = path.stem
        try:
            web = webs.load_web(path).validate()
        except (InputError, ValidationError) as exc:
            problems.append(f"{path.name}: {str(exc).removeprefix(f'{path}: ')}")
            continue
        bt = webs.count_tait_backtracking(web)
        mf = webs.count_tait_matching_formula(web)
        counts[name] = bt
        _fail(problems, bt == mf, f"{name}: backtracking {bt} != formula {mf}")
        if name in pinned:
            _fail(problems, bt == pinned[name], f"{name}: {bt} != {pinned[name]}")
    _fail(problems, bool(paths), f"{corpus}: no *.json web in the corpus")
    generated = 0
    for n in range(2, max_vertices + 1, 2):
        for web in webs.generate_connected_cubic(n):
            bt = webs.count_tait_backtracking(web)
            mf = webs.count_tait_matching_formula(web)
            generated += 1
            if bt != mf:
                problems.append(f"{web.name}: backtracking {bt} != formula {mf}")
    return problems, (
        f"corpus of {len(counts)} webs agrees "
        f"(dodecahedron={counts.get('dodecahedron')}, petersen={counts.get('petersen')}); "
        f"{generated} generated connected cubic multigraphs (<= {max_vertices} "
        "vertices, up to isomorphism) agree"
    )


# ---------------------------------------------------------------------------
# 2. Foam evaluation table.
# ---------------------------------------------------------------------------


def _theta_closed_form(dots: Sequence[int], powers: list[LaurentPoly]) -> LaurentPoly:
    """Independent closed form: with sorted dots a >= b >= c, the value is
    P^((a+b-3)/2) when c = 0, b >= 1 and a + b is odd and at least 3,
    and zero otherwise.  ``powers[k]`` is P^k."""
    a, b, c = sorted(dots, reverse=True)
    if c != 0 or b < 1 or (a + b) % 2 == 0 or a + b < 3:
        return ZERO
    return powers[(a + b - 3) // 2]


def _theta_reduce_first(
    dots: Sequence[int], powers: list[LaurentPoly], reductions: int = 0
) -> LaurentPoly:
    """Alternative reducer: rewrites the first entry >= 3 it finds, each
    rewrite costing one factor of P (``powers[k]`` is P^k)."""
    if min(dots) > 0 or sum(dots) % 2 == 0 or sum(dots) < 3:
        return ZERO
    if sorted(dots) == [0, 1, 2]:
        return powers[reductions]
    for i, m in enumerate(dots):
        if m >= 3:
            reduced = list(dots)
            reduced[i] = m - 2
            return _theta_reduce_first(reduced, powers, reductions + 1)
    return ZERO


def check_foam_table(ctx: CheckContext) -> Outcome:
    """Spheres with 0..8 dots and every theta triple with entries <= 8.

    ``eval_theta`` runs once per ordered triple, into a table that holds
    every permutation of every triple, so the invariance test compares
    table entries.  Each value is checked against the closed form, the
    first-entry reduction (both read one list of powers of P built by
    repeated multiplication, not ``foams``), its six permutations and
    the even-sum rule.
    """
    max_dots = 8
    problems: list[str] = []
    expected_spheres = [ZERO, ZERO, ONE, ZERO, P, ZERO, P**2, ZERO, P**3]
    got = [eval_sphere(m) for m in range(9)]
    _fail(
        problems,
        got == expected_spheres,
        "sphere values 0..8 differ from (0,0,1,0,P,0,P^2,0,P^3)",
    )
    _fail(problems, eval_theta(0, 1, 2) == ONE, "theta(0,1,2) != 1")
    # the largest exponent either oracle reaches is (2 * max_dots - 3) // 2
    powers = [ONE]
    while len(powers) < max_dots:
        powers.append(powers[-1] * P)
    table = {
        dots: eval_theta(*dots)
        for dots in itertools.product(range(max_dots + 1), repeat=3)
    }
    checked = 0
    for dots, value in table.items():
        checked += 1
        if value != _theta_closed_form(dots, powers):
            problems.append(f"theta{dots}: closed-form oracle disagrees")
            break
        if value != _theta_reduce_first(dots, powers):
            problems.append(f"theta{dots}: reduction order changes the value")
            break
        for perm in itertools.permutations(dots):
            if table[perm] != value:
                problems.append(f"theta{dots}: not invariant under {perm}")
                break
        if sum(dots) % 2 == 0 and value != ZERO:
            problems.append(f"theta{dots}: even dot sum but nonzero value")
            break
    return problems, (
        f"sphere table 0..8 exact; {checked} theta triples (entries <= {max_dots}) "
        "match the closed form, all 6 permutations, and first-entry reduction"
    )


# ---------------------------------------------------------------------------
# 3. Circle (unknot) operator model.
# ---------------------------------------------------------------------------


def check_unknot_model(ctx: CheckContext) -> Outcome:
    problems: list[str] = []
    module = operators.unknot_module()
    u = module.operators["e"]
    pinned = ((ZERO, ZERO, ZERO), (ONE, ZERO, P), (ZERO, ONE, ZERO))
    _fail(problems, u == pinned, "operator matrix differs from the pinned model")
    for name, ok in module.relations:
        _fail(problems, ok, f"relation failed: {name}")
    rank_u = linalg.fraction_rank(u)
    _fail(problems, rank_u == 2, f"image rank {rank_u} != 2")
    kernel = linalg.nullspace_frac(u)
    _fail(problems, len(kernel) == 1, f"kernel rank {len(kernel)} != 1")
    if len(kernel) == 1:
        v = kernel[0]
        w = [P, ZERO, ONE]
        proportional = all(
            v[i] * w[j] == v[j] * w[i] for i in range(3) for j in range(3)
        )
        _fail(problems, proportional, "kernel generator not proportional to (P,0,1)")
    decomposition = operators.edge_decomposition(module)
    _fail(
        problems,
        decomposition.rank(["e"]) == 1 and decomposition.rank([]) == 2,
        "edge decomposition ranks differ from (1, 2)",
    )
    return problems, (
        "pinned 3x3 matrix; u^3+P*u=0; ker/im ranks 1/2 over the fraction field; "
        "kernel spanned by (P,0,1); summand ranks (1,2)"
    )


# ---------------------------------------------------------------------------
# 4. Theta operator model.
# ---------------------------------------------------------------------------


def check_theta_model(ctx: CheckContext) -> Outcome:
    """The rank-6 theta model: relations, summand ranks and projections.

    The relation outcomes are those of the one
    :func:`~webfoam.operators.check_vertex_relations` run that the
    module's constructor makes; they are read, not computed again.
    """
    problems: list[str] = []
    module = operators.theta_module()
    for name, ok in module.relations:
        _fail(problems, ok, f"relation failed: {name}")
    decomposition = operators.edge_decomposition(module)
    for edge in module.edge_ids:
        r = decomposition.rank([edge])
        _fail(problems, r == 2, f"summand for {{{edge}}} has rank {r} != 2")
    for subset, r in decomposition.subset_ranks.items():
        if len(subset) != 1:
            _fail(problems, r == 0, f"summand for {sorted(subset)} has rank {r} != 0")
    total = sum(decomposition.subset_ranks.values())
    _fail(problems, total == 6, f"summand ranks total {total} != 6")
    for name, ok in decomposition.projection_checks:
        _fail(problems, ok, f"projection identity failed: {name}")
    return problems, (
        "derived 6x6 operators satisfy the vertex and cubic relations; "
        "edge decomposition is 2+2+2 on singletons and 0 elsewhere; "
        "projections are orthogonal idempotents summing to 1"
    )


# ---------------------------------------------------------------------------
# 5. Order-4 certificate.
# ---------------------------------------------------------------------------


def check_order_four(ctx: CheckContext) -> Outcome:
    entries = homology.order_four_certificate()
    problems = [f"{claim}: got {got}" for claim, got, ok in entries if not ok]
    return problems, "; ".join(claim for claim, _, _ in entries)


# ---------------------------------------------------------------------------
# 6. Handcuffs pair.
# ---------------------------------------------------------------------------


def check_handcuffs_pair(ctx: CheckContext) -> Outcome:
    problems: list[str] = []
    web = webs.corpus_web("handcuffs").validate()
    sets = webs.one_sets(web)
    _fail(problems, len(sets) == 1, f"{len(sets)} 1-sets, expected exactly 1")
    if len(sets) == 1:
        (s,) = sets
        connecting = {
            e.id for e in web.edges if e.kind == "edge"
        }
        _fail(
            problems,
            s == frozenset(connecting),
            "the unique 1-set is not the connecting edge",
        )
        odd = not webs.is_even(webs.complement_cycles(web, s))
        _fail(problems, odd, "the unique 1-set should be odd")
    predicted = webs.count_tait_matching_formula(web)
    _fail(problems, predicted == 0, f"predicted rank {predicted} != 0")

    model = homology.linked_handcuffs_model()
    a = model.two_term
    pinned = ((P, ZERO, ZERO), (ZERO, ZERO, ZERO), (ONE, ZERO, ZERO))
    _fail(problems, a == pinned, "u^2 + P*I differs from the pinned matrix")
    rank_a = linalg.fraction_rank(a)
    _fail(
        problems,
        (3 - rank_a, 3 - rank_a) == (2, 2),
        f"kernel/cokernel ranks {3 - rank_a} != 2",
    )
    _fail(problems, model.frac_rank() == 4, "homology rank over Frac != 4")
    _fail(problems, model.f2_dim() == 4, "specialized F2 dimension != 4")
    for direction in homology.DIRECTIONS:
        rep = model.bockstein(direction)
        _fail(
            problems,
            rep.r == 4 and not rep.torsion_exponents,
            f"direction {direction}: r={rep.r}, torsion={rep.torsion_exponents}",
        )
    return problems, (
        "abstract handcuffs have exactly one 1-set (the connecting edge), odd, "
        "predicted rank 0; the linked model is free of rank 4 with no torsion "
        "in either direction and F2 dimension 4"
    )


# ---------------------------------------------------------------------------
# 7. Rank inequality and universal-coefficient property suite.
# ---------------------------------------------------------------------------


def check_property_suite(ctx: CheckContext) -> Outcome:
    count = 200
    problems: list[str] = []
    degenerate = 0
    for k in range(count):
        size = 2 + (k % 11)
        module = homology.random_complex(ctx.seed * 1_000_003 + k, size)
        f2 = module.f2_dim()
        fr = module.frac_rank(seed=ctx.seed)
        if f2 < fr:
            problems.append(f"module {k}: f2_dim {f2} < frac_rank {fr}")
            break
        for direction in homology.DIRECTIONS:
            rep = module.bockstein(direction, seed=ctx.seed)
            if rep.f2_dim != rep.r + 2 * rep.l:
                problems.append(
                    f"module {k} {direction}: {rep.f2_dim} != {rep.r} + 2*{rep.l}"
                )
                break
            if rep.degenerate_direction:
                degenerate += 1
    return problems, (
        f"{count} seeded square-zero modules (rank <= 12): f2_dim >= frac_rank, "
        f"f2_dim = r + 2l in both directions, exact and randomized ranks agree "
        f"({degenerate} degenerate direction analyses)"
    )


# ---------------------------------------------------------------------------
# 8. Cone of P.
# ---------------------------------------------------------------------------


def check_cone_p(ctx: CheckContext) -> Outcome:
    problems: list[str] = []
    module = homology.cone_of_p()
    _fail(problems, module.frac_rank() == 0, "frac_rank != 0")
    _fail(problems, module.f2_dim() == 4, "f2_dim != 4")
    rep = module.bockstein((1, 1, 1))
    _fail(
        problems,
        rep.torsion_exponents == (4, 4) and rep.r == 0,
        f"direction (1,1,1): r={rep.r}, torsion={rep.torsion_exponents}",
    )
    return problems, "cone of P*I on rank 2: frac_rank 0, f2_dim 4, torsion exponents {4,4}"


CHECKS: dict[str, tuple[Callable[[CheckContext], Outcome], float]] = {
    "cone-p": (check_cone_p, 1.0),
    "foam-table": (check_foam_table, 5.0),
    "handcuffs-pair": (check_handcuffs_pair, 5.0),
    "inequality-uct-suite": (check_property_suite, 120.0),
    "order4-certificate": (check_order_four, 1.0),
    "tait-formula": (check_tait_formula, 60.0),
    "theta-model": (check_theta_model, 10.0),
    "unknot-model": (check_unknot_model, 1.0),
}


def run_all(
    keys: Iterable[str] | None = None,
    corpus: Path | None = None,
    seed: int = 0,
) -> list[CheckResult]:
    ctx = CheckContext(corpus, seed)
    selected = sorted(CHECKS) if keys is None else sorted(set(keys))
    unknown = [k for k in selected if k not in CHECKS]
    available = ", ".join(sorted(CHECKS))
    if unknown:
        raise ValueError(f"unknown check keys {unknown}; available: {available}")
    if not selected:
        raise ValueError(f"no check keys selected; available: {available}")
    results = []
    for key in selected:
        func, budget = CHECKS[key]
        start = time.perf_counter()
        internal_error = False
        try:
            failures, summary = func(ctx)
            passed = not failures
            detail = "; ".join(failures) if failures else summary
        except InternalConsistencyError as exc:
            passed, detail = False, f"internal consistency failure: {exc}"
            internal_error = True
        except (InputError, ValidationError) as exc:
            passed, detail = False, f"invalid input: {exc}"
        except MemoryError:
            raise  # ends the run; the CLI maps it to exit 3
        except Exception as exc:
            passed, detail = False, f"internal error: {type(exc).__name__}: {exc}"
            internal_error = True
        elapsed = time.perf_counter() - start
        if passed and elapsed > budget:
            passed = False
            detail += f"; exceeded the {budget:.0f}s budget ({elapsed:.1f}s)"
        results.append(
            CheckResult(key, passed, detail, elapsed, budget, internal_error)
        )
    return results
