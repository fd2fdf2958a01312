"""Edge-operator modules for the circle and the theta web.

An :class:`OperatorModule` is a free module over the Laurent ring with a
named, pairwise-commuting family of endomorphisms, each satisfying the
cubic relation u^3 + P*u = 0, and a list of vertices, each three edge
ids whose operators satisfy the vertex relations.  The constructor
checks every relation once.  Two concrete models ship here:

* :func:`unknot_module` -- rank 3, one operator and no vertex, with the
  explicit matrix ((0,0,0),(1,0,P),(0,1,0)) acting on columns;
* :func:`theta_module` -- rank 6, three operators at one vertex, derived
  from the theta-foam pairing: the Gram matrix of the six basis elements
  is unimodular, and each operator's matrix is the unique solution of
  ``gram @ u = moved`` where ``moved`` pairs the basis against the basis
  with one extra dot on the corresponding disk.

Over the fraction field, the summand of an edge subset s is cut out by
kernels alone: ``V(s) = ker(stack of u_e for e in s, and of u_e^2 + P
for e not in s)``.  The image of u_e is ker(u_e^2 + P), because
u_e*(u_e^2 + P) = 0 and x, x^2 + P are coprime over Frac(R) (P != 0).
"""

from __future__ import annotations

import functools
import itertools
import types
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import InternalConsistencyError
from .foams import THETA_BASIS_DOTS, eval_theta, pairing_matrix
from .laurent import ONE, P, ZERO
from . import linalg
from .linalg import Matrix

__all__ = [
    "OperatorModule",
    "EdgeDecomposition",
    "unknot_module",
    "theta_module",
    "check_vertex_relations",
    "edge_decomposition",
]


@dataclass(frozen=True)
class OperatorModule:
    """Free module with commuting edge operators obeying u^3 + P u = 0.

    ``vertices`` lists the trivalent vertices of the web, each as the ids
    of its three incident edges; the vertex relations hold at each.
    ``images`` maps each edge e to u_e^2 + P, whose kernel is the image
    of u_e, built once here.  ``relations`` holds the ``(label, holds)``
    outcomes of the one :func:`check_vertex_relations` run the
    constructor makes.  The maps are read-only and the matrices tuples.
    """

    basis_labels: tuple
    operators: Mapping[str, Matrix]
    vertices: tuple[tuple[str, str, str], ...] = ()
    images: Mapping[str, Matrix] = field(init=False, repr=False, compare=False)
    relations: tuple[tuple[str, bool], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        ops = {name: tuple(map(tuple, u)) for name, u in self.operators.items()}
        object.__setattr__(self, "operators", types.MappingProxyType(ops))
        n = self.rank
        for name, mat in self.operators.items():
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValueError(f"operator {name!r} is not {n}x{n}")
        for triple in self.vertices:
            # an edge meets a trivalent vertex at most twice (a loop)
            if len(set(triple)) == 1:
                raise ValueError(
                    f"edge {triple[0]!r} cannot account for all three incidences "
                    "of a trivalent vertex"
                )
            missing = [e for e in triple if e not in self.operators]
            if missing:
                raise ValueError(f"module has no operator named {missing[0]!r}")
        p_ident = linalg.mat_scale(P, linalg.identity(n))
        images = {
            name: linalg.mat_add(linalg.mat_mul(u, u), p_ident)
            for name, u in self.operators.items()
        }
        object.__setattr__(self, "images", types.MappingProxyType(images))
        object.__setattr__(self, "relations", check_vertex_relations(self))
        for label, ok in self.relations:
            if not ok:
                raise InternalConsistencyError(f"operators violate {label}")
        named = sorted(self.operators.items())
        for (na, a), (nb, b) in itertools.combinations(named, 2):
            if linalg.mat_mul(a, b) != linalg.mat_mul(b, a):
                raise InternalConsistencyError(
                    f"operators {na!r} and {nb!r} do not commute"
                )

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.operators))


@functools.lru_cache(maxsize=None)
def unknot_module() -> OperatorModule:
    """Rank-3 model for the circle, with its single edge operator.

    Basis labels are dot counts 0, 1, 2 on a disk; the operator adds a
    dot, and two dots on top of the highest basis element fall back to P
    times the middle one.
    """
    u = [
        [ZERO, ZERO, ZERO],
        [ONE, ZERO, P],
        [ZERO, ONE, ZERO],
    ]
    return OperatorModule(basis_labels=(0, 1, 2), operators={"e": u})


@functools.lru_cache(maxsize=None)
def theta_module() -> OperatorModule:
    """Rank-6 model for the theta web, derived from foam pairings.

    For each disk i, the matrix ``moved_i`` pairs the dual family
    against the basis with one extra dot on disk i.  Solving
    ``gram @ u_i = moved_i`` against the unimodular Gram matrix gives
    the operator matrices over the ring itself; the three ``moved_i``
    stand side by side as the right side of one solve.  Any failure of
    unimodularity or of the operator relations is an internal error.
    """
    n = len(THETA_BASIS_DOTS)
    extra_dot = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    moved = [
        [
            eval_theta(*(x + y + z for x, y, z in zip(a, v, d)))
            for d in extra_dot
            for v in THETA_BASIS_DOTS
        ]
        for a in THETA_BASIS_DOTS
    ]
    solution = linalg.solve_unimodular(pairing_matrix(), moved)
    operators = {
        f"e{i + 1}": [row[i * n : (i + 1) * n] for row in solution] for i in range(3)
    }
    return OperatorModule(
        basis_labels=THETA_BASIS_DOTS,
        operators=operators,
        vertices=(("e1", "e2", "e3"),),
    )


def check_vertex_relations(module: OperatorModule) -> tuple[tuple[str, bool], ...]:
    """Verify the relations of the module's operators.

    Returns ``(label, holds)`` pairs: the three vertex relations at each
    vertex the module lists, then the cubic relation u^3 + P*u = 0 of
    every operator, in name order.
    """
    checks = []
    p_ident = linalg.mat_scale(P, linalg.identity(module.rank))
    for vertex in module.vertices:
        u1, u2, u3 = (module.operators[e] for e in vertex)
        total = linalg.mat_add(linalg.mat_add(u1, u2), u3)
        checks.append(("u1 + u2 + u3 = 0", linalg.is_zero_matrix(total)))
        w2 = linalg.mat_add(
            linalg.mat_add(linalg.mat_mul(u2, u3), linalg.mat_mul(u3, u1)),
            linalg.mat_mul(u1, u2),
        )
        checks.append(("u2*u3 + u3*u1 + u1*u2 = P", w2 == p_ident))
        triple = linalg.mat_mul(linalg.mat_mul(u1, u2), u3)
        checks.append(("u1*u2*u3 = 0", linalg.is_zero_matrix(triple)))
    for name in module.edge_ids:
        product = linalg.mat_mul(module.operators[name], module.images[name])
        checks.append((f"{name}^3 + P*{name} = 0", linalg.is_zero_matrix(product)))
    return tuple(checks)


@dataclass(frozen=True)
class EdgeDecomposition:
    """Fraction-field ranks of the simultaneous kernel/image summands."""

    subset_ranks: dict[frozenset, int]
    projection_checks: tuple[tuple[str, bool], ...] = ()

    def rank(self, subset: Iterable[str]) -> int:
        return self.subset_ranks[frozenset(subset)]


def _constraints(module: OperatorModule, subset: frozenset) -> Matrix:
    """Rows of u_e for e in ``subset`` and of u_e^2 + P for e outside it."""
    rows = tuple(
        row
        for e in module.edge_ids
        for row in (module.operators[e] if e in subset else module.images[e])
    )
    return rows or linalg.zeros(1, module.rank)


def edge_decomposition(
    module: OperatorModule,
    vertex_edges: tuple[str, str, str] | None = None,
) -> EdgeDecomposition:
    """Ranks of all simultaneous eigenspace-style summands over Frac(R).

    The summand for a subset s of edges is the intersection of ker(u_e)
    for e in s with im(u_e) for e outside s.  Ranks over all subsets must
    sum to the module rank; violation is an internal error.

    At each vertex the module lists (or at ``vertex_edges`` alone, when
    given), the associated projections pi_i = (1/P) * u_j * u_k are also
    verified to be idempotent, orthogonal, and to sum to the identity.
    """
    edge_ids = module.edge_ids
    subset_ranks: dict[frozenset, int] = {}
    total = 0
    for bits in range(1 << len(edge_ids)):
        subset = frozenset(
            e for k, e in enumerate(edge_ids) if bits & (1 << k)
        )
        r = module.rank - linalg.rank_frac_exact(_constraints(module, subset))
        subset_ranks[subset] = r
        total += r
    if total != module.rank:
        raise InternalConsistencyError(
            f"summand ranks total {total}, expected {module.rank}"
        )
    vertices = module.vertices if vertex_edges is None else (vertex_edges,)
    projection_checks = tuple(
        check for vertex in vertices for check in _check_projections(module, vertex)
    )
    return EdgeDecomposition(subset_ranks, projection_checks)


def _check_projections(
    module: OperatorModule, vertex_edges: tuple[str, str, str]
) -> tuple[tuple[str, bool], ...]:
    """The projection identities, checked in the ring.

    With Q_i = u_j*u_k the projection is pi_i = Q_i / P, so pi_i is
    idempotent iff Q_i^2 = P*Q_i, the pi_i are orthogonal iff the Q_i
    products vanish, and they sum to 1 iff the Q_i sum to P*I.
    """
    ops = [module.operators[e] for e in vertex_edges]
    qs = [linalg.mat_mul(ops[(i + 1) % 3], ops[(i + 2) % 3]) for i in range(3)]
    checks = []
    for i, q in enumerate(qs):
        ok = linalg.mat_mul(q, q) == linalg.mat_scale(P, q)
        checks.append((f"pi{i + 1}^2 = pi{i + 1}", ok))
    for i, j in itertools.combinations(range(3), 2):
        ok = linalg.is_zero_matrix(linalg.mat_mul(qs[i], qs[j]))
        checks.append((f"pi{i + 1}*pi{j + 1} = 0", ok))
    total = linalg.mat_add(linalg.mat_add(qs[0], qs[1]), qs[2])
    ok = total == linalg.mat_scale(P, linalg.identity(module.rank))
    checks.append(("pi1 + pi2 + pi3 = 1", ok))
    return tuple(checks)
