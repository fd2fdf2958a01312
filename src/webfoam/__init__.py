"""Exact algebra for trivalent webs and dotted foams over F2[T1^±,T2^±,T3^±].

Subpackages by topic:

* :mod:`webfoam.laurent` -- the coefficient ring, exact division, line
  images ``num / (1+t)^k`` over F2[t], and the leading form and order of
  vanishing at (1,1,1);
* :mod:`webfoam.linalg` -- fraction-free elimination (rank, determinant,
  solves, null spaces), randomized rank, the local Smith form over
  F2[t]_(t);
* :mod:`webfoam.webs` -- cubic multigraphs, 1-sets, Tait counts;
* :mod:`webfoam.foams` -- dotted sphere and theta-foam evaluations;
* :mod:`webfoam.operators` -- edge-operator models and decompositions;
* :mod:`webfoam.homology` -- differential modules, rank and torsion;
* :mod:`webfoam.acceptance` -- the ``verify-all`` check suite.
"""

from .errors import (
    InputError,
    InternalConsistencyError,
    ValidationError,
    WebfoamError,
)
from .laurent import (
    LaurentPoly,
    ONE,
    P,
    T1,
    T2,
    T3,
    ZERO,
    eval_at_ones,
    leading_form,
    m_adic_order,
    p_monomials,
    substitute_line,
)
from .linalg import fraction_rank
from .foams import eval_sphere, eval_theta, pairing_matrix
from .webs import (
    Edge,
    Web,
    complement_cycles,
    corpus_names,
    corpus_web,
    count_tait_backtracking,
    count_tait_matching_formula,
    disjoint_union,
    generate_connected_cubic,
    is_even,
    load_web,
    one_sets,
    predict_planar_rank,
)
from .operators import (
    EdgeDecomposition,
    OperatorModule,
    check_vertex_relations,
    edge_decomposition,
    theta_module,
    unknot_module,
)
from .homology import (
    DifferentialModule,
    SpecializationReport,
    cone_of_p,
    linked_handcuffs_model,
    load_complex,
    order_four_certificate,
    random_complex,
)

__version__ = "0.1.0"

__all__ = [
    "WebfoamError",
    "InputError",
    "ValidationError",
    "InternalConsistencyError",
    "LaurentPoly",
    "ZERO",
    "ONE",
    "T1",
    "T2",
    "T3",
    "P",
    "p_monomials",
    "eval_at_ones",
    "leading_form",
    "m_adic_order",
    "substitute_line",
    "fraction_rank",
    "eval_sphere",
    "eval_theta",
    "pairing_matrix",
    "Web",
    "Edge",
    "one_sets",
    "complement_cycles",
    "is_even",
    "count_tait_backtracking",
    "count_tait_matching_formula",
    "predict_planar_rank",
    "disjoint_union",
    "generate_connected_cubic",
    "corpus_names",
    "corpus_web",
    "load_web",
    "OperatorModule",
    "EdgeDecomposition",
    "unknot_module",
    "theta_module",
    "check_vertex_relations",
    "edge_decomposition",
    "DifferentialModule",
    "SpecializationReport",
    "cone_of_p",
    "linked_handcuffs_model",
    "random_complex",
    "order_four_certificate",
    "load_complex",
    "__version__",
]
