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

import importlib

__version__ = "0.1.0"

#: Submodule -> the public names it defines.  Names load on first access
#: (PEP 562), so ``python -m webfoam.cli`` pays only for the layers the
#: command uses.
_EXPORTS = {
    "errors": (
        "WebfoamError",
        "InputError",
        "ValidationError",
        "InternalConsistencyError",
    ),
    "laurent": (
        "LaurentPoly",
        "ZERO",
        "ONE",
        "T1",
        "T2",
        "T3",
        "P",
        "eval_at_ones",
        "leading_form",
        "substitute_line",
    ),
    "linalg": ("fraction_rank",),
    "foams": ("eval_sphere", "eval_theta", "pairing_matrix"),
    "webs": (
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
    ),
    "operators": (
        "OperatorModule",
        "EdgeDecomposition",
        "unknot_module",
        "theta_module",
        "check_vertex_relations",
        "edge_decomposition",
    ),
    "homology": (
        "DifferentialModule",
        "SpecializationReport",
        "cone_of_p",
        "linked_handcuffs_model",
        "random_complex",
        "order_four_certificate",
        "load_complex",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "acceptance", "cli")

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
