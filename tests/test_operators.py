"""Operator models: pinned matrices, relations, and edge decompositions."""

import itertools
from types import SimpleNamespace

import pytest

from webfoam.errors import InternalConsistencyError
from webfoam.laurent import ONE, P, ZERO
from webfoam import acceptance, linalg, operators, webs
from webfoam.homology import cone_of_p, linked_handcuffs_model
from webfoam.operators import (
    OperatorModule,
    _check_projections,
    check_vertex_relations,
    edge_decomposition,
    theta_module,
    unknot_module,
)

UNKNOT_MATRIX = (
    (ZERO, ZERO, ZERO),
    (ONE, ZERO, P),
    (ZERO, ONE, ZERO),
)


def unknot_direct_sum() -> OperatorModule:
    """Two edges on two circle models: u (+) 0 and 0 (+) u."""
    zero = linalg.zeros(3, 3)

    def block(top, bottom):
        return [row + (ZERO,) * 3 for row in top] + [(ZERO,) * 3 + row for row in bottom]

    return OperatorModule(
        basis_labels=tuple(range(6)),
        operators={"a": block(UNKNOT_MATRIX, zero), "b": block(zero, UNKNOT_MATRIX)},
    )


def left_kernel_summand(module: OperatorModule, subset: frozenset) -> list:
    """Reference basis of the summand of ``subset``, images cut out by left kernels.

    ker(u_e) for e in ``subset`` contributes the rows of u_e; im(u_e) for
    e outside it contributes a basis of the left null space of u_e, the
    row functionals that vanish exactly on the image over Frac(R).
    """
    rows = [[ZERO] * module.rank]
    for edge_id in module.edge_ids:
        u = module.operators[edge_id]
        if edge_id in subset:
            rows.extend(list(r) for r in u)
        else:
            rows.extend(linalg.nullspace_frac([list(r) for r in zip(*u)]))
    return linalg.nullspace_frac(rows)


def all_subsets(module: OperatorModule):
    ids = module.edge_ids
    for k in range(len(ids) + 1):
        yield from map(frozenset, itertools.combinations(ids, k))


def matching_term(web: webs.Web, subset: frozenset) -> int:
    """The term of ``subset`` in the Tait count sum over even 1-sets of 2^n(s).

    A free circle outside ``subset`` is one more complementary cycle
    (with no vertices, so even); a circle inside it adds nothing.
    """
    circles = {e.id for e in web.circles}
    if subset - circles not in webs.one_sets(web):
        return 0
    cycles = webs.complement_cycles(web, subset - circles) + [0] * len(circles - subset)
    return 1 << len(cycles) if webs.is_even(cycles) else 0


class TestUnknotModule:
    def test_pinned_matrix(self):
        assert unknot_module().operators["e"] == UNKNOT_MATRIX

    def test_cubic_relation(self):
        u = unknot_module().operators["e"]
        u3 = linalg.mat_mul(linalg.mat_mul(u, u), u)
        assert linalg.is_zero_matrix(linalg.mat_add(u3, linalg.mat_scale(P, u)))

    def test_kernel_and_image_ranks(self):
        u = unknot_module().operators["e"]
        assert linalg.fraction_rank(u) == 2
        kernel = linalg.nullspace_frac(u)
        assert len(kernel) == 1
        (v,) = kernel
        w = [P, ZERO, ONE]
        assert all(v[i] * w[j] == v[j] * w[i] for i in range(3) for j in range(3))

    def test_decomposition(self):
        dec = edge_decomposition(unknot_module())
        assert dec.rank(["e"]) == 1
        assert dec.rank([]) == 2

    def test_cubic_relation_without_a_vertex(self):
        assert unknot_module().vertices == ()
        assert check_vertex_relations(unknot_module()) == (("e^3 + P*e = 0", True),)


class TestThetaModule:
    def test_build_checks_each_cubic_relation_once(self, monkeypatch):
        labels = []

        def recorded(*args, **kwargs):
            report = check_vertex_relations(*args, **kwargs)
            labels.extend(name for name, _ in report)
            return report

        monkeypatch.setattr(operators, "check_vertex_relations", recorded)
        theta_module.__wrapped__()
        assert sorted(name for name in labels if "^3" in name) == [
            f"e{i}^3 + P*e{i} = 0" for i in (1, 2, 3)
        ]
        assert sorted(name for name in labels if "^3" not in name) == [
            "u1 + u2 + u3 = 0", "u1*u2*u3 = 0", "u2*u3 + u3*u1 + u1*u2 = P"
        ]

    def test_vertex_relations_pass(self):
        # the vertex relations at the one vertex, then the cubic ones in name order
        assert theta_module().vertices == (("e1", "e2", "e3"),)
        assert check_vertex_relations(theta_module()) == tuple(
            (label, True)
            for label in (
                "u1 + u2 + u3 = 0", "u2*u3 + u3*u1 + u1*u2 = P", "u1*u2*u3 = 0",
                "e1^3 + P*e1 = 0", "e2^3 + P*e2 = 0", "e3^3 + P*e3 = 0",
            )
        )

    def test_u3_is_the_dot_shift(self):
        # adding a dot on the third disk steps the last index, falling back
        # to P times the previous step at the top
        u3 = theta_module().operators["e3"]
        labels = theta_module().basis_labels

        def column(j):
            return [u3[i][j] for i in range(6)]

        def basis_vec(label, scale=ONE):
            return [scale if lab == label else ZERO for lab in labels]

        for m in (0, 1):
            assert column(labels.index((0, m, 0))) == basis_vec((0, m, 1))
            assert column(labels.index((0, m, 1))) == basis_vec((0, m, 2))
            assert column(labels.index((0, m, 2))) == basis_vec((0, m, 1), P)

    def test_first_operator_is_sum_of_others(self):
        module = theta_module()
        u1 = module.operators["e1"]
        total = linalg.mat_add(module.operators["e2"], module.operators["e3"])
        assert u1 == total

    def test_operators_commute(self):
        module = theta_module()
        for a in ("e1", "e2", "e3"):
            for b in ("e1", "e2", "e3"):
                ab = linalg.mat_mul(module.operators[a], module.operators[b])
                ba = linalg.mat_mul(module.operators[b], module.operators[a])
                assert ab == ba

    def test_decomposition_ranks(self):
        dec = edge_decomposition(theta_module())
        for edge in ("e1", "e2", "e3"):
            assert dec.rank([edge]) == 2
        assert dec.rank([]) == 0  # intersection of all three images
        assert dec.rank(["e1", "e2"]) == 0
        assert dec.rank(["e1", "e2", "e3"]) == 0
        assert sum(dec.subset_ranks.values()) == 6
        # the projections are checked at the module's vertex, or at one named
        assert len(dec.projection_checks) == 7
        assert all(ok for _, ok in dec.projection_checks)
        named = edge_decomposition(theta_module(), ("e1", "e2", "e3"))
        assert named.projection_checks == dec.projection_checks
        assert edge_decomposition(unknot_module()).projection_checks == ()

    def test_summand_basis_lies_in_the_summand(self):
        module = theta_module()
        basis = linalg.nullspace_frac(operators._constraints(module, frozenset({"e1"})))
        assert len(basis) == 2
        u1 = module.operators["e1"]
        for vec in basis:
            image = [
                sum((row[j] * vec[j] for j in range(6)), ZERO) for row in u1
            ]
            assert all(x == ZERO for x in image)


MODELS = {
    "unknot": unknot_module,
    "theta": theta_module,
    "direct-sum": unknot_direct_sum,
}


class TestImages:
    """``OperatorModule.images``: u_e^2 + P for each edge, built once."""

    def test_unknot_image_is_pinned(self):
        assert unknot_module().images == {
            "e": ((P, ZERO, ZERO), (ZERO, ZERO, ZERO), (ONE, ZERO, ZERO))
        }

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_images_are_u_squared_plus_p(self, model):
        module = MODELS[model]()
        p_ident = linalg.mat_scale(P, linalg.identity(module.rank))
        assert sorted(module.images) == list(module.edge_ids)
        for edge_id, u in module.operators.items():
            image = module.images[edge_id]
            assert image == linalg.mat_add(linalg.mat_mul(u, u), p_ident)
            # ker(u^2 + P) = im u, so the two ranks sum to the module rank
            assert linalg.is_zero_matrix(linalg.mat_mul(u, image))
            assert linalg.fraction_rank(image) + linalg.fraction_rank(u) == module.rank

    def test_theta_check_squares_each_operator_once(self, monkeypatch):
        squared = []
        real = linalg.mat_mul

        def recorded(a, b):
            if a is b:
                squared.append(a)
            return real(a, b)

        monkeypatch.setattr(linalg, "mat_mul", recorded)
        theta_module.cache_clear()
        (result,) = acceptance.run_all(["theta-model"])
        assert result.passed
        ops = theta_module().operators.values()
        assert sum(any(m is u for u in ops) for m in squared) == 3


class TestKernelForm:
    """Summands cut out by ker(u_e^2 + P) against the left-kernel reference."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_matches_the_left_kernel_reference(self, model):
        module = MODELS[model]()
        dec = edge_decomposition(module)
        for subset in all_subsets(module):
            reference = left_kernel_summand(module, subset)
            basis = linalg.nullspace_frac(operators._constraints(module, subset))
            assert dec.rank(subset) == len(basis) == len(reference)
            # equal spans: stacking both bases adds no rank
            assert linalg.rank_frac_exact(basis + reference or [[ZERO]]) == len(basis)

    def test_direct_sum_ranks(self):
        dec = edge_decomposition(unknot_direct_sum())
        assert {tuple(sorted(s)): r for s, r in dec.subset_ranks.items()} == {
            ("a", "b"): 2,
            ("a",): 2,
            ("b",): 2,
            (): 0,
        }

    def test_decomposition_makes_no_nullspace_call(self, monkeypatch):
        module = theta_module()
        calls = []
        real = linalg.nullspace_frac

        def counted(mat):
            calls.append(mat)
            return real(mat)

        monkeypatch.setattr(linalg, "nullspace_frac", counted)
        edge_decomposition(module)
        assert calls == []

    @pytest.mark.parametrize("name, tait", [("unknot", 3), ("theta", 6)])
    def test_ranks_are_the_matching_formula_terms(self, name, tait):
        # rank = Tait count, summand by summand, on the two webs with models
        web = webs.corpus_web(name)
        module = MODELS[name]()
        assert set(module.edge_ids) == {e.id for e in web.edges}
        dec = edge_decomposition(module)
        for subset in all_subsets(module):
            assert dec.rank(subset) == matching_term(web, subset), sorted(subset)
        assert sum(dec.subset_ranks.values()) == webs.count_tait_matching_formula(web)
        assert webs.count_tait_matching_formula(web) == tait


class TestImmutability:
    """Model matrices are tuples, and the operator maps are read-only."""

    def test_assignments_raise_and_leave_the_cached_model(self):
        theta = theta_module()
        for mapping in (theta.operators, theta.images):
            with pytest.raises(TypeError):
                mapping["e1"][0][0] = ONE
            with pytest.raises(TypeError):
                mapping["e1"] = linalg.zeros(6, 6)
        with pytest.raises(TypeError):
            cone_of_p().differential[0][0] = ONE
        with pytest.raises(TypeError):
            linked_handcuffs_model().two_term[0][0] = ONE
        assert theta_module() is theta
        fresh = theta_module.__wrapped__()
        assert theta == fresh and theta.images == fresh.images
        assert theta.relations == check_vertex_relations(theta)


class TestGuards:
    def test_all_equal_triple_rejected(self):
        with pytest.raises(ValueError, match="cannot account"):
            OperatorModule(
                basis_labels=(0, 1, 2),
                operators={"e": UNKNOT_MATRIX},
                vertices=(("e", "e", "e"),),
            )

    def test_unknown_operator_rejected(self):
        theta = theta_module()
        with pytest.raises(ValueError, match="no operator named 'zz'"):
            OperatorModule(
                basis_labels=theta.basis_labels,
                operators=theta.operators,
                vertices=(("e1", "e2", "zz"),),
            )

    def test_constructor_rejects_broken_vertex_relation(self):
        # a loop meets its vertex twice: u_a + u_b + u_a = u_b is not zero
        module = unknot_direct_sum()
        message = "operators violate u1 \\+ u2 \\+ u3 = 0"
        with pytest.raises(InternalConsistencyError, match=message):
            OperatorModule(
                basis_labels=module.basis_labels,
                operators=module.operators,
                vertices=(("a", "b", "a"),),
            )

    def test_constructor_rejects_broken_cubic_relation(self):
        broken = [list(row) for row in UNKNOT_MATRIX]
        broken[0][0] = ONE
        with pytest.raises(InternalConsistencyError, match="violate e\\^3"):
            OperatorModule(basis_labels=(0, 1, 2), operators={"e": broken})

    def test_constructor_rejects_noncommuting(self):
        a = UNKNOT_MATRIX
        # the same operator written after swapping the outer basis vectors:
        # still satisfies the cubic relation, but does not commute with a
        b = [[ZERO, ONE, ZERO], [P, ZERO, ONE], [ZERO, ZERO, ZERO]]
        with pytest.raises(InternalConsistencyError, match="commute"):
            OperatorModule(basis_labels=(0, 1, 2), operators={"a": a, "b": b})

    @staticmethod
    def corrupted_theta() -> SimpleNamespace:
        """The theta model's fields with one entry of e2 changed, built
        without the constructor, which would reject it."""
        theta = theta_module()
        ops = {name: [list(r) for r in mat] for name, mat in theta.operators.items()}
        ops["e2"][0][0] = ops["e2"][0][0] + ONE
        p_ident = linalg.mat_scale(P, linalg.identity(theta.rank))
        return SimpleNamespace(
            rank=theta.rank,
            operators=ops,
            vertices=theta.vertices,
            edge_ids=theta.edge_ids,
            images={
                name: linalg.mat_add(linalg.mat_mul(u, u), p_ident)
                for name, u in ops.items()
            },
        )

    def test_corrupted_module_fails_some_relation(self):
        report = dict(check_vertex_relations(self.corrupted_theta()))
        assert not report["u1 + u2 + u3 = 0"]
        assert not all(report.values())

    def test_projection_identities_catch_a_corrupted_module(self):
        edges = ("e1", "e2", "e3")
        labels = [
            "pi1^2 = pi1", "pi2^2 = pi2", "pi3^2 = pi3",
            "pi1*pi2 = 0", "pi1*pi3 = 0", "pi2*pi3 = 0", "pi1 + pi2 + pi3 = 1",
        ]
        good = _check_projections(theta_module(), edges)
        assert good == tuple((label, True) for label in labels)
        bad = dict(_check_projections(self.corrupted_theta(), edges))
        assert list(bad) == labels
        # e2 enters Q1 = u2*u3 and Q3 = u1*u2, so those identities break
        assert not bad["pi3^2 = pi3"]
        assert not bad["pi2*pi3 = 0"]
        assert not bad["pi1 + pi2 + pi3 = 1"]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            OperatorModule(basis_labels=(0, 1, 2), operators={"e": [[ZERO]]})
