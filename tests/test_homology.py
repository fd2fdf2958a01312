"""Differential modules: ranks, specializations, torsion, models, JSON."""

import hashlib
import json

import pytest

from conftest import random_poly
from webfoam.errors import InputError, InternalConsistencyError, ValidationError
from webfoam.laurent import ONE, P, T1, T2, ZERO
from webfoam import cli, linalg
from webfoam.homology import (
    DIRECTIONS,
    DifferentialModule,
    cone_of_p,
    complex_from_dict,
    complex_to_dict,
    linked_handcuffs_model,
    load_complex,
    order_four_certificate,
    random_complex,
)


def zero_module(n):
    return DifferentialModule(linalg.zeros(n, n))


class TestConstruction:
    def test_square_zero_enforced(self):
        flip = [[ZERO, ONE], [ONE, ZERO]]  # squares to the identity
        with pytest.raises(ValidationError, match="square to zero"):
            DifferentialModule(flip)

    def test_shape_enforced(self):
        with pytest.raises(ValidationError, match="1x1"):
            DifferentialModule([[ZERO, ZERO]])

    def test_from_map_layout(self):
        cone = DifferentialModule.from_map([[P, ZERO], [ZERO, P]])
        assert cone.rank == 4
        expected = linalg.zeros(4, 4)
        expected[0][2] = P
        expected[1][3] = P
        assert cone.differential == expected


class TestRanks:
    def test_zero_differential(self):
        assert zero_module(4).frac_rank() == 4
        assert zero_module(4).f2_dim() == 4

    def test_cone_of_p(self):
        cone = cone_of_p()
        assert cone.frac_rank() == 0
        assert cone.f2_dim() == 4  # P evaluates to 0 at T = 1

    def test_handcuffs_cone(self):
        model = linked_handcuffs_model()
        assert model.rank == 6
        assert model.frac_rank() == 4
        assert model.f2_dim() == 4
        assert model.two_term == [[P, ZERO, ZERO], [ZERO, ZERO, ZERO], [ONE, ZERO, ZERO]]
        assert model.two_term_ranks() == (2, 2)

    def test_two_term_ranks_requires_two_term_form(self):
        with pytest.raises(ValueError, match="two-term"):
            zero_module(2).two_term_ranks()


class TestRankMemo:
    @staticmethod
    def count_rank_calls(monkeypatch):
        calls = {"exact": 0, "randomized": 0}
        exact, randomized = linalg.rank_frac_exact, linalg.rank_frac_randomized

        def counted_exact(*args, **kwargs):
            calls["exact"] += 1
            return exact(*args, **kwargs)

        def counted_randomized(*args, **kwargs):
            calls["randomized"] += 1
            return randomized(*args, **kwargs)

        monkeypatch.setattr(linalg, "rank_frac_exact", counted_exact)
        monkeypatch.setattr(linalg, "rank_frac_randomized", counted_randomized)
        return calls

    def test_one_exact_rank_and_one_randomized_rank_per_seed(self, monkeypatch):
        calls = self.count_rank_calls(monkeypatch)
        module = random_complex(7, 9)
        reports = [module.bockstein(direction) for direction in DIRECTIONS]
        first = module.frac_rank()
        assert module.frac_rank(seed=5) == first
        assert calls == {"exact": 1, "randomized": 2}
        assert all(rep.frac_rank == first for rep in reports)
        assert first == random_complex(7, 9).frac_rank(seed=5)

    def test_cone_analysis_makes_one_exact_rank_call(self, monkeypatch, capsys):
        calls = self.count_rank_calls(monkeypatch)
        assert cli.main(["complex", "cone-p", "--seed", "5"]) == 0
        assert "two-term map: kernel rank 0, cokernel rank 0" in capsys.readouterr().out
        # bockstein, the analysis and the two-term ranks all use seed 5, so
        # one exact rank is cross-checked once
        assert calls == {"exact": 1, "randomized": 1}

    def test_bockstein_cross_checks_at_its_seed(self, monkeypatch):
        calls = self.count_rank_calls(monkeypatch)
        module = random_complex(7, 9)
        for seed in (3, 3, 4):
            module.bockstein((1, 1, 1), seed=seed)
        # one cross-check per seed used, none at the default seed
        assert calls == {"exact": 1, "randomized": 2}

    def test_exact_rank_is_bounded_by_half_the_rank(self, monkeypatch):
        bounds = []
        exact = linalg.rank_frac_exact

        def recorded(mat, max_rank=None):
            bounds.append(max_rank)
            return exact(mat, max_rank)

        monkeypatch.setattr(linalg, "rank_frac_exact", recorded)
        for k in range(5):
            module = random_complex(k, 2 + k)
            module.frac_rank()
        assert bounds == [(2 + k) // 2 for k in range(5)]

    def test_fresh_seed_is_still_cross_checked(self, monkeypatch):
        module = cone_of_p()
        assert module.frac_rank() == 0  # the differential has rank 2
        monkeypatch.setattr(linalg, "rank_frac_randomized", lambda *a, **k: 1)
        assert module.frac_rank() == 0  # seed 0 was already checked
        for _ in range(2):
            with pytest.raises(InternalConsistencyError, match="seed 3"):
                module.frac_rank(seed=3)

    def test_two_term_ranks_unchanged_by_the_memo(self):
        for k in range(12):
            module = DifferentialModule.from_map(random_complex(k, 4).differential[:2])
            before = module.two_term_ranks()
            module.frac_rank()
            for direction in DIRECTIONS:
                module.bockstein(direction)
            assert module.two_term_ranks() == before
            assert sum(before) == module.frac_rank()
        assert linked_handcuffs_model().two_term_ranks(seed=4) == (2, 2)


class TestBockstein:
    def test_cone_of_p_torsion(self):
        cone = cone_of_p()
        for direction in DIRECTIONS:
            rep = cone.bockstein(direction)
            assert rep.r == 0
            assert rep.torsion_exponents == (4, 4)
            assert rep.f2_dim == rep.r + 2 * rep.l == 4
            assert not rep.degenerate_direction

    def test_handcuffs_free(self):
        model = linked_handcuffs_model()
        for direction in DIRECTIONS:
            rep = model.bockstein(direction)
            assert rep.r == 4
            assert rep.torsion_exponents == ()
            assert rep.f2_dim == 4

    def test_zero_differential_reports_free(self):
        rep = zero_module(3).bockstein((1, 1, 1))
        assert rep.r == 3 and rep.l == 0

    def test_direction_validation(self):
        with pytest.raises(ValueError, match="direction"):
            zero_module(2).bockstein((0, 1, 1))

    def test_degenerate_direction_is_flagged_not_fatal(self):
        # T1 + T2 dies along both shipped lines, so the free rank jumps
        cone = DifferentialModule.from_map([[T1 + T2]])
        assert cone.frac_rank() == 0
        rep = cone.bockstein((1, 1, 1))
        assert rep.r == 2
        assert rep.degenerate_direction
        assert rep.f2_dim == rep.r + 2 * rep.l

    def test_torsion_from_p_multiples_is_at_least_four(self, rng):
        # entries in the ideal (P) vanish to order >= 4 at (1,1,1)
        for _ in range(10):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            a = [
                [P * random_poly(rng, 2, 1) for _ in range(cols)]
                for _ in range(rows)
            ]
            cone = DifferentialModule.from_map(a)
            rep = cone.bockstein((1, 1, 1))
            assert all(e >= 4 for e in rep.torsion_exponents)


class TestRandomComplexes:
    def test_deterministic_by_seed(self):
        a = random_complex(5, 9)
        b = random_complex(5, 9)
        assert a.differential == b.differential

    def test_inequality_and_uct(self):
        for k in range(40):
            module = random_complex(k, 2 + (k % 11))
            f2 = module.f2_dim()
            assert f2 >= module.frac_rank()
            for direction in DIRECTIONS:
                rep = module.bockstein(direction)
                assert rep.f2_dim == rep.r + 2 * rep.l

    def test_equality_iff_torsion_free_along_good_directions(self):
        # when the direction does not degenerate the rank, the specialized
        # dimension meets the generic rank exactly when there is no torsion
        for k in range(40):
            module = random_complex(k, 2 + (k % 11))
            rep = module.bockstein((1, 1, 1))
            if not rep.degenerate_direction:
                assert (rep.f2_dim == rep.frac_rank) == (rep.l == 0)

    def test_suite_modules_are_pinned(self):
        # the 200 inequality-uct-suite modules at seed 0: the digest pins
        # the generator's draw order as well as the cone layout
        digest = hashlib.sha256()
        for k in range(200):
            module = random_complex(k, 2 + (k % 11))
            digest.update(json.dumps(complex_to_dict(module), sort_keys=True).encode())
            digest.update(b"\n")
        assert digest.hexdigest() == (
            "d522af02eac3b97c5d08ffef19e2b42b56ff1089c98d92c0bb8d34cf50ad9429"
        )

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            random_complex(0, 13)
        with pytest.raises(ValueError):
            random_complex(0, 1)


class TestCertificate:
    def test_all_facts_pass(self):
        certificate = order_four_certificate()
        assert all(ok for _, _, ok in certificate)
        assert len(certificate) == 4


class TestJson:
    def test_round_trip(self):
        for module in (cone_of_p(), linked_handcuffs_model(), random_complex(3, 6)):
            data = complex_to_dict(module)
            again = complex_from_dict(data)
            assert again.differential == module.differential

    def test_rank_mismatch(self):
        with pytest.raises(InputError, match="rank"):
            complex_from_dict({"rank": "x", "differential": []})
        with pytest.raises(InputError, match="2 rows"):
            complex_from_dict({"rank": 2, "differential": [["0", "0"]]})

    @pytest.mark.parametrize("rank", [True, False, -1, 1.0])
    def test_rank_must_be_a_nonnegative_integer(self, rank):
        # JSON true and false parse to Python bools, which are ints
        with pytest.raises(InputError, match="expected a nonnegative integer"):
            complex_from_dict({"rank": rank, "differential": [["0"]]})

    def test_entry_errors_carry_positions(self):
        data = {"rank": 1, "differential": [["T9"]]}
        with pytest.raises(InputError, match=r"differential\[0\]\[0\]"):
            complex_from_dict(data)

    def test_square_zero_checked_after_parse(self):
        # shape problems are input errors, but a parsable differential that
        # fails to square to zero is an invalid object
        data = {"rank": 1, "differential": [["1"]]}
        with pytest.raises(ValidationError, match="square to zero"):
            complex_from_dict(data)

    def test_load_complex(self, tmp_path):
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(complex_to_dict(cone_of_p())))
        module = load_complex(path)
        assert module.frac_rank() == 0
        with pytest.raises(InputError, match="line 1"):
            bad = tmp_path / "bad.json"
            bad.write_text("{")
            load_complex(bad)
