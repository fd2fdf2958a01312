"""Dotted sphere and theta-foam evaluations against independent rules."""

import itertools

import pytest

from webfoam import foams
from webfoam.foams import (
    THETA_BASIS_DOTS,
    eval_sphere,
    eval_theta,
    pairing_matrix,
)
from webfoam.laurent import ONE, P, ZERO
from webfoam.linalg import det_poly, fraction_rank
from webfoam.webs import corpus_web, count_tait_colorings


def closed_form(m1, m2, m3):
    # sorted dots a >= b >= c: nonzero iff c = 0, b >= 1, a+b odd and >= 3
    a, b, c = sorted((m1, m2, m3), reverse=True)
    if c != 0 or b < 1 or (a + b) % 2 == 0 or a + b < 3:
        return ZERO
    return P ** ((a + b - 3) // 2)


def reduce_any_entry(dots, which):
    """Reducer that rewrites the dot count at a chosen index first."""
    dots = list(dots)
    if min(dots) > 0 or sum(dots) % 2 == 0 or sum(dots) < 3:
        return ZERO
    if sorted(dots) == [0, 1, 2]:
        return ONE
    order = [(which + k) % 3 for k in range(3)]
    for i in order:
        if dots[i] >= 3:
            reduced = list(dots)
            reduced[i] -= 2
            return P * reduce_any_entry(reduced, which)
    return ZERO


class TestSphere:
    def test_table_through_eight_dots(self):
        expected = [ZERO, ZERO, ONE, ZERO, P, ZERO, P**2, ZERO, P**3]
        assert [eval_sphere(m) for m in range(9)] == expected

    def test_two_dot_recursion(self):
        for m in range(1, 13):
            assert eval_sphere(m + 2) == P * eval_sphere(m)

    def test_closed_form_for_even_dots(self):
        for k in range(1, 8):
            assert eval_sphere(2 * k) == P ** (k - 1)

    def test_negative_dots_rejected(self):
        with pytest.raises(ValueError):
            eval_sphere(-1)
        with pytest.raises(ValueError):
            eval_sphere(-2)


class TestTheta:
    def test_base_cases(self):
        assert eval_theta(0, 1, 2) == ONE
        assert eval_theta(1, 1, 1) == ZERO
        assert eval_theta(0, 3, 4) == P**2

    def test_matches_closed_form(self):
        for dots in itertools.product(range(9), repeat=3):
            assert eval_theta(*dots) == closed_form(*dots)

    def test_permutation_invariance_exhaustive(self):
        for dots in itertools.product(range(9), repeat=3):
            value = eval_theta(*dots)
            for perm in itertools.permutations(dots):
                assert eval_theta(*perm) == value

    def test_reduction_order_independence(self):
        # reducing whichever entry comes first in any rotation agrees with
        # the canonical largest-first reduction
        for dots in itertools.product(range(9), repeat=3):
            value = eval_theta(*dots)
            for which in range(3):
                assert reduce_any_entry(dots, which) == value

    def test_parity_vanishing(self):
        for dots in itertools.product(range(9), repeat=3):
            if sum(dots) % 2 == 0:
                assert eval_theta(*dots) == ZERO

    def test_nonzero_values_are_powers_of_p(self):
        seen = set()
        for dots in itertools.product(range(9), repeat=3):
            v = eval_theta(*dots)
            if v:
                k = (sum(dots) - 3) // 2
                assert v == P**k
                seen.add(k)
        assert seen == set(range(7))

    def test_deep_dot_count_reduces_in_a_loop(self):
        # one reduction per factor of P, far past the recursion limit
        assert eval_theta(0, 1, 5000) == P**2499
        assert eval_theta(5000, 0, 1) == P**2499
        assert eval_theta(1, 1, 5000) == ZERO

    def test_negative_dots_rejected(self):
        with pytest.raises(ValueError):
            eval_theta(0, -1, 2)
        with pytest.raises(ValueError):
            eval_theta(0, 1, -1)


class TestPairing:
    def test_unimodular(self):
        assert det_poly(pairing_matrix()) == ONE

    def test_unimodular_by_permutation_expansion(self):
        # fully independent determinant: sum over all 720 permutations
        # (signs are invisible in characteristic 2)
        gram = pairing_matrix()
        total = ZERO
        for perm in itertools.permutations(range(6)):
            prod = ONE
            for i, j in enumerate(perm):
                prod = prod * gram[i][j]
            total = total + prod
        assert total == ONE

    def test_entries(self):
        gram = pairing_matrix()
        i = THETA_BASIS_DOTS.index((0, 0, 0))
        j = THETA_BASIS_DOTS.index((0, 1, 2))
        assert gram[i][j] == ONE
        assert gram[j][j] == ZERO  # dot sum (0, 2, 4) is even

    def test_is_antitriangular_with_unit_antidiagonal(self):
        # pairing the families in reverse order is upper triangular with
        # ones on the diagonal, which is where unimodularity comes from
        gram = pairing_matrix()
        n = len(THETA_BASIS_DOTS)
        for i in range(n):
            assert gram[n - 1 - i][i] == ONE
            for j in range(i):
                assert gram[n - 1 - i][j] == ZERO


class TestPairingAnswersToTheWebs:
    """The planar theorem, pairing side: the rank of a closed web's foam
    pairing is the Tait count of the web."""

    def test_theta_pairing_rank_is_the_theta_tait_count(self):
        tait = count_tait_colorings(corpus_web("theta"))
        assert fraction_rank(pairing_matrix()) == tait == 6

    def test_sphere_pairing_rank_is_the_unknot_tait_count(self):
        gram = [[eval_sphere(i + j) for j in range(3)] for i in range(3)]
        assert fraction_rank(gram) == count_tait_colorings(corpus_web("unknot")) == 3

    def test_one_wrong_theta_value_breaks_the_agreement(self, monkeypatch):
        monkeypatch.setattr(
            foams,
            "eval_theta",
            lambda *dots: ZERO if sorted(dots) == [0, 1, 2] else eval_theta(*dots),
        )
        tait = count_tait_colorings(corpus_web("theta"))
        assert fraction_rank(pairing_matrix()) == 2 != tait
