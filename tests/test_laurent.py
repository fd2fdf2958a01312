"""Ring arithmetic, serialization, substitutions, and local orders."""

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from conftest import gf2_divmod, gf2_gcd, gf2_pow
from webfoam.laurent import (
    LaurentPoly,
    MAX_PARSED_EXPONENT,
    ONE,
    P,
    T1,
    T2,
    T3,
    ZERO,
    eval_at_ones,
    format_line_image,
    gf2_exponents,
    gf2_from_exponents,
    gf2_mul,
    gf2_mul_one_plus_t_pow,
    gf2_valuation,
    leading_form,
    poly_divexact,
    substitute_line,
)

exponents = st.integers(min_value=-3, max_value=3)
triples = st.tuples(exponents, exponents, exponents)
polys = st.frozensets(triples, max_size=5).map(LaurentPoly)


def brute_force_product(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Independent convolution oracle: count term collisions, keep odd ones."""
    counts: dict[tuple[int, int, int], int] = {}
    for a in p.terms:
        for b in q.terms:
            key = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            counts[key] = counts.get(key, 0) + 1
    return LaurentPoly(k for k, c in counts.items() if c % 2)


class TestRingBasics:
    def test_char_two_cancellation(self):
        assert P + P == ZERO

    def test_two_term_sum(self):
        assert (T1 + T2).terms == frozenset({(1, 0, 0), (0, 1, 0)})

    def test_p_is_the_four_monomial_sum(self):
        # the triples in {-1, +1}^3 with an even number of -1 entries
        signs = itertools.product((1, -1), repeat=3)
        assert P.terms == {s for s in signs if s.count(-1) % 2 == 0}

    def test_p_monomial_shape(self):
        product = ONE
        for (e1, e2, e3) in P.terms:
            assert {abs(e1), abs(e2), abs(e3)} == {1}
            product = product * LaurentPoly.monomial(e1, e2, e3)
        assert product == ONE

    def test_multiplicative_identities(self):
        assert P * ONE == P
        assert T1 * T1.inverse_monomial() == ONE

    def test_square_of_p_matches_convolution_oracle(self):
        # In characteristic 2 the cross terms pair off and cancel; only the
        # four Frobenius squares survive.
        expected = brute_force_product(P, P)
        assert P * P == expected
        assert P * P == LaurentPoly(
            {(2, 2, 2), (2, -2, -2), (-2, 2, -2), (-2, -2, 2)}
        )

    @given(polys, polys)
    def test_product_matches_oracle(self, p, q):
        assert p * q == brute_force_product(p, q)

    @given(polys, polys, polys)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + p == ZERO

    @given(polys, polys)
    def test_frobenius(self, p, q):
        assert (p + q) ** 2 == p**2 + q**2

    def test_inverse_monomial_requires_monomial(self):
        with pytest.raises(ValueError):
            (T1 + T2).inverse_monomial()


class TestSerialization:
    def test_p_prints_canonically(self):
        assert str(P) == (
            "T1*T2*T3 + T1*T2^-1*T3^-1 + T1^-1*T2*T3^-1 + T1^-1*T2^-1*T3"
        )

    def test_constants(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(T2) == "T2"
        assert str(LaurentPoly.monomial(0, -2, 1)) == "T2^-2*T3"

    @given(polys)
    def test_round_trip(self, p):
        assert LaurentPoly.parse(str(p)) == p

    def test_parse_errors_carry_positions(self):
        with pytest.raises(ValueError, match="position 0"):
            LaurentPoly.parse("T4")
        with pytest.raises(ValueError, match="position 5"):
            LaurentPoly.parse("T1 + T1^x")
        with pytest.raises(ValueError, match="repeated"):
            LaurentPoly.parse("T1*T1")
        with pytest.raises(ValueError, match="duplicate term"):
            LaurentPoly.parse("T1 + T1")

    def test_exponent_magnitude_is_bounded(self):
        assert LaurentPoly.parse("T1^4096*T3^-4096") == LaurentPoly.monomial(
            MAX_PARSED_EXPONENT, 0, -MAX_PARSED_EXPONENT
        )
        with pytest.raises(ValueError, match="at position 4 exceeds the limit of 4096"):
            LaurentPoly.parse("1 + T2^4097")
        with pytest.raises(ValueError, match="exponent -1073741823"):
            LaurentPoly.parse("T1*T3^-1073741823")


class TestEvalAtOnes:
    def test_examples(self):
        assert eval_at_ones(P) == 0
        assert eval_at_ones(ONE) == 1
        assert eval_at_ones(T1 + T2 + T3) == 1

    @given(polys, polys)
    def test_ring_homomorphism(self, p, q):
        assert eval_at_ones(p + q) == (eval_at_ones(p) + eval_at_ones(q)) % 2
        assert eval_at_ones(p * q) == (eval_at_ones(p) * eval_at_ones(q)) % 2


class TestMAdicOrder:
    def test_examples(self):
        assert leading_form(P)[0] == 4
        assert leading_form(ONE + T1)[0] == 1
        assert leading_form(ZERO)[0] == math.inf
        assert leading_form(ONE)[0] == 0
        assert leading_form(T1.inverse_monomial())[0] == 0

    @given(polys, polys)
    def test_multiplicative(self, p, q):
        # F2[[eps]] is a domain, so orders add.
        assert leading_form(p * q)[0] == leading_form(p)[0] + leading_form(q)[0]


class TestDivexact:
    @given(polys, polys)
    def test_exact_division_inverts_multiplication(self, p, q):
        if not p or not q:
            return
        assert poly_divexact(p * q, q) == p

    def test_inexact_division_raises(self):
        with pytest.raises(ValueError):
            poly_divexact(T1 + T2, T1 + T2 + T3)
        # packed in the box of the dividend, 1 + T2 and 1 + T1 both map to
        # 1 + t, so only the unpacked quotient's degrees expose the remainder
        for a, b in ((ONE + T2, ONE + T1), (ONE + T3, ONE + T2), (ONE + T3, ONE + T1)):
            with pytest.raises(ValueError):
                poly_divexact(a, b)

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            poly_divexact(ONE, ZERO)


def _low_corner(p: LaurentPoly) -> tuple[int, int, int]:
    return p.exponent_range()[0] if p else (0, 0, 0)


def _sympy_ring():
    """Sparse sympy polynomials in three variables over GF(2)."""
    sympy = pytest.importorskip("sympy")
    ring, *_ = sympy.polys.rings.ring("x1,x2,x3", sympy.GF(2))
    return ring


def _to_sympy(ring, p: LaurentPoly, shift: tuple[int, int, int]):
    """``p`` times T^-shift as a sympy polynomial; shift <= every exponent."""
    return ring.from_dict(
        {(e1 - shift[0], e2 - shift[1], e3 - shift[2]): 1 for (e1, e2, e3) in p.terms}
    )


def _random_laurent(rng, max_terms: int, spread: int) -> LaurentPoly:
    return LaurentPoly(
        tuple(rng.randint(-spread, spread) for _ in range(3))
        for _ in range(rng.randint(1, max_terms))
    )


class TestSympyOracle:
    """Products and exact quotients against sympy's GF(2) polynomials."""

    @staticmethod
    def operand_pairs():
        rng = random.Random(20240)
        pairs = [
            (_random_laurent(rng, 12, 3), _random_laurent(rng, 12, 3))
            for _ in range(40)
        ]
        # several hundred terms: 625 * 93 and 256 * 105
        pairs.append(((P + ONE) ** 15, (P + T1) ** 7))
        pairs.append((P**15, (P + T1) ** 11 * T2.inverse_monomial()))
        return pairs

    def test_product_matches_sympy(self):
        ring = _sympy_ring()
        for p, q in self.operand_pairs():
            lp, lq = _low_corner(p), _low_corner(q)
            both = tuple(a + b for a, b in zip(lp, lq))
            expected = _to_sympy(ring, p, lp) * _to_sympy(ring, q, lq)
            assert _to_sympy(ring, p * q, both) == expected

    def test_exact_quotient_matches_sympy(self):
        ring = _sympy_ring()
        for p, q in self.operand_pairs():
            lp, lq = _low_corner(p), _low_corner(q)
            both = tuple(a + b for a, b in zip(lp, lq))
            quotient = poly_divexact(p * q, q)
            expected = _to_sympy(ring, p * q, both).exquo(_to_sympy(ring, q, lq))
            assert _to_sympy(ring, quotient, lp) == expected
            assert quotient == p

    def test_inexact_division_agrees_with_sympy(self):
        ring = _sympy_ring()
        rng = random.Random(7)
        for _ in range(40):
            a = _random_laurent(rng, 8, 2)
            b = _random_laurent(rng, 3, 1)
            dividend = _to_sympy(ring, a, _low_corner(a))
            if dividend.rem(_to_sympy(ring, b, _low_corner(b))):
                with pytest.raises(ValueError):
                    poly_divexact(a, b)
            else:
                assert poly_divexact(a, b) * b == a


class TestUnivariate:
    def test_gf2_helpers(self):
        # (1+t)^2 = 1 + t^2 and division recovers the factors
        assert gf2_mul(0b11, 0b11) == 0b101
        assert gf2_divmod(0b101, 0b11) == (0b11, 0)
        assert gf2_gcd(0b101, 0b11) == 0b11
        assert gf2_pow(0b10, 5) == 1 << 5
        assert gf2_valuation(0b1100) == 2
        assert gf2_valuation(0) == math.inf

    def test_from_exponents_matches_digit_string(self):
        # sparse and dense inputs against the binary digits, top exponent first
        rng = random.Random(20241)
        assert gf2_from_exponents([]) == 0
        for top in (1, 64, 400, 1500):
            for k in (1, 2, 4, 63, 64, 65, 200, top):
                if k > top:
                    continue
                exps = rng.sample(range(top), k)
                digits = "".join("1" if e in exps else "0" for e in range(top, -1, -1))
                expected = int(digits, 2)
                assert gf2_from_exponents(iter(exps)) == expected, (top, k)
                assert gf2_exponents(expected) == sorted(exps, reverse=True)

    def test_frobenius_power_matches_repeated_squaring(self):
        rng = random.Random(20240)
        for s in range(513):
            power = gf2_pow(0b11, s)
            assert gf2_mul_one_plus_t_pow(1, s) == power
            a = rng.getrandbits(12)
            assert gf2_mul_one_plus_t_pow(a, s) == gf2_mul(a, power)


def _clear(image: tuple[int, int], k: int) -> int:
    """The numerator of a line image over the common denominator (1+t)^k."""
    num, own = image
    return gf2_mul_one_plus_t_pow(num, k - own)


class TestSubstituteLine:
    def test_symbolic_leading_term_of_p(self):
        # T_i = 1 + z_i*t sends P to form(z) * t^4 + O(t^5)
        assert leading_form(P) == (4, LaurentPoly({(2, 2, 0), (2, 0, 2), (0, 2, 2)}))
        assert leading_form(ZERO) == (math.inf, ZERO)

    def test_line_111_is_t4_over_1_plus_t(self):
        num, k = substitute_line(P, (1, 1, 1))
        assert (num, k) == (0b10000, 1)
        assert gf2_valuation(num) == 4
        assert format_line_image(num, k) == "(t^4) / (1 + t)"

    def test_line_110_is_t4_over_1_plus_t_squared(self):
        num, k = substitute_line(P, (1, 1, 0))
        assert (num, k) == (0b10000, 2)
        assert format_line_image(num, k) == "(t^4) / (1 + t^2)"

    def test_zero_maps_to_zero(self):
        assert substitute_line(ZERO, (1, 1, 1)) == (0, 0)
        assert format_line_image(0, 0) == "0"

    def test_denominator_is_the_least_clearing_power(self):
        assert substitute_line(ONE, (1, 1, 1)) == (1, 0)
        assert substitute_line(T1 * T3, (1, 1, 0)) == (0b11, 0)
        assert substitute_line(T2.inverse_monomial() ** 2, (1, 1, 1)) == (1, 2)

    def test_rejects_unknown_directions(self):
        for direction in ((1, 2, 1), (1, 1), "symbolic", [1, 1, 1]):
            with pytest.raises(ValueError):
                substitute_line(P, direction)

    @given(polys)
    def test_valuation_dominates_m_adic_order(self, p):
        num, _ = substitute_line(p, (1, 1, 1))
        assert gf2_valuation(num) >= leading_form(p)[0]

    @given(polys)
    def test_valuation_meets_order_when_leading_form_survives(self, p):
        # the concrete valuation equals the order of vanishing exactly when
        # the leading form does not die at z = (1, 1, 1)
        order, lead = leading_form(p)
        if order is math.inf:
            return
        valuation = gf2_valuation(substitute_line(p, (1, 1, 1))[0])
        if eval_at_ones(lead):
            assert valuation == order
        else:
            assert valuation > order

    def test_symbolic_leading_order_is_the_m_adic_order(self):
        # sympy oracle: expand p(1+e1, 1+e2, 1+e3), shifted to nonnegative
        # exponents, in GF(2)[e1, e2, e3] and keep its lowest-degree part
        sympy = pytest.importorskip("sympy")
        ring, e1, e2, e3 = sympy.polys.rings.ring("e1,e2,e3", sympy.GF(2))
        rng = random.Random(20240)
        cases = [P, P * (ONE + T1), (P + ONE) ** 3, ONE + T1 * T2 * T3]
        cases += [_random_laurent(rng, 6, 3) for _ in range(200)]
        for p in cases:
            lo = _low_corner(p)
            expansion = ring.zero
            for (a1, a2, a3) in p.terms:
                expansion += (
                    (1 + e1) ** (a1 - lo[0])
                    * (1 + e2) ** (a2 - lo[1])
                    * (1 + e3) ** (a3 - lo[2])
                )
            order = min(sum(m) for m in expansion.keys())
            form = LaurentPoly(m for m in expansion.keys() if sum(m) == order)
            assert leading_form(p) == (order, form)

    @given(polys)
    def test_substitution_is_additive(self, p):
        direction = (1, 1, 0)
        images = [substitute_line(x, direction) for x in (p + P, p, P)]
        k = max(own for _, own in images)
        total, a, b = (_clear(image, k) for image in images)
        assert total == a ^ b
