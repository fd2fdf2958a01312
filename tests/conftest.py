import random
from array import array

import pytest
from hypothesis import HealthCheck, settings

from webfoam.laurent import LaurentPoly, gf2_mul
from webfoam.linalg import GF2_16_MODULUS

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def random_poly(rng: random.Random, max_terms: int = 4, spread: int = 2) -> LaurentPoly:
    """Small random Laurent polynomial for seeded (non-hypothesis) suites."""
    terms = {
        (
            rng.randint(-spread, spread),
            rng.randint(-spread, spread),
            rng.randint(-spread, spread),
        )
        for _ in range(rng.randint(0, max_terms))
    }
    return LaurentPoly(terms)


def gf2_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder in F2[t]."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    db = b.bit_length()
    quot = 0
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        quot ^= 1 << shift
        a ^= b << shift
    return quot, a


def gf2_gcd(a: int, b: int) -> int:
    """Greatest common divisor in F2[t], by Euclid's algorithm."""
    while b:
        a, b = b, gf2_divmod(a, b)[1]
    return a


def gf2_pow(a: int, n: int) -> int:
    """a^n in F2[t], by repeated squaring."""
    result = 1
    while n:
        if n & 1:
            result = gf2_mul(result, a)
        a = gf2_mul(a, a)
        n >>= 1
    return result


def gf16_mul_reference(a: int, b: int) -> int:
    """Product in GF(2^16), by shift-and-add with reduction at each step."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a >> 16:
            a ^= GF2_16_MODULUS
    return result


def gf16_tables_reference() -> tuple[array, array]:
    """``(exp, log)`` for GF(2^16), one power of x at a time by the bit loop."""
    order = (1 << 16) - 1
    exp = array("H", [0]) * (2 * order)
    log = array("H", [0]) * (1 << 16)
    a = 1
    for i in range(order):
        exp[i] = exp[i + order] = a
        log[a] = i
        a <<= 1
        if a >> 16:
            a ^= GF2_16_MODULUS
    return exp, log


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240)
