"""Exact arithmetic in the Laurent ring F2[T1^±1, T2^±1, T3^±1].

Because the coefficient field is F2, a Laurent polynomial is fully
determined by the set of exponent triples whose coefficient is 1, so a
:class:`LaurentPoly` stores a frozenset of ``(e1, e2, e3)`` integer
triples.  Addition is symmetric difference, multiplication is exponent
convolution with parity bookkeeping.  Values are immutable and hashable;
two values are equal exactly when their term sets are equal.

The module also provides univariate polynomials over F2 in a variable
``t``, in two forms: dense, as Python integers with bit ``k`` holding the
coefficient of ``t**k`` (functions :func:`gf2_mul`, :func:`gf2_divexact`,
...), and sparse, as frozensets of the exponents whose coefficient is 1
(:func:`packed_mul`, :func:`packed_divexact`).  The Kronecker
substitution ``T1 -> t, T2 -> t^d1, T3 -> t^(d1*d2)``
(:func:`kronecker_pack`) carries a polynomial whose exponents lie in the
box ``[0, d1) x [0, d2) x [0, inf)`` to one packed integer exponent per
term, injectively, and is a ring homomorphism; exact division and the
elimination kernel in :mod:`webfoam.linalg` run on these packed forms.
Along a line ``T_i = 1 + c_i t`` through (1, 1, 1) every element
maps to ``num / (1+t)^k`` (:func:`substitute_line`), and ``(1+t)^k`` is a
unit at t = 0, so the pair ``(num, k)`` is all the local analysis needs.
The fraction field of the Laurent ring is never formed: ranks over it
come from fraction-free elimination in :mod:`webfoam.linalg`.

The distinguished element ``P`` is the sum of the four monomials with
all exponents in {-1, +1} and an even number of -1 entries.
"""

from __future__ import annotations

import heapq
import math
import re
from typing import Iterable, Iterator

Triple = tuple[int, int, int]

__all__ = [
    "LaurentPoly",
    "add_product",
    "ZERO",
    "ONE",
    "T1",
    "T2",
    "T3",
    "P",
    "eval_at_ones",
    "leading_form",
    "poly_divexact",
    "substitute_line",
    "format_line_image",
    "kronecker_pack",
    "kronecker_unpack",
    "packed_mul",
    "packed_divexact",
    "gf2_mul",
    "gf2_divexact",
    "gf2_exponents",
    "gf2_from_exponents",
    "gf2_mul_one_plus_t_pow",
    "gf2_valuation",
    "MAX_PARSED_EXPONENT",
]

#: Largest exponent magnitude :meth:`LaurentPoly.parse` accepts.  Line
#: substitution writes (1+t)^e as a dense F2[t] polynomial of e + 1 bits,
#: and the local Smith form over F2[t]_(t) multiplies such polynomials;
#: at this limit a cleared line image has degree at most 6 * 4096, a few
#: kilobytes, where an unbounded exponent could ask for gigabytes.
MAX_PARSED_EXPONENT = 4096


class LaurentPoly:
    """A Laurent polynomial over F2 in three variables.

    >>> print(T1 + T2)
    T1 + T2
    >>> print(T1 * T1.inverse_monomial())
    1
    >>> P + P == ZERO
    True
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Triple] = ()):
        self.terms: frozenset[Triple] = frozenset(terms)

    # -- constructors ------------------------------------------------

    @staticmethod
    def monomial(e1: int, e2: int, e3: int) -> "LaurentPoly":
        return LaurentPoly([(e1, e2, e3)])

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the textual term grammar used for serialization.

        Terms are joined by ``" + "``; a term is a ``*``-joined product
        of factors ``T1^e``, ``T2^e``, ``T3^e`` (``^1`` omitted, absent
        variables omitted), the constant monomial is ``1`` and the zero
        polynomial is ``0``.  Exponents larger than
        :data:`MAX_PARSED_EXPONENT` in magnitude are rejected.

        >>> LaurentPoly.parse("T1*T2^-1 + 1") == T1 * T2.inverse_monomial() + ONE
        True
        """
        text = text.strip()
        if text == "0":
            return ZERO
        terms: set[Triple] = set()
        pos = 0
        for chunk in text.split(" + "):
            exps = _parse_term(chunk, pos)
            if exps in terms:
                raise ValueError(
                    f"duplicate term {chunk!r} at position {pos}: "
                    "terms of a canonical F2 polynomial are distinct"
                )
            terms.add(exps)
            pos += len(chunk) + 3
        return cls(terms)

    # -- ring structure ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly(self.terms ^ other.terms)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: set[Triple] = set()
        add_product(acc, self.terms, other.terms)
        return LaurentPoly(acc)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a general Laurent polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse_monomial(self) -> "LaurentPoly":
        """Inverse of a single-term polynomial (the only units of the ring)."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible in the Laurent ring")
        ((e1, e2, e3),) = self.terms
        return LaurentPoly.monomial(-e1, -e2, -e3)

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- inspection ---------------------------------------------------

    def exponent_range(self) -> tuple[Triple, Triple]:
        """Componentwise (min, max) exponents; only valid for nonzero values."""
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        lo = tuple(min(t[i] for t in self.terms) for i in range(3))
        hi = tuple(max(t[i] for t in self.terms) for i in range(3))
        return lo, hi  # type: ignore[return-value]

    def shifted(self, e1: int, e2: int, e3: int) -> "LaurentPoly":
        """Multiply by the monomial T1^e1 T2^e2 T3^e3."""
        return LaurentPoly((a + e1, b + e2, c + e3) for (a, b, c) in self.terms)

    def sorted_terms(self) -> list[Triple]:
        """Terms in canonical order: lexicographic, descending."""
        return sorted(self.terms, reverse=True)

    # -- formatting ---------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for exps in self.sorted_terms():
            factors = [
                f"T{i + 1}^{e}" if e != 1 else f"T{i + 1}"
                for i, e in enumerate(exps)
                if e != 0
            ]
            rendered.append("*".join(factors) if factors else "1")
        return " + ".join(rendered)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


def add_product(acc: set[Triple], a: frozenset[Triple], b: frozenset[Triple]) -> None:
    """Add the product of the term sets ``a`` and ``b`` into ``acc``, in place.

    The one multiplication loop of the ring: each product term toggles
    its membership, which is addition over F2.  A sum of products
    accumulates in one set, with no polynomial built per product.
    """
    if len(a) > len(b):
        a, b = b, a
    add, remove = acc.add, acc.remove
    for (a1, a2, a3) in a:
        for (b1, b2, b3) in b:
            t = (a1 + b1, a2 + b2, a3 + b3)
            if t in acc:
                remove(t)
            else:
                add(t)


_FACTOR_RE = re.compile(r"^T([123])(?:\^(-?\d+))?$")


def _parse_term(chunk: str, pos: int) -> Triple:
    if chunk == "1":
        return (0, 0, 0)
    exps = [0, 0, 0]
    seen: set[int] = set()
    offset = pos
    for factor in chunk.split("*"):
        m = _FACTOR_RE.match(factor)
        if m is None:
            raise ValueError(
                f"bad factor {factor!r} at position {offset}: expected T1/T2/T3 "
                "with an optional integer exponent, '1', or '0'"
            )
        idx = int(m.group(1)) - 1
        if idx in seen:
            raise ValueError(f"variable T{idx + 1} repeated at position {offset}")
        seen.add(idx)
        exps[idx] = int(m.group(2)) if m.group(2) is not None else 1
        if abs(exps[idx]) > MAX_PARSED_EXPONENT:
            raise ValueError(
                f"exponent {exps[idx]} at position {offset} exceeds the limit "
                f"of {MAX_PARSED_EXPONENT} in magnitude"
            )
        offset += len(factor) + 1
    return (exps[0], exps[1], exps[2])


ZERO = LaurentPoly()
ONE = LaurentPoly.monomial(0, 0, 0)
T1 = LaurentPoly.monomial(1, 0, 0)
T2 = LaurentPoly.monomial(0, 1, 0)
T3 = LaurentPoly.monomial(0, 0, 1)


P = LaurentPoly(
    [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
)


def eval_at_ones(p: LaurentPoly) -> int:
    """Evaluate at T1 = T2 = T3 = 1: an element of F2, returned as 0 or 1.

    Every monomial evaluates to 1, so the value is the parity of the
    number of terms.

    >>> eval_at_ones(P)
    0
    >>> eval_at_ones(T1 + T2 + T3)
    1
    """
    return len(p.terms) & 1


def leading_form(p: LaurentPoly) -> tuple[int | float, LaurentPoly]:
    """Lowest-degree part of ``p`` at (1, 1, 1): substitute T_i = 1 + eps_i.

    The polynomial is first multiplied by a monomial to make every
    exponent nonnegative (a unit of the local ring whose expansion starts
    with 1, so the lowest-degree part is unchanged), then expanded in
    F2[eps1, eps2, eps3] with the mod-2 binomial theorem.  Returns
    ``(order, form)``: the minimal total degree of a surviving term and
    the homogeneous part of that degree, with exponent triples read as
    powers of the eps_i; ``(math.inf, ZERO)`` for the zero polynomial.
    Along a line T_i = 1 + c_i t the image is ``form(c) * t^order`` plus
    higher powers of t.

    >>> order, form = leading_form(P)
    >>> order, str(form)
    (4, 'T1^2*T2^2 + T1^2*T3^2 + T2^2*T3^2')
    """
    if not p.terms:
        return math.inf, ZERO
    lo, _ = p.exponent_range()
    shifted = p.shifted(-lo[0], -lo[1], -lo[2])
    # T_i -> 1 + eps_i is invertible, so a nonzero p leaves acc nonempty.
    acc: set[Triple] = set()
    for (a1, a2, a3) in shifted.terms:
        # (1+eps)^a = sum over bitwise submasks k of a of eps^k (Lucas).
        for k1 in _submasks(a1):
            for k2 in _submasks(a2):
                for k3 in _submasks(a3):
                    acc ^= {(k1, k2, k3)}
    order = min(k1 + k2 + k3 for (k1, k2, k3) in acc)
    return order, LaurentPoly(t for t in acc if sum(t) == order)


def _submasks(a: int) -> Iterator[int]:
    sub = a
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & a


def poly_divexact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division a / b in the Laurent ring; b must divide a.

    Both operands are shifted to plain polynomials and packed by the
    Kronecker substitution of ``a``'s box; the packed quotient comes from
    :func:`packed_divexact` and is unpacked and shifted back.  Raises
    ValueError if the division leaves a remainder.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return ZERO
    lo_b, hi_b = b.exponent_range()
    lo_a, hi_a = a.exponent_range()
    d1, d2 = hi_a[0] - lo_a[0] + 1, hi_a[1] - lo_a[1] + 1
    quot = kronecker_unpack(
        packed_divexact(
            kronecker_pack(a, d1, d2, lo_a), kronecker_pack(b, d1, d2, lo_b)
        ),
        d1,
        d2,
    )
    # The packing is injective on a's box, so the unpacked quotient is
    # the true one exactly when its products with b stay in that box.
    room1 = d1 - 1 - (hi_b[0] - lo_b[0])
    room2 = d2 - 1 - (hi_b[1] - lo_b[1])
    if any(e1 > room1 or e2 > room2 for (e1, e2, _) in quot.terms):
        raise ValueError("inexact division of Laurent polynomials")
    return quot.shifted(lo_a[0] - lo_b[0], lo_a[1] - lo_b[1], lo_a[2] - lo_b[2])


# ---------------------------------------------------------------------------
# Packed monomials: the Kronecker substitution T1 -> t, T2 -> t^d1,
# T3 -> t^(d1*d2), with sparse F2[t] polynomials as exponent sets.
# ---------------------------------------------------------------------------


def kronecker_pack(p: LaurentPoly, d1: int, d2: int, low: Triple) -> list[int]:
    """Packed exponents of ``p`` times T^-low: e1 + d1*e2 + d1*d2*e3 per term.

    The map is additive, so it turns products into products in F2[t];
    it is injective on exponents in ``[0, d1) x [0, d2) x [0, inf)``.
    """
    d12 = d1 * d2
    offset = low[0] + d1 * low[1] + d12 * low[2]
    return [e1 + d1 * e2 + d12 * e3 - offset for (e1, e2, e3) in p.terms]


def kronecker_unpack(exps: Iterable[int], d1: int, d2: int) -> LaurentPoly:
    """Inverse of :func:`kronecker_pack` on its box, for ``low`` zero."""
    out = []
    for e in exps:
        rest, e1 = divmod(e, d1)
        e3, e2 = divmod(rest, d2)
        out.append((e1, e2, e3))
    return LaurentPoly(out)


def packed_mul(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    """Product of two sparse F2[t] polynomials given as exponent sets."""
    if len(a) > len(b):
        a, b = b, a
    acc: set[int] = set()
    for e in a:
        # the shifted copy of b has distinct terms: xor toggles parity
        acc ^= set(map(e.__add__, b))
    return frozenset(acc)


def packed_divexact(a: Iterable[int], b: Iterable[int]) -> frozenset[int]:
    """Exact quotient of two sparse F2[t] polynomials given as exponent sets.

    The leading term of the remainder comes off a max-heap with lazy
    deletion: every exponent that enters the remainder is pushed, and a
    popped exponent no longer in the remainder is skipped.  The leading
    exponent strictly decreases, so no quotient term repeats and the
    loop ends; a leading term below ``max(b)`` raises ValueError.
    """
    b = frozenset(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = set(a)
    if len(b) == 1:  # a monomial: division is a shift
        (shift,) = b
        if rem and min(rem) < shift:
            raise ValueError("inexact division in F2[t]")
        return frozenset(e - shift for e in rem)
    lead_b = max(b)
    heap = [-e for e in rem]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    add, remove = rem.add, rem.remove
    quot = []
    while rem:
        lead = -pop(heap)
        if lead not in rem:
            continue
        m = lead - lead_b
        if m < 0:
            raise ValueError("inexact division in F2[t]")
        quot.append(m)
        for e in map(m.__add__, b):
            if e in rem:
                remove(e)
            else:
                add(e)
                push(heap, -e)
    return frozenset(quot)


# ---------------------------------------------------------------------------
# Univariate polynomials over F2, packed into integers (bit k <-> t^k).
# ---------------------------------------------------------------------------


def gf2_exponents(a: int) -> list[int]:
    """Exponents of the terms of a bit-packed F2[t] polynomial, descending."""
    bits = bin(a)
    top = len(bits) - 1
    out = []
    i = bits.find("1", 2)
    while i >= 0:
        out.append(top - i)
        i = bits.find("1", i + 1)
    return out


def gf2_from_exponents(exps: Iterable[int]) -> int:
    """Bit-packed F2[t] polynomial with the given distinct exponents."""
    result = 0
    for e in exps:
        result |= 1 << e
    return result


def gf2_mul(a: int, b: int) -> int:
    """Carry-less product of two F2[t] polynomials.

    One shift and xor for each set bit of the sparser operand.  An
    operand of a few terms gives up its lowest bit at a time; a denser
    one lists its bits in one pass (:func:`gf2_exponents`).
    """
    if a.bit_count() > b.bit_count():
        a, b = b, a
    result = 0
    if a.bit_count() > 8:
        for k in gf2_exponents(a):
            result ^= b << k
        return result
    while a:
        low = a & -a
        result ^= b << (low.bit_length() - 1)
        a ^= low
    return result


def gf2_divexact(a: int, b: int) -> int:
    """Exact quotient a / b in F2[t]; b must divide a.

    Works from the high end, one shift and xor per quotient term; each
    step lowers the degree of the remainder, and a nonzero remainder of
    degree below deg b raises ValueError, so the loop always ends.
    """
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    if b & (b - 1) == 0:  # a monomial: division is a shift
        shift = b.bit_length() - 1
        if a & (b - 1):
            raise ValueError("inexact division in F2[t]")
        return a >> shift
    db = b.bit_length()
    quot = 0
    while a:
        shift = a.bit_length() - db
        if shift < 0:
            raise ValueError("inexact division in F2[t]")
        quot |= 1 << shift
        a ^= b << shift
    return quot


def gf2_mul_one_plus_t_pow(a: int, s: int) -> int:
    """The product a * (1+t)^s in F2[t], for s >= 0.

    In characteristic 2, (1+t)^(2^k) = 1 + t^(2^k), so (1+t)^s is the
    product of 1 + t^(2^k) over the set bits k of s, and each factor
    costs one shift and one xor.
    """
    step = 1
    while s:
        if s & 1:
            a ^= a << step
        s >>= 1
        step <<= 1
    return a


def gf2_valuation(a: int) -> int | float:
    """t-adic valuation: index of the lowest set bit; inf for zero."""
    if a == 0:
        return math.inf
    return (a & -a).bit_length() - 1


def _format_gf2(a: int) -> str:
    if a == 0:
        return "0"
    return " + ".join(
        "1" if k == 0 else ("t" if k == 1 else f"t^{k}") for k in reversed(gf2_exponents(a))
    )


def format_line_image(num: int, k: int) -> str:
    """Render the line image ``num / (1+t)^k`` with the power expanded.

    >>> format_line_image(0b10000, 2)
    '(t^4) / (1 + t^2)'
    """
    if k == 0:
        return _format_gf2(num)
    return f"({_format_gf2(num)}) / ({_format_gf2(gf2_mul_one_plus_t_pow(1, k))})"


def substitute_line(p: LaurentPoly, direction: Triple) -> tuple[int, int]:
    """Restrict to a line through (1,1,1): substitute T_i = 1 + c_i t.

    ``direction`` is a 0/1 tuple such as ``(1, 1, 1)`` or ``(1, 1, 0)``.
    The image is returned as ``(num, k)``, meaning ``num / (1+t)^k`` with
    ``num`` a bit-packed F2[t] polynomial and ``k`` the least power that
    clears every negative exponent.  ``(1+t)^k`` is a unit at t = 0, so
    the t-adic valuation of the image is that of ``num``.

    >>> substitute_line(P, (1, 1, 1)) == (0b10000, 1)  # t^4 / (1+t)
    True
    """
    if (
        not isinstance(direction, tuple)
        or len(direction) != 3
        or any(c not in (0, 1) for c in direction)
    ):
        raise ValueError(
            "direction must be a tuple of 0/1 entries such as (1, 1, 1) or (1, 1, 0)"
        )
    # T_i with c_i = 1 maps to 1 + t, with c_i = 0 to 1; a monomial maps
    # to (1+t)^s with s the sum of the selected exponents.
    sums = [
        sum(e for e, c in zip(exps, direction) if c) for exps in p.terms
    ]
    if not sums:
        return 0, 0
    k = max(0, -min(sums))
    num = 0
    for s in sums:
        num ^= gf2_mul_one_plus_t_pow(1, s + k)
    return num, k
