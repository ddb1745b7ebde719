"""Exact rationals as integer pairs, and negative continued fractions.

Every quantity in this package is an arbitrary-precision integer or a pair
``(p, q)`` of them standing for p/q; floating point is never used, and a
``fractions.Fraction`` only for callers (``Verdict.epsilon``).  A rational
r > 1 has a unique expansion

    r = a_1 - 1/(a_2 - 1/(... - 1/a_n))     with all a_i >= 2,

written ``[a_1, ..., a_n]^-`` and represented here as a plain tuple of ints.
The text grammar for rationals everywhere in the CLI is ``p/q`` or the integer
shorthand ``n``.
"""

from __future__ import annotations

from math import gcd


def parse_rational(text: str) -> tuple[int, int]:
    """Parse ``p/q`` or integer shorthand ``n`` into the pair as written, the
    sign moved onto p so that q >= 1; the pair is not reduced.

    Raises ValueError on anything else, including a zero denominator.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty rational literal")
    num, sep, den = text.partition("/")
    try:
        p = int(num)
        q = int(den) if sep else 1
    except ValueError:
        raise ValueError(f"malformed rational literal {text!r}") from None
    if q == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return (p, q) if q > 0 else (-p, -q)


def format_rational(r: tuple[int, int]) -> str:
    """The text of p/q = ``r`` in lowest terms: ``n`` when it is an integer."""
    p, q = r
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def neg_cfrac_expand(r: tuple[int, int]) -> tuple[int, ...]:
    """Unique negative continued fraction expansion of a rational r = p/q > 1.

    The recursion is a_1 = ceil(r), then continue with 1/(a_1 - r) until the
    remainder is exact; on r = p/q that is (p, q) <- (q, a_1 q - p) in
    integers.  Every term is >= 2 and ``neg_cfrac_eval`` inverts the
    expansion.
    """
    p, q = r
    if q < 1 or p <= q:
        raise ValueError(f"negative continued fractions need r > 1, got {format_rational(r)}")
    terms = []
    while True:
        a = -(-p // q)
        terms.append(a)
        if a * q == p:
            return tuple(terms)
        p, q = q, a * q - p


def neg_cfrac_eval(terms) -> tuple[int, int]:
    """Evaluate ``[a_1, ..., a_n]^-`` by the right-to-left fold r <- a - 1/r.

    On r = p/q that is (p, q) <- (a p - q, p), and the pair stays coprime.
    """
    terms = tuple(terms)
    if not terms:
        raise ValueError("empty continued fraction")
    if any(a < 2 for a in terms):
        raise ValueError(f"all terms must be >= 2, got {terms}")
    p, q = terms[-1], 1
    for a in reversed(terms[:-1]):
        p, q = a * p - q, p
    return p, q


def complement(r: tuple[int, int]) -> tuple[int, int]:
    """The complementary fraction p/(p-q) of r = p/q > 1.

    The reciprocals satisfy q/p + (p-q)/p = 1, and the map is an involution
    with unique fixed point 2.
    """
    p, q = r
    if q < 1 or p <= q:
        raise ValueError(f"complement needs r > 1, got {format_rational(r)}")
    return p, p - q
