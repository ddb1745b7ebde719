"""Exact rational arithmetic and negative continued fractions.

Every quantity in this package is an arbitrary-precision integer or a
``fractions.Fraction``; floating point is never used.  A rational r > 1 has a
unique expansion

    r = a_1 - 1/(a_2 - 1/(... - 1/a_n))     with all a_i >= 2,

written ``[a_1, ..., a_n]^-`` and represented here as a plain tuple of ints.
The text grammar for rationals everywhere in the CLI is ``p/q`` or the integer
shorthand ``n``.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or integer shorthand ``n`` into a reduced Fraction.

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
    return Fraction(p, q)


def format_rational(r: Fraction) -> str:
    """Inverse of parse_rational: integer shorthand when the denominator is 1."""
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def neg_cfrac_expand(r: Fraction) -> tuple[int, ...]:
    """Unique negative continued fraction expansion of a rational r > 1.

    The recursion is a_1 = ceil(r), then continue with 1/(a_1 - r) until the
    remainder is exact; on r = p/q that is (p, q) <- (q, a_1 q - p) in
    integers.  Every term is >= 2 and ``neg_cfrac_eval`` inverts the
    expansion.
    """
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    if p <= q:
        raise ValueError(f"negative continued fractions need r > 1, got {r}")
    terms = []
    while True:
        a = -(-p // q)
        terms.append(a)
        if a * q == p:
            return tuple(terms)
        p, q = q, a * q - p


def neg_cfrac_eval(terms) -> Fraction:
    """Evaluate ``[a_1, ..., a_n]^-`` by the right-to-left fold r <- a - 1/r."""
    terms = tuple(terms)
    if not terms:
        raise ValueError("empty continued fraction")
    if any(a < 2 for a in terms):
        raise ValueError(f"all terms must be >= 2, got {terms}")
    r = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        r = a - 1 / r
    return r


def complement(r: Fraction) -> Fraction:
    """The complementary fraction p/(p-q) of r = p/q > 1.

    The reciprocals satisfy q/p + (p-q)/p = 1, and the map is an involution
    with unique fixed point 2.
    """
    r = Fraction(r)
    if r <= 1:
        raise ValueError(f"complement needs r > 1, got {r}")
    return Fraction(r.numerator, r.numerator - r.denominator)
