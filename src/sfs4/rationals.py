"""Exact rationals as integer pairs, and negative continued fractions.

Every quantity in this package is an arbitrary-precision integer or a pair
``(p, q)`` of them standing for p/q; floating point is never used, and a
``fractions.Fraction`` only for callers (``Verdict.epsilon``).  A rational
r > 1 has a unique expansion

    r = a_1 - 1/(a_2 - 1/(... - 1/a_n))     with all a_i >= 2,

written ``[a_1, ..., a_n]^-`` and represented here as a plain tuple of ints.
The expansion of p/(p-1) is p - 1 twos, so it is read first as runs: pairs
(weight, run length) straight from the Euclidean algorithm, one step per run
of 2s and per other term, O(log p) steps in all (``neg_cfrac_runs``).  Only a
caller that prints or searches the vertices expands them.
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


def neg_cfrac_runs(r: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """The negative continued fraction of r = p/q > 1 as (weight, run length)
    pairs: each maximal run of 2s is one pair, every other term a pair of
    length 1.

    With d = p - q the expansion opens with floor(p/d) - 1 twos, and they
    leave p <- d + (p mod d) over q <- p mod d; when d divides p (so d = 1)
    nothing is left.  The next term is then a = ceil(p/q) >= 3 and the
    recursion goes on with (p, q) <- (q, a q - p).  Each run is one step of
    the Euclidean algorithm on (p, d).
    """
    p, q = r
    if q < 1 or p <= q:
        raise ValueError(f"negative continued fractions need r > 1, got {format_rational(r)}")
    runs = []
    while True:
        d = p - q
        twos, q = divmod(p, d)
        if twos > 1:
            runs.append((2, twos - 1))
        if not q:
            return tuple(runs)
        p = d + q
        a = -(-p // q)
        runs.append((a, 1))
        if a * q == p:
            return tuple(runs)
        p, q = q, a * q - p


def neg_cfrac_expand(r: tuple[int, int]) -> tuple[int, ...]:
    """Unique negative continued fraction expansion of a rational r = p/q > 1,
    the runs of ``neg_cfrac_runs`` written out term by term.

    Every term is >= 2 and ``neg_cfrac_eval`` inverts the expansion.
    """
    terms = []
    for a, n in neg_cfrac_runs(r):
        terms += [a] * n
    return tuple(terms)


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
