from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sfs4.rationals import (
    complement,
    format_rational,
    neg_cfrac_eval,
    neg_cfrac_expand,
    parse_rational,
)
from tests.oracles import padic_valuation


def test_expand_all_twos():
    # a/(a-1) expands to a-1 twos
    for a in range(2, 9):
        assert neg_cfrac_expand((a, a - 1)) == (2,) * (a - 1)


def test_expand_integer_single_term():
    assert neg_cfrac_expand((7, 1)) == (7,)


def test_expand_12_over_5():
    assert neg_cfrac_expand((12, 5)) == (3, 2, 3)
    assert neg_cfrac_eval((3, 2, 3)) == (12, 5)


def test_eval_hand_folds():
    assert neg_cfrac_eval((2, 2)) == (3, 2)
    assert neg_cfrac_eval((5,)) == (5, 1)


def test_expand_rejects_small():
    for r in ((1, 1), (1, 2), (-3, 1), (3, -1)):
        with pytest.raises(ValueError):
            neg_cfrac_expand(r)


def test_eval_rejects_bad_terms():
    with pytest.raises(ValueError):
        neg_cfrac_eval(())
    with pytest.raises(ValueError):
        neg_cfrac_eval((2, 1))


@given(st.fractions(min_value=Fraction(101, 100), max_value=100).filter(lambda r: r.denominator <= 500))
def test_round_trip(r):
    terms = neg_cfrac_expand((r.numerator, r.denominator))
    assert all(a >= 2 for a in terms)
    assert Fraction(*neg_cfrac_eval(terms)) == r
    # term bound: each term <= numerator, length <= numerator - 1, with the
    # all-twos pattern of maximal length exactly at p/(p-1)
    assert max(terms) <= r.numerator
    assert len(terms) <= r.numerator - 1
    if len(terms) == r.numerator - 1:
        assert set(terms) == {2}
        assert r == Fraction(r.numerator, r.numerator - 1)


def test_round_trip_seeded_corpus():
    import random

    rng = random.Random(515)
    for _ in range(1000):
        q = rng.randint(1, 500)
        p = rng.randint(q + 1, 100 * q)
        r = Fraction(p, q)
        assert Fraction(*neg_cfrac_eval(neg_cfrac_expand((r.numerator, r.denominator)))) == r


def test_two_pattern_is_sharp():
    # the all-twos expansion of maximal length occurs exactly for p/(p-1)
    for p in range(2, 12):
        assert neg_cfrac_expand((p, p - 1)) == (2,) * (p - 1)
    terms = neg_cfrac_expand((7, 5))
    assert len(terms) < 6


def test_complement_values():
    assert complement((3, 2)) == (3, 1)
    assert complement((4, 3)) == (4, 1)
    assert complement((2, 1)) == (2, 1)
    assert complement((12, 5)) == (12, 7)


@given(st.fractions(min_value=Fraction(101, 100), max_value=50))
def test_complement_involution(r):
    pair = (r.numerator, r.denominator)
    c = complement(pair)
    assert Fraction(*pair) ** -1 + Fraction(*c) ** -1 == 1
    assert complement(c) == pair


def test_parse_and_format():
    assert parse_rational("3/2") == (3, 2)
    assert parse_rational(" -7 ") == (-7, 1)
    assert parse_rational("12/5") == (12, 5)
    # the pair as written, the sign on the numerator; SeifertData reduces it
    assert parse_rational("6/-4") == (-6, 4)
    assert parse_rational("0/5") == (0, 5)
    assert format_rational((12, 5)) == "12/5"
    assert format_rational((4, 1)) == "4"
    # lowest terms, the sign on the numerator, as str(Fraction)
    for p, q in ((6, 4), (3, -2), (-8, -4), (0, 7), (-5, 10)):
        assert format_rational((p, q)) == str(Fraction(p, q))
    for bad in ("", "3/0", "a/b", "1.5", "3//2"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_padic_valuation():
    assert padic_valuation(3, Fraction(18, 5)) == 2
    assert padic_valuation(5, Fraction(18, 5)) == -1
    assert padic_valuation(7, 10) == 0
    with pytest.raises(ValueError):
        padic_valuation(2, 0)
