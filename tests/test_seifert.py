import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sfs4.homology import h1_oracle
from sfs4.rationals import complement
from sfs4.seifert import (
    SeifertData,
    StandardForm,
    euler_invariant,
    expand,
    find_contractions,
    normalize,
)
from tests.test_partitions import oracle_corpus

F = Fraction


def sfs(g, e, *fibers):
    return SeifertData(g, e, tuple(F(x) for x in fibers))


def std(g, e, *fibers):
    return StandardForm(g, e, tuple(F(x) for x in fibers))


# random raw Seifert data: small fibers, arbitrary signs and normalization state;
# these are exactly the nonzero reduced fractions with |num|, den <= 20
fiber_st = st.builds(
    F, st.integers(min_value=-20, max_value=20).filter(bool), st.integers(min_value=1, max_value=20)
)
raw_st = st.builds(
    SeifertData,
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-5, max_value=5),
    st.lists(fiber_st, max_size=6).map(tuple),
)


def _euler_oracle(s):
    return Fraction(s.central) - sum((1 / r for r in s.fibers), Fraction(0))


def _normalize_oracle(s):
    """normalize by Fraction arithmetic on the reciprocals."""

    def accumulate(central, betas):
        kept = []
        e = central
        for b in betas:
            n = math.floor(b)
            e -= n
            if b != n:
                kept.append(b - n)
        return e, kept

    e, betas = accumulate(s.central, [1 / r for r in s.fibers])
    reversed_ = Fraction(e) - sum(betas, Fraction(0)) < 0
    if reversed_:
        e, betas = accumulate(-e, [-b for b in betas])
    return StandardForm(s.genus, e, tuple(1 / b for b in betas), reversed_)


def test_integer_arithmetic_matches_fraction_oracles():
    from tests.test_homology import random_seifert

    rng = random.Random(2718)
    reversed_count = small = 0
    for _ in range(2000):
        s = random_seifert(rng, gmax=2, kmax=7, pmax=30)
        assert euler_invariant(s) == _euler_oracle(s), s
        n = normalize(s)
        assert n == _normalize_oracle(s), s
        assert euler_invariant(n) == _euler_oracle(n) == abs(_euler_oracle(s)), s
        reversed_count += n.orientation_reversed
        small += any(abs(r) < 1 for r in s.fibers)
    assert reversed_count > 500 and small > 500


def test_spaces_carry_eps_lcm_and_weights():
    from tests.test_homology import random_seifert

    rng = random.Random(1810)
    raw = [random_seifert(rng, gmax=2, kmax=7, pmax=30) for _ in range(1000)]
    standard = [normalize(s) for s in raw] + oracle_corpus()
    for s in raw + standard:
        assert s.eps == euler_invariant(s) == _euler_oracle(s), s
    for s in standard:
        assert s.lcm == math.lcm(*s.multiplicities), s
        assert len(s.weights) == s.fiber_count, s
        assert all(F(w, s.lcm) == 1 / r for w, r in zip(s.weights, s.fibers)), s
    assert std(0, 0).lcm == 1 and std(0, 0).weights == ()
    # eps is derived: it takes no part in ==, hash or repr
    for make, args in ((std, (0, 2, 2, F(3, 2), F(5, 4))), (sfs, (1, 1, -3, F(2, 7)))):
        s, twin = make(*args), make(*args)
        object.__setattr__(twin, "eps", F(7))
        assert s == twin and hash(s) == hash(twin)
    assert repr(std(0, 2, 2, F(3, 2), F(5, 4))) == (
        "StandardForm(genus=0, central=2, fibers=(Fraction(2, 1), Fraction(3, 2), "
        "Fraction(5, 4)), orientation_reversed=False)"
    )
    assert repr(sfs(0, 1, -3)) == "SeifertData(genus=0, central=1, fibers=(Fraction(-3, 1),))"


def test_euler_invariant_examples():
    assert euler_invariant(sfs(0, 2, 2, F(3, 2), F(5, 4))) == F(1, 30)
    assert euler_invariant(sfs(0, 0)) == 0
    assert euler_invariant(sfs(0, 0, 3, -3, 2)) == F(-1, 2)


def test_normalize_examples():
    s = normalize(sfs(0, 0, -3, 3, -3))
    assert (s.central, sorted(s.fibers)) == (2, [F(3, 2), F(3, 2), F(3)])
    assert not s.orientation_reversed

    t = std(1, 1, 2)
    assert normalize(t.as_seifert_data()) == t

    u = normalize(sfs(0, 0, 3, -3, 5))
    assert (u.central, sorted(u.fibers)) == (2, [F(5, 4), F(3, 2), F(3)])
    assert u.orientation_reversed
    assert euler_invariant(u) == F(1, 5)


def test_normalize_drops_regular_fibers():
    s = normalize(sfs(0, 1, F(1, 3), 2))
    # fiber 1/3 has integer reciprocal 3, folds into the central weight
    assert s.fibers == (F(2),)
    assert euler_invariant(s) == abs(euler_invariant(sfs(0, 1, F(1, 3), 2)))


@given(raw_st)
@settings(max_examples=200)
def test_normalize_standard_and_eps(s):
    n = normalize(s)
    assert all(r > 1 for r in n.fibers)
    eps = euler_invariant(n)
    assert eps >= 0
    assert eps == abs(euler_invariant(s))


@given(raw_st)
@settings(max_examples=100)
def test_normalize_idempotent(s):
    n = normalize(s)
    again = normalize(n.as_seifert_data())
    assert (again.genus, again.central, again.fibers) == (n.genus, n.central, n.fibers)
    assert not again.orientation_reversed


@given(raw_st)
@settings(max_examples=60)
def test_normalize_preserves_h1(s):
    assert h1_oracle(normalize(s)) == h1_oracle(s)


def test_expand_examples():
    s = expand(std(1, 1, F(3, 2)), 1)
    assert (s.central, s.fibers) == (2, (F(3, 2), F(3), F(3, 2)))

    t = expand(std(1, 1, 2, F(5, 2)), 1)
    assert (t.central, t.fibers) == (2, (F(2), F(5, 2), F(2), F(2)))
    assert euler_invariant(t) == F(1, 10)

    with pytest.raises(IndexError):
        expand(std(0, 1, 2), 2)


@st.composite
def standard_forms(draw, max_fibers=6, max_p=12):
    k = draw(st.integers(min_value=1, max_value=max_fibers))
    fibers = []
    for _ in range(k):
        p = draw(st.integers(min_value=2, max_value=max_p))
        q = draw(st.integers(min_value=1, max_value=p - 1))
        fibers.append(F(p, q))
    beta_sum = sum((1 / r for r in fibers), F(0))
    ceil_beta = -(-beta_sum.numerator // beta_sum.denominator)
    e = draw(st.integers(min_value=0, max_value=3)) + ceil_beta
    genus = draw(st.integers(min_value=0, max_value=2))
    return StandardForm(genus, e, tuple(fibers))


@given(standard_forms(), st.data())
@settings(max_examples=150)
def test_expand_preserves_eps_and_contracts_back(s, data):
    j = data.draw(st.integers(min_value=1, max_value=s.fiber_count))
    big = expand(s, j)
    assert euler_invariant(big) == euler_invariant(s)
    keys = [c.canonical_key() for _, c in find_contractions(big)]
    assert s.canonical_key() in keys


def test_find_contractions_examples():
    cs = find_contractions(std(1, 2, F(3, 2), 3, F(3, 2)))
    assert any(c.canonical_key() == std(1, 1, F(3, 2)).canonical_key() for _, c in cs)

    assert find_contractions(std(1, 1, 2, F(5, 2))) == []

    cs2 = find_contractions(std(1, 2, 2, 2, 2, 2))
    assert [c.canonical_key() for _, c in cs2] == [std(1, 1, 2, 2).canonical_key()]


def _pair_scan_contractions(s):
    """Reference: find_contractions as the scan over all fiber index pairs."""
    out = []
    seen = set()
    k = s.fiber_count
    for a in range(k):
        for b in range(a + 1, k):
            if complement(s.fibers[a]) != s.fibers[b]:
                continue
            rest = [s.fibers[i] for i in range(k) if i != a and i != b]
            j = next(
                (i + 1 for i, r in enumerate(rest) if r == s.fibers[a] or r == s.fibers[b]),
                None,
            )
            if j is None:
                continue
            contracted = StandardForm(s.genus, s.central - 1, tuple(rest), s.orientation_reversed)
            key = (contracted.canonical_key(), tuple(sorted((s.fibers[a], s.fibers[b]))))
            if key in seen:
                continue
            seen.add(key)
            out.append((j, contracted))
    out.sort(key=lambda item: (item[1].canonical_key(), item[0]))
    return out


def test_find_contractions_matches_pair_scan():
    rng = random.Random(1717)
    several = 0
    for s in oracle_corpus():
        s = StandardForm(rng.randint(0, 1), s.central, s.fibers, rng.random() < 0.5)
        got = find_contractions(s)
        assert got == _pair_scan_contractions(s), s
        several += len(got) > 1
    assert several > 20


def test_contraction_replays_through_expand():
    big = std(0, 2, 2, F(5, 2), 2, 2)
    for j, small in find_contractions(big):
        redone = expand(small, j)
        assert redone.canonical_key() == big.canonical_key()


def test_validation():
    with pytest.raises(ValueError):
        SeifertData(-1, 0, ())
    with pytest.raises(ValueError):
        SeifertData(0, 0, (F(0),))
    with pytest.raises(ValueError):
        StandardForm(0, 1, (F(1, 2),))
    with pytest.raises(ValueError):
        StandardForm(0, 0, (F(3, 2),))  # eps < 0


def test_round_trip_text():
    s = sfs(0, 2, F(3, 2), 3, F(3, 2))
    assert str(s) == "SFS(g=0; e=2; 3/2, 3, 3/2)"
