import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sfs4.homology import h1_oracle
from sfs4.seifert import (
    SeifertData,
    StandardForm,
    TraceStep,
    euler_invariant,
    expand,
    find_contractions,
    normalize,
)
from tests.oracles import betas, euler, seifert_data, sfs, std, values
from tests.test_partitions import oracle_corpus

F = Fraction


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

    e, recips = accumulate(s.central, betas(s))
    reversed_ = Fraction(e) - sum(recips, Fraction(0)) < 0
    if reversed_:
        e, recips = accumulate(-e, [-b for b in recips])
    return StandardForm(s.genus, e, tuple((b.denominator, b.numerator) for b in recips), reversed_)


def test_integer_arithmetic_matches_fraction_oracles():
    from tests.test_homology import random_seifert

    rng = random.Random(2718)
    reversed_count = small = 0
    for _ in range(2000):
        s = random_seifert(rng, gmax=2, kmax=7, pmax=30)
        assert Fraction(euler_invariant(s.central, s.fibers, s.lcm), s.lcm) == euler(s), s
        n = normalize(s)
        assert n == _normalize_oracle(s), s
        assert Fraction(n.eps_num, n.lcm) == euler(n) == abs(euler(s)), s
        reversed_count += n.orientation_reversed
        small += any(abs(r) < 1 for r in values(s))
    assert reversed_count > 500 and small > 500


def test_spaces_carry_eps_lcm_and_weights():
    from tests.test_homology import random_seifert

    rng = random.Random(1810)
    raw = [random_seifert(rng, gmax=2, kmax=7, pmax=30) for _ in range(1000)]
    standard = [normalize(s) for s in raw] + oracle_corpus()
    for s in raw + standard:
        assert s.lcm == math.lcm(*(p for p, _ in s.fibers)), s
        assert s.eps_num == euler_invariant(s.central, s.fibers, s.lcm), s
        assert F(s.eps_num, s.lcm) == euler(s), s
        assert all(q != 0 and p >= 1 and math.gcd(p, q) == 1 for p, q in s.fibers), s
    for s in standard:
        assert len(s.weights) == s.fiber_count, s
        assert all(F(w, s.lcm) == b for w, b in zip(s.weights, betas(s))), s
    assert std(0, 0).lcm == 1 and std(0, 0).weights == ()
    # eps and L are derived: they take no part in ==, hash or repr
    for make, args in ((std, (0, 2, 2, F(3, 2), F(5, 4))), (sfs, (1, 1, -3, F(2, 7)))):
        s, twin = make(*args), make(*args)
        object.__setattr__(twin, "eps_num", 7)
        object.__setattr__(twin, "lcm", 5)
        assert s == twin and hash(s) == hash(twin)
    assert repr(std(0, 2, 2, F(3, 2), F(5, 4))) == (
        "StandardForm(genus=0, central=2, fibers=((2, 1), (3, 2), (5, 4)), "
        "orientation_reversed=False)"
    )
    assert repr(sfs(0, 1, -3)) == "SeifertData(genus=0, central=1, fibers=((3, -1),))"
    # Fraction, int and pair fibers are stored alike, in lowest terms
    assert sfs(0, 1, F(-6, 4), 5).fibers == SeifertData(0, 1, ((6, -4), 5)).fibers == ((3, -2), (5, 1))


def test_euler_invariant_examples():
    s = sfs(0, 2, 2, F(3, 2), F(5, 4))
    assert (s.eps_num, s.lcm) == (1, 30)  # eps = 1/30
    assert euler_invariant(2, s.fibers, 30) == 1 and euler_invariant(2, s.fibers, 60) == 2
    assert (sfs(0, 0).eps_num, sfs(0, 0).lcm) == (0, 1)
    t = sfs(0, 0, 3, -3, 2)
    assert F(t.eps_num, t.lcm) == F(-1, 2)


def test_normalize_examples():
    s = normalize(sfs(0, 0, -3, 3, -3))
    assert (s.central, sorted(values(s))) == (2, [F(3, 2), F(3, 2), F(3)])
    assert not s.orientation_reversed

    t = std(1, 1, 2)
    assert normalize(seifert_data(t)) == t

    u = normalize(sfs(0, 0, 3, -3, 5))
    assert (u.central, sorted(values(u))) == (2, [F(5, 4), F(3, 2), F(3)])
    assert u.orientation_reversed
    assert F(u.eps_num, u.lcm) == euler(u) == F(1, 5)


def test_normalize_drops_regular_fibers():
    s = normalize(sfs(0, 1, F(1, 3), 2))
    # fiber 1/3 has integer reciprocal 3, folds into the central weight
    assert s.fibers == ((2, 1),)
    assert euler(s) == abs(euler(sfs(0, 1, F(1, 3), 2)))


@given(raw_st)
@settings(max_examples=200)
def test_normalize_standard_and_eps(s):
    n = normalize(s)
    assert all(r > 1 for r in values(n))
    eps = euler(n)
    assert eps >= 0
    assert eps == abs(euler(s)) == F(n.eps_num, n.lcm)


@given(raw_st)
@settings(max_examples=100)
def test_normalize_idempotent(s):
    n = normalize(s)
    again = normalize(seifert_data(n))
    assert (again.genus, again.central, again.fibers) == (n.genus, n.central, n.fibers)
    assert not again.orientation_reversed


@given(raw_st)
@settings(max_examples=60)
def test_normalize_preserves_h1(s):
    assert h1_oracle(normalize(s)) == h1_oracle(s)


def test_expand_examples():
    s = expand(std(1, 1, F(3, 2)), 1)
    assert (s.central, values(s)) == (2, (F(3, 2), F(3), F(3, 2)))

    t = expand(std(1, 1, 2, F(5, 2)), 1)
    assert (t.central, values(t)) == (2, (F(2), F(5, 2), F(2), F(2)))
    assert euler(t) == F(t.eps_num, t.lcm) == F(1, 10)

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
    return std(genus, e, *fibers)


@given(standard_forms(), st.data())
@settings(max_examples=150)
def test_expand_preserves_eps_and_contracts_back(s, data):
    j = data.draw(st.integers(min_value=1, max_value=s.fiber_count))
    big = expand(s, j)
    assert euler(big) == euler(s)
    assert (big.eps_num, big.lcm) == (s.eps_num, s.lcm)
    contractions = find_contractions(big)
    for _, c in contractions:
        assert euler(c) == euler(s) and (c.eps_num, c.lcm) == (s.eps_num, s.lcm)
    assert s.canonical_key() in [c.canonical_key() for _, c in contractions]


def test_find_contractions_examples():
    cs = find_contractions(std(1, 2, F(3, 2), 3, F(3, 2)))
    assert any(c.canonical_key() == std(1, 1, F(3, 2)).canonical_key() for _, c in cs)

    assert find_contractions(std(1, 1, 2, F(5, 2))) == []

    cs2 = find_contractions(std(1, 2, 2, 2, 2, 2))
    assert [c.canonical_key() for _, c in cs2] == [std(1, 1, 2, 2).canonical_key()]


def _pair_scan_contractions(s):
    """Reference: find_contractions as the scan over all fiber index pairs.

    Fibers are compared as ``Fraction``s, and the results are sorted by the
    contracted fiber values in decreasing order, then by j.
    """
    out = []
    seen = set()
    k = s.fiber_count
    rs = values(s)
    for a in range(k):
        for b in range(a + 1, k):
            if 1 / rs[a] + 1 / rs[b] != 1:
                continue
            kept = [i for i in range(k) if i != a and i != b]
            rest = [rs[i] for i in kept]
            j = next(
                (i + 1 for i, r in enumerate(rest) if r == rs[a] or r == rs[b]),
                None,
            )
            if j is None:
                continue
            contracted = StandardForm(
                s.genus, s.central - 1, tuple(s.fibers[i] for i in kept), s.orientation_reversed
            )
            key = (tuple(sorted(rest, reverse=True)), tuple(sorted((rs[a], rs[b]))))
            if key in seen:
                continue
            seen.add(key)
            out.append((key[0], j, contracted))
    out.sort(key=lambda item: item[:2])
    return [(j, contracted) for _, j, contracted in out]


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
    with pytest.raises(ValueError, match=r"got \(1, 2\)"):
        StandardForm(0, 1, ((1, 2),))
    with pytest.raises(ValueError, match="eps >= 0"):
        StandardForm(0, 0, ((3, 2),))
    with pytest.raises(ValueError, match="genus"):
        StandardForm(-1, 1, ((3, 2),))
    # non-integers are refused, not truncated or carried into the invariants
    for args, name in [((0.5, 1, ((3, 2),)), "genus must be an integer, got 0.5"),
                       ((0, 1.5, ((3, 1),)), "central weight must be an integer, got 1.5"),
                       ((0, 1, [2.5]), "fiber entry must be an integer, got 2.5"),
                       ((0, 1, [(3, 2.0)]), "fiber entry must be an integer, got 2.0"),
                       ((0, 1, [[3, 2]]), r"fiber entry must be an integer, got \[3, 2\]"),
                       # a tuple of the wrong length names the entry too
                       ((0, 1, [(3, 2, 1)]), r"fiber entry must be a pair \(p, q\), got \(3, 2, 1\)"),
                       ((0, 1, [(3,)]), r"fiber entry must be a pair \(p, q\), got \(3,\)"),
                       ((0, 1, [()]), r"fiber entry must be a pair \(p, q\), got \(\)")]:
        with pytest.raises(ValueError, match=name):
            SeifertData(*args)
    with pytest.raises(ValueError, match="central weight must be an integer"):
        StandardForm(0, 1.0, ((3, 2),))
    # eps is derived from the fibers, never supplied
    for make in (SeifertData, StandardForm):
        with pytest.raises(TypeError):
            make(0, 0, ((3, 2),), eps_num=1)
    assert StandardForm(0, 1, ((3, 2),)).eps_num == 1  # eps = 1/3


def test_standard_form_takes_only_standard_pairs():
    # int pairs (p, q) with p > q >= 1 and gcd(p, q) = 1, taken as they are;
    # ``SeifertData`` is the one boundary that reduces any other fiber
    for fiber in (F(3, 2), 3, (6, 4), (2, 3), (3, 0), [3, 2], (3, 2, 1)):
        with pytest.raises(ValueError, match=re.escape(f"got {fiber!r}")):
            StandardForm(0, 2, ((5, 4), fiber))
    assert SeifertData(0, 2, (F(3, 2), 3, (6, 4))).fibers == ((3, 2), (3, 1), (3, 2))
    with pytest.raises(ValueError):
        SeifertData(0, 2, ((3, 0),))
    s = StandardForm(0, 2, [(3, 2), (3, 1)])
    assert s.fibers == ((3, 2), (3, 1)) and s == std(0, 2, F(3, 2), 3)


def _count_fiber_reductions(run):
    """Run ``run()``; return the ``fiber_pq`` calls by calling function, and
    the fibers handed to ``SeifertData`` and the ``StandardForm``s built."""
    from sfs4 import seifert

    calls, counts = {}, {"SeifertData fibers": 0, "StandardForms": 0}
    reduce_fiber = seifert.fiber_pq
    make_data, make_standard = SeifertData.__init__, StandardForm.__init__

    def counted_reduce(r):
        caller = sys._getframe(1).f_code.co_qualname
        calls[caller] = calls.get(caller, 0) + 1
        return reduce_fiber(r)

    def counted_data(self, genus, central, fibers):
        fibers = tuple(fibers)
        counts["SeifertData fibers"] += len(fibers)
        make_data(self, genus, central, fibers)

    def counted_standard(self, *args):
        counts["StandardForms"] += 1
        make_standard(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seifert, "fiber_pq", counted_reduce)
        mp.setattr(SeifertData, "__init__", counted_data)
        mp.setattr(StandardForm, "__init__", counted_standard)
        run()
    return calls, counts


def test_each_fiber_is_reduced_once_over_the_bench_pools():
    # one pass of the deep_chain and pretzel_census pools: fiber_pq runs once
    # per fiber handed to SeifertData, and never from StandardForm
    from sfs4.classify import classify
    from sfs4.cli import parse_input
    from sfs4.pretzel import doubly_slice_classify

    data = Path(__file__).resolve().parent.parent / "bench" / "data"
    for pool, run in (("deep_chain", classify), ("pretzel_census", doubly_slice_classify)):
        lines = [row.split("\t")[1] for row in (data / f"{pool}.tsv").read_text().splitlines()]
        calls, counts = _count_fiber_reductions(lambda: [run(parse_input(line)) for line in lines])
        assert calls == {"SeifertData.__init__": counts["SeifertData fibers"]}, (pool, calls)
        assert counts["SeifertData fibers"] > len(lines), (pool, counts)
        assert counts["StandardForms"] >= len(lines), (pool, counts)


def test_value_types_compare_by_value_and_stay_frozen():
    # value types (``Frozen``) and result records (``NamedTuple``) compare
    # and hash by value and stay immutable
    from sfs4.classify import Obstruction
    from sfs4.homology import AbelianGroup
    from sfs4.lattice import LatticeEmbedding
    from sfs4.partitions import _classes
    from sfs4.plumbing import IntersectionForm, PlumbingGraph
    from sfs4.pretzel import DoublySliceVerdict, OddPretzel

    makers = [
        lambda: SeifertData(0, 1, ((3, -1), F(5, 2))),
        lambda: StandardForm(0, 2, ((3, 2), (3, 1), (3, 2))),
        lambda: AbelianGroup(1, [2, 4]),
        lambda: PlumbingGraph(2, [[2], [2, 2]], 1),
        lambda: IntersectionForm([[2, -1], [-1, 2]]),
        lambda: LatticeEmbedding([[1, 0], [1, 1]]),
        lambda: OddPretzel([3, -3, 3]),
        lambda: TraceStep("h1", "info", "Z/2"),
        lambda: Obstruction("unpaired_fibers", "detail"),
        lambda: DoublySliceVerdict("NOT_DOUBLY_SLICE", 1, detail="mu-bar = 1"),
    ]
    for make in makers:
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b), a
        assert repr(a) == repr(b) and repr(a).startswith(type(a).__name__ + "("), a
        name = type(a)._fields[0]
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == getattr(b, name)
    assert repr(TraceStep("h1", "info")) == "TraceStep(test='h1', result='info', detail='')"
    # values of different types differ, even with equal fields
    assert SeifertData(0, 2, ((3, 2),)) != StandardForm(0, 2, ((3, 2),))
    assert LatticeEmbedding([[2]]) != IntersectionForm([[2]])
    assert StandardForm(0, 2, ((3, 2),)) != StandardForm(1, 2, ((3, 2),))
    # the derived values are cached or set once, and take no part in ==, hash or repr
    a, b = makers[1](), makers[1]()
    assert a.weights == (2, 1, 2) and "weights" in vars(a) and "weights" not in vars(b)
    assert a == b and hash(a) == hash(b)
    for s in (a, makers[0]()):
        assert s.eps_num and s.lcm and "eps_num" not in repr(s) and "lcm" not in repr(s)
    # equal forms share the partition search's class table
    _classes.cache_clear()
    assert _classes(a) is _classes(b)
    assert _classes.cache_info().hits == 1


def test_round_trip_text():
    s = sfs(0, 2, F(3, 2), 3, F(3, 2))
    assert str(s) == "SFS(g=0; e=2; 3/2, 3, 3/2)"
