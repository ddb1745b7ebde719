import math
import random
import time
from fractions import Fraction

import pytest

from sfs4.homology import (
    AbelianGroup,
    cokernel,
    dim_h1_z2,
    h1_formula,
    h1_oracle,
    is_direct_double,
    presentation_matrix,
)
from sfs4.intmat import smith_diagonal
from sfs4.partitions import _sum_law
from sfs4.seifert import SeifertData, normalize
from tests.oracles import (
    CLASS_COUNT_MISMATCH,
    DEFICIT_MISMATCH,
    STRICT_CLASS_COUNT,
    fraction_partition_sum_law,
    from_cyclic_orders,
    p_primary,
    sfs,
    std,
)

F = Fraction


def random_seifert(rng, gmax=2, kmax=6, pmax=20):
    g = rng.randrange(gmax + 1)
    e = rng.randint(-5, 5)
    k = rng.randrange(kmax + 1)
    fibers = []
    for _ in range(k):
        p = rng.randint(1, pmax)
        q = rng.choice([q for q in range(-pmax, pmax + 1) if q != 0])
        fibers.append(F(p, q))
    return SeifertData(g, e, tuple(fibers))


def test_group_validation_and_str():
    g = AbelianGroup(1, (2, 4))
    assert str(g) == "Z + Z/2 + Z/4"
    assert str(AbelianGroup(0, ())) == "0"
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))


def test_from_cyclic_orders():
    assert from_cyclic_orders([6, 4]) == AbelianGroup(0, (2, 12))
    assert from_cyclic_orders([10, 10, 10]) == AbelianGroup(0, (10, 10, 10))
    assert from_cyclic_orders([0, 1, 5]) == AbelianGroup(1, (5,))


def test_smith_diagonal_basics():
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert smith_diagonal([[0, 0], [0, 0]]) == [0, 0]
    assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]


def test_poincare_sphere_trivial_h1():
    s = sfs(0, 2, 2, F(3, 2), F(5, 4))
    assert h1_formula(s) == h1_oracle(s) == AbelianGroup(0, ())


def test_known_groups():
    assert h1_oracle(sfs(0, 0, 3, -3, 5)) == AbelianGroup(0, (9,))
    assert h1_formula(sfs(0, 0, 3, -3, 5)) == AbelianGroup(0, (9,))
    assert h1_oracle(sfs(0, 2, F(3, 2), 3, F(3, 2))) == AbelianGroup(0, (3, 3))
    assert h1_formula(sfs(0, 1, 4, 4, F(12, 5))) == AbelianGroup(0, (4, 4))
    # genus g, no fibers, e = 0 -> Z^(2g+1)
    assert h1_oracle(sfs(1, 0)) == AbelianGroup(3, ())
    assert h1_formula(sfs(1, 0)) == AbelianGroup(3, ())


def test_presentation_matrix_shape():
    m = presentation_matrix(sfs(1, 2, 2, F(3, 2)))
    assert len(m) == 2 * 1 + 2 + 1
    assert m[2][2] == 2 and m[2][3] == 1 and m[2][4] == 1
    assert m[3][2] == 1 and m[3][3] == 2
    assert m[4][2] == 2 and m[4][4] == 3


def test_formula_oracle_agreement_seeded():
    rng = random.Random(40504)
    for _ in range(500):
        s = random_seifert(rng)
        assert h1_formula(s) == h1_oracle(s), s


def test_cokernel_pair_block():
    m = [[1, 0, 0, 0], [0, 1, 0, 0]]
    assert cokernel(m) == AbelianGroup(0, ())


def test_p_primary_examples():
    s = normalize(sfs(0, 0, 3, -3, 5))
    assert p_primary(s, 3) == (0, 2)
    assert p_primary(s, 7) == (0, 0)
    t = std(0, 1, 4, 4, F(12, 5))
    assert p_primary(t, 2) == (2, 2)


def test_p_primary_assembles_torsion():
    rng = random.Random(11)
    for _ in range(120):
        s = random_seifert(rng, kmax=5, pmax=12)
        if s.eps_num == 0:
            continue
        full = h1_formula(s)
        primes = set()
        for d in full.invariant_factors:
            n = d
            f = 2
            while f * f <= n:
                if n % f == 0:
                    primes.add(f)
                    while n % f == 0:
                        n //= f
                f += 1
            if n > 1:
                primes.add(n)
        orders = []
        for p in primes:
            orders.extend(p**v for v in p_primary(s, p) if v)
        assert from_cyclic_orders(orders) == AbelianGroup(0, full.invariant_factors)


def test_dj_shortcut_matches_subset_iteration():
    # the gcd/lcm chain against both factorizing routes it replaced, and the
    # chain's own shape: it divides up and keeps the product
    from sfs4.homology import _diagonal_chain
    from tests.oracles import _dj_by_subsets, _dj_by_valuations

    rng = random.Random(141)
    for n in range(300):
        k = rng.randint(2, 8)
        top = 30 if n < 150 else 10**7
        ps = [rng.randint(1, top) for _ in range(k)]
        if n % 3 == 0:  # shared prime powers, so valuations tie and cross
            ps = [p * rng.choice([1, 2, 4, 3, 9, 12]) for p in ps]
        c = _diagonal_chain(ps)
        assert all(c[i + 1] % c[i] == 0 for i in range(k - 1)), ps
        assert math.prod(c) == math.prod(ps), ps
        for j in range(3, k + 1):
            dj = math.prod(c[: j - 2])
            assert dj == _dj_by_subsets(ps, j) == _dj_by_valuations(ps, j), (ps, j)


def test_formula_oracle_agreement_large_k():
    # k = 13..16 was the per-prime valuation route of the old formula
    rng = random.Random(142)
    for _ in range(60):
        k = rng.randint(13, 16)
        fibers = []
        for _ in range(k):
            p = rng.randint(2, 12)
            fibers.append(F(p, rng.choice([q for q in range(-p, p + 1) if q != 0])))
        s = SeifertData(0, rng.randint(1, 9), tuple(fibers))
        assert h1_formula(s) == h1_oracle(s), s


def _coprime_fiber(rng, lo, hi):
    p = rng.randrange(lo, hi)
    while True:
        q = rng.randrange(1, p) * rng.choice([1, -1])
        if math.gcd(p, q) == 1:
            return F(p, q)


def test_formula_oracle_agreement_large_multiplicities():
    # 6-7 digit multiplicities: the orders are far beyond trial division
    rng = random.Random(143)
    genus_one = 0
    for n in range(320):
        k = 1 + n % 6
        fibers = tuple(_coprime_fiber(rng, 10**5, 10**7) for _ in range(k))
        s = SeifertData(n % 2, rng.randint(-3, 3), fibers)
        assert h1_formula(s) == h1_oracle(s), s
        genus_one += s.genus == 1
    assert genus_one >= 150


def test_routes_need_no_factorization(monkeypatch):
    # the two routes share nothing but AbelianGroup: with the factorizing
    # oracles made to raise, formula, oracle and cokernel still agree
    import sys

    import tests.oracles

    def boom(*args, **kwargs):
        raise AssertionError("factorization reached")

    for name in ("_factorize", "from_cyclic_orders"):
        monkeypatch.setattr(tests.oracles, name, boom)
        for module_name, module in sys.modules.items():
            if module_name.split(".")[0] == "sfs4":
                assert not hasattr(module, name), (module_name, name)
    rng = random.Random(144)
    corpus = [random_seifert(rng) for _ in range(400)] + [
        sfs(0, 0, 2, -2),
        sfs(1, 1, 3, F(3, 2)),
        sfs(2, 2, 2, 2, 2, 2),
        sfs(0, 1, 4, F(4, 3), 5, F(5, -4), F(5, 3)),
    ]
    eps_zero = 0
    for s in corpus:
        assert h1_formula(s) == h1_oracle(s) == cokernel(presentation_matrix(s)), s
        eps_zero += s.eps_num == 0
    assert eps_zero >= 12


def random_eps_zero(rng, gmax=2, kmax=11, pmax=20):
    """Raw data with eps = 0: the last fiber closes the reciprocal sum to an integer e."""
    g = rng.randrange(gmax + 1)
    k = rng.randrange(kmax + 1)
    fibers = []
    for _ in range(k - 1):
        p = rng.randint(1, pmax)
        q = rng.choice([q for q in range(-pmax, pmax + 1) if q != 0])
        fibers.append(F(p, q))
    total = sum((1 / r for r in fibers), F(0))
    if k:
        last = 0
        while last == 0:
            last = rng.randint(-3, 3) - total % 1  # the last reciprocal
        fibers.append(1 / last)
        total += last
    return SeifertData(g, int(total), tuple(fibers))


def eps_zero_from_pairs(rng, gmax=2, pairs=5, pmax=12):
    """eps = 0 from complementary pairs {r, r/(r-1)} and opposite pairs {r, -r}."""
    fibers = []
    for _ in range(rng.randint(1, pairs)):
        p = rng.randint(2, pmax)
        q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
        r = F(p, q)
        fibers += [r, r / (r - 1)] if rng.random() < 0.5 else [r, -r]
    rng.shuffle(fibers)
    return SeifertData(rng.randrange(gmax + 1), int(sum(1 / r for r in fibers)), tuple(fibers))


def test_formula_oracle_agreement_eps_zero():
    rng = random.Random(1810)
    corpus = [random_eps_zero(rng) for _ in range(3000)]
    corpus += [eps_zero_from_pairs(rng) for _ in range(1000)]
    corpus += [normalize(s) for s in corpus[-200:]]
    seen_k = set()
    p_one = negative = 0
    for s in corpus:
        assert s.eps_num == 0, s
        assert h1_formula(s) == h1_oracle(s), s
        seen_k.add(s.fiber_count)
        p_one += any(p == 1 for p, _ in s.fibers)
        negative += any(q < 0 for _, q in s.fibers)
    assert seen_k >= set(range(12)) and p_one > 500 and negative > 1000


def test_formula_answers_eps_zero_without_the_oracle(monkeypatch):
    # the eps = 0 groups come from the divisor chain, not from Smith normal form
    import sfs4.homology

    rng = random.Random(4)
    corpus = [random_eps_zero(rng, kmax=6) for _ in range(200)] + [
        sfs(0, 0), sfs(2, 0), sfs(0, 1, 1), sfs(0, 2, 3, F(3, 2), 4, F(4, 3)),
        sfs(1, 0, 6, -6, 4, -4, 10, -10),
    ]
    expected = [h1_oracle(s) for s in corpus]

    def boom(*args, **kwargs):
        raise AssertionError("Smith normal form reached")

    for name in ("h1_oracle", "cokernel", "smith_diagonal"):
        monkeypatch.setattr(sfs4.homology, name, boom)
    assert [h1_formula(s) for s in corpus] == expected
    assert expected[-5:] == [
        AbelianGroup(1, ()), AbelianGroup(5, ()), AbelianGroup(1, ()), AbelianGroup(1, ()),
        AbelianGroup(3, (2, 2, 2, 2)),
    ]


def test_roadmap_hang_input_is_fast():
    # three 6-digit fibers once took seconds each in H1; the parent never
    # finished this space in 40 s
    from sfs4.classify import OBSTRUCTED, classify

    s = sfs(0, 3, F(489853, 285088), F(295927, 53464), F(358550, 300911), F(499253, 130722))
    start = time.monotonic()
    verdict = classify(s)
    elapsed = time.monotonic() - start
    assert verdict.tag == OBSTRUCTED
    assert elapsed < 2, f"took {elapsed:.2f}s"


def test_direct_double():
    assert is_direct_double(AbelianGroup(0, (4, 4)))
    assert not is_direct_double(AbelianGroup(0, (9,)))
    assert is_direct_double(AbelianGroup(0, ()))
    assert not is_direct_double(AbelianGroup(0, (2, 2, 2)))


def test_direct_double_bound_topological():
    # no direct double with eps > 0 may have e > k - 1 (random search)
    # k = 1 is genuinely exceptional: S2(1; p/(p-1)) is S^3 with e = k.
    rng = random.Random(7)
    found = 0
    for _ in range(400):
        s = normalize(random_seifert(rng, kmax=6, pmax=12))
        if s.eps_num <= 0 or s.fiber_count < 2:
            continue
        if is_direct_double(h1_formula(s)):
            found += 1
            assert s.central <= s.fiber_count - 1, s
    assert found > 0


def test_direct_double_forces_eps_one_over_lcm_and_even_z2_dim():
    # why is_partitionable tests no eps = 1/L and mubar_embedding_conditions
    # no square spin count: on the Smith route, every eps > 0 space with
    # direct-double torsion has eps_num = 1, and over S^2 an even number of
    # even invariant factors
    rng = random.Random(3232)
    doubles = spheres = 0
    for _ in range(4000):
        k = rng.randrange(9)
        ps = [rng.choice((2, 3, 4, 6, 8, 9, 12)) for _ in range(k)]
        fibers = [(p, rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])) for p in ps]
        s = normalize(SeifertData(rng.randrange(3), rng.randint(-4, 4), fibers))
        if s.eps_num <= 0:
            continue
        group = h1_oracle(s)
        if not is_direct_double(group):
            continue
        doubles += 1
        assert s.eps_num == 1, s
        if s.genus == 0:
            spheres += 1
            even = sum(1 for d in group.invariant_factors if d % 2 == 0)
            assert dim_h1_z2(s) == even and even % 2 == 0, s
    assert doubles > 100 and spheres > 30, (doubles, spheres)


def test_dim_h1_z2():
    assert dim_h1_z2(std(0, 1, 4, 4, F(12, 5))) == 2
    assert dim_h1_z2(std(0, 2, 2, F(3, 2), F(5, 4))) == 0  # |H1| = 1
    assert dim_h1_z2(std(0, 1, 2)) == 0
    assert dim_h1_z2(std(0, 2, 3, 3, F(3, 2))) == 1  # |H1| = 18, one even factor
    with pytest.raises(ValueError):
        dim_h1_z2(std(1, 1, 2))


def test_dim_h1_z2_matches_even_factor_count():
    rng = random.Random(23)
    checked = 0
    for _ in range(300):
        s = normalize(random_seifert(rng, gmax=0, kmax=6, pmax=14))
        if s.eps_num == 0:
            continue
        expected = sum(1 for d in h1_formula(s).invariant_factors if d % 2 == 0)
        assert dim_h1_z2(s) == expected, s
        checked += 1
    assert checked > 100


# The sum law of the partition obstruction, as ``sfs4.partitions._sum_law``
# checks it for ``PartitionPair.validate``; the oracle names the failure.


def test_partition_sum_law_pass():
    s = std(0, 2, F(3, 2), 3, F(3, 2))
    assert _sum_law(s, [{1}, {2, 3}]) == {1}  # the strict class
    assert fraction_partition_sum_law(s, [{1}, {2, 3}]).ok


def test_partition_sum_law_two_strict():
    s = std(0, 3, 2, F(3, 2), F(5, 4))
    with pytest.raises(AssertionError, match="weighs"):
        _sum_law(s, [{1}, {2}, {3}])
    assert fraction_partition_sum_law(s, [{1}, {2}, {3}]).failure == STRICT_CLASS_COUNT


def test_partition_sum_law_class_count():
    # e > k: any partition has fewer classes than e
    s = std(0, 4, 2, F(3, 2), F(5, 4))
    with pytest.raises(AssertionError, match="not e = 4"):
        _sum_law(s, [{1}, {2}, {3}])
    assert fraction_partition_sum_law(s, [{1}, {2}, {3}]).failure == CLASS_COUNT_MISMATCH


def test_partition_sum_law_deficit():
    s = std(0, 1, 5, F(7, 2))
    with pytest.raises(AssertionError, match="weighs"):
        _sum_law(s, [{1, 2}])
    assert fraction_partition_sum_law(s, [{1, 2}]).failure == DEFICIT_MISMATCH


def test_h1_expansion_law():
    # H1(expand(s, j)) = H1(s) + Z/p_j + Z/p_j
    from sfs4.seifert import expand

    rng = random.Random(99)
    for _ in range(80):
        s = normalize(random_seifert(rng, kmax=4, pmax=9))
        if s.eps_num == 0 or s.fiber_count == 0:
            continue
        j = rng.randint(1, s.fiber_count)
        p = s.fibers[j - 1][0]
        before = h1_formula(s)
        after = h1_formula(expand(s, j))
        merged = from_cyclic_orders(
            list(before.invariant_factors) + [p, p], free_rank=before.free_rank
        )
        assert after == merged, (s, j)
