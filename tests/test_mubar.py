import math
import random
from fractions import Fraction

import pytest

from sfs4.homology import dim_h1_z2
from sfs4.mubar import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    mubar_embedding_conditions,
    partition_even_conditions,
    spin_report,
)
from sfs4.partitions import PartitionPair, is_partitionable
from sfs4.plumbing import build_plumbing, intersection_form
from sfs4.seifert import TraceStep, normalize
from tests.oracles import (
    arm_construction_subsets,
    betas,
    chain_characteristic_subsets,
    characteristic_subsets,
    labelled_partitions,
    mubar,
    std,
    values,
)
from tests.test_homology import random_seifert
from tests.test_partitions import oracle_corpus

F = Fraction


POINCARE = std(0, 2, 2, F(3, 2), F(5, 4))


def test_poincare_unique_empty_subset():
    g = build_plumbing(POINCARE)
    q = intersection_form(g)
    subs = characteristic_subsets(g, q)
    assert subs == [()]
    assert mubar(g, q, ()) == 8


def test_three_arm_subset_and_mubar_zero():
    s = std(0, 2, F(3, 2), 3, F(3, 2))
    g = build_plumbing(s)
    q = intersection_form(g)
    subs = characteristic_subsets(g, q)
    assert len(subs) == 1
    assert mubar(g, q, subs[0]) == 0
    # central, one leaf on each (2,2)-arm
    assert subs[0] == (0, 2, 5)


def test_s3_mubar_zero():
    s = std(0, 1, 2)
    g = build_plumbing(s)
    q = intersection_form(g)
    subs = characteristic_subsets(g, q)
    assert subs == [(1,)]
    assert mubar(g, q, subs[0]) == 0


def test_even_fiber_counts():
    s = std(0, 1, 4, 4, F(12, 5))
    rep = spin_report(s)
    assert len(rep.subsets) == 4
    assert rep.z2_dim == 2


def test_non_characteristic_rejected():
    g = build_plumbing(POINCARE)
    q = intersection_form(g)
    with pytest.raises(ValueError):
        mubar(g, q, (0,))


def test_count_law_random():
    rng = random.Random(606)
    checked = 0
    while checked < 200:
        s = normalize(random_seifert(rng, gmax=0, kmax=6, pmax=12))
        if s.fiber_count == 0 or s.eps_num <= 0:
            continue
        rep = spin_report(s)
        assert len(rep.subsets) == 2 ** dim_h1_z2(s), s
        checked += 1


def test_spin_report_values_match_dense_mubar():
    # the arm-wise report against the dense route: GF(2) elimination on the
    # intersection form, w^T Q w per subset, and the closed-form dimension
    rng = random.Random(5150)
    checked = multi = two_even = 0
    while checked < 1200:
        s = normalize(random_seifert(rng, gmax=0, kmax=7, pmax=14))
        if s.eps_num <= 0:
            continue
        g = build_plumbing(s)
        q = intersection_form(g)
        subsets = characteristic_subsets(g, q)
        rep = spin_report(s)
        assert rep.subsets == tuple(subsets), s
        assert rep.values == tuple(mubar(g, q, c) for c in subsets), s
        assert rep.z2_dim == dim_h1_z2(s) and len(subsets) == 1 << rep.z2_dim, s
        checked += 1
        multi += len(subsets) > 1
        two_even += sum(1 for p in s.multiplicities if p % 2 == 0) >= 2
    assert multi > 300 and two_even > 300


def test_chain_subsets_split_by_parity():
    # odd numerator: unique; even: two, split by the leading vertex
    from sfs4.rationals import neg_cfrac_expand

    for r in (F(3, 2), F(5, 4), F(7, 3), F(9, 5)):
        subs = chain_characteristic_subsets(neg_cfrac_expand((r.numerator, r.denominator)))
        assert len(subs) == 1
    for r in (F(2), F(4, 3), F(8, 5), F(12, 5)):
        subs = chain_characteristic_subsets(neg_cfrac_expand((r.numerator, r.denominator)))
        assert len(subs) == 2
        with_lead = [c for c in subs if c and c[0] == 0]
        assert len(with_lead) == 1


def test_arm_construction_matches_solver():
    rng = random.Random(4242)
    checked = 0
    while checked < 60:
        s = normalize(random_seifert(rng, gmax=0, kmax=5, pmax=10))
        if s.fiber_count == 0 or s.eps_num <= 0:
            continue
        if all(p % 2 for p in s.multiplicities):
            continue
        g = build_plumbing(s)
        assert arm_construction_subsets(g) == characteristic_subsets(g), s
        checked += 1


def test_arm_restrictions_in_even_multiplicity_context():
    # when some multiplicity is even no subset contains the central vertex:
    # odd arms restrict to their unique chain subset; even arms realize both
    # chain subsets exactly when there are >= 2 even arms, else the one of
    # matching parity
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        s = normalize(random_seifert(rng, gmax=0, kmax=4, pmax=9))
        if s.fiber_count == 0 or s.eps_num <= 0:
            continue
        if all(p % 2 for p in s.multiplicities):
            continue
        g = build_plumbing(s)
        subs = characteristic_subsets(g)
        assert all(0 not in c for c in subs)
        starts = g.arm_starts
        n_even = sum(1 for p in s.multiplicities if p % 2 == 0)
        for arm_i, (start, arm) in enumerate(zip(starts, g.arms)):
            restrictions = {
                tuple(v - start for v in c if start <= v < start + len(arm)) for c in subs
            }
            chain_subs = set(chain_characteristic_subsets(arm))
            p = g.arm_fractions()[arm_i][0]
            if p % 2:
                assert restrictions == chain_subs and len(restrictions) == 1
            elif n_even >= 2:
                assert restrictions == chain_subs and len(restrictions) == 2
            else:
                assert len(restrictions) == 1 and restrictions <= chain_subs
        checked += 1


def test_all_odd_multiplicity_central_vertex_possible():
    # all-odd multiplicities with even |H1|: two spin structures, and the
    # chain restriction law does not apply (a subset may contain the center)
    s = std(0, 3, F(9, 7))
    g = build_plumbing(s)
    subs = characteristic_subsets(g)
    assert len(subs) == 2
    assert any(0 in c for c in subs)


def test_conditions_z2_bound():
    # all multiplicities even, e too small for the number of even fibers
    s = std(0, 1, 6, 6, 6, 6, 6)  # eps = 1/6, tor H1 = (Z/6)^4, dim = 4 > 2e = 2
    rep = mubar_embedding_conditions(s)
    assert rep[0] == TraceStep("z2_cohomology_bound", FAIL, "dim = 4 > 2e = 2")
    assert any(c.result == FAIL for c in rep)

    t = std(0, 4, 2, 2, 2, 2, 2, 2, 2)  # k = 7, eps = 1/2, dim = 6 <= 8
    rep2 = mubar_embedding_conditions(t)
    assert rep2[0].result == PASS


def test_conditions_spin_square():
    # two even multiplicities: tor H1 = Z/36 is no direct double, dim = 1 is
    # odd, and 2 spin structures is not a perfect square: outside the contract
    s = std(0, 3, 2, 2, 3, F(3, 2))
    with pytest.raises(ValueError, match="is odd"):
        mubar_embedding_conditions(s)


def test_conditions_mubar_zero_count_poincare():
    names = {c.test: c.result for c in mubar_embedding_conditions(POINCARE)}
    # unique spin structure has mu-bar 8 != 0
    assert names["mubar_zero_count"] == FAIL


def test_conditions_ceiling_bound_product_class():
    s = std(0, 2, 2, F(5, 2), 10, F(10, 9))
    assert is_partitionable(s).is_witness
    # the pair containing the class {2, 5/2, 10} violates the ceiling bound
    parts = labelled_partitions(s)
    assert ((1, 2, 3), (4,)) in parts
    pair = PartitionPair(((1, 2, 3), (4,)), ((1, 2), (3, 4)), (4,), (1, 2))
    names = {c.test: c.result for c in partition_even_conditions(s, pair.p1)}
    assert names["even_pair_ceiling_bound"] == FAIL
    assert names["size3_product_class"] == FAIL


def test_conditions_odd_product_not_applicable():
    s = std(0, 2, 3, F(5, 3), 15, F(15, 14))
    res = is_partitionable(s)
    assert res.is_witness
    # 15 = 3 * 5 is odd: the product-shape rule does not apply, nothing fails
    for part in (res.witness.p1, res.witness.p2):
        names = {c.test: c.result for c in partition_even_conditions(s, part)}
        assert names["size3_product_class"] == NOT_APPLICABLE
        assert names["even_pair_ceiling_bound"] == NOT_APPLICABLE
    assert not any(c.result == FAIL for c in mubar_embedding_conditions(s))


def test_conditions_parity_with_witness():
    s = std(0, 2, 2, F(5, 2), 2, 2)
    res = is_partitionable(s)
    assert res.is_witness
    assert not any(c.result == FAIL for c in mubar_embedding_conditions(s))
    for part in (res.witness.p1, res.witness.p2):
        assert not any(c.result == FAIL for c in partition_even_conditions(s, part)), part


def _partition_even_conditions_reference(s, partition):
    """Reference: the rules written partition by partition, as first stated."""
    out = []
    rs, recips = values(s), betas(s)
    evens_per_class = {
        tuple(c): [i for i in c if rs[i - 1].numerator % 2 == 0] for c in partition
    }
    counts = {c: len(ev) for c, ev in evens_per_class.items()}
    odd_classes = [c for c, n in counts.items() if n % 2 == 1]
    parity_ok = (
        len(odd_classes) == 1
        and counts[odd_classes[0]] in (1, 3)
        and all(n in (0, 2) for c, n in counts.items() if c != odd_classes[0])
    )
    if parity_ok:
        out.append(TraceStep("even_fiber_class_parity", PASS))
    else:
        out.append(TraceStep(
            "even_fiber_class_parity",
            FAIL,
            f"need one class with 1 or 3 even multiplicities and 0/2 elsewhere; got {counts}",
        ))
    checked = False
    ceiling = TraceStep(
        "even_pair_ceiling_bound", NOT_APPLICABLE,
        "no complementary class with exactly two even members",
    )
    for c in partition:
        ev = evens_per_class[tuple(c)]
        if sum(recips[i - 1] for i in c) != 1 or len(ev) != 2:
            continue
        checked = True
        for x in ev:
            r = rs[x - 1]
            bound = 1 + sum(rs[i - 1].numerator - 1 for i in c if i != x)
            lhs = -(-r.numerator // r.denominator)
            if lhs > bound:
                ceiling = TraceStep(
                    "even_pair_ceiling_bound", FAIL, f"class {c}: ceil({r}) = {lhs} > {bound}"
                )
                break
        if ceiling.result == FAIL:
            break
    if checked and ceiling.result == NOT_APPLICABLE:
        ceiling = TraceStep("even_pair_ceiling_bound", PASS)
    out.append(ceiling)
    prod_rule = TraceStep(
        "size3_product_class", NOT_APPLICABLE,
        "no size-3 class of product shape with even product",
    )
    for c in partition:
        if len(c) != 3 or sum(recips[i - 1] for i in c) != 1:
            continue
        top, u, v = sorted((rs[i - 1] for i in c), reverse=True)
        if top.denominator == 1 and top.numerator == u.numerator * v.numerator:
            if top.numerator % 2 == 0:
                prod_rule = TraceStep(
                    "size3_product_class",
                    FAIL,
                    f"complementary class {c} has shape (u, v, uv) with uv = {top} even",
                )
                break
    out.append(prod_rule)
    return out


def test_partition_even_conditions_match_reference():
    rng = random.Random(5150)
    statuses = set()
    for s in oracle_corpus() + [std(0, 2, 2, F(5, 2), 10, F(10, 9))]:
        if all(p % 2 for p in s.multiplicities):
            continue
        parts = labelled_partitions(s)
        for part in rng.sample(parts, min(len(parts), 60)):
            got = partition_even_conditions(s, part)
            assert got == _partition_even_conditions_reference(s, part), (s, part)
            statuses.update((c.test, c.result) for c in got)
    assert statuses == {
        (name, status)
        for name in ("even_fiber_class_parity", "even_pair_ceiling_bound")
        for status in (PASS, FAIL)
    } | {
        ("even_pair_ceiling_bound", NOT_APPLICABLE),
        ("size3_product_class", NOT_APPLICABLE),
        ("size3_product_class", FAIL),
    }


def test_spin_counts_match_the_listing():
    # the DP that mubar_embedding_conditions runs against the full listing;
    # every eighth space has 10-13 copies of one or two fibers, so the DP
    # joins many equal arms one by one
    from sfs4.mubar import spin_counts

    rng = random.Random(6060)

    def fiber():
        p = rng.randint(2, 12)
        return F(p, rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1]))

    checked = many_even = with_zeros = copies = 0
    while checked < 1200:
        if checked % 8 == 7:
            values = [fiber() for _ in range(rng.randint(1, 2))]
            fibers = [rng.choice(values) for _ in range(rng.randint(10, 13))]
        else:
            fibers = [fiber() for _ in range(rng.randint(1, 9))]
        central = math.floor(sum(1 / r for r in fibers)) + rng.randint(0, 2)
        if central <= sum(1 / r for r in fibers):
            continue
        s = std(0, central, *fibers)
        if dim_h1_z2(s) > 12:
            continue  # a listing of at most 2^12 subsets
        rep = spin_report(s)
        zeros = rep.values.count(0)
        assert spin_counts(s) == (len(rep.subsets), zeros), s
        checked += 1
        many_even += sum(p % 2 == 0 for p in s.multiplicities) >= 2
        with_zeros += zeros > 0
        copies += s.fiber_count >= 10
    assert many_even > 300 and with_zeros > 100 and copies == 150, (many_even, with_zeros, copies)


def test_spin_layer_is_linear_in_arm_length():
    # SFS(g=0; e=1; N/(N-1)) has one arm of N - 1 vertices of weight 2; at
    # 16 times the arm the count and the listing take about 16 times as long
    import time

    from sfs4.mubar import spin_counts

    def best(n):
        s = std(0, 1, F(n, n - 1))
        times = []
        for _ in range(3):
            start = time.process_time()
            spin_counts(s)
            spin_report(s)
            times.append(time.process_time() - start)
        return min(times)

    small, large = best(10001), best(160001)
    assert large < 32 * small, (small, large)


def test_equal_arms_are_solved_once(monkeypatch):
    # each distinct arm is solved once per central bit, by the listing and by
    # the count alike; equal arms share the solutions, shifted by their start
    import sfs4.mubar as m

    calls = []
    solve = m._arm_solutions
    monkeypatch.setattr(m, "_arm_solutions", lambda arm, x0: calls.append((arm, x0)) or solve(arm, x0))
    s = std(0, 4, F(4, 3), 2, F(3, 2), F(4, 3), 2, F(3, 2))  # arms (2, 2, 2), (2,), (2, 2), twice
    expected = sorted((arm, x0) for arm in ((2, 2, 2), (2,), (2, 2)) for x0 in (0, 1))
    rep = spin_report(s)
    assert sorted(calls) == expected
    calls.clear()
    assert m.spin_counts(s) == (len(rep.subsets), rep.values.count(0))
    assert sorted(calls) == expected
    g = build_plumbing(s)
    q = intersection_form(g)
    assert rep.subsets == tuple(characteristic_subsets(g, q))
    assert rep.values == tuple(mubar(g, q, c) for c in rep.subsets)
    assert len(rep.subsets) == 1 << rep.z2_dim == 8
