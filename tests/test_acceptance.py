"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact arithmetic, so "tolerance" means equality; time limits
are asserted with generous margins against wall-clock.  Run with

    pytest tests/test_acceptance.py -s
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from sfs4.classify import EMBEDS, OBSTRUCTED, UNKNOWN, classify, replay_certificate
from sfs4.homology import h1_formula, h1_oracle, is_direct_double
from sfs4.lattice import embeddings_for, induced_partition, pair_surjective
from sfs4.mubar import spin_report
from sfs4.partitions import is_partitionable, match_theorem_families
from sfs4.plumbing import build_plumbing
from sfs4.pretzel import (
    OddPretzel,
    doubly_slice_classify,
    pretzel_mubar,
    pretzel_mubar_formula,
)
from sfs4.seifert import expand, normalize
from sfs4.homology import dim_h1_z2
from tests.oracles import characteristic_subsets, euler, from_cyclic_orders, seifert_data, sfs, std
from tests.test_homology import random_seifert

F = Fraction


def report(n, label):
    print(f"ACCEPTANCE {n}: PASS - {label}")


def test_criterion_1_homology_oracle_equivalence():
    rng = random.Random(20250101)
    start = time.monotonic()
    mismatches = 0
    for _ in range(500):
        s = random_seifert(rng, gmax=2, kmax=6, pmax=20)
        if h1_formula(s) != h1_oracle(s):
            mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 10, f"took {elapsed:.1f}s"
    report(1, f"h1 formula == SNF oracle on 500 seeded inputs in {elapsed:.1f}s")


def test_criterion_2_golden_verdicts():
    start = time.monotonic()
    v1 = classify(sfs(0, 0, -3, 3, -3))
    assert v1.tag == EMBEDS
    assert replay_certificate(v1.certificate, v1.standard_form)
    assert v1.certificate.base_fibers == ((3, 2),)

    v2 = classify(sfs(0, 2, 2, F(3, 2), F(5, 4)))
    assert v2.tag == OBSTRUCTED
    assert v2.obstruction.name == "not_partitionable"
    rep = spin_report(v2.standard_form)
    assert rep.values == (8,)  # unique spin structure, mu-bar 8

    v3 = classify(sfs(0, 1, 4, 4, F(12, 5)))
    assert v3.tag == EMBEDS
    assert v3.certificate.rule == "known_embedding_4_4_12_5"

    v4 = classify(sfs(0, 2, 3, F(5, 3), 15, F(15, 14)))
    assert v4.tag == UNKNOWN
    failed = [t for t in v4.trace if t.result == "fail" and t.test != "contraction"]
    assert not failed, failed

    elapsed = time.monotonic() - start
    assert elapsed < 20, f"took {elapsed:.1f}s (limit: 5s per case)"
    report(2, f"four golden verdicts exact, mu-bar(Poincare) = 8, in {elapsed:.1f}s")


def test_criterion_3_extremal_family_sweep():
    # forward: every family space is partitionable, contracts to the
    # one-fiber base and classifies EMBEDS
    for a in range(2, 7):
        for e in range(1, 5):
            s = std(0, e, F(a, a - 1), *[a, F(a, a - 1)] * (e - 1))
            assert is_partitionable(s).is_witness, s
            v = classify(seifert_data(s))
            assert v.tag == EMBEDS, s
            assert v.certificate.base_central == 1
            assert v.certificate.base_fibers == ((a, a - 1),)

    # converse: at e = (k+1)/2, partitionable <=> the family shape
    rng = random.Random(33)
    partitionable_seen = 0
    for _ in range(3000):
        k = rng.choice([1, 3, 5])
        e = (k + 1) // 2
        fibers = []
        for _ in range(k):
            p = rng.randint(2, 8)
            fibers.append(F(p, rng.randint(1, p - 1)))
        try:
            s = std(0, e, *fibers)
        except ValueError:
            continue
        if s.eps_num <= 0:
            continue
        fam = match_theorem_families(s)
        shape = fam is not None and fam.family == "half-plus"
        assert is_partitionable(s).is_witness == shape, s
        partitionable_seen += shape
    assert partitionable_seen > 2
    report(3, "extremal family sweep forward + converse over sampled corpus")


def test_criterion_4_half_k_recognition():
    v = classify(sfs(0, 2, 2, F(5, 2), 2, 2))
    fam = match_theorem_families(v.standard_form)
    assert fam is not None and fam.family == "half-pair"
    assert (fam.params["p"], fam.params["q"], fam.params["r"], fam.params["s"]) == (2, 1, 5, 2)
    assert v.tag == EMBEDS

    v2 = classify(sfs(0, 2, 3, F(5, 3), 15, F(15, 14)))
    fam2 = match_theorem_families(v2.standard_form)
    assert fam2 is not None and fam2.family == "half-product"
    assert (fam2.params["p"], fam2.params["q"], fam2.params["r"], fam2.params["s"]) == (3, 1, 5, 3)
    assert v2.tag == UNKNOWN

    # product-shape class {2, 5/2, 10} with even product: obstructed through
    # the spin ceiling bound on every candidate partition pair
    v3 = classify(sfs(0, 2, 2, F(5, 2), 10, F(10, 9)))
    assert v3.tag == OBSTRUCTED
    assert v3.obstruction.name == "spin_partition_conditions"
    fam3 = match_theorem_families(v3.standard_form)
    assert fam3 is not None and fam3.family == "half-product"
    report(4, "half-k families recognized; even-product instance obstructed")


def test_criterion_5_lattice_engine():
    start = time.monotonic()
    budget = 10**7

    three_arm = std(0, 2, F(3, 2), 3, F(3, 2))
    g = build_plumbing(three_arm)
    res = embeddings_for(g, budget=budget)
    assert res.budget is None
    parts = {induced_partition(a, three_arm, g) for a in res}
    assert any(sorted(p) == [(1, 2), (3,)] for p in parts)

    want = {((1,), (2, 3)), ((1, 2), (3,))}
    found_pair = False
    for a1 in res:
        for a2 in res:
            got = {
                tuple(sorted(induced_partition(a1, three_arm, g))),
                tuple(sorted(induced_partition(a2, three_arm, g))),
            }
            if got == want and pair_surjective(a1, a2):
                found_pair = True
    assert found_pair

    poincare = std(0, 2, 2, F(3, 2), F(5, 4))
    g8 = build_plumbing(poincare)
    res8 = embeddings_for(g8, budget=budget)
    assert res8.budget is None
    assert len(res8) == 0

    elapsed = time.monotonic() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(5, f"lattice engine: partitions + surjective pair + empty E8 in {elapsed:.1f}s")


def _odd_pretzel_multisets(ks, bound=9):
    values = [c for c in range(-bound, bound + 1) if c % 2]
    for k in ks:
        yield from combinations_with_replacement(values, k)


def test_criterion_6_mubar_count_law_and_pretzel_crosscheck():
    rng = random.Random(777)
    checked = 0
    while checked < 200:
        s = normalize(random_seifert(rng, gmax=0, kmax=6, pmax=14))
        if s.fiber_count == 0 or s.eps_num <= 0:
            continue
        g = build_plumbing(s)
        subs = characteristic_subsets(g)
        assert len(subs) == 2 ** dim_h1_z2(s), s
        checked += 1

    count = 0
    for strands in _odd_pretzel_multisets((1, 3, 5, 7)):
        k = OddPretzel(strands)
        assert pretzel_mubar(k) == pretzel_mubar_formula(k), strands
        count += 1
    report(6, f"count law on 200 spaces; mu-bar formula == solver on {count} pretzels")


def test_criterion_7_doubly_slice_classification():
    start = time.monotonic()
    positives = []
    from sfs4.pretzel import reduced_strands

    for strands in _odd_pretzel_multisets((3, 5, 7)):
        k = OddPretzel(strands)
        verdict = doubly_slice_classify(k)
        reduced = reduced_strands(strands)
        counts = {}
        for c in reduced:
            counts[c] = counts.get(c, 0) + 1
        m = len(reduced) // 2
        in_family = len(counts) == 2 and any(
            abs(a) >= 3 and counts.get(a, 0) == m + 1 and counts.get(-a, 0) == m
            for a in counts
        )
        assert verdict.is_doubly_slice == in_family, strands
        if in_family:
            positives.append(strands)
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"took {elapsed:.1f}s"
    # a in {3,5,7,9} and mirrors: 8 shapes at k=3, 16 at k=5 (including one
    # cancelled +-1 pair), 24 at k=7
    assert len(positives) == 48
    report(7, f"doubly slice set == alternating family ({len(positives)} positives) in {elapsed:.1f}s")


def test_criterion_8_property_suites():
    rng = random.Random(11235)

    # normalize idempotence + eps preservation under expansion
    for _ in range(200):
        s = random_seifert(rng, gmax=2, kmax=6, pmax=12)
        n = normalize(s)
        again = normalize(seifert_data(n))
        assert (again.genus, again.central, again.fibers) == (n.genus, n.central, n.fibers)
        if n.fiber_count:
            j = rng.randint(1, n.fiber_count)
            assert euler(expand(n, j)) == euler(n)

    # homology expansion law H1(Y') = H1(Y) + Z/p + Z/p
    for _ in range(100):
        s = normalize(random_seifert(rng, gmax=1, kmax=4, pmax=9))
        if s.fiber_count == 0 or s.eps_num == 0:
            continue
        j = rng.randint(1, s.fiber_count)
        p = s.fibers[j - 1][0]
        before = h1_formula(s)
        merged = from_cyclic_orders(
            list(before.invariant_factors) + [p, p], free_rank=before.free_rank
        )
        assert h1_formula(expand(s, j)) == merged

    # direct double + eps > 0 forces e <= k - 1 (k >= 2)
    for _ in range(300):
        s = normalize(random_seifert(rng, gmax=1, kmax=6, pmax=12))
        if s.eps_num <= 0 or s.fiber_count < 2:
            continue
        if is_direct_double(h1_formula(s)):
            assert s.central <= s.fiber_count - 1, s

    # all multiplicities even: the Z2 bound is enforced by the classifier
    v = classify(sfs(0, 1, 4, 4, 8, 8, 8))
    assert v.tag == OBSTRUCTED and v.obstruction.name == "z2_cohomology_bound"
    for _ in range(150):
        s = normalize(random_seifert(rng, gmax=0, kmax=6, pmax=12))
        if s.fiber_count == 0 or s.eps_num <= 0:
            continue
        if any(p % 2 for p in s.multiplicities):
            continue
        verdict = classify(seifert_data(s))
        if verdict.tag == EMBEDS:
            assert dim_h1_z2(s) <= 2 * s.central

    # certificate replay: 100% of EMBEDS verdicts replay to the input
    replayed = 0
    for _ in range(250):
        s = random_seifert(rng, gmax=1, kmax=5, pmax=9)
        verdict = classify(s)
        if verdict.tag == EMBEDS:
            assert replay_certificate(verdict.certificate, verdict.standard_form), s
            replayed += 1
    assert replayed > 5
    report(8, f"property suites pass (replayed {replayed} certificates)")
