import random
from fractions import Fraction
from pathlib import Path

import pytest

from sfs4.cli import parse_input
from sfs4.intmat import determinant
from sfs4.lattice import (
    LatticeEmbedding,
    StructureViolation,
    canonical_rows,
    embeddings_for,
    induced_partition,
    pair_surjective,
)
from sfs4.partitions import union_condition
from sfs4.plumbing import IntersectionForm, PlumbingGraph, build_plumbing, intersection_form
from sfs4.seifert import Budget, normalize
from tests.oracles import (
    StarStructure,
    betas,
    dense_enumerate_embeddings,
    pair_surjective_by_smith,
    positive_definite_by_elimination,
    seifert_data,
    small_positive_spaces,
    std,
)
from tests.test_homology import random_seifert

F = Fraction


def setup_space(s):
    g = build_plumbing(s)
    return g, intersection_form(g)


POINCARE = std(0, 2, 2, F(3, 2), F(5, 4))
THREE_ARM = std(0, 2, F(3, 2), 3, F(3, 2))


def test_single_vertex_weight_one():
    g, q = setup_space(std(0, 1))
    assert q.matrix == ((1,),)
    res = embeddings_for(g)
    assert [a.rows for a in res] == [((1,),)]


def test_identity_pair_surjective():
    a = LatticeEmbedding(((1, 0), (0, 1)))
    assert pair_surjective(a, a)


def test_gram_and_canonical():
    a = LatticeEmbedding(((0, -1, 1), (1, 1, 0), (0, 0, 0)))
    c = canonical_rows(a.rows)
    # canonical form is invariant under signed column permutation
    b = LatticeEmbedding(((1, 0, -1), (-1, 1, 0), (0, 0, 0)))  # negate c0, swap
    assert canonical_rows(b.rows) == c


def test_e8_has_no_embedding():
    g, q = setup_space(POINCARE)
    res = embeddings_for(g)
    assert res.budget is None
    assert len(res) == 0
    # the unconstrained search agrees
    res2 = dense_enumerate_embeddings(q, structure=StarStructure.from_graph(g))
    assert len(res2) == 0


def test_three_arm_embeddings_and_partitions():
    g, q = setup_space(THREE_ARM)
    res = embeddings_for(g)
    assert res.budget is None
    assert len(res) >= 1
    for a in res:
        assert a.gram() == q.matrix
    parts = {induced_partition(a, THREE_ARM, g) for a in res}
    assert ((1, 2), (3,)) in parts or ((3,), (1, 2)) in parts
    assert any(p == ((1,), (2, 3)) or p == ((2, 3), (1,)) for p in parts)


def test_three_arm_surjective_pair_realizes_both_partitions():
    g = build_plumbing(THREE_ARM)
    res = embeddings_for(g)
    want = {((1,), (2, 3)), ((1, 2), (3,))}
    got = None
    for a1 in res:
        for a2 in res:
            ps = {induced_partition(a1, THREE_ARM, g), induced_partition(a2, THREE_ARM, g)}
            if {tuple(sorted(p)) for p in ps} == want and pair_surjective(a1, a2):
                got = (a1, a2)
                break
        if got:
            break
    assert got is not None


def test_shared_complementary_union_is_never_surjective():
    # contrapositive of the union condition: if the induced partitions share
    # a union of complementary classes, the pair cannot be surjective
    g = build_plumbing(THREE_ARM)
    res = embeddings_for(g)
    checked = 0
    for a1 in res:
        for a2 in res:
            p1 = induced_partition(a1, THREE_ARM, g)
            p2 = induced_partition(a2, THREE_ARM, g)
            if not union_condition(p1, p2):
                checked += 1
                assert not pair_surjective(a1, a2)
    assert checked > 0  # identical-partition pairs exist in the result set


def test_hand_built_embedding_is_found():
    g, q = setup_space(THREE_ARM)
    hand = LatticeEmbedding(
        (
            (1, 1, 0, 0, 0, 0),
            (-1, 0, 1, 0, 0, 0),
            (0, 0, -1, 1, 0, 0),
            (0, -1, 0, 0, 1, 1),
            (0, -1, 0, 0, -1, 0),
            (0, 0, 0, 0, 1, -1),
        )
    )
    assert hand.gram() == q.matrix
    res = embeddings_for(g)
    assert canonical_rows(hand.rows) in {a.rows for a in res}


def test_gram_matches_the_dense_product():
    rng = random.Random(41)
    for _ in range(300):
        n, rank = rng.randint(0, 6), rng.randint(0, 7)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(rank)] for _ in range(n)]
        dense = tuple(tuple(sum(x * y for x, y in zip(r1, r2)) for r2 in rows) for r1 in rows)
        assert LatticeEmbedding(rows).gram() == dense, rows


def _both_searches(g, q, budget):
    """(rows, nodes, budget) or the ValueError text, production search then dense oracle."""

    def run(search, *args, **options):
        try:
            res = search(*args, budget=budget, **options)
        except ValueError as exc:
            return str(exc)
        return [a.rows for a in res], res.nodes, res.budget

    return run(embeddings_for, g), run(
        dense_enumerate_embeddings, q, structure=StarStructure.from_graph(g), constrain_central=True
    )


def test_sparse_search_matches_the_dense_oracle():
    # same embeddings, node count and budget flag, or the same refusal; the
    # budgets 30 and 50 cut about a quarter of the runs short, and a cut run
    # finds only what the same depth-first order found by then.  On every
    # fifth space every budget from 0 to nodes + 1 is tried, so the search
    # is cut at each node it visits
    finished = cut = nonempty = every = 0
    for i, s in enumerate(small_positive_spaces(seed=3, count=200, max_vertices=6)):
        g, q = setup_space(s)
        budgets = [30, 50, 200, 400]
        full, _ = _both_searches(g, q, 10**7)
        if i % 5 == 0 and isinstance(full, tuple):
            budgets += range(full[1] + 2)
            every += 1
        for budget in budgets:
            new, dense = _both_searches(g, q, budget)
            assert new == dense, (s, budget)
            if isinstance(new, tuple):
                cut += new[2] is not None
                finished += new[2] is None
                nonempty += bool(new[0])
    assert finished > 600 and cut > 80 and nonempty > 100 and every >= 30


def test_sparse_search_stops_where_the_dense_oracle_stops():
    spaces = [
        std(0, e, *([F(a, a - 1)] + [a, F(a, a - 1)] * (e - 1))) for a in (2, 3, 5) for e in (3, 4)
    ] + [std(0, 1, 4, 4, 4), std(0, 1, 4, 4, F(12, 5)), POINCARE]
    for budget in (30, 50, 200):
        cut = 0
        for s in spaces:
            g, q = setup_space(s)
            new, dense = _both_searches(g, q, budget)
            assert new == dense, (s, budget)
            cut += isinstance(new, tuple) and new[2] is not None
        assert cut > len(spaces) // 2, budget


def test_pruned_search_matches_bruteforce_on_small_forms():
    rng = random.Random(5)
    checked = 0
    while checked < 12:
        s = normalize(random_seifert(rng, gmax=0, kmax=3, pmax=5))
        if s.fiber_count == 0 or s.eps_num <= 0:
            continue
        g = build_plumbing(s)
        if g.size > 6 or max(g.vertex_weights()) > 5:
            continue
        q = intersection_form(g)
        fast = dense_enumerate_embeddings(q, structure=StarStructure.from_graph(g))
        slow = dense_enumerate_embeddings(q, reduce_symmetry=False)
        assert {a.rows for a in fast} == {a.rows for a in slow}, s
        checked += 1


def test_structural_search_equals_full_for_direct_doubles():
    # with tor H1 a direct double, every embedding is equivalent to one in
    # the central normal form, so the constrained search loses nothing
    for s in (THREE_ARM, std(0, 2, 2, F(5, 2), 2, 2), std(0, 1, 4, 4, F(12, 5))):
        g, q = setup_space(s)
        full = {a.rows for a in dense_enumerate_embeddings(q, structure=StarStructure.from_graph(g))}
        constrained = {a.rows for a in embeddings_for(g)}
        assert constrained == full


def test_budget_marker():
    s = std(0, 3, 4, 4, 4, F(7, 2), F(9, 2))
    res = embeddings_for(build_plumbing(s), budget=50)
    assert res.budget == Budget("lattice_search", "nodes", 50, 51) and res.nodes == 51


def test_rejects_indefinite():
    g = PlumbingGraph(1, ((2,), (2,), (2,)))  # the D4 star with central weight 1: eps < 0
    with pytest.raises(ValueError, match="positive definite"):
        embeddings_for(g)
    # the star pivots agree with the dense elimination, eps <= 0 included
    rng = random.Random(12)
    verdicts = set()
    for _ in range(300):
        g = build_plumbing(normalize(random_seifert(rng, gmax=0, kmax=5, pmax=9)))
        q = intersection_form(g)
        try:
            embeddings_for(g, budget=0)
            definite = True
        except ValueError as exc:
            definite = "positive definite" not in str(exc)
        assert definite == positive_definite_by_elimination(q), g
        verdicts.add(definite)
    assert verdicts == {True, False}


def test_induced_partition_structure_violation():
    g, _ = setup_space(THREE_ARM)
    # central row not a 0/1 vector with e ones
    bad = LatticeEmbedding(
        (
            (1, 1, 1, 0, 0, 0),
            (-1, 0, 1, 0, 0, 0),
            (0, 0, -1, 1, 0, 0),
            (0, -1, 0, 0, 1, 1),
            (0, -1, 0, 0, -1, 0),
            (0, 0, 0, 0, 1, -1),
        )
    )
    with pytest.raises(StructureViolation):
        induced_partition(bad, THREE_ARM, g)


def test_ambient_rank_flag():
    q = IntersectionForm(((2,),))
    res = dense_enumerate_embeddings(q, ambient_rank=3)
    assert len(res) == 1
    assert res.embeddings[0].rows == ((1, 1, 0),)


def test_embeds_spaces_admit_valid_surjective_pairs():
    # wherever the classifier says EMBEDS (genus 0, eps > 0), a surjective
    # pair of embeddings exists whose induced partitions witness the
    # partition conditions
    from sfs4.classify import EMBEDS, classify
    from sfs4.partitions import PartitionPair

    spaces = [
        std(0, 2, F(3, 2), 3, F(3, 2)),
        std(0, 2, 2, F(5, 2), 2, 2),
        std(0, 1, 2, F(5, 2)),
        std(0, 2, 2, 2, 2),
        std(0, 1, 4, 4, F(12, 5)),
    ]
    for s in spaces:
        assert classify(seifert_data(s)).tag == EMBEDS
        g = build_plumbing(s)
        res = embeddings_for(g)
        assert res.budget is None
        found = None
        for a1 in res:
            for a2 in res:
                if not pair_surjective(a1, a2):
                    continue
                p1 = induced_partition(a1, s, g)
                p2 = induced_partition(a2, s, g)
                recips = betas(s)

                def deficit(part):
                    return next(
                        c for c in part if sum(recips[i - 1] for i in c) < 1
                    )

                pair = PartitionPair(p1, p2, deficit(p1), deficit(p2))
                try:
                    pair.validate(s)
                except AssertionError:
                    continue
                found = (a1, a2)
                break
            if found:
                break
        assert found is not None, s


def test_complementary_union_check():
    p1 = ((1,), (2, 3))
    p2 = ((1, 2), (3,))
    assert union_condition(p1, p2) and union_condition(p2, p1)
    same = ((1, 2), (3,))
    assert not union_condition(same, same)
    assert union_condition(((1, 2),), ((1, 2),))


def _golden_lattice_spaces():
    path = Path(__file__).parent / "data" / "golden_lattice.tsv"
    lines = path.read_text().splitlines()[1:]
    return [normalize(parse_input(line.split("\t")[0])) for line in lines]


def test_pair_surjective_matches_the_full_smith_form():
    # the test by A1's Smith form against the n x 2n Smith form: every
    # ordered pair of up to 12 embeddings of each golden lattice space, then
    # seeded square pairs with singular (some d_i = 0) and unimodular A1
    verdicts = set()
    for s in _golden_lattice_spaces():
        res = embeddings_for(build_plumbing(s)).embeddings[:12]
        for a1 in res:
            for a2 in res:
                got = pair_surjective(a1, a2)
                assert got == pair_surjective_by_smith(a1, a2), (s, a1, a2)
                verdicts.add(got)
    assert verdicts == {True, False}
    rng = random.Random(23)
    kinds = set()
    for _ in range(400):
        n = rng.randint(1, 5)
        a1 = [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:
            a1[-1] = [0] * n  # singular
        a2 = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
        a1, a2 = LatticeEmbedding(a1), LatticeEmbedding(a2)
        got = pair_surjective(a1, a2)
        assert got == pair_surjective_by_smith(a1, a2), (a1, a2)
        det = abs(determinant(a1.rows))
        kinds.add((min(det, 2), got))
    # singular, unimodular and other A1, each with surjective and other pairs
    assert {(0, True), (0, False), (1, True), (2, True), (2, False)} <= kinds
