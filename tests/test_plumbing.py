import math
import random
from fractions import Fraction

import pytest

from sfs4.homology import cokernel, h1_formula
from sfs4.intmat import determinant
from sfs4.plumbing import (
    IntersectionForm,
    build_plumbing,
    form_determinant,
    intersection_form,
)
from sfs4.seifert import normalize
from tests.oracles import (
    pairing,
    positive_definite_by_elimination,
    positive_definite_by_minors,
    std,
)
from tests.test_homology import random_seifert

F = Fraction


POINCARE = std(0, 2, 2, F(3, 2), F(5, 4))


def test_poincare_is_e8():
    g = build_plumbing(POINCARE)
    assert g.central_weight == 2
    assert g.arms == ((2,), (2, 2), (2, 2, 2, 2))
    assert g.size == 8
    q = intersection_form(g)
    assert determinant(q.matrix) == form_determinant(POINCARE) == 1
    assert positive_definite_by_elimination(q)
    # every vertex has weight 2: the positive E8 form
    assert all(q.matrix[i][i] == 2 for i in range(8))


def test_small_star():
    g = build_plumbing(std(0, 2, F(3, 2), 3, F(3, 2)))
    assert g.arms == ((2, 2), (3,), (2, 2))
    assert g.size == 6
    q = intersection_form(g)
    assert [q.matrix[i][i] for i in range(6)] == [2, 2, 2, 3, 2, 2]
    assert q.matrix[0][1] == -1 and q.matrix[1][2] == -1 and q.matrix[0][3] == -1
    assert q.matrix[0][4] == -1 and q.matrix[4][5] == -1
    assert q.matrix[2][3] == 0


def test_single_fiber_chain():
    for a in range(2, 7):
        g = build_plumbing(std(0, 1, F(a, a - 1)))
        assert g.arms == ((2,) * (a - 1),)
        assert g.arm_fractions() == ((a, a - 1),)


def test_pairing_and_norm():
    q = intersection_form(build_plumbing(std(0, 2, F(3, 2), 3, F(3, 2))))
    e0 = [1, 0, 0, 0, 0, 0]
    e1 = [0, 1, 0, 0, 0, 0]
    assert pairing(q, e0, e0) == 2
    assert pairing(q, e0, e1) == -1


def test_semidefinite_when_eps_zero():
    s = std(0, 1, 2, 2)
    assert s.eps_num == 0
    q = intersection_form(build_plumbing(s))
    assert determinant(q.matrix) == form_determinant(s) == 0
    assert not positive_definite_by_elimination(q)


def test_definite_iff_eps_positive_random():
    rng = random.Random(314)
    pos = zero = 0
    for _ in range(200):
        s = normalize(random_seifert(rng, gmax=1, kmax=5, pmax=9))
        if s.fiber_count == 0:
            continue
        q = intersection_form(build_plumbing(s))
        eps = s.eps_num
        assert positive_definite_by_elimination(q) == (eps > 0)
        if eps > 0:
            pos += 1
            # det Q = |tor H1|
            assert determinant(q.matrix) == math.prod(h1_formula(s).invariant_factors)
        else:
            zero += 1
            assert determinant(q.matrix) == 0
    assert pos > 50


def test_q_presents_torsion_h1():
    rng = random.Random(2718)
    for _ in range(60):
        s = normalize(random_seifert(rng, gmax=0, kmax=5, pmax=9))
        if s.fiber_count == 0 or s.eps_num == 0:
            continue
        q = intersection_form(build_plumbing(s))
        assert cokernel([list(r) for r in q.matrix]) == h1_formula(s)


def test_symmetry_validation():
    with pytest.raises(ValueError):
        IntersectionForm(((1, 2), (3, 1)))


def test_export_round_trip():
    g = build_plumbing(std(0, 2, F(3, 2), 3))
    text = g.to_text()
    assert "vertex 0 2" in text and "edge 0 1" in text and "edge 0 3" in text
    data = g.to_dict()
    assert data["vertex_weights"] == (2, 2, 2, 3)
    assert data["arms"] == ((2, 2), (3,))


def test_form_determinant_matches_dense_elimination():
    # eps * p_1 ... p_k against Bareiss elimination of Q, genus 0..2, eps = 0 included
    rng = random.Random(77)
    checked = zero = 0
    while checked < 400:
        s = normalize(random_seifert(rng, gmax=2, kmax=5, pmax=9))
        q = intersection_form(build_plumbing(s))
        assert form_determinant(s) == determinant(q.matrix), s
        checked += 1
        zero += s.eps_num == 0
    assert zero >= 5


def _random_symmetric(rng, n, kind):
    if kind == "zero_minor":
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                m[i][j] = m[j][i] = rng.randint(-4, 4)
        # rows 0 and 1 agree on the leading 2 x 2 block, so its minor vanishes
        m[0][0] = m[0][1] = m[1][0] = m[1][1] = rng.randint(1, 3)
        return m
    # A D A^T: definite for a generic n x n A and D = Id, singular when A is
    # n x (n - 1), never definite when D has a -1
    cols = n - 1 if kind == "semidefinite" else n
    a = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(n)]
    d = [1] * cols
    if kind == "indefinite":
        d[rng.randrange(cols)] = -1
    return [[sum(x * y * w for x, y, w in zip(r1, r2, d)) for r2 in a] for r1 in a]


def test_one_pass_sylvester_matches_the_minors():
    rng = random.Random(2024)
    verdicts = {}
    for kind in ("definite", "semidefinite", "indefinite", "zero_minor"):
        for _ in range(150):
            q = IntersectionForm(tuple(map(tuple, _random_symmetric(rng, rng.randint(2, 7), kind))))
            got = positive_definite_by_elimination(q)
            assert got == positive_definite_by_minors(q), (kind, q)
            verdicts.setdefault(kind, set()).add(got)
    assert verdicts["definite"] == {True, False}  # a singular A now and then
    assert verdicts["semidefinite"] == verdicts["zero_minor"] == {False}
    assert verdicts["indefinite"] == {False}
