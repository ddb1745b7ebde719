import math
import random
from fractions import Fraction

import pytest

from sfs4.homology import cokernel, h1_formula
from sfs4.plumbing import (
    IntersectionForm,
    build_plumbing,
    intersection_form,
    is_positive_definite,
)
from sfs4.seifert import StandardForm, euler_invariant, normalize
from tests.oracles import pairing
from tests.test_homology import random_seifert

F = Fraction


def std(g, e, *fibers):
    return StandardForm(g, e, tuple(F(x) for x in fibers))


POINCARE = std(0, 2, 2, F(3, 2), F(5, 4))


def test_poincare_is_e8():
    g = build_plumbing(POINCARE)
    assert g.central_weight == 2
    assert g.arms == ((2,), (2, 2), (2, 2, 2, 2))
    assert g.size == 8
    q = intersection_form(g)
    assert q.det() == 1
    assert is_positive_definite(q)
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
        assert g.arm_fractions() == (F(a, a - 1),)


def test_pairing_and_norm():
    q = intersection_form(build_plumbing(std(0, 2, F(3, 2), 3, F(3, 2))))
    e0 = [1, 0, 0, 0, 0, 0]
    e1 = [0, 1, 0, 0, 0, 0]
    assert pairing(q, e0, e0) == 2
    assert pairing(q, e0, e1) == -1


def test_semidefinite_when_eps_zero():
    s = std(0, 1, 2, 2)
    assert euler_invariant(s) == 0
    q = intersection_form(build_plumbing(s))
    assert q.det() == 0
    assert not is_positive_definite(q)


def test_definite_iff_eps_positive_random():
    rng = random.Random(314)
    pos = zero = 0
    for _ in range(200):
        s = normalize(random_seifert(rng, gmax=1, kmax=5, pmax=9))
        if s.fiber_count == 0:
            continue
        q = intersection_form(build_plumbing(s))
        eps = euler_invariant(s)
        assert is_positive_definite(q) == (eps > 0)
        if eps > 0:
            pos += 1
            # det Q = |tor H1|
            assert q.det() == math.prod(h1_formula(s).invariant_factors)
        else:
            zero += 1
            assert q.det() == 0
    assert pos > 50


def test_q_presents_torsion_h1():
    rng = random.Random(2718)
    for _ in range(60):
        s = normalize(random_seifert(rng, gmax=0, kmax=5, pmax=9))
        if s.fiber_count == 0 or euler_invariant(s) == 0:
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
    import json

    data = json.loads(g.to_json())
    assert data["vertex_weights"] == [2, 2, 2, 3]
    assert data["arms"] == [[2, 2], [3]]
