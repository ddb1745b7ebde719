import math
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from sfs4.homology import h1_formula
from sfs4.mubar import spin_report
from sfs4.pretzel import (
    DOUBLY_SLICE,
    NOT_DOUBLY_SLICE,
    OddPretzel,
    double_branched_cover,
    doubly_slice_classify,
    pretzel_mubar,
    pretzel_mubar_formula,
)
from sfs4.seifert import normalize
from tests.oracles import MontesinosNormal, euler, qa_montesinos_obstruction, std, values

F = Fraction


def P(*strands):
    return OddPretzel(tuple(strands))


def test_validation():
    with pytest.raises(ValueError):
        OddPretzel((2, 3))
    with pytest.raises(ValueError):
        OddPretzel(())
    # a non-integer strand is refused, not truncated (3.7 read as 3 made P(3,-3,3))
    for bad in (3.7, 3.0, "3"):
        with pytest.raises(ValueError, match=f"strand must be an integer, got {bad!r}"):
            OddPretzel((bad, -3, 3))
    assert P(3, -3, 3).is_knot
    assert not P(3, 5).is_knot


def test_double_cover_examples():
    c = double_branched_cover(P(3, -3, 3))
    assert (c.central, values(c)) == (0, (F(3), F(-3), F(3)))
    c2 = double_branched_cover(P(3, -3, 5))
    assert (c2.central, c2.fibers) == (0, ((3, 1), (3, -1), (5, 1)))
    # +-1 strands fold with the sign that preserves |H1| = determinant
    c3 = double_branched_cover(P(1, 1, 3))
    assert (c3.central, values(c3)) == (-2, (F(3),))
    assert math.prod(h1_formula(c3).invariant_factors) == 7  # det P(1,1,3) = 1*1 + 1*3 + 3*1


def test_cover_h1_matches_pretzel_determinant():
    # det P(c_1..c_k) = sum of products of all but one strand, k >= 2
    for strands in [(3, -3, 3), (3, -3, 5), (3, 5, 7), (-3, 5, -7, 9, 3)]:
        k = P(*strands)
        det = 0
        for i in range(len(strands)):
            prod = 1
            for j, c in enumerate(strands):
                if j != i:
                    prod *= c
            det += prod
        assert math.prod(h1_formula(double_branched_cover(k)).invariant_factors) == abs(det), strands


def test_mubar_examples():
    assert pretzel_mubar(P(3, -3, 3)) == 0
    assert pretzel_mubar(P(3, -3, 5)) == 0
    assert pretzel_mubar(P(3, 3, 3)) == -2
    assert pretzel_mubar_formula(P(3, 3, 3)) == -2


def test_mubar_formula_agrees_with_solver():
    values = [-3, -1, 1, 3, 5]
    for k_count in (1, 3, 5):
        for strands in combinations_with_replacement(values, k_count):
            k = P(*strands)
            assert pretzel_mubar(k) == pretzel_mubar_formula(k), strands


def test_mubar_over_the_census():
    # the whole census: odd strands in -9..9, with 3, 5 and 7 strands; the
    # DP value of the one spin structure equals the listing's and the
    # closed form's
    odd = [c for c in range(-9, 10) if c % 2]
    knots = [P(*strands) for n in (3, 5, 7) for strands in combinations_with_replacement(odd, n)]
    assert len(knots) == 13662
    for k in knots:
        listed = spin_report(normalize(double_branched_cover(k))).values
        assert (pretzel_mubar(k),) == listed and listed == (pretzel_mubar_formula(k),), k


def test_doubly_slice_family():
    assert doubly_slice_classify(P(3, -3, 3)).verdict == DOUBLY_SLICE
    assert doubly_slice_classify(P(3, -3, 3)).parameter == 3
    assert doubly_slice_classify(P(5, -5, 5, -5, 5)).verdict == DOUBLY_SLICE
    assert doubly_slice_classify(P(-3, 3, -3, 3, -3)).parameter == -3
    # mutation invariance: any strand order
    assert doubly_slice_classify(P(3, 3, -3)).verdict == DOUBLY_SLICE


def test_doubly_slice_negative_cases():
    v = doubly_slice_classify(P(3, -3, 5))
    assert v.verdict == NOT_DOUBLY_SLICE
    assert v.failed_condition == "cover_obstructed"
    assert "Z/9" in v.detail or "direct double" in v.detail

    v2 = doubly_slice_classify(P(1, 1, 3))
    assert v2.verdict == NOT_DOUBLY_SLICE

    v3 = doubly_slice_classify(P(3, 3, 3))
    assert v3.verdict == NOT_DOUBLY_SLICE
    assert v3.failed_condition == "mubar_nonzero"

    v4 = doubly_slice_classify(P(3))
    assert v4.verdict == NOT_DOUBLY_SLICE

    with pytest.raises(ValueError):
        doubly_slice_classify(P(3, 5))


def test_mirror_and_mutation_invariance():
    for strands in [(3, -3, 3), (3, -3, 5), (1, 1, 3), (3, 5, -7)]:
        k = P(*strands)
        flip = k.mirror()
        assert doubly_slice_classify(k).verdict == doubly_slice_classify(flip).verdict
        perm = P(*reversed(strands))
        assert doubly_slice_classify(k).verdict == doubly_slice_classify(perm).verdict


def test_oriented_cover_mirrors_the_data():
    # the knot's cover in standard form is the mirror's cover, orientation
    # reversed, exactly when the knot's own cover has eps < 0
    mirrored = 0
    for strands in combinations_with_replacement((-7, -5, -3, -1, 1, 3, 5, 7), 3):
        k = P(*strands)
        knot_std = normalize(double_branched_cover(k))
        oriented = k.mirror() if euler(double_branched_cover(k)) < 0 else k
        mirrored += oriented != k
        assert knot_std.orientation_reversed == (oriented != k)
        cover = double_branched_cover(oriented)
        std_form = normalize(cover)
        assert euler(cover) >= 0 and not std_form.orientation_reversed
        assert (knot_std.central, knot_std.fibers) == (std_form.central, std_form.fibers)
        assert doubly_slice_classify(k).mubar == pretzel_mubar_formula(k)
    assert mirrored > 20


def test_pretzel_line_builds_the_cover_once(monkeypatch, capsys):
    # the command classifies the cover, then the knot and its mu-bar, all
    # from one double branched cover, its one standard form and its one H1
    import sfs4.cli
    import sfs4.seifert

    # through sys.modules: the package attribute ``sfs4.classify`` is the function
    classify_module, pretzel_module = sys.modules["sfs4.classify"], sys.modules["sfs4.pretzel"]

    counts = {"cover": 0, "normalize": 0, "h1": 0}
    build, norm = pretzel_module.double_branched_cover, sfs4.seifert.normalize

    def counted(name, f):
        return lambda *args: counts.__setitem__(name, counts[name] + 1) or f(*args)

    for module in (pretzel_module, sfs4.cli):
        monkeypatch.setattr(module, "double_branched_cover", counted("cover", build))
    for module in (pretzel_module, sfs4.cli, classify_module):
        monkeypatch.setattr(module, "normalize", counted("normalize", norm))
    for module in (pretzel_module, classify_module):
        monkeypatch.setattr(module, "h1_formula", counted("h1", h1_formula))
    # P(3,-3,5) reaches the knot's own direct-double test
    for line in ("P(3,-5,7)", "P(-3,5,7,-5,3)", "P(3,-3,3)", "P(1,1,3)", "P(3,-3,5)"):
        counts.update(cover=0, normalize=0, h1=0)
        assert sfs4.cli.main(["pretzel", line]) == 0
        assert counts == {"cover": 1, "normalize": 1, "h1": 1}, (line, counts)
    capsys.readouterr()


def test_unknot_edge_is_reported_not_doubly_slice():
    # P(1,-1,1) is the unknot; the multiset rule (|a| >= 3) reports NOT with
    # the residual-weight condition
    v = doubly_slice_classify(P(1, -1, 1))
    assert v.verdict == NOT_DOUBLY_SLICE
    assert v.failed_condition == "residual_central_weight"


def test_qa_normal_form_cases():
    m = MontesinosNormal.from_standard(std(0, 3, 2, 2, 2))
    assert m.case == "e_ge_k"
    m2 = MontesinosNormal.from_standard(std(0, 1, 5, F(7, 2)))
    assert m2.case == "e_eq_k_minus_1"
    with pytest.raises(ValueError):
        MontesinosNormal.from_standard(std(0, 2, 2, F(3, 2), F(5, 4)))


def test_qa_obstruction_e_ge_k():
    rep = qa_montesinos_obstruction(MontesinosNormal.from_standard(std(0, 3, 2, 2, 2)))
    assert rep.obstructed
    assert rep.partition == ((1,), (2,), (3,))


def test_qa_obstruction_e_eq_k_minus_1():
    rep = qa_montesinos_obstruction(MontesinosNormal.from_standard(std(0, 1, 5, F(7, 2))))
    assert rep.obstructed
    assert rep.partition == ((1, 2),)
    assert rep.law_failure == "deficit_mismatch"


def test_qa_no_obstruction_degenerate():
    # e = k = 1 with fiber p/(p-1) is the 3-sphere: the law passes, honesty
    rep = qa_montesinos_obstruction(MontesinosNormal.from_standard(std(0, 1, F(5, 4))))
    assert not rep.obstructed
