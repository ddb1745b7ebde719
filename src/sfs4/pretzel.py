"""Odd pretzel knots, their double branched covers, and double sliceness.

An odd pretzel link P(c_1, ..., c_k) has all strand twist counts odd; it is a
knot exactly when k is odd.  Its double branched cover is the Seifert fibered
space with one fiber per strand over the 0-weighted base presentation, the
integer pair (|c|, +-1) for strand c; the +-1 strands fold into the central
weight.  Its eps is read from those integer pairs, and no ``Fraction`` is
built.  Verdicts are stated up to mutation, which for pretzels permutes
strands, so everything here depends only on the strand multiset.

The classification: an odd pretzel knot has double branched cover embedding
smoothly in the 4-sphere (equivalently, is a mutant of a smoothly doubly
slice pretzel) precisely when its strands are a copies of one odd value a
with |a| >= 3 alternating against one fewer copies of -a.  The negative
direction is decided by the mu-bar value, the residual central weight, and
the extremal-family classification of the cover.

``doubly_slice_classify`` is the one path to a verdict; ``sfs4 pretzel``
passes it the verdict of its ``classify`` of the cover.
"""

from __future__ import annotations

from typing import NamedTuple

from .homology import h1_formula, is_direct_double
from .mubar import spin_report
from .partitions import match_theorem_families
from .seifert import Frozen, SeifertData, StandardForm, as_int, normalize

DOUBLY_SLICE = "DOUBLY_SLICE_UP_TO_MUTATION"
NOT_DOUBLY_SLICE = "NOT_DOUBLY_SLICE"


class OddPretzel(Frozen):
    _fields = ("strands",)

    def __init__(self, strands):
        self.__dict__["strands"] = tuple(as_int(c, "strand") for c in strands)
        if not self.strands:
            raise ValueError("a pretzel needs at least one strand")
        if any(c % 2 == 0 for c in self.strands):
            raise ValueError(f"odd pretzels need odd strands, got {self.strands}")

    @property
    def is_knot(self) -> bool:
        return len(self.strands) % 2 == 1

    def mirror(self) -> "OddPretzel":
        return OddPretzel(tuple(-c for c in self.strands))

    def __str__(self) -> str:
        return "P(" + ",".join(str(c) for c in self.strands) + ")"


def double_branched_cover(k: OddPretzel) -> SeifertData:
    """Double branched cover: one fiber per strand over the 0-weighted base.

    The folded presentation has central weight minus the signed count of
    the +-1 strands; this is the sign that keeps |H_1| equal to the pretzel
    determinant (e.g. P(1,1,3) has determinant 7 and cover S^2(-2; 3)).
    """
    ones = sum(c for c in k.strands if abs(c) == 1)
    big = tuple((abs(c), 1 if c > 0 else -1) for c in k.strands if abs(c) > 1)
    return SeifertData(0, -ones, big)


def _cover_mubar(k: OddPretzel, std: StandardForm) -> int:
    """mu-bar of the one spin structure of ``std``, k's cover in standard form.

    ``std`` has eps > 0: when the knot's cover has eps < 0 it is orientation
    reversed, the mirror's cover."""
    if not k.is_knot:
        raise ValueError(f"{k} has an even number of strands: a link, not a knot")
    if std.eps_num == 0:
        raise ValueError("mu-bar needs eps != 0 (true for every pretzel knot)")
    rep = spin_report(std)
    if len(rep.values) != 1:
        raise ValueError(f"{k} has {len(rep.values)} spin structures; mu-bar is per structure")
    return rep.values[0]


def pretzel_mubar(k: OddPretzel) -> int:
    """mu-bar of the unique spin structure of the double branched cover.

    All strands are odd so every fiber multiplicity is odd; for knots |H_1|
    is odd and the spin structure is unique.  Cross-checked elsewhere against
    the closed form (#positive strands) - (#negative) + 1 - residual weight
    on the eps > 0 orientation.
    """
    return _cover_mubar(k, normalize(double_branched_cover(k)))


def pretzel_mubar_formula(k: OddPretzel) -> int:
    """Closed form n - m + 1 - e on the eps > 0 orientation (test oracle)."""
    strands = (k if double_branched_cover(k).eps_num >= 0 else k.mirror()).strands
    n = sum(1 for c in strands if c > 1)
    m = sum(1 for c in strands if c < -1)
    e = -sum(c for c in strands if abs(c) == 1)
    return n - m + 1 - e


def reduced_strands(strands) -> tuple[int, ...]:
    """Cancel +1/-1 strand pairs (Reidemeister II across a flype)."""
    big = [c for c in strands if abs(c) > 1]
    ones = sum(c for c in strands if abs(c) == 1)
    return tuple(big + [1 if ones > 0 else -1] * abs(ones))


def _family_shape(strands) -> int | None:
    """The odd a with |a| >= 3 if the reduced strands are {a x (m+1), -a x m}.

    m = 0 is excluded: a lone strand closes to the (2, a) torus knot, which
    is not doubly slice.
    """
    counts: dict[int, int] = {}
    for c in reduced_strands(strands):
        counts[c] = counts.get(c, 0) + 1
    if len(counts) != 2:
        return None
    (x, nx), (y, ny) = sorted(counts.items())
    if x != -y or abs(x) < 3:
        return None
    return x if nx == ny + 1 else (y if ny == nx + 1 else None)


class DoublySliceVerdict(NamedTuple):
    verdict: str
    mubar: int                         # of the cover's one spin structure
    parameter: int | None = None       # the odd a for the positive family
    failed_condition: str | None = None
    detail: str = ""

    @property
    def is_doubly_slice(self) -> bool:
        return self.verdict == DOUBLY_SLICE


def doubly_slice_classify(k: OddPretzel, cover=None) -> DoublySliceVerdict:
    """Smooth double sliceness of an odd pretzel knot, up to mutation.

    ``cover`` is the ``classify`` verdict of ``double_branched_cover(k)``,
    whose standard form and H_1 are read; without it both are computed
    here.  Positive exactly on the alternating family {a x (m+1), (-a) x m}
    with odd |a| >= 3.  Otherwise the reported failed condition is the
    first broken link in the obstruction chain: nonzero mu-bar, a nonzero
    residual central weight, or the cover failing the extremal-family
    classification (including its direct-double requirement).
    """
    std = normalize(double_branched_cover(k)) if cover is None else cover.standard_form
    mu = _cover_mubar(k, std)
    a = _family_shape(k.strands)
    if a is not None:
        return DoublySliceVerdict(DOUBLY_SLICE, mu, parameter=a)

    def refuted(condition: str, detail: str) -> DoublySliceVerdict:
        return DoublySliceVerdict(NOT_DOUBLY_SLICE, mu, failed_condition=condition, detail=detail)

    big = [c for c in k.strands if abs(c) > 1]
    ones = sum(c for c in k.strands if abs(c) == 1)
    if len(big) == 1 and ones == 0:
        # the +-1 strands cancel in pairs: this is the (2, c) torus knot,
        # whose cover is the lens space with torsion Z/|c| (the uniform
        # fiber transcription degenerates here)
        c = big[0]
        return refuted(
            "cover_obstructed",
            f"reduces to the (2,{c}) torus knot: cover torsion Z/{abs(c)} is not a direct double",
        )
    if mu != 0:
        return refuted("mubar_nonzero", f"mu-bar = {mu}")
    e_res = ones if std.orientation_reversed else -ones  # on the mirror's strands when reversed
    if e_res != 0:
        return refuted("residual_central_weight", f"+-1 strands fold to central weight {e_res} != 0")
    h1 = h1_formula(std) if cover is None else cover.h1
    if not is_direct_double(h1):
        return refuted("cover_obstructed", f"tor H1 = {h1} is not a direct double")
    fam = match_theorem_families(std)  # eps > 0, as mu-bar was defined
    if fam is None or fam.family != "half-plus":
        return refuted("cover_obstructed", "cover is not in the classified extremal family")
    raise AssertionError(f"{k}: cover in the extremal family but strands not of family shape")
