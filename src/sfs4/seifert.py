"""Seifert fibered spaces over orientable surfaces.

A space is recorded by its surgery data: base genus g, central weight e and an
ordered list of nonzero fiber fractions p_i/q_i.  ``normalize`` reduces any
such presentation (possibly reversing orientation) to the standard form with
every fraction > 1 and generalized Euler invariant

    eps = e - sum(q_i / p_i) >= 0.

Every space carries its ``eps``, computed once when it is built; a standard
form also carries L = lcm(p_1..p_k) as ``lcm`` and the integer fiber weights
w_i = q_i (L / p_i) as ``weights``, computed on first use.  The other modules
read these attributes and never work them out again.

Fiber indices are 1-based everywhere in the public API, matching the usual
mathematical indexing; certificates and partition classes always refer to
positions in a space's fiber tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .rationals import complement, format_rational


def fiber_pq(r: Fraction) -> tuple[int, int]:
    """Split a nonzero fiber fraction r into (p, q) with p >= 1, gcd(p,q)=1."""
    if r == 0:
        raise ValueError("zero fiber fraction")
    if r.numerator > 0:
        return r.numerator, r.denominator
    return -r.numerator, -r.denominator


def format_sfs(genus: int, central: int, fibers) -> str:
    """The input grammar's text ``SFS(g=..; e=..; r1, ..., rk)`` of a space."""
    rs = ", ".join(format_rational(r) for r in fibers)
    return f"SFS(g={genus}; e={central}; {rs})" if rs else f"SFS(g={genus}; e={central};)"


def _fractions(values) -> tuple[Fraction, ...]:
    return tuple(r if type(r) is Fraction else Fraction(r) for r in values)


@dataclass(frozen=True)
class SeifertData:
    """Raw (possibly unnormalized) Seifert surgery data F(e; p1/q1, ..., pk/qk)."""

    genus: int
    central: int
    fibers: tuple[Fraction, ...]
    eps: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fibers", _fractions(self.fibers))
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if any(r == 0 for r in self.fibers):
            raise ValueError("fiber fractions must be nonzero")
        object.__setattr__(self, "eps", euler_invariant(self))

    @property
    def fiber_count(self) -> int:
        return len(self.fibers)

    def __str__(self) -> str:
        return format_sfs(self.genus, self.central, self.fibers)


@dataclass(frozen=True)
class StandardForm:
    """Standard form: every fiber > 1 and eps >= 0.

    ``orientation_reversed`` records whether normalization had to pass to the
    mirror.  Embeddability in S^4 does not depend on it.
    """

    genus: int
    central: int
    fibers: tuple[Fraction, ...]
    orientation_reversed: bool = False
    eps: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fibers", _fractions(self.fibers))
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if any(r.numerator <= r.denominator for r in self.fibers):
            raise ValueError("standard form needs every fiber fraction > 1")
        object.__setattr__(self, "eps", euler_invariant(self))
        if self.eps < 0:
            raise ValueError("standard form needs eps >= 0")

    @property
    def fiber_count(self) -> int:
        return len(self.fibers)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        """The p_i of the fibers, in fiber order."""
        return tuple(r.numerator for r in self.fibers)

    def betas(self) -> tuple[Fraction, ...]:
        """The reciprocals q_i/p_i, each in (0, 1)."""
        return tuple(1 / r for r in self.fibers)

    @cached_property
    def lcm(self) -> int:
        """L = lcm(p_1..p_k); 1 with no fibers."""
        return math.lcm(*self.multiplicities)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """The integer weights w_i = q_i (L / p_i), in fiber order.

        w_i = L q_i/p_i, so fibers have reciprocal sum 1 (1 - 1/L) exactly when
        their weights sum to L (L - 1).
        """
        lcm = self.lcm
        return tuple(r.denominator * (lcm // r.numerator) for r in self.fibers)

    def as_seifert_data(self) -> SeifertData:
        return SeifertData(self.genus, self.central, self.fibers)

    def canonical_key(self):
        """Equality key treating the fiber list as a multiset."""
        return (self.genus, self.central, tuple(sorted(self.fibers, reverse=True)))

    def __str__(self) -> str:
        return format_sfs(self.genus, self.central, self.fibers)


def _minus_sum(central: int, reciprocals) -> tuple[int, int]:
    """(num, den) with num/den = central - sum(q/p for (q, p) in reciprocals).

    Plain integers throughout; den is the product of the p's and may be
    negative.
    """
    num, den = central, 1
    for q, p in reciprocals:
        num, den = num * p - q * den, den * p
    return num, den


def euler_invariant(s) -> Fraction:
    """Generalized Euler invariant e - sum(q_i/p_i), exact."""
    return Fraction(*_minus_sum(s.central, ((r.denominator, r.numerator) for r in s.fibers)))


def _accumulate(central: int, fibers) -> tuple[int, list[tuple[int, int]]]:
    # Shift each reciprocal q/p into (0,1), kept as the coprime pair (q', p)
    # with 0 < q' < p, and move its integer part into the central weight;
    # integer reciprocals correspond to regular fibers and vanish.
    kept = []
    e = central
    for r in fibers:
        p, q = r.numerator, r.denominator
        if p < 0:
            p, q = -p, -q
        n, rem = divmod(q, p)
        e -= n
        if rem:
            kept.append((rem, p))
    return e, kept


def normalize(s: SeifertData) -> StandardForm:
    """Standard form of a Seifert space, reversing orientation if eps < 0.

    Fibers given as negative fractions or with |r| < 1 are folded through
    their reciprocal's fractional part, which is the unique convention
    preserving the Euler invariant.  Surviving fibers keep their input order.
    """
    e, betas = _accumulate(s.central, s.fibers)
    reversed_ = _minus_sum(e, betas)[0] < 0  # the denominator is positive here
    if reversed_:
        # -beta has floor -1 and fractional part 1 - beta
        e, betas = len(betas) - e, [(p - q, p) for q, p in betas]
    return StandardForm(s.genus, e, tuple(Fraction(p, q) for q, p in betas), reversed_)


def expand(s: StandardForm, j: int) -> StandardForm:
    """Append the complementary pair of fiber j (1-based) and increment e.

    The Euler invariant is unchanged: the new fractions p_j/(p_j - q_j) and
    p_j/q_j contribute reciprocals summing to 1.
    """
    if not 1 <= j <= s.fiber_count:
        raise IndexError(f"fiber index {j} out of range 1..{s.fiber_count}")
    r = s.fibers[j - 1]
    return StandardForm(
        s.genus,
        s.central + 1,
        s.fibers + (complement(r), r),
        s.orientation_reversed,
    )


def find_contractions(s: StandardForm) -> list[tuple[int, StandardForm]]:
    """All ways of undoing an expansion, up to fiber permutation.

    Each result is (j, contracted) where the removed unordered fiber pair was
    {r, complement(r)} and fiber j (1-based, in the contracted space) carries
    the duplicated fraction, so ``expand(contracted, j)`` reproduces ``s`` as
    a multiset.  Empty when the space is minimal.
    """
    fibers = s.fibers
    where: dict[Fraction, list[int]] = {}
    for i, r in enumerate(fibers):
        where.setdefault(r, []).append(i)
    out = []
    for r, at in where.items():
        c = complement(r)
        if c < r or c not in where:
            continue  # each value pair {r, c} once, from its smaller member
        idx = at if c == r else sorted(at + where[c])
        # Some remaining fiber must carry r or c for the pair to be an
        # expansion pair.  Every pair of these two values leaves the same
        # multiset, so the first one, (a, b) with a < b, stands for them all.
        if len(idx) < 3:
            continue
        a = idx[0]
        b = idx[1] if c == r else (where[c] if fibers[a] == r else at)[0]
        rest = [x for i, x in enumerate(fibers) if i != a and i != b]
        j = next(i + 1 for i, x in enumerate(rest) if x == r or x == c)
        out.append((j, StandardForm(s.genus, s.central - 1, tuple(rest), s.orientation_reversed)))
    out.sort(key=lambda item: (item[1].canonical_key(), item[0]))
    return out
