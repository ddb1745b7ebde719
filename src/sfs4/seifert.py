"""Seifert fibered spaces over orientable surfaces.

A space is recorded by its surgery data: base genus g, central weight e and an
ordered list of nonzero fibers p_i/q_i, each stored as its coprime integer
pair (p_i, q_i) with p_i >= 1.  ``SeifertData`` is the one boundary: it takes
pairs of either sign, ``Fraction``s or ints and reduces each fiber once.
``normalize`` reduces any such presentation (possibly reversing orientation)
to the ``StandardForm`` with every fiber > 1 and generalized Euler invariant

    eps = e - sum(q_i / p_i) >= 0.

Every space carries L = lcm(p_1..p_k) as ``lcm`` and eps as the integer
``eps_num`` = L eps, both derived from the pairs when the space is built (one
integer sum, no ``Fraction``).  A standard form also carries the integer
fiber weights w_i = q_i (L / p_i) as ``weights``, computed on first use.
Spaces are immutable and compare by value (``Frozen``); the derived values
take no part in ``==``, ``hash`` or ``repr``.

Fiber indices are 1-based everywhere in the public API, matching the usual
mathematical indexing; certificates and partition classes always refer to
positions in a space's fiber tuple.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import NamedTuple

from .rationals import complement, format_rational


def as_int(value, name: str) -> int:
    """``value`` as an int, or a ValueError naming it (``int`` would truncate a float)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def fiber_pq(r) -> tuple[int, int]:
    """A nonzero fiber r, a pair (num, den) of ints, ``Fraction`` or int, as (p, q).

    p/q = r with p >= 1 and gcd(p, q) = 1.
    """
    if type(r) is tuple and len(r) != 2:
        raise ValueError(f"fiber entry must be a pair (p, q), got {r!r}")
    p, q = r if type(r) is tuple else (getattr(r, "numerator", r), getattr(r, "denominator", 1))
    if type(p) is not int or type(q) is not int:
        p, q = as_int(p, "fiber entry"), as_int(q, "fiber entry")
    if not (p and q):
        raise ValueError("fiber fractions must be nonzero, with a nonzero denominator")
    g = math.gcd(p, q) if p > 0 else -math.gcd(p, q)
    return p // g, q // g


def format_sfs(genus: int, central: int, fibers) -> str:
    """The input grammar's text ``SFS(g=..; e=..; r1, ..., rk)`` of a space."""
    rs = ", ".join(format_rational(r) for r in fibers)
    return f"SFS(g={genus}; e={central}; {rs})" if rs else f"SFS(g={genus}; e={central};)"


def euler_invariant(central: int, fibers, lcm: int) -> int:
    """L eps = e L - sum q_i (L / p_i), the Euler invariant over L = ``lcm``."""
    return central * lcm - sum(q * (lcm // p) for p, q in fibers)


class Frozen:
    """An immutable value: the attributes named in ``_fields`` are compared,
    hashed and shown by ``repr``; others, derived from them, are not.

    ``__init__`` writes its attributes through ``self.__dict__``: assigning
    or deleting one afterwards raises ``AttributeError``.
    """

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class Budget(NamedTuple):
    """Where a budget stopped a search: the stage, its counter, the limit and the counter's value."""

    stage: str
    counter: str
    limit: int
    value: int

    def __str__(self) -> str:
        return f"{self.stage}: {self.value} {self.counter.replace('_', ' ')} exceed the limit {self.limit}"


class TraceStep(NamedTuple):
    """One stage's outcome: its test, the result (pass, fail, skip, info,
    budget or not_applicable) and a detail, the ``witness`` under ``--json``.
    Each stage makes its own step, and ``classify`` keeps them as its trace."""

    test: str
    result: str
    detail: str = ""

    def to_dict(self):
        return {"test": self.test, "result": self.result, "witness": self.detail}


class _Space(Frozen):
    """The fields and derived values shared by both kinds of space."""

    def _store(self, genus: int, central: int, fibers: tuple[tuple[int, int], ...]) -> None:
        """Store the fields, the fibers given as coprime pairs, with L and eps."""
        if type(genus) is not int or type(central) is not int:
            genus, central = as_int(genus, "genus"), as_int(central, "central weight")
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        lcm = math.lcm(*[p for p, _ in fibers])
        self.__dict__.update(genus=genus, central=central, fibers=fibers, lcm=lcm,
                             eps_num=euler_invariant(central, fibers, lcm))

    @property
    def fiber_count(self) -> int:
        return len(self.fibers)

    def __str__(self) -> str:
        return format_sfs(self.genus, self.central, self.fibers)


class SeifertData(_Space):
    """Raw (possibly unnormalized) Seifert surgery data F(e; p1/q1, ..., pk/qk)."""

    _fields = ("genus", "central", "fibers")

    def __init__(self, genus: int, central: int, fibers):
        self._store(genus, central, tuple(map(fiber_pq, fibers)))


class StandardForm(_Space):
    """Standard form: every fiber > 1 and eps >= 0.

    The fibers must be standard pairs, int pairs (p, q) with p > q >= 1 and
    gcd(p, q) = 1, as ``normalize`` makes them; they are stored as given.
    ``orientation_reversed`` records whether normalization had to pass to the
    mirror.  Embeddability in S^4 does not depend on it.
    """

    _fields = ("genus", "central", "fibers", "orientation_reversed")

    def __init__(self, genus: int, central: int, fibers, orientation_reversed: bool = False):
        fibers = tuple(fibers)
        for r in fibers:
            if type(r) is not tuple or len(r) != 2 or not 1 <= r[1] < r[0] or math.gcd(*r) != 1:
                raise ValueError(f"standard form needs coprime int pairs p > q >= 1, got {r!r}")
        self._store(genus, central, fibers)
        self.__dict__["orientation_reversed"] = orientation_reversed
        if self.eps_num < 0:
            raise ValueError("standard form needs eps >= 0")

    @property
    def multiplicities(self) -> tuple[int, ...]:
        """The p_i of the fibers, in fiber order."""
        return tuple(p for p, _ in self.fibers)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """The integer weights w_i = q_i (L / p_i), in fiber order.

        w_i = L q_i/p_i, so fibers have reciprocal sum 1 (1 - 1/L) exactly when
        their weights sum to L (L - 1), and a larger fiber weighs less.
        """
        lcm = self.lcm
        return tuple(q * (lcm // p) for p, q in self.fibers)

    def canonical_key(self):
        """Equality key treating the fiber list as a multiset."""
        return (self.genus, self.central, tuple(sorted(self.fibers)))

    def to_dict(self):
        """The ``standard_form`` block of the JSON reports."""
        return {
            "genus": self.genus,
            "central": self.central,
            "fibers": [format_rational(r) for r in self.fibers],
            "orientation_reversed": self.orientation_reversed,
        }


def normalize(s: SeifertData | StandardForm) -> StandardForm:
    """Standard form of a Seifert space, reversing orientation if eps < 0.

    Fibers given as negative fractions or with |r| < 1 are folded through
    their reciprocal's fractional part, which is the unique convention
    preserving the Euler invariant.  Surviving fibers keep their input order,
    and so does L: only p = 1 fibers vanish.  A standard form normalizes to
    an equal one with ``orientation_reversed`` False.
    """
    # Shift each reciprocal q/p into (0,1), kept as the fiber (p, q') with
    # 0 < q' < p, and move its integer part into the central weight;
    # integer reciprocals correspond to regular fibers and vanish.
    e, fibers = s.central, []
    for p, q in s.fibers:
        n, rem = divmod(q, p)
        e -= n
        if rem:
            fibers.append((p, rem))
    reversed_ = s.eps_num < 0
    if reversed_:
        # -beta has floor -1 and fractional part 1 - beta
        e, fibers = len(fibers) - e, [(p, p - q) for p, q in fibers]
    return StandardForm(s.genus, e, tuple(fibers), reversed_)


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

    Results are ordered by the contracted fiber values sorted decreasingly,
    then by j, read on the parent's weights (every contraction keeps a fiber
    of each multiplicity).  That order is the order of w_r decreasing, where
    r <= 2 is the pair's member, so one integer sorts them.  Removing
    {r, c(r)} removes the weights w_c <= L/2 and w_r = L - w_c, and distinct
    value pairs have distinct w_c.  Take two options with w_c < w_c'.  Their
    ascending lists of remaining weights agree below w_c, and the first has
    one fewer copy of w_c (w_r, w_r' and w_c' all exceed w_c), so its list
    is larger there and its negated list smaller.  The order is therefore
    w_c ascending, and j never breaks a tie.
    """
    fibers, weights = s.fibers, s.weights
    where: dict[tuple[int, int], list[int]] = {}
    for i, r in enumerate(fibers):
        where.setdefault(r, []).append(i)
    out = []
    for r, at in where.items():
        p, q = r
        c = complement(r)
        if p > 2 * q or c not in where:
            continue  # each value pair {r, c} once, from its member r <= 2
        idx = at if c == r else sorted(at + where[c])
        # Some remaining fiber must carry r or c for the pair to be an
        # expansion pair.  Every pair of these two values leaves the same
        # multiset, so the first one, (a, b) with a < b, stands for them all.
        if len(idx) < 3:
            continue
        a = idx[0]
        b = idx[1] if c == r else (where[c] if fibers[a] == r else at)[0]
        keep = [i for i in range(len(fibers)) if i != a and i != b]
        j = next(n + 1 for n, i in enumerate(keep) if fibers[i] == r or fibers[i] == c)
        contracted = StandardForm(
            s.genus, s.central - 1, tuple(fibers[i] for i in keep), s.orientation_reversed
        )
        out.append((-weights[at[0]], j, contracted))
    out.sort(key=lambda item: item[0])
    return [(j, contracted) for _, j, contracted in out]


def contraction_walk(s: StandardForm) -> list[tuple[int, StandardForm]]:
    """The contractions of ``s`` down to its minimal form, each step the first
    of ``find_contractions``: a list of (j, contracted) as there.  Pairs
    {r, c(r)} are contracted in increasing order of their member r <= 2: a
    contraction only removes options, and the first option is the least r.

    Any maximal path of contractions ends in the same minimal form, so this
    one path is the whole search.  Contractions of different value pairs
    {r, c(r)} remove disjoint fibers, so they commute; within one pair the
    counts (a, b) of r and c(r) end at (a - b, 0), (0, b - a) or (1, 1) in
    any order, and a run of 2s (c(2) = 2) ends at one or two 2s.  Every path
    therefore has the same length.  For eps > 0 a space with e = 1 has no
    contraction, since a removed pair's reciprocals already sum to 1, so the
    only e = 1 space reachable is the minimal form, and a breadth-first
    search for an e = 1 base, taking children in this order, reaches it along
    this path: the first state it pops at each depth is the first child of
    the first state it popped one depth up.
    """
    steps = []
    while options := find_contractions(s):
        steps.append(options[0])
        s = options[0][1]
    return steps
