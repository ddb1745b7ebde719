"""The partition obstruction for smooth embeddings in the 4-sphere.

A space with eps > 0 that embeds smoothly must be *partitionable*: tor H_1
splits as a direct double and there are two partitions P1, P2 of the fiber
index set {1..k}, each into exactly e classes, such that in each partition

  (a) exactly one class (the deficit class) has reciprocal sum
      1 - 1/lcm(p_1..p_k),
  (b) every other class sums to exactly 1 (these are "complementary"), and
  (c) no nonempty union of a proper sub-collection of P1's classes equals a
      union of classes of P2.

Summing (a)+(b) forces eps = 1/lcm(p_1..p_k), which the direct-double test
already forces (``is_partitionable``).  Everything runs on exact integers:
with L = lcm(p_i), fiber i weighs w_i = q_i (L / p_i), a complementary class
closes at weight L and the deficit class at L - 1.

The search walks partitions in canonical order (each class a sorted tuple,
classes by least member): each class holds the least fiber not yet placed,
its options come in increasing order, and it leaves a fiber for each class
still to come and two for each complementary one, as every w_i < L.  The
conditions read fiber values only, so the partitions are searched once per
orbit of the permutations of equal fibers (equal (p, q)), as in isomorph-
free generation (B. McKay, J. Algorithms 26, 1998): a walk that gives each
class the least free fibers of each value reaches the least member of every
orbit once, and an orbit's size comes from its value counts.  The count of
sum-condition partitions is the sum of the sizes.  The least witness has P1
the least member with a partner and P2 that member's least partner, found
by a walk in canonical order that prunes a finished component short of the
whole set and a class closing more cycles than a connected union has.

At 2e = k + 1, the largest e that ``bound_e`` leaves, every partition is
e - 1 complementary pairs {v, c(v)} (c(p/q) = p/(p - q)) plus the deficit
class, one fiber of value L/(L - 1): there is one orbit, reached in
polynomial time, so the fiber budget does not apply.  A component of the
union of two such partitions alternates between one value pair, so
condition (c) holds for some pair only in the half-plus shape, every fiber
L/(L - 1) or L, and such a union has no cycle.

Also here: the e <= (k+1)/2 bound and recognition of the two classified
extremal families.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .homology import AbelianGroup, h1_formula, is_direct_double
from .rationals import complement, format_rational
from .seifert import Budget, StandardForm, TraceStep

Partition = tuple[tuple[int, ...], ...]

DEFAULT_FIBER_BUDGET = 14

REFUTED_DIRECT_DOUBLE = "torsion_not_direct_double"
REFUTED_NO_PARTITION = "no_partition_meets_sum_conditions"
REFUTED_NO_PAIR = "no_pair_meets_union_condition"


class PartitionPair(NamedTuple):
    """Witness for partitionability, classes as sorted 1-based index tuples."""

    p1: Partition
    p2: Partition
    deficit_class_1: tuple[int, ...]
    deficit_class_2: tuple[int, ...]

    def validate(self, s: StandardForm) -> None:
        """Recompute the witness; raises AssertionError on failure.

        Each partition meets the sum law (``_sum_law``: eps > 0, gcd(p_1..p_k)
        = 1 when k is even, nonempty classes covering 1..k exactly once, one
        class of weight L - 1 and e - 1 of weight L), its marked deficit
        class is its strict class, and the pair meets the union condition.
        """
        for part, deficit in ((self.p1, self.deficit_class_1), (self.p2, self.deficit_class_2)):
            if sorted(deficit) != sorted(_sum_law(s, part)):
                raise AssertionError(f"marked deficit class {deficit} is not the strict class of {part}")
        if not union_condition(self.p1, self.p2):
            raise AssertionError("union condition fails")


def _sum_law(s: StandardForm, part) -> tuple[int, ...]:
    """The strict class of ``part``, which must meet the sum law on ``s``.

    Raises AssertionError unless eps > 0, gcd(p_1..p_k) = 1 when k is even,
    and the classes of ``part`` are nonempty, cover 1..k exactly once, and
    weigh L - 1 (the strict class) once and L the other e - 1 times: one
    pass over the classes on the integer weights.
    """
    k, total, w = s.fiber_count, s.lcm, s.weights
    if s.eps_num <= 0:
        raise AssertionError(f"sum law needs eps > 0, got {format_rational((s.eps_num, total))}")
    if k % 2 == 0 and math.gcd(*s.multiplicities) != 1:
        raise AssertionError(f"sum law needs gcd(p_1..p_k) = 1 for even k = {k}")
    if len(part) != s.central:
        raise AssertionError(f"{part} has {len(part)} classes, not e = {s.central}")
    placed, strict = 0, None
    for c in part:
        load = 0
        for i in c:
            if not 0 < i <= k or placed >> i & 1:
                raise AssertionError(f"fiber {i} of {part} is out of range or placed twice")
            placed |= 1 << i
            load += w[i - 1]
        if load != total:
            if not c or load != total - 1 or strict is not None:
                raise AssertionError(f"class {c} of {part} weighs {load} over L = {total}")
            strict = c
    if placed != (2 << k) - 2 or strict is None:
        raise AssertionError(f"{part} misses a fiber of 1..{k} or has no strict class")
    return strict


def union_condition(p1: Partition, p2: Partition) -> bool:
    """Condition (c), symmetric: the only union of classes both share is everything.

    The unions two partitions of one set share are the unions of the
    connected pieces of their classes, two classes meeting when they
    intersect; the pieces are kept as bitmasks.
    """
    pieces: list[int] = []
    for c in (*p1, *p2):
        mask = sum(1 << i for i in c)
        for piece in pieces:
            if piece & mask:
                mask |= piece
        pieces = [piece for piece in pieces if not piece & mask] + [mask]
    return len(pieces) <= 1


class PartitionSearchResult(NamedTuple):
    status: str  # "witness" | "refuted" | "budget_exceeded"
    witness: PartitionPair | None = None
    refuted: str | None = None
    detail: str = ""
    # with a witness: (least member, size) per orbit of the sum-condition
    # partitions under permutations of equal fibers, and their number
    orbits: tuple[tuple[Partition, int], ...] = ()
    count: int = 0
    budget: Budget | None = None  # with status "budget_exceeded"

    @property
    def is_witness(self) -> bool:
        return self.status == "witness"

    @property
    def step(self) -> TraceStep:
        """The search's ``partitionable`` trace step."""
        if self.witness is not None:
            return TraceStep("partitionable", "pass", f"P1 = {self.witness.p1}, P2 = {self.witness.p2}")
        if self.budget is not None:
            return TraceStep("partitionable", "budget", self.detail)
        return TraceStep("partitionable", "fail", f"{self.refuted}: {self.detail}")


@lru_cache(maxsize=1)
def _classes(s: StandardForm) -> list:
    """The classes a partition may have: weight L or L - 1, at most k - 2e + 3 fibers.

    The table of the space last asked about is kept, so the walks of one
    search share it.  Entry m, listed by ``_entries`` when first read, has
    (members, bitmask, size, deficit, gap, kind, ties) per class of least
    fiber m, in increasing order; entry 0 holds what they are built from.
    Bit i is fiber i, ``gap`` the fibers outside the class below a member of
    the same value, ``kind`` a bit per multiset of member values, ``ties``
    prod_v c_v! over the member counts c_v of each value.
    """
    k, total, most = s.fiber_count, s.lcm, s.fiber_count - 2 * s.central + 3
    w = (0,) + s.weights
    top = total - min(w[1:])  # the most a class may weigh and still grow
    upto = [0] * (k + 1)  # fiber i and the earlier fibers of its value
    digit = [0] * (k + 1)  # (k + 1)^v for a fiber of the v-th value: a kind sums them
    ids: dict = {}
    masks: dict = {}
    for i, r in enumerate(s.fibers, start=1):
        digit[i] = (k + 1) ** ids.setdefault(r, len(ids))
        upto[i] = masks[r] = masks.get(r, 0) | 1 << i
    return [(w, total, most, top, upto, digit, {})] + [None] * k


def _entries(table, m) -> list:
    """Entry m of the ``_classes`` table, listed when first read."""
    if table[m] is None:
        w, total, most, top, upto, digit, kinds = spec = table[0]
        out = table[m] = []
        if w[m] == total - 1:  # the deficit class alone
            bit = kinds.setdefault(digit[m], 1 << len(kinds))
            out.append(((m,), 1 << m, 1, True, upto[m] & ~(1 << m), bit, 1))
        if w[m] <= top and most > 1:
            _grow(spec, out, (m,), w[m], 1 << m, upto[m], digit[m], 1)
    return table[m]


def _grow(spec, out, cls, load, mask, hull, kind, ties):
    """Add to ``out`` the extensions of ``cls``, a class before its own extensions."""
    w, total, most, top, upto, digit, kinds = spec
    for i in range(cls[-1] + 1, len(w)):
        now = load + w[i]
        if now > total:
            continue
        c, bits, h, kd = cls + (i,), mask | 1 << i, hull | upto[i], kind + digit[i]
        t = ties * ((mask & upto[i]).bit_count() + 1)
        if now >= total - 1:
            bit = kinds.setdefault(kd, 1 << len(kinds))
            out.append((c, bits, len(c), now < total, h & ~bits, bit, t))
        if now <= top and len(c) < most:
            _grow(spec, out, c, now, bits, h, kd, t)


def _walk(run, placed, deficit_free, classes, comps, slack, barred):
    """The first partition after ``classes`` (table entries) that ``run`` takes, or None.

    ``run`` is (``_classes`` table, e, all fibers as a bitmask, the tests of a
    finished partition and of a class or None); ``placed`` has the fibers of
    ``classes`` and bit 0.
    The class of the least fiber left takes the table's options in order.
    With ``comps`` (components of the union with P1) and ``slack``, only
    unions with P1 that are connected: as a graph of fibers and classes, such
    a union has k - 2e + 1 independent cycles, and a class meeting r
    components closes ``size - r``.  With ``barred`` (kinds, 0 at first),
    only least orbit members: a class takes the least free fibers of each
    value, one option per kind, and an option bars the kinds before it.
    """
    cands, e, full, accept, keep = run
    if placed == full:
        return classes if accept(classes) else None
    m = (~placed & (placed + 1)).bit_length() - 1
    room = (full & ~placed).bit_count() - 2 * (e - len(classes) - 1) + deficit_free
    later = barred
    for c in cands[m] if cands[m] is not None else _entries(cands, m):
        mask, size, deficit = c[1], c[2], c[3]
        if mask & placed or keep is not None and not keep(c):
            continue
        bars = later
        if later is not None:
            if c[4] & ~placed or c[5] & later:
                continue
            later |= c[5]
        if size > room or deficit and (not deficit_free or size == room):
            continue
        now = placed | mask
        joined, cycles = comps, slack
        if comps is not None:  # components are disjoint: their sum is their union
            joined = [part for part in comps if not part & mask]
            merged = sum(comps) - sum(joined)
            cycles = slack - size + len(comps) - len(joined)
            if cycles < 0 or joined and not merged & ~now:
                continue
            joined.append(merged)
        found = _walk(run, now, deficit_free and not deficit, classes + (c,), joined, cycles, bars)
        if found is not None:
            return found
    return None


def least_partner(s: StandardForm, p1: Partition, accept=None, keep=None) -> Partition | None:
    """The least sum-condition partition meeting condition (c) with ``p1``, or None.

    With ``accept``, the least one it takes
    whose classes ``keep`` (asked once per multiset of member values) takes.
    At 2e = k + 1 only the half-plus shape, every weight 1 or L - 1, is walked.
    """
    k, e = s.fiber_count, s.central
    if 2 * e == k + 1 and not set(s.weights) <= {1, s.lcm - 1}:
        return None
    kept: dict[int, bool] = {}  # by kind

    def passes(c) -> bool:
        if c[5] not in kept:
            kept[c[5]] = keep(c[0])
        return kept[c[5]]

    def take(found) -> bool:
        return accept is None or accept(tuple(c[0] for c in found))

    comps = [sum(1 << i for i in c) for c in p1]
    found = _walk((_classes(s), e, (2 << k) - 1, take, keep and passes), 1, True, (), comps, k - 2 * e + 1, None)
    return None if found is None else tuple(c[0] for c in found)


def sum_condition_partitions(s: StandardForm) -> list[tuple[Partition, int]]:
    """The partitions meeting conditions (a) and (b), one (least member, size)
    per orbit of the permutations of equal fibers, in canonical order.

    An orbit with classes of value counts c_{C,v}, n_T classes of each value
    multiset T and m_v fibers of value v has
    prod m_v! / (prod_C prod_v c_{C,v}! * prod_T n_T!) members.
    """
    if s.eps_num != 1 or not s.fiber_count:  # (a) and (b) force eps = 1/L
        return []
    full = math.prod(map(math.factorial, Counter(s.fibers).values()))
    out = []

    def record(classes) -> bool:
        size, seen = full, {}
        for c in classes:
            seen[c[5]] = n = seen.get(c[5], 0) + 1
            size //= c[6] * n
        out.append((tuple(c[0] for c in classes), size))
        return False  # walk on

    _walk((_classes(s), s.central, (2 << s.fiber_count) - 1, record, None), 1, True, (), None, 0, 0)
    return out


def is_partitionable(
    s: StandardForm,
    fiber_budget: int = DEFAULT_FIBER_BUDGET,
    *,
    h1: AbelianGroup | None = None,
) -> PartitionSearchResult:
    """Decide partitionability; witness, refutation, or budget marker.

    The witness is the lexicographically least pair over all candidate
    partitions in canonical order, independent of search schedule.  The
    search walks one member per orbit under permutations of equal fibers;
    ``fiber_budget`` bounds it except at 2e = k + 1, where the orbit is
    unique and found in polynomial time.  ``h1`` is H_1(s) when the caller
    already has it; it is computed when absent.

    Conditions (a) and (b) need eps = 1/L, and the direct-double test
    already forces it, so it is not tested again.  Let c_1 | ... | c_k be
    the invariant factors of diag(p_1, ..., p_k), as in ``h1_formula``,
    reading c_0 and c_{-1} as 1.  The largest invariant factor of tor H_1 is
    eps_num c_{k-1}, where eps_num = L eps, and the next one is c_{k-2}.  A
    direct double needs these two equal, and c_{k-2} divides c_{k-1}, so
    eps_num = 1.
    """
    if s.eps_num <= 0:
        eps = format_rational((s.eps_num, s.lcm))
        raise ValueError(f"partitionability is defined for eps > 0, got {eps}")
    if h1 is None:
        h1 = h1_formula(s)
    if not is_direct_double(h1):
        return PartitionSearchResult(
            "refuted", refuted=REFUTED_DIRECT_DOUBLE, detail=f"tor H1 = {h1}"
        )
    k = s.fiber_count
    if k == 0:
        # e = eps > 0 but there is nothing to partition into e classes
        return PartitionSearchResult(
            "refuted", refuted=REFUTED_NO_PARTITION, detail="no fibers to partition"
        )
    if 2 * s.central != k + 1 and k > fiber_budget:
        return PartitionSearchResult("budget_exceeded", detail=f"k = {k} exceeds budget {fiber_budget}",
                                     budget=Budget("partition_search", "fibers", fiber_budget, k))
    orbits = sum_condition_partitions(s)
    count = sum(n for _, n in orbits)
    if not count:
        return PartitionSearchResult(
            "refuted",
            refuted=REFUTED_NO_PARTITION,
            detail="no partition satisfies the class sum conditions",
        )
    for pa, _ in orbits:
        pb = least_partner(s, pa)
        if pb is None:
            continue
        witness = PartitionPair(pa, pb, _sum_law(s, pa), _sum_law(s, pb))
        witness.validate(s)
        return PartitionSearchResult(
            "witness", witness=witness, orbits=tuple(orbits), count=count
        )
    return PartitionSearchResult(
        "refuted",
        refuted=REFUTED_NO_PAIR,
        detail=f"{count} sum-condition partitions, no pair satisfies the union condition",
    )


def bound_e(s: StandardForm) -> TraceStep:
    """Necessary bound 2e <= k + 1 for eps > 0 (fast pre-filter), as its trace step."""
    if s.eps_num <= 0:
        raise ValueError("bound applies to eps > 0")
    e, k = s.central, s.fiber_count
    return TraceStep("central_weight_bound", "pass" if 2 * e <= k + 1 else "fail", f"e = {e}, k = {k}")


# ---------------------------------------------------------------------------
# Extremal family recognition


class FamilyMatch(NamedTuple):
    family: str  # "half-plus" (e = (k+1)/2) | "half-pair" | "half-product"
    params: dict


def _pair_decompositions(counts: dict, pair_types: list):
    """Multiset decompositions into the given unordered value pairs."""
    if all(v == 0 for v in counts.values()):
        yield []
        return
    first = next(v for v in counts if counts[v] > 0)
    for t, (x, y) in enumerate(pair_types):
        if first not in (x, y):
            continue
        other = y if first == x else x
        new = dict(counts)
        new[first] -= 1
        if new.get(other, 0) <= 0:
            continue
        new[other] -= 1
        for rest in _pair_decompositions(new, pair_types):
            yield [t] + rest


def match_theorem_families(s: StandardForm) -> FamilyMatch | None:
    """Recognize the classified shapes at e = (k+1)/2 and e = k/2.

    half-plus:    fibers = {a/(a-1)} + (e-1) x {a, a/(a-1)}          (embeds)
    half-pair:    {u, v} + pairs {u, comp u} and {v, comp v}          (embeds)
    half-product: half-pair shape plus >= 1 pair {uv, uv/(uv-1)}      (open)

    where 1/u + 1/v = 1 - 1/(num(u) num(v)) in the half cases.
    """
    if s.eps_num <= 0:
        raise ValueError("family recognition applies to eps > 0")
    e, k = s.central, s.fiber_count
    fibers = s.fibers
    counts_all = Counter(fibers)

    if 2 * e == k + 1:
        # a from a fiber a/(a - 1) or a; every fiber is > 1, so a >= 2
        for a in sorted({p for p, q in fibers if p - q == 1 or q == 1}):
            want = Counter({(a, a - 1): e})
            want[(a, 1)] += e - 1
            if counts_all == want:
                return FamilyMatch("half-plus", {"a": a})
        return None

    if 2 * e == k and k >= 2:
        best = None
        for i, j in combinations(range(k), 2):
            u, v = fibers[i], fibers[j]
            (p, q), (r, s_) = u, v
            if q * r + s_ * p != p * r - 1:  # 1/u + 1/v = 1 - 1/(pr)
                continue
            rest = dict(counts_all)
            rest[u] -= 1
            rest[v] -= 1
            pair_types = [
                (u, complement(u)),
                (v, complement(v)),
                ((p * r, 1), (p * r, p * r - 1)),
            ]
            for decomp in _pair_decompositions(rest, pair_types):
                n_prod = decomp.count(2)
                params = {
                    "p": p, "q": q,
                    "r": r, "s": s_,
                    "u_pairs": decomp.count(0), "v_pairs": decomp.count(1),
                    "product_pairs": n_prod,
                }
                match = FamilyMatch("half-pair" if n_prod == 0 else "half-product", params)
                if n_prod == 0:
                    return match
                if best is None:
                    best = match
        return best

    return None
