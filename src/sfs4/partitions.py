"""The partition obstruction for smooth embeddings in the 4-sphere.

A space with eps > 0 that embeds smoothly must be *partitionable*: tor H_1
splits as a direct double and there are two partitions P1, P2 of the fiber
index set {1..k}, each into exactly e classes, such that in each partition

  (a) exactly one class (the deficit class) has reciprocal sum
      1 - 1/lcm(p_1..p_k),
  (b) every other class sums to exactly 1 (these are "complementary"), and
  (c) no nonempty union of a proper sub-collection of P1's classes equals a
      union of classes of P2.

Summing (a)+(b) forces eps = 1/lcm(p_1..p_k), which is used as a fast
refutation.  Everything runs on exact integers: with L = lcm(p_i), fiber i
weighs w_i = q_i (L / p_i), a complementary class closes at weight L and the
deficit class at L - 1.

For 2e <= k the partitions are listed once: fibers are placed in descending
weight order, and the search keeps the count of open classes to prune a
branch that has too few fibers left.  Condition (c) is then tested pair by
pair on class bitmasks, built once per partition.

At 2e = k + 1, the largest e that ``bound_e`` leaves, nothing is listed.  A
complementary class needs two fibers, as every w_i < L, so every partition
is e - 1 complementary pairs {v, c(v)} (c(p/q) = p/(p - q)) plus the deficit
class, one fiber of value L/(L - 1).  The count is read off the value
multiplicities: the deficit fiber's multiplicity times the perfect matchings
of the rest, m! for a value pair {v, c(v)} with m fibers of each and
(m - 1)!! for the self-complementary value 2.  A component of the union of
two such partitions alternates between one value pair, so condition (c)
holds for some pair only in the half-plus shape, every fiber L/(L - 1) or L.
There the least partition in canonical order has a partner, and a walk in
canonical order finds its least one, pruning a class that closes a cycle or
a finished component short of the whole set.

Also here: the e <= (k+1)/2 bound and recognition of the two classified
extremal families.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .homology import AbelianGroup, h1_formula, is_direct_double, partition_sum_law
from .rationals import complement, format_rational
from .seifert import StandardForm

Partition = tuple[tuple[int, ...], ...]

DEFAULT_FIBER_BUDGET = 14

REFUTED_DIRECT_DOUBLE = "torsion_not_direct_double"
REFUTED_EULER = "euler_invariant_not_reciprocal_lcm"
REFUTED_NO_PARTITION = "no_partition_meets_sum_conditions"
REFUTED_NO_PAIR = "no_pair_meets_union_condition"


def canonical_partition(classes) -> Partition:
    return tuple(sorted(tuple(sorted(c)) for c in classes))


@dataclass(frozen=True)
class PartitionPair:
    """Witness for partitionability, classes as sorted 1-based index tuples."""

    p1: Partition
    p2: Partition
    deficit_class_1: tuple[int, ...]
    deficit_class_2: tuple[int, ...]

    def validate(self, s: StandardForm) -> None:
        """Recompute all three conditions; raises AssertionError on failure."""
        for part, deficit in ((self.p1, self.deficit_class_1), (self.p2, self.deficit_class_2)):
            law = partition_sum_law(s, part)
            if not law.ok:
                raise AssertionError(f"sum law failed: {law}")
            if sum(s.weights[i - 1] for i in deficit) >= s.lcm:
                raise AssertionError("marked deficit class is not strict")
        if not union_condition(self.p1, self.p2):
            raise AssertionError("union condition fails")


def _class_masks(part: Partition) -> tuple[tuple[int, ...], int]:
    """Each class of ``part`` as a bitmask (bit i for index i), and their union."""
    masks = tuple(sum(1 << i for i in c) for c in part)
    cover = 0
    for m in masks:
        cover |= m
    return masks, cover


def _shares_only_everything(ma, mb) -> bool:
    """Condition (c) on two partitions given by ``_class_masks``.

    The unions shared by two partitions of one set are the unions of the
    connected pieces of their classes (a class meets another when they
    intersect), so grow one class by every class it meets until it covers
    both partitions or stops growing.
    """
    masks = ma[0] + mb[0]
    if not masks:
        return True
    full = ma[1] | mb[1]
    reach = masks[0]
    grown = True
    while grown and reach != full:
        grown = False
        for m in masks:
            if m & reach and m & ~reach:
                reach |= m
                grown = True
    return reach == full


def union_condition(p1: Partition, p2: Partition) -> bool:
    """Condition (c), symmetric: the only union of classes both share is everything."""
    return _shares_only_everything(_class_masks(p1), _class_masks(p2))


def first_union_pair(parts: list[Partition]) -> tuple[Partition, Partition] | None:
    """The first pair (pa, pb), pa at or before pb in ``parts``, meeting (c)."""
    masks: list = []  # of parts[:len(masks)], built as the scan reaches them
    for i in range(len(parts)):
        for j in range(i, len(parts)):
            if j == len(masks):
                masks.append(_class_masks(parts[j]))
            if _shares_only_everything(masks[i], masks[j]):
                return parts[i], parts[j]
    return None


@dataclass(frozen=True)
class PartitionSearchResult:
    status: str  # "witness" | "refuted" | "budget_exceeded"
    witness: PartitionPair | None = None
    refuted: str | None = None
    detail: str = ""
    candidates: tuple[Partition, ...] = ()  # with a witness at 2e <= k: all sum-condition partitions
    count: int = 0  # with a witness: the number of sum-condition partitions

    @property
    def is_witness(self) -> bool:
        return self.status == "witness"


def _place(pos, fibers, classes, e, total, open_count, deficit_free, out):
    """Place ``fibers[pos:]`` into ``classes`` and record every completed partition.

    ``fibers`` holds (index, weight) pairs by descending weight; a class is
    [cap, load, members] with cap ``total`` (complementary) or ``total - 1``
    (deficit), and ``open_count`` counts the classes whose load is below cap.
    """
    if pos == len(fibers):
        if open_count == 0 and len(classes) == e:
            out.append(canonical_partition(c[2] for c in classes))
        return
    n = len(classes)
    # every still-open class and every class yet to be created needs a fiber
    if open_count + e - n > len(fibers) - pos:
        return
    idx, w = fibers[pos]
    for c in classes:
        load = c[1] + w
        if load <= c[0]:
            c[1] = load
            c[2].append(idx)
            _place(pos + 1, fibers, classes, e, total, open_count - (load == c[0]), deficit_free, out)
            c[1] -= w
            c[2].pop()
    if n < e:
        # a new complementary class, or the deficit class while it is unused
        for cap in (total, total - 1) if deficit_free else (total,):
            if w <= cap:
                classes.append([cap, w, [idx]])
                free = deficit_free and cap == total
                _place(pos + 1, fibers, classes, e, total, open_count + (w < cap), free, out)
                classes.pop()


def _sum_condition_partitions(weights, e, total) -> list[Partition]:
    """All partitions of 1..k into e classes: e-1 weigh ``total``, one ``total - 1``.

    ``weights[i - 1]`` is fiber i's integer weight.  Fibers are placed in
    descending weight order and a class that would exceed its cap is pruned.
    """
    fibers = sorted(enumerate(weights, start=1), key=lambda iw: iw[1], reverse=True)
    out: list[Partition] = []
    _place(0, fibers, [], e, total, 0, True, out)
    return sorted(set(out))


def sum_condition_partitions(s: StandardForm) -> list[Partition]:
    """Partitions of the fibers satisfying conditions (a) and (b)."""
    if s.eps_num <= 0:
        raise ValueError("partition search needs eps > 0")
    if s.fiber_count == 0 or s.eps_num != 1:  # eps = 1/L
        return []
    return _sum_condition_partitions(s.weights, s.central, s.lcm)


def _paired_count(s: StandardForm) -> int:
    """The number of sum-condition partitions at 2e = k + 1, from multiplicities."""
    mult = Counter(s.fibers)
    deficit = (s.lcm, s.lcm - 1)  # the one value of weight L - 1
    count = mult[deficit]
    if not count:
        return 0
    mult[deficit] -= 1
    for v, m in mult.items():
        c = complement(v)
        if mult[c] != m:
            return 0
        if v == c:  # v = 2 pairs with itself
            if m % 2:
                return 0
            count *= math.prod(range(m - 1, 0, -2))
        elif v[0] < 2 * v[1]:  # v < c: each value pair once
            count *= math.factorial(m)
    return count


def _paired_partitions(s: StandardForm, p1: Partition | None = None):
    """The sum-condition partitions at 2e = k + 1, in canonical order.

    Each class holds the least fiber not yet placed, and the options for it
    come in increasing order: the singleton (the deficit class), then the
    pairs.  With ``p1``, only the partitions whose union with ``p1`` is
    connected, pruned by ``_join``.
    """
    union = None
    if p1 is not None:
        label = [0] * (s.fiber_count + 1)
        for n, cls in enumerate(p1):
            for i in cls:
                label[i] = n
        union = (tuple(label), {n: len(cls) for n, cls in enumerate(p1)})
    return _walk(s.weights, s.lcm, tuple(range(1, s.fiber_count + 1)), True, (), union)


def _walk(w, total, rest, deficit_free, classes, union):
    """``_paired_partitions`` from ``classes``, with ``rest`` still to place."""
    if not rest:
        yield classes
        return
    m = rest[0]
    options = [(m,)] if deficit_free and w[m - 1] == total - 1 else []
    options += [(m, j) for j in rest[1:] if w[m - 1] + w[j - 1] == total]
    for cls in options:
        joined = None
        if union is not None:
            joined = _join(union, cls)
            if joined is None:
                continue
        remaining = tuple(i for i in rest if i not in cls)
        yield from _walk(w, total, remaining, deficit_free and len(cls) == 2, classes + (cls,), joined)


def _join(union, cls):
    """The union with P1 after ``cls`` joins P2, or None when no completion connects.

    ``union`` is the component label of every fiber and, per component, the
    number of its fibers without a class in P2.  A pair inside one component
    closes a cycle, and a component whose fibers all have their class can no
    longer grow, so both end the branch.
    """
    label, left = union
    a = label[cls[0]]
    left = dict(left)
    if len(cls) == 2:
        b = label[cls[1]]
        if a == b:
            return None
        label = tuple(a if x == b else x for x in label)
        left[a] += left.pop(b) - 1
    left[a] -= 1
    if left[a] == 0 and len(left) > 1:
        return None
    return label, left


def _paired_union_pair(s: StandardForm) -> tuple[Partition, Partition] | None:
    """``first_union_pair`` over the partitions at 2e = k + 1, with at least one."""
    pa = next(_paired_partitions(s))
    if not set(s.weights) <= {1, s.lcm - 1}:
        return None  # not half-plus: every union has a component per value pair
    pb = next(_paired_partitions(s, pa), None)
    return None if pb is None else (pa, pb)


def _deficit_class(s: StandardForm, part: Partition) -> tuple[int, ...]:
    for c in part:
        if sum(s.weights[i - 1] for i in c) < s.lcm:
            return c
    raise AssertionError("no strict class in a sum-condition partition")


def is_partitionable(
    s: StandardForm,
    fiber_budget: int = DEFAULT_FIBER_BUDGET,
    *,
    h1: AbelianGroup | None = None,
) -> PartitionSearchResult:
    """Decide partitionability; witness, refutation, or budget marker.

    The witness is the lexicographically least pair over all candidate
    partitions in canonical order, independent of search schedule; at
    2e = k + 1 it comes from the counting route, which lists no partition,
    so ``fiber_budget`` bounds only the labelled search.  ``h1`` is H_1(s)
    when the caller already has it; it is computed when absent.
    """
    eps = format_rational((s.eps_num, s.lcm))
    if s.eps_num <= 0:
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
    if s.eps_num != 1:  # eps = 1/L
        return PartitionSearchResult(
            "refuted",
            refuted=REFUTED_EULER,
            detail=f"eps = {eps} != 1/lcm = 1/{s.lcm}",
        )
    if 2 * s.central == k + 1:
        parts: list[Partition] = []
        count = _paired_count(s)
        pair = _paired_union_pair(s) if count else None
    elif k > fiber_budget:
        return PartitionSearchResult(
            "budget_exceeded", detail=f"k = {k} exceeds budget {fiber_budget}"
        )
    else:
        parts = sum_condition_partitions(s)
        count = len(parts)
        pair = first_union_pair(parts)
    if not count:
        return PartitionSearchResult(
            "refuted",
            refuted=REFUTED_NO_PARTITION,
            detail="no partition satisfies the class sum conditions",
        )
    if pair is not None:
        pa, pb = pair
        witness = PartitionPair(pa, pb, _deficit_class(s, pa), _deficit_class(s, pb))
        witness.validate(s)
        return PartitionSearchResult(
            "witness", witness=witness, candidates=tuple(parts), count=count
        )
    return PartitionSearchResult(
        "refuted",
        refuted=REFUTED_NO_PAIR,
        detail=f"{count} sum-condition partitions, no pair satisfies the union condition",
    )


@dataclass(frozen=True)
class BoundCheck:
    ok: bool
    detail: str


def bound_e(s: StandardForm) -> BoundCheck:
    """Necessary bound 2e <= k + 1 for eps > 0 (fast pre-filter)."""
    if s.eps_num <= 0:
        raise ValueError("bound applies to eps > 0")
    e, k = s.central, s.fiber_count
    return BoundCheck(2 * e <= k + 1, f"e = {e}, k = {k}")


# ---------------------------------------------------------------------------
# Extremal family recognition


@dataclass(frozen=True)
class FamilyMatch:
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
