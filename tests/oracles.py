"""Slow general routines and paper results that only the tests call.

Each section backs a module of ``sfs4``:

* ``sfs4.seifert``: the tests' one way to build a space from ``Fraction``
  or int fibers (``sfs``, and ``std``, which hands ``StandardForm`` the
  pairs it takes), and the fibers, their reciprocals and eps as
  ``Fraction``s, summed independently of the integer pairs and ``eps_num``
  of a space.
* ``sfs4.rationals``: the negative continued fraction one term per step,
  the reference for the expansion of its runs.
* ``sfs4.homology``: the routines the production path replaced.  They
  factorize by trial division and sum ``Fraction``s, where the production
  path reads invariant-factor chains directly.  The p-primary decomposition
  of tor H_1 is here too, and the partition sum law with its failure kinds
  over ``Fraction``s, the reference for ``sfs4.partitions._sum_law``.
* ``sfs4.mubar``: Gaussian elimination for the characteristic subsets on the
  dense intersection form, the dense mu-bar ``|Gamma| - w^T Q w``, and the
  chain-by-chain construction of the subsets, all independent of the
  arm-wise ``spin_report``; and the arm's chain walked vertex by vertex,
  the reference for the run solver.
* ``sfs4.partitions``: the structural contraction, which rewrites a
  partitionable space as an expansion of a smaller one and rebuilds its
  witness; the labelled search, which lists every sum-condition partition
  and scans the pairs, the reference for the orbit walk; and the seeded
  2e = k + 1 audit corpus (``paired_corpus``).
* ``sfs4.classify``: the breadth-first contraction search, the reference
  for the certificate read off ``sfs4.seifert.contraction_walk``.
* ``sfs4.pretzel``: the refutation of topological double sliceness for
  quasi-alternating Montesinos links by the direct-double sum law.
* ``sfs4.plumbing``: Sylvester's criterion with one elimination per
  leading principal minor, and in one dense elimination, the reference for
  the star pivots ``sfs4.lattice.embeddings_for`` takes over the arms.
* ``sfs4.lattice``: the embedding search with a dense residual test over
  every earlier row and every configuration (no arm data, no fixed central
  row, no symmetry reduction, a larger ambient rank), the reference for the
  production search's nodes and embeddings; the pair test by one Smith form
  of the whole n x 2n matrix, the reference for the test by A1's Smith
  form; and seeded small positive definite star forms.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt

from sfs4.classify import Certificate, _recognize_base
from sfs4.homology import AbelianGroup
from sfs4.intmat import determinant, smith_diagonal
from sfs4.lattice import LatticeEmbedding, SearchResult, canonical_rows
from sfs4.partitions import PartitionPair, _sum_law
from sfs4.plumbing import (
    IntersectionForm,
    PlumbingGraph,
    build_plumbing,
    intersection_form,
)
from sfs4.seifert import Budget, SeifertData, StandardForm, find_contractions


# ---------------------------------------------------------------------------
# sfs4.seifert: spaces from ``Fraction``s, and fibers and eps as ``Fraction``s


def sfs(g: int, e: int, *fibers) -> SeifertData:
    """F(e; r_1, ..., r_k) over genus g, each nonzero fiber an int or ``Fraction``."""
    return SeifertData(g, e, tuple(Fraction(r) for r in fibers))


def std(g: int, e: int, *fibers) -> StandardForm:
    """The standard form F(e; r_1, ..., r_k) over genus g, each fiber r_i > 1
    an int or ``Fraction``, passed on as its pair in lowest terms."""
    return StandardForm(g, e, tuple((r.numerator, r.denominator) for r in map(Fraction, fibers)))


def seifert_data(s: StandardForm) -> SeifertData:
    """The surgery data of a standard form, its orientation flag dropped."""
    return SeifertData(s.genus, s.central, s.fibers)


def values(s) -> tuple[Fraction, ...]:
    """The fibers p_i/q_i of ``s`` as ``Fraction``s, in fiber order."""
    return tuple(Fraction(p, q) for p, q in s.fibers)


def betas(s) -> tuple[Fraction, ...]:
    """The reciprocals q_i/p_i of the fibers of ``s``, in fiber order."""
    return tuple(Fraction(q, p) for p, q in s.fibers)


def euler(s) -> Fraction:
    """eps = e - sum q_i/p_i summed over ``Fraction``s, without ``eps_num``."""
    return s.central - sum(betas(s), Fraction(0))


# ---------------------------------------------------------------------------
# sfs4.rationals: the negative continued fraction term by term


def neg_cfrac_terms(r: tuple[int, int]) -> tuple[int, ...]:
    """The expansion of r = p/q > 1 one term per step: a_1 = ceil(r), then
    (p, q) <- (q, a_1 q - p) until the remainder is exact."""
    p, q = r
    terms = []
    while True:
        a = -(-p // q)
        terms.append(a)
        if a * q == p:
            return tuple(terms)
        p, q = q, a * q - p


# ---------------------------------------------------------------------------
# sfs4.homology: factorizing routes, Fraction sums, p-primary parts


def _factorize(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def from_cyclic_orders(orders, free_rank: int = 0) -> AbelianGroup:
    """Canonicalize a multiset of cyclic orders into an AbelianGroup.

    Orders equal to 0 add free rank; order 1 summands vanish.  The prime
    powers are redistributed into an invariant factor chain.
    """
    per_prime: dict[int, list[int]] = {}
    free = free_rank
    for n in orders:
        if n == 0:
            free += 1
            continue
        for p, v in _factorize(n).items():
            per_prime.setdefault(p, []).append(v)
    length = max((len(vs) for vs in per_prime.values()), default=0)
    factors = []
    for i in range(length):
        d = 1
        for p, vs in per_prime.items():
            vs_sorted = sorted(vs, reverse=True)
            if i < len(vs_sorted):
                d *= p ** vs_sorted[i]
        factors.append(d)
    factors = [d for d in factors if d > 1]
    factors.reverse()
    return AbelianGroup(free, tuple(factors))


def _dj_by_subsets(ps: list[int], j: int) -> int:
    """gcd of all products of j-2 distinct multiplicities."""
    g = 0
    for combo in combinations(ps, j - 2):
        g = math.gcd(g, math.prod(combo))
        if g == 1:
            return 1
    return g


def _dj_by_valuations(ps: list[int], j: int) -> int:
    # Per prime, the minimal product valuation is the sum of the j-2 smallest.
    primes = set()
    for p in ps:
        primes.update(_factorize(p))
    d = 1
    for prime in primes:
        vs = sorted(padic_valuation(prime, p) if p % prime == 0 else 0 for p in ps)
        d *= prime ** sum(vs[: j - 2])
    return d


NOT_A_PARTITION = "not_a_partition"
EPS_NOT_POSITIVE = "eps_not_positive"
CLASS_SUM_EXCEEDS_ONE = "class_sum_exceeds_one"
TOO_MANY_CLASSES = "too_many_classes"
CLASS_COUNT_MISMATCH = "class_count_mismatch"
STRICT_CLASS_COUNT = "strict_class_count"
DEFICIT_MISMATCH = "deficit_mismatch"
GCD_NOT_ONE = "gcd_not_one"


@dataclass(frozen=True)
class PartitionLawResult:
    ok: bool
    failure: str | None = None
    offending: tuple[tuple[int, ...], ...] = ()
    detail: str = ""


def fraction_partition_sum_law(s, partition) -> PartitionLawResult:
    """The sum law on a partition, with its failure kind, over ``Fraction``s.

    ``partition`` is a collection of classes of 1-based fiber indices.  The
    law requires eps > 0, exactly e classes, each of reciprocal sum <= 1, a
    unique class of strict sum with deficit 1/lcm(p_1..p_k), and
    gcd(p_1..p_k) = 1 when k is even.  The reference for
    ``sfs4.partitions._sum_law``, which only says whether the law holds.
    """
    classes = [tuple(sorted(c)) for c in partition]
    k = s.fiber_count
    flat = [i for c in classes for i in c]
    if (
        any(not c for c in classes)
        or len(flat) != len(set(flat))
        or set(flat) != set(range(1, k + 1))
    ):
        return PartitionLawResult(False, NOT_A_PARTITION, tuple(classes), "classes must be nonempty, disjoint and cover 1..k")
    eps = euler(s)
    if eps <= 0:
        return PartitionLawResult(False, EPS_NOT_POSITIVE, detail=f"eps = {eps}")
    recips = betas(s)
    sums = {c: sum((recips[i - 1] for i in c), Fraction(0)) for c in classes}
    over = tuple(c for c in classes if sums[c] > 1)
    if over:
        return PartitionLawResult(False, CLASS_SUM_EXCEEDS_ONE, over, "class reciprocal sum exceeds 1")
    e = s.central
    if len(classes) > e:
        return PartitionLawResult(False, TOO_MANY_CLASSES, tuple(classes), f"{len(classes)} classes > e = {e}")
    if len(classes) != e:
        return PartitionLawResult(False, CLASS_COUNT_MISMATCH, tuple(classes), f"{len(classes)} classes != e = {e}")
    strict = tuple(c for c in classes if sums[c] < 1)
    if len(strict) != 1:
        return PartitionLawResult(False, STRICT_CLASS_COUNT, strict, f"{len(strict)} strict classes, need exactly 1")
    lcm = math.lcm(*s.multiplicities)
    deficit = 1 - sums[strict[0]]
    if deficit != Fraction(1, lcm):
        return PartitionLawResult(
            False, DEFICIT_MISMATCH, strict, f"deficit {deficit} != 1/{lcm}"
        )
    if k % 2 == 0 and math.gcd(*s.multiplicities) != 1:
        return PartitionLawResult(False, GCD_NOT_ONE, detail=f"gcd = {math.gcd(*s.multiplicities)}")
    return PartitionLawResult(True)


def padic_valuation(p: int, x) -> int:
    """p-adic valuation of a nonzero integer or Fraction."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero")

    def vint(n: int) -> int:
        n = abs(n)
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return vint(x.numerator) - vint(x.denominator)


def p_primary(s, p: int) -> tuple[int, ...]:
    """Exponents of the p-primary part of tor H_1, ascending (zeros kept).

    For k >= 2 this is (v_1, ..., v_{k-2}, v) where v_i are the p-adic
    valuations of the multiplicities in increasing order and
    v = v_k + v_{k-1} + V_p(eps).
    """
    eps = euler(s)
    if eps == 0:
        raise ValueError("p-primary decomposition needs eps != 0")
    ps = [p for p, _ in s.fibers]
    k = len(ps)
    veps = padic_valuation(p, eps)
    if k == 0:
        return (padic_valuation(p, s.central),)
    vs = sorted(padic_valuation(p, m) if m % p == 0 else 0 for m in ps)
    if k == 1:
        return (vs[0] + veps,)
    v = vs[-1] + vs[-2] + veps
    if v < vs[-2]:
        raise AssertionError("final exponent below second-largest valuation")
    if vs[-1] > vs[-2] and v != vs[-2]:
        raise AssertionError("strict top valuation must pin the final exponent")
    return tuple(vs[:-2]) + (v,)


# ---------------------------------------------------------------------------
# sfs4.mubar: characteristic subsets on the dense intersection form


def _solve_mod2(rows_bits: list[int], rhs_bits: list[int], n: int):
    """All solutions of a GF(2) system given as row bitmasks.

    Returns (particular, kernel_basis) as bitmasks, or None if insoluble.
    """
    rows = [(r << 1) | b for r, b in zip(rows_bits, rhs_bits)]  # bit 0 = rhs
    pivots = {}
    for row in rows:
        for col in sorted(pivots, reverse=True):
            if row >> (col + 1) & 1:
                row ^= pivots[col]
        lead = row >> 1
        if lead == 0:
            if row & 1:
                return None
            continue
        col = lead.bit_length() - 1
        pivots[col] = row
    # back substitute
    for col in sorted(pivots):
        for other in pivots:
            if other != col and pivots[other] >> (col + 1) & 1:
                pivots[other] ^= pivots[col]
    particular = 0
    for col, row in pivots.items():
        if row & 1:
            particular |= 1 << col
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free_cols:
        vec = 1 << f
        for col, row in pivots.items():
            if row >> (f + 1) & 1:
                vec |= 1 << col
        basis.append(vec)
    return particular, basis


def characteristic_subsets(graph: PlumbingGraph, q: IntersectionForm | None = None):
    """All characteristic subsets, as sorted tuples of vertex indices.

    Solves Q w = diag(Q) over GF(2); the count is 2^dim H^1(Y; Z_2) and each
    subset is isolated in the tree.
    """
    if q is None:
        q = intersection_form(graph)
    n = q.size
    rows_bits = [sum((row[j] & 1) << j for j in range(n)) for row in q.matrix]
    rhs = [q.matrix[i][i] & 1 for i in range(n)]
    solved = _solve_mod2(rows_bits, rhs, n)
    if solved is None:
        raise AssertionError("characteristic system is always solvable here")
    particular, basis = solved
    subsets = []
    for mask_bits in range(1 << len(basis)):
        w = particular
        for b, vec in enumerate(basis):
            if mask_bits >> b & 1:
                w ^= vec
        subsets.append(tuple(i for i in range(n) if w >> i & 1))
    subsets.sort()
    edges = set(graph.edges())
    for c in subsets:
        members = set(c)
        if any((u, v) in edges or (v, u) in edges for u in members for v in members if u < v):
            raise AssertionError("characteristic subset must be isolated in the tree")
    return subsets


def mubar(graph: PlumbingGraph, q: IntersectionForm, subset) -> int:
    """|Gamma| - w^T Q w for the indicator w of a characteristic subset (dense)."""
    n = q.size
    w = [0] * n
    for i in subset:
        w[i] = 1
    lhs = [sum(q.matrix[i][j] * w[j] for j in range(n)) % 2 for i in range(n)]
    if lhs != [q.matrix[i][i] % 2 for i in range(n)]:
        raise ValueError("subset is not characteristic")
    return graph.size - pairing(q, w, w)


def pairing(q: IntersectionForm, x, y) -> int:
    """x^T Q y on the dense intersection form."""
    return sum(xi * sum(qij * yj for qij, yj in zip(row, y)) for xi, row in zip(x, q.matrix))


def arm_solutions(arm, x0: int):
    """The chain solutions of an arm of weights ``arm`` for central bit x0,
    vertex by vertex: (lead bit, weight sum, members), the members the
    ascending positions from the root (0 for the root) of the arm's vertices
    in C."""
    out = []
    for lead in (0, 1):
        prev, cur = x0, lead
        members, weight = [], 0
        for j, a in enumerate(arm):  # x_{j+1} = a_j (1 + x_j) + x_{j-1} mod 2
            if cur:
                members.append(j)
                weight += a
                prev, cur = cur, prev
            else:
                prev, cur = cur, prev ^ (a & 1)
        if not cur:
            out.append((lead, weight, members))
    return out


def chain_characteristic_subsets(terms) -> list[tuple[int, ...]]:
    """Characteristic subsets of a single linear chain (indices 0-based).

    One subset when the chain's fraction has odd numerator, two (split by
    whether the first vertex is in) when even.
    """
    arms = (tuple(terms[1:]),) if len(terms) > 1 else ()
    return characteristic_subsets(PlumbingGraph(terms[0], arms))


def arm_construction_subsets(graph: PlumbingGraph) -> list[tuple[int, ...]]:
    """Characteristic subsets assembled arm by arm (even-multiplicity case).

    Requires at least one arm of even multiplicity.  Odd arms contribute
    their unique chain subset; a chosen set S of even arms contributes the
    chain subset containing the leading vertex, the rest the other one, with
    |S| = alpha + e mod 2 where alpha counts odd arms whose subset contains
    the leading vertex.  The central vertex is never included.
    """
    fractions = graph.arm_fractions()
    evens = [i for i, (p, _) in enumerate(fractions) if p % 2 == 0]
    if not evens:
        raise ValueError("arm construction needs an even-multiplicity arm")
    per_arm = []
    for arm in graph.arms:
        per_arm.append(chain_characteristic_subsets(arm))
    alpha = 0
    for i, subs in enumerate(per_arm):
        if i not in evens:
            if len(subs) != 1:
                raise AssertionError("an odd arm has exactly one characteristic subset")
            if subs[0] and subs[0][0] == 0:
                alpha += 1
    results = []
    for mask in range(1 << len(evens)):
        chosen = [evens[b] for b in range(len(evens)) if mask >> b & 1]
        if (len(chosen) - (alpha + graph.central_weight)) % 2:
            continue
        subset = []
        starts = graph.arm_starts
        for i, subs in enumerate(per_arm):
            if i not in evens:
                pick = subs[0]
            else:
                with_lead = next(c for c in subs if c and c[0] == 0)
                without = next(c for c in subs if not c or c[0] != 0)
                pick = with_lead if i in chosen else without
            subset.extend(starts[i] + v for v in pick)
        results.append(tuple(sorted(subset)))
    return sorted(results)


# ---------------------------------------------------------------------------
# sfs4.partitions: expansion structure of a partitionable space


def canonical_partition(classes):
    """A partition as sorted classes of sorted 1-based indices."""
    return tuple(sorted(tuple(sorted(c)) for c in classes))


@dataclass(frozen=True)
class ExpansionStructure:
    comp_pair_case: bool      # enough complementary 2-classes across P1, P2
    singleton_case: bool      # both partitions have a singleton (deficit) class
    ratio_case: bool          # 5e >= 2k + 3
    minimal: bool
    contracted: StandardForm | None = None
    contracted_witness: PartitionPair | None = None
    removed: tuple[int, int] | None = None  # removed fiber indices in s (1-based)

    @property
    def any_case(self) -> bool:
        return self.comp_pair_case or self.singleton_case or self.ratio_case


def _comp_pairs(s, part) -> list[tuple[int, ...]]:
    recips = betas(s)
    return [c for c in part if len(c) == 2 and recips[c[0] - 1] + recips[c[1] - 1] == 1]


def _renumber(cls, removed: tuple[int, int], swap: dict[int, int]) -> tuple[int, ...]:
    out = []
    for i in cls:
        i = swap.get(i, i)
        out.append(i - sum(1 for r in removed if r < i))
    return tuple(sorted(out))


def _contract_by_pair(s, p1, p2) -> tuple[StandardForm, PartitionPair, tuple[int, int]]:
    # complementary pairs {a,b} in P1 and {b,c} in P2 sharing exactly b:
    # fibers a and c carry equal fractions, remove fibers {a, b}.
    for x in _comp_pairs(s, p1):
        for y in _comp_pairs(s, p2):
            common = set(x) & set(y)
            if len(common) == 1:
                b = common.pop()
                a = next(i for i in x if i != b)
                c = next(i for i in y if i != b)
                if s.fibers[a - 1] != s.fibers[c - 1]:
                    raise AssertionError("linked complementary pairs must carry equal fractions")
                removed = tuple(sorted((a, b)))
                new_fibers = tuple(
                    r for i, r in enumerate(s.fibers, start=1) if i not in removed
                )
                contracted = StandardForm(s.genus, s.central - 1, new_fibers, s.orientation_reversed)
                swap = {a: c}  # in P2, the class through a inherits c's fiber
                q1 = canonical_partition(
                    _renumber(cl, removed, {}) for cl in p1 if cl != x
                )
                q2 = canonical_partition(
                    _renumber(cl, removed, swap) for cl in p2 if cl != y
                )
                pair = PartitionPair(
                    q1, q2, _sum_law(contracted, q1), _sum_law(contracted, q2)
                )
                return contracted, pair, removed
    raise AssertionError("no linked complementary pairs despite the pair-count case")


def _contract_by_singletons(s, p1, p2) -> tuple[StandardForm, PartitionPair, tuple[int, int]]:
    y = next(c for c in p2 if len(c) == 1)[0]          # P2's deficit singleton
    cls1 = next(c for c in p1 if y in c)               # complementary 2-class of P1
    if len(cls1) != 2:
        raise AssertionError("class through the other deficit fiber must be a pair")
    w = next(i for i in cls1 if i != y)
    removed = tuple(sorted((w, y)))
    new_fibers = tuple(r for i, r in enumerate(s.fibers, start=1) if i not in removed)
    contracted = StandardForm(s.genus, s.central - 1, new_fibers, s.orientation_reversed)
    q1 = canonical_partition(_renumber(c, removed, {}) for c in p1 if c != cls1)
    q2_classes = []
    for c in p2:
        if c == (y,):
            continue
        if w in c:
            c = tuple(i for i in c if i != w)  # becomes the new deficit class
        q2_classes.append(_renumber(c, removed, {}))
    q2 = canonical_partition(q2_classes)
    pair = PartitionPair(q1, q2, _sum_law(contracted, q1), _sum_law(contracted, q2))
    return contracted, pair, removed


def expansion_structure(s: StandardForm, witness: PartitionPair) -> ExpansionStructure:
    """Which contraction hypotheses hold, and the contracted witness if any.

    For k >= 3, a partitionable space satisfying any of the three hypotheses
    is an expansion of a partitionable space; the contraction below removes a
    complementary fiber pair and rebuilds the witness partitions.
    """
    witness.validate(s)
    e, k = s.central, s.fiber_count
    p1, p2 = witness.p1, witness.p2
    m1, m2 = len(_comp_pairs(s, p1)), len(_comp_pairs(s, p2))
    case_pairs = k >= 3 and m1 + m2 >= e
    case_singletons = k >= 3 and any(len(c) == 1 for c in p1) and any(len(c) == 1 for c in p2)
    case_ratio = k >= 3 and 5 * e >= 2 * k + 3
    if not (case_pairs or case_singletons or case_ratio):
        return ExpansionStructure(False, False, False, minimal=True)

    if case_pairs or (case_singletons and k == 3):
        contracted, pair, removed = _contract_by_pair(s, p1, p2)
    elif case_singletons and k > 3:
        contracted, pair, removed = _contract_by_singletons(s, p1, p2)
    else:
        # ratio case alone cannot happen: it forces one of the other two
        raise AssertionError("ratio case held but neither construction applies")
    pair.validate(contracted)
    return ExpansionStructure(
        case_pairs,
        case_singletons,
        case_ratio,
        minimal=False,
        contracted=contracted,
        contracted_witness=pair,
        removed=removed,
    )


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


def labelled_partitions(s) -> list:
    """Every labelled partition meeting conditions (a) and (b), in canonical order.

    The labelled search that the orbit walk of
    ``partitions.sum_condition_partitions`` replaced: fibers are placed in descending weight order and a class that
    would exceed its cap is pruned.
    """
    if s.eps_num <= 0:
        raise ValueError("partition search needs eps > 0")
    if s.fiber_count == 0 or s.eps_num != 1:  # eps = 1/L
        return []
    fibers = sorted(enumerate(s.weights, start=1), key=lambda iw: iw[1], reverse=True)
    out: list = []
    _place(0, fibers, [], s.central, s.lcm, 0, True, out)
    return sorted(set(out))


def _class_masks(part) -> tuple[tuple[int, ...], int]:
    """Each class of ``part`` as a bitmask (bit i for index i), and their union."""
    masks = tuple(sum(1 << i for i in c) for c in part)
    cover = 0
    for m in masks:
        cover |= m
    return masks, cover


def _shares_only_everything(ma, mb) -> bool:
    """Condition (c) on two partitions given by ``_class_masks``.

    Grow one class by every class it meets until it covers both partitions
    or stops growing.
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


def first_union_pair(parts):
    """The first pair (pa, pb), pa at or before pb in ``parts``, meeting (c).

    The pair scan the orbit walk replaced, on class bitmasks built once per
    partition.
    """
    masks = [_class_masks(p) for p in parts]
    for i in range(len(parts)):
        for j in range(i, len(parts)):
            if _shares_only_everything(masks[i], masks[j]):
                return parts[i], parts[j]
    return None


def spin_survivors(s, parts) -> list:
    """The partitions in ``parts`` that pass the even-multiplicity spin rules of ``classify``."""
    from sfs4.classify import _spin_rules

    return list(filter(_spin_rules(s)[1], parts))


def labelled_orbits(s, parts) -> list:
    """(least member, size) per orbit of ``parts`` under permutations of equal fibers.

    ``parts`` is in canonical order, so the first member met is the least.
    """
    orbits: dict = {}
    for p in parts:
        key = tuple(sorted(tuple(sorted(s.fibers[i - 1] for i in c)) for c in p))
        least, n = orbits.get(key, (p, 0))
        orbits[key] = (least, n + 1)
    return sorted(orbits.values())


def paired_corpus(seed: int = 8, count: int = 400, max_central: int = 7) -> list[StandardForm]:
    """Seeded spaces at 2e = k + 1: e - 1 complementary pairs plus one fiber.

    Each space draws its pair values from a palette of one or two fibers
    with small multiplicity, so repeated values and the half-plus shape are
    common.  About half of the spaces take L/(L - 1) as the extra fiber,
    L being the lcm of the pairs' multiplicities, which meets the Euler
    condition eps = 1/L; the others take a random fiber.  About one space
    in five has base genus 1.  Fiber order is shuffled.
    """
    rng = random.Random(seed)

    def fiber():
        p = rng.randint(2, 7)
        q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
        return Fraction(p, q)

    spaces = []
    while len(spaces) < count:
        e = rng.randint(1, max_central)
        palette = [fiber() for _ in range(rng.randint(1, 2))]
        fibers = []
        for _ in range(e - 1):
            r = rng.choice(palette)
            fibers += [r, Fraction(r.numerator, r.numerator - r.denominator)]
        lcm = math.lcm(*(r.numerator for r in fibers)) if fibers else rng.randint(2, 7)
        fibers.append(Fraction(lcm, lcm - 1) if rng.random() < 0.5 else fiber())
        rng.shuffle(fibers)
        spaces.append(std(int(rng.random() < 0.2), e, *fibers))
    return spaces


# ---------------------------------------------------------------------------
# sfs4.classify: the breadth-first contraction search


def breadth_first_certificate(s: StandardForm) -> Certificate | None:
    """Breadth-first contraction to a recognized base, recording expansions.

    Every state reachable by ``find_contractions`` is visited once (by
    ``canonical_key``) until one is a recognized base.
    """
    seen = {s.canonical_key()}
    queue = deque([(s, ())])  # (space, contraction path of duplicated values)
    while queue:
        cur, path = queue.popleft()
        rule = _recognize_base(cur.central, cur.fibers)
        if rule is not None:
            by_value = sorted(zip(cur.weights, cur.fibers), reverse=True)  # weight decreasing
            return Certificate(
                kind="expansion",
                rule=rule,
                base_central=cur.central,
                base_fibers=tuple(r for _, r in by_value),
                genus_bumps=s.genus,
                expansions=tuple(reversed(path)),
            )
        for j, smaller in find_contractions(cur):
            key = smaller.canonical_key()
            if key not in seen:
                seen.add(key)
                queue.append((smaller, path + (smaller.fibers[j - 1],)))
    return None


# ---------------------------------------------------------------------------
# sfs4.pretzel: quasi-alternating Montesinos links


QA_E_GE_K = "e_ge_k"
QA_E_EQ_K_MINUS_1 = "e_eq_k_minus_1"


@dataclass(frozen=True)
class MontesinosNormal:
    """Double-cover normal form of a quasi-alternating Montesinos link."""

    space: StandardForm
    case: str

    @classmethod
    def from_standard(cls, s: StandardForm) -> "MontesinosNormal":
        if s.eps_num <= 0:
            raise ValueError("quasi-alternating normal forms have eps > 0")
        e, k = s.central, s.fiber_count
        if e >= k:
            return cls(s, QA_E_GE_K)
        recips = sorted(betas(s))
        if e == k - 1 and k >= 2 and recips[0] + recips[1] < 1:
            return cls(s, QA_E_EQ_K_MINUS_1)
        raise ValueError("not in quasi-alternating normal form")


@dataclass(frozen=True)
class QAObstructionReport:
    obstructed: bool
    case: str
    partition: tuple[tuple[int, ...], ...]
    law_failure: str | None
    detail: str


def qa_montesinos_obstruction(m: MontesinosNormal) -> QAObstructionReport:
    """Refute topological double sliceness of a quasi-alternating Montesinos link.

    Builds the proof partition for the normal form (all singletons, or
    singletons plus the two smallest-reciprocal fibers paired), runs the sum
    law, and turns its failure into a direct-double violation: the cover of
    a doubly slice link would have to satisfy the law.
    """
    s = m.space
    k = s.fiber_count
    if m.case == QA_E_GE_K:
        partition = tuple((i,) for i in range(1, k + 1))
    else:
        recips = betas(s)
        by_beta = sorted(range(1, k + 1), key=lambda i: recips[i - 1])
        pair = tuple(sorted(by_beta[:2]))
        partition = tuple(sorted([pair] + [(i,) for i in by_beta[2:]]))
    law = fraction_partition_sum_law(s, partition)
    if law.ok:
        return QAObstructionReport(
            False, m.case, partition, None,
            "the proof partition satisfies the sum law; no obstruction derived",
        )
    return QAObstructionReport(
        True, m.case, partition, law.failure,
        f"partition violates the sum law ({law.failure}: {law.detail}); "
        "tor H1 of the cover is not a direct double, so the link is not "
        "topologically doubly slice",
    )


# ---------------------------------------------------------------------------
# sfs4.plumbing: Sylvester's criterion minor by minor


def leading_principal_minors(m) -> list[int]:
    """Determinants of the k x k top-left submatrices, k = 1..n."""
    n = len(m)
    return [determinant([row[:k] for row in m[:k]]) for k in range(1, n + 1)]


def positive_definite_by_minors(q: IntersectionForm) -> bool:
    """Sylvester's criterion, one Bareiss elimination per leading minor."""
    return all(d > 0 for d in leading_principal_minors([list(r) for r in q.matrix]))


def positive_definite_by_elimination(q: IntersectionForm) -> bool:
    """Exact Sylvester criterion: all leading principal minors positive.

    One fraction-free (Bareiss) elimination without row swaps: while every
    earlier pivot is nonzero, the t-th pivot is the t-th leading principal
    minor, so the form is positive definite exactly when no pivot is <= 0.
    The dense reference for the star pivots of ``embeddings_for``.
    """
    a = [list(r) for r in q.matrix]
    n = len(a)
    prev = 1
    for t in range(n):
        pivot = a[t][t]
        if pivot <= 0:
            return False
        row_t = a[t]
        for i in range(t + 1, n):
            row_i = a[i]
            lead = row_i[t]
            for j in range(t + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_t[j]) // prev
        prev = pivot
    return True


# ---------------------------------------------------------------------------
# sfs4.lattice: the dense embedding search and seeded small star forms


def small_positive_spaces(
    seed: int, count: int, max_vertices: int = 8, max_genus: int = 0
) -> list[StandardForm]:
    """Seeded standard forms with eps > 0 and at most ``max_vertices`` vertices.

    One to four fibers p/q with 2 <= p <= 7.  The central weight is the
    least one with eps > 0 or one more, so the form is positive definite
    and often close enough to the boundary to embed in the diagonal lattice.
    """
    rng = random.Random(seed)
    spaces = []
    while len(spaces) < count:
        fibers = []
        for _ in range(rng.randint(1, 4)):
            p = rng.randint(2, 7)
            fibers.append(Fraction(p, rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])))
        e = math.floor(sum(1 / r for r in fibers)) + 1 + rng.randint(0, 1)
        s = std(rng.randint(0, max_genus), e, *fibers)
        if build_plumbing(s).size <= max_vertices:
            spaces.append(s)
    return spaces


class _Budget(Exception):
    pass


@dataclass(frozen=True)
class StarStructure:
    """Arm data used by the search prunes; derivable from the plumbing graph."""

    central_weight: int
    leading_vertices: tuple[int, ...]
    betas: tuple[Fraction, ...]

    @classmethod
    def from_graph(cls, graph: PlumbingGraph) -> "StarStructure":
        return cls(
            graph.central_weight,
            graph.arm_starts,
            tuple(Fraction(q, p) for p, q in graph.arm_fractions()),
        )


def dense_enumerate_embeddings(
    q: IntersectionForm,
    structure: StarStructure | None = None,
    budget: int = 10**7,
    ambient_rank: int | None = None,
    constrain_central: bool = False,
    reduce_symmetry: bool = True,
) -> SearchResult:
    """All embeddings of (Z^n, Q) into (Z^N, Id) up to signed column permutation.

    The embedding search as it was before its residuals went sparse and
    before it was reduced to one configuration: ``sfs4.lattice.embeddings_for``
    is this search with ``structure=StarStructure.from_graph(graph)``,
    ``constrain_central=True``, ``reduce_symmetry=True`` and N = n.

    ``structure`` enables the unit-coordinate pruning; ``constrain_central``
    additionally fixes the central row to e_1 + ... + e_e and restricts how
    other rows meet the first e coordinates; ``reduce_symmetry`` tries only
    one representative of the column symmetries.  The search is depth-first
    with a node budget; exceeding it sets ``budget`` on the result.
    """
    if not positive_definite_by_minors(q):
        raise ValueError("embedding search requires a positive definite form")
    if constrain_central and structure is None:
        raise ValueError("constrain_central needs a StarStructure")
    n = q.size
    nn = ambient_rank if ambient_rank is not None else n
    matrix = q.matrix
    leading = set(structure.leading_vertices) if structure else set()
    beta_of = (
        {v: b for v, b in zip(structure.leading_vertices, structure.betas)}
        if structure
        else {}
    )
    e_central = structure.central_weight if constrain_central else 0
    if constrain_central and (e_central > nn or e_central != matrix[0][0]):
        raise ValueError("central weight incompatible with the structural search")

    rows: list[tuple[int, ...]] = []
    colbeta = [Fraction(0)] * nn  # reciprocal load per coordinate over leading rows
    colmax = [0] * nn             # max |entry| per coordinate over leading rows
    found: set[tuple[tuple[int, ...], ...]] = set()
    state = {"nodes": 0, "over": False}

    def tick():
        state["nodes"] += 1
        if state["nodes"] > budget:
            raise _Budget

    def candidates(t: int):
        target_norm = matrix[t][t]
        dots = [matrix[t][s] for s in range(t)]
        tails = []
        for s in range(t):
            tail = [0] * (nn + 1)
            for j in range(nn - 1, -1, -1):
                tail[j] = tail[j + 1] + rows[s][j] ** 2
            tails.append(tail)
        hist = [tuple(rows[s][j] for s in range(t)) for j in range(nn)]
        is_lead = t in leading
        v = [0] * nn

        def rec(j: int, remnorm: int, rd: list[int], marks: int):
            tick()
            if constrain_central and is_lead and j == e_central and marks != 1:
                return  # leading rows meet exactly one central coordinate
            if j == nn:
                if remnorm == 0 and all(d == 0 for d in rd):
                    yield tuple(v)
                return
            if t > 0 and j < e_central:
                vals = ((-1, 0) if marks == 0 else (0,)) if is_lead else (0,)
            else:
                top = isqrt(remnorm)
                lo = -top
                if reduce_symmetry:
                    if all(h == 0 for h in hist[j]):
                        lo = 0  # fresh coordinate: sign is a column symmetry
                    if j > 0 and hist[j] == hist[j - 1]:
                        top = min(top, v[j - 1])  # equal history: sort entries
                vals = range(top, lo - 1, -1)
            for val in vals:
                if reduce_symmetry and t > 0 and j < e_central and j > 0 and hist[j] == hist[j - 1] and val > v[j - 1]:
                    continue
                rem2 = remnorm - val * val
                if rem2 < 0:
                    continue
                new_rd = [d - val * rows[s][j] for s, d in enumerate(rd)]
                if any(d * d > rem2 * tails[s][j + 1] for s, d in enumerate(new_rd)):
                    continue
                v[j] = val
                yield from rec(j + 1, rem2, new_rd, marks + (1 if j < e_central and val else 0))
                v[j] = 0

        yield from rec(0, target_norm, dots, 0)

    def unit_bound_ok(v: tuple[int, ...], b: Fraction) -> bool:
        for j in range(nn):
            if v[j] == 0:
                continue
            total = colbeta[j] + b
            if total > 1:
                return False
            if total == 1 and (abs(v[j]) > 1 or colmax[j] > 1):
                return False
        return True

    def place(t: int):
        tick()
        if t == n:
            found.add(canonical_rows(rows))
            return
        is_lead = t in leading
        b = beta_of.get(t)
        for v in candidates(t):
            if is_lead and not unit_bound_ok(v, b):
                continue
            touched = []
            if is_lead:
                touched = [j for j in range(nn) if v[j] != 0]
                saved = [(colbeta[j], colmax[j]) for j in touched]
                for j in touched:
                    colbeta[j] += b
                    colmax[j] = max(colmax[j], abs(v[j]))
            rows.append(v)
            place(t + 1)
            rows.pop()
            if is_lead:
                for j, (cb, cm) in zip(touched, saved):
                    colbeta[j], colmax[j] = cb, cm

    if constrain_central:
        rows.append(tuple(1 if j < e_central else 0 for j in range(nn)))
        try:
            place(1)
        except _Budget:
            state["over"] = True
        rows.pop()
    else:
        try:
            place(0)
        except _Budget:
            state["over"] = True

    embeddings = sorted((LatticeEmbedding(r) for r in found), key=lambda a: a.rows)
    for a in embeddings:  # re-verify: pairing preservation, post-search
        if a.gram() != matrix:
            raise AssertionError("search produced a non-embedding")
    stop = Budget("lattice_search", "nodes", budget, state["nodes"]) if state["over"] else None
    return SearchResult(embeddings, state["nodes"], stop)


def pair_surjective_by_smith(a1: LatticeEmbedding, a2: LatticeEmbedding) -> bool:
    """Whether (A1 | A2) is surjective: its n invariant factors all equal 1."""
    m = [list(r1) + list(r2) for r1, r2 in zip(a1.rows, a2.rows)]
    diag = smith_diagonal(m)
    return len(diag) >= a1.size and all(d == 1 for d in diag[: a1.size])
