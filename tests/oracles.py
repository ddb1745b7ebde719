"""Slow general routines kept as independent oracles of ``sfs4.homology``.

The production path reads invariant-factor chains directly and sums class
weights as integers; these are the routines it replaced.  They factorize by
trial division and sum ``Fraction``s, so they serve the tests only.
"""

import math
from fractions import Fraction
from itertools import combinations

from sfs4.homology import (
    CLASS_COUNT_MISMATCH,
    CLASS_SUM_EXCEEDS_ONE,
    DEFICIT_MISMATCH,
    EPS_NOT_POSITIVE,
    GCD_NOT_ONE,
    NOT_A_PARTITION,
    STRICT_CLASS_COUNT,
    TOO_MANY_CLASSES,
    AbelianGroup,
    PartitionLawResult,
)
from sfs4.rationals import padic_valuation
from sfs4.seifert import euler_invariant


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


def fraction_partition_sum_law(s, partition) -> PartitionLawResult:
    """``partition_sum_law`` with the class sums taken over ``Fraction``s."""
    classes = [tuple(sorted(c)) for c in partition]
    k = s.fiber_count
    flat = [i for c in classes for i in c]
    if (
        any(not c for c in classes)
        or len(flat) != len(set(flat))
        or set(flat) != set(range(1, k + 1))
    ):
        return PartitionLawResult(False, NOT_A_PARTITION, tuple(classes), "classes must be nonempty, disjoint and cover 1..k")
    eps = euler_invariant(s)
    if eps <= 0:
        return PartitionLawResult(False, EPS_NOT_POSITIVE, detail=f"eps = {eps}")
    betas = s.betas()
    sums = {c: sum((betas[i - 1] for i in c), Fraction(0)) for c in classes}
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
