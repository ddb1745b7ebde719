"""First homology of Seifert fibered spaces.

Two independent routes are implemented and cross-checked throughout the test
suite:

* ``h1_formula`` evaluates the closed determinantal-divisor description of the
  cokernel of the surgery presentation (gcds over products of distinct fiber
  multiplicities, with final divisor |p_1 ... p_k * eps|), and

* ``h1_oracle`` builds the presentation matrix itself and reduces it to Smith
  normal form by exact integer row/column operations.

Also here: the p-primary decomposition, the direct-double test (a necessary
condition for embedding in any integer homology 4-sphere), dim H^1(Y; Z_2),
and the partition sum law used by the partition obstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .intmat import smith_diagonal
from .rationals import lcm_of, padic_valuation
from .seifert import StandardForm, euler_invariant, fiber_pq


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus invariant factor chain.

    Factors satisfy d_1 | d_2 | ... with every d_i >= 2; isomorphism is
    structural equality.
    """

    free_rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "invariant_factors", tuple(self.invariant_factors))
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        fs = self.invariant_factors
        if any(d < 2 for d in fs):
            raise ValueError(f"invariant factors must be >= 2, got {fs}")
        if any(fs[i + 1] % fs[i] for i in range(len(fs) - 1)):
            raise ValueError(f"divisibility chain violated: {fs}")

    @property
    def torsion_order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


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


def presentation_matrix(s) -> list[list[int]]:
    """Presentation of H_1 from the surgery diagram.

    Block diagonal: g blocks of 2x2 zeros, then the (k+1) x (k+1) block with
    first row (e, 1, ..., 1) and fiber rows (q_i, 0, ..., p_i, ..., 0).
    """
    g, k = s.genus, len(s.fibers)
    n = 2 * g + k + 1
    m = [[0] * n for _ in range(n)]
    base = 2 * g
    m[base][base] = s.central
    for i, r in enumerate(s.fibers, start=1):
        p, q = fiber_pq(r)
        m[base][base + i] = 1
        m[base + i][base] = q
        m[base + i][base + i] = p
    return m


def cokernel(m) -> AbelianGroup:
    """Cokernel of the column span of an integer matrix."""
    rows = len(m)
    diag = smith_diagonal(m)
    free = rows - sum(1 for d in diag if d != 0)
    return from_cyclic_orders([d for d in diag if d > 1], free_rank=free)


def h1_oracle(s) -> AbelianGroup:
    """H_1 by Smith normal form of the explicit presentation matrix."""
    return cokernel(presentation_matrix(s))


def _multiplicities(s) -> list[int]:
    return [fiber_pq(r)[0] for r in s.fibers]


def _dj_by_subsets(ps: list[int], j: int) -> int:
    """gcd of all products of j-2 distinct multiplicities (test oracle path)."""
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


def h1_formula(s) -> AbelianGroup:
    """H_1 via the determinantal divisors of the presentation block.

    Torsion comes from successive quotients D_i = d_{i+1}/d_i where d_1 = d_2
    = 1, middle divisors are gcds over products of distinct multiplicities,
    and the last is |p_1...p_k * eps|.  Inputs with eps = 0 (extra free rank)
    are delegated to the Smith normal form oracle.
    """
    eps = euler_invariant(s)
    if eps == 0:
        return h1_oracle(s)
    ps = _multiplicities(s)
    k = len(ps)
    if k == 0:
        return from_cyclic_orders([abs(s.central)], free_rank=2 * s.genus)
    d_last = math.prod(ps) * eps
    if d_last.denominator != 1:
        raise AssertionError("p_1...p_k * eps must be an integer")
    dj = _dj_by_subsets if k <= 12 else _dj_by_valuations
    d = [1] * (k + 2)  # d[1] = d[2] = 1
    for j in range(3, k + 1):
        d[j] = dj(ps, j)
    d[k + 1] = abs(int(d_last))
    orders = []
    for i in range(1, k + 1):
        if d[i + 1] % d[i]:
            raise AssertionError("determinantal divisors must form a chain")
        orders.append(d[i + 1] // d[i])
    return from_cyclic_orders(orders, free_rank=2 * s.genus)


def p_primary(s, p: int) -> tuple[int, ...]:
    """Exponents of the p-primary part of tor H_1, ascending (zeros kept).

    For k >= 2 this is (v_1, ..., v_{k-2}, v) where v_i are the p-adic
    valuations of the multiplicities in increasing order and
    v = v_k + v_{k-1} + V_p(eps).
    """
    eps = euler_invariant(s)
    if eps == 0:
        raise ValueError("p-primary decomposition needs eps != 0")
    ps = _multiplicities(s)
    k = len(ps)
    veps = padic_valuation(p, eps)
    if k == 0:
        return (padic_valuation(p, s.central),)
    vs = sorted(padic_valuation(p, m) if m % p == 0 else 0 for m in ps)
    if k == 1:
        return (vs[0] + veps,)
    v = vs[-1] + vs[-2] + veps
    assert v >= vs[-2], "final exponent below second-largest valuation"
    if vs[-1] > vs[-2]:
        assert v == vs[-2], "strict top valuation must pin the final exponent"
    return tuple(vs[:-2]) + (v,)


def is_direct_double(g: AbelianGroup) -> bool:
    """Whether the torsion part is G + G: consecutive factors pair up."""
    fs = g.invariant_factors
    return len(fs) % 2 == 0 and all(fs[i] == fs[i + 1] for i in range(0, len(fs), 2))


def dim_h1_z2(s: StandardForm) -> int:
    """dim H^1(Y; Z_2) for a genus-0 standard form with eps != 0.

    Equals N - 1 when N >= 1 fibers have even multiplicity; with N = 0 it is
    the number of even invariant factors, which is at most 1: it is 1
    exactly when |H_1| = |p_1 ... p_k * eps| is even.
    """
    if s.genus != 0:
        raise ValueError("dim_h1_z2 is stated for base S^2 only")
    eps = euler_invariant(s)
    if eps == 0:
        raise ValueError("dim_h1_z2 needs eps != 0")
    ps = s.multiplicities
    n_even = sum(1 for p in ps if p % 2 == 0)
    if n_even >= 1:
        return n_even - 1
    return int((math.prod(ps) * eps).numerator % 2 == 0)


# ---------------------------------------------------------------------------
# Partition sum law

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

    def __bool__(self) -> bool:
        return self.ok


def partition_sum_law(s: StandardForm, partition) -> PartitionLawResult:
    """Check the sum conditions a direct-double space forces on a partition.

    ``partition`` is a collection of classes of 1-based fiber indices with at
    most e classes, each of reciprocal sum <= 1.  The law requires exactly e
    classes, a unique class of strict sum with deficit 1/lcm(p_1..p_k), and
    gcd(p_1..p_k) = 1 when k is even.  Failures are reported with a kind and
    the offending classes; the direct-double hypothesis itself is the
    caller's business (the law is what refutes it, contrapositively).
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
    lcm = lcm_of(s.multiplicities) if k else 1
    deficit = 1 - sums[strict[0]]
    if deficit != Fraction(1, lcm):
        return PartitionLawResult(
            False, DEFICIT_MISMATCH, strict, f"deficit {deficit} != 1/{lcm}"
        )
    if k % 2 == 0 and math.gcd(*s.multiplicities) != 1:
        return PartitionLawResult(False, GCD_NOT_ONE, detail=f"gcd = {math.gcd(*s.multiplicities)}")
    return PartitionLawResult(True)
