"""First homology of Seifert fibered spaces.

Two independent routes are implemented and cross-checked throughout the test
suite:

* ``h1_formula`` evaluates the closed determinantal-divisor description of the
  cokernel of the surgery presentation (gcds over products of distinct fiber
  multiplicities, with final divisor |p_1 ... p_k * eps|), for every eps,
  eps = 0 included, and never calls the oracle, and

* ``h1_oracle`` builds the presentation matrix itself and reduces it to Smith
  normal form by exact integer row/column operations.

Both read the invariant-factor chain directly and share nothing but
``AbelianGroup``, which checks the chain: the oracle takes the Smith diagonal
d_1 | d_2 | ..., the formula the successive quotients of its determinantal
divisors.  The formula's middle divisors come from the invariant factors
c_1 | ... | c_k of diag(p_1, ..., p_k), made by pairwise (gcd, lcm) swaps,
so no order is ever factorized.

Also here: the direct-double test (a necessary condition for embedding in
any integer homology 4-sphere) and dim H^1(Y; Z_2).
"""

from __future__ import annotations

import math

from .intmat import smith_diagonal
from .seifert import Frozen, StandardForm


class AbelianGroup(Frozen):
    """Finitely generated abelian group: free rank plus invariant factor chain.

    Factors satisfy d_1 | d_2 | ... with every d_i >= 2; isomorphism is
    structural equality.
    """

    _fields = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int, invariant_factors):
        self.__dict__.update(free_rank=free_rank, invariant_factors=tuple(invariant_factors))
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        fs = self.invariant_factors
        if any(d < 2 for d in fs):
            raise ValueError(f"invariant factors must be >= 2, got {fs}")
        if any(fs[i + 1] % fs[i] for i in range(len(fs) - 1)):
            raise ValueError(f"divisibility chain violated: {fs}")

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"

    def to_dict(self):
        """The ``h1`` block of the JSON reports."""
        return {"free_rank": self.free_rank, "invariant_factors": self.invariant_factors}


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
    for i, (p, q) in enumerate(s.fibers, start=1):
        m[base][base + i] = 1
        m[base + i][base] = q
        m[base + i][base + i] = p
    return m


def cokernel(m) -> AbelianGroup:
    """Cokernel of the column span of an integer matrix.

    The Smith diagonal d_1 | d_2 | ... is the invariant-factor chain; zeros
    are free rank and ones vanish.
    """
    rows = len(m)
    diag = smith_diagonal(m)
    free = rows - sum(1 for d in diag if d != 0)
    return AbelianGroup(free, tuple(d for d in diag if d > 1))


def h1_oracle(s) -> AbelianGroup:
    """H_1 by Smith normal form of the explicit presentation matrix."""
    return cokernel(presentation_matrix(s))


def _diagonal_chain(ps: list[int]) -> list[int]:
    """Invariant factors c_1 | ... | c_k of diag(p_1, ..., p_k), 1s kept.

    Each pairwise step (c_i, c_j) <- (gcd, lcm) keeps the product and, prime
    by prime, sorts the two valuations, so after the sweep c_1 ... c_m is the
    gcd of all products of m distinct multiplicities.  No factorization.
    """
    c = list(ps)
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            g = math.gcd(c[i], c[j])
            c[i], c[j] = g, c[i] // g * c[j]
    return c


def h1_formula(s) -> AbelianGroup:
    """H_1 via the determinantal divisors of the presentation block.

    The divisors are d_1 = d_2 = 1, then d_j = c_1 ... c_{j-2} for
    3 <= j <= k, the gcd of all products of j - 2 distinct multiplicities
    (``_diagonal_chain`` gives the c_i by gcds and lcms alone), and last
    d_{k+1} = |p_1...p_k * eps|.  The successive quotients D_i = d_{i+1}/d_i
    are already the invariant factors, so the group is read off directly with
    no factorization.  When eps = 0, d_{k+1} = 0: its quotient D_k = 0 is one
    more free summand, and the torsion is D_1, ..., D_{k-1}.  Every eps takes
    this one route; the Smith normal form oracle is never called.
    """
    free = 2 * s.genus + (s.eps_num == 0)
    ps = [p for p, _ in s.fibers]
    k = len(ps)
    if k == 0:  # eps = e
        e = abs(s.central)
        return AbelianGroup(free, (e,) if e > 1 else ())
    c = _diagonal_chain(ps)
    d = [1] * (k + 2)  # d[1] = d[2] = 1
    for j in range(3, k + 1):
        d[j] = d[j - 1] * c[j - 3]
    d[k + 1] = abs(s.eps_num) * (math.prod(ps) // s.lcm)
    orders = []
    for i in range(1, k + 1):
        if d[i + 1] % d[i]:
            raise AssertionError("determinantal divisors must form a chain")
        orders.append(d[i + 1] // d[i])
    return AbelianGroup(free, tuple(D for D in orders if D > 1))  # drops D_k = 0 too


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
    if s.eps_num == 0:
        raise ValueError("dim_h1_z2 needs eps != 0")
    ps = s.multiplicities
    n_even = sum(1 for p in ps if p % 2 == 0)
    if n_even >= 1:
        return n_even - 1
    return int(s.eps_num * (math.prod(ps) // s.lcm) % 2 == 0)
