"""Spin structures on plumbed 3-manifolds and the Neumann-Siebenmann invariant.

Spin structures on the boundary of the canonical positive definite plumbing
correspond to *characteristic subsets* C of the vertex set: the 0/1 indicator
w of C satisfies Q w = diag(Q) mod 2, i.e. at every vertex v of weight a_v
the neighbours in C number a_v (1 + w_v) mod 2.  On the star this is solved
arm by arm, each distinct arm once per central bit.  Fix the central bit
x_0; an arm with weights a_1, ..., a_m (root to leaf) is a chain over GF(2),

    x_{j+1} = a_j (1 + x_j) + x_{j-1},

so its lead bit x_1 determines it, and the leaf equation asks x_{m+1} = 0.
The arms are then joined under the central parity e x_0 + sum of lead bits
= e.  The chain admits no two adjacent members, so C is isolated and

    mubar(Y, C) = |Gamma| - w^T Q w = |Gamma| - sum of the weights in C.

The value vanishes whenever the spin structure extends over a spin rational
homology ball, which is what embedding in the 4-sphere provides; counting spin
structures and mu-bar zeros therefore obstructs embeddings
(``mubar_embedding_conditions``).  That count lists nothing: a DP over the
arms, in order, on (parity of the lead bits, weight sum) gives both numbers
(``spin_counts``).  ``spin_report`` lists the subsets, joining each arm's
member positions shifted to the arm's start, only for ``sfs4 mubar`` and
the pretzel classifier.  The even-multiplicity fibers are also
constrained partition by partition (parity counts, and a ceiling bound inside
classes with two of them); ``class_spin_facts`` holds the per-class rules.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .homology import dim_h1_z2
from .plumbing import build_plumbing
from .rationals import format_rational
from .seifert import StandardForm, TraceStep

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"

SPIN_LISTING_LIMIT = 1 << 16  # the most spin structures ``sfs4 mubar`` lists


class MubarReport(NamedTuple):
    subsets: tuple[tuple[int, ...], ...]
    values: tuple[int, ...]
    z2_dim: int


def _arm_solutions(arm, x0: int):
    """The arm's chain solutions for central bit x0.

    Each is (lead bit, weight sum, members), the members the ascending
    positions from the root (0 for the root) of the arm's vertices in C.
    """
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


def spin_report(s: StandardForm) -> MubarReport:
    """All spin structures of a genus-0 standard form with their mu-bar values."""
    if s.genus != 0:
        raise ValueError("characteristic subsets classify spin structures for base S^2 only")
    if s.eps_num <= 0:
        raise ValueError("mu-bar uses the positive definite plumbing: eps > 0")
    graph = build_plumbing(s)
    e = graph.central_weight
    arms = tuple(zip(graph.arm_starts, graph.arms))
    found = []
    for x0 in (0, 1):
        solved = {arm: _arm_solutions(arm, x0) for arm in set(graph.arms)}
        # (subset so far, its weight sum, lead-bit parity); equal arms share
        # solutions, shifted to each arm's start, and the arms come in vertex
        # order, so each subset comes out ascending
        partial = [((0,) if x0 else (), e * x0, 0)]
        for start, arm in arms:
            partial = [
                (c + tuple([start + j for j in members]), w + weight, par ^ lead)
                for c, w, par in partial
                for lead, weight, members in solved[arm]
            ]
        need = e * (1 + x0) & 1
        found += [(c, graph.size - w) for c, w, par in partial if par == need]
    found.sort()
    dim = _checked_z2_dim(s, len(found))
    return MubarReport(tuple(c for c, _ in found), tuple(v for _, v in found), dim)


def _checked_z2_dim(s: StandardForm, count: int) -> int:
    """dim H^1(Y; Z_2), after checking that ``count`` spin structures is 2^dim."""
    dim = dim_h1_z2(s)
    if count != 1 << dim:
        raise AssertionError(f"spin count {count} must be 2^dim H^1(Y;Z2) = 2^{dim}")
    return dim


def spin_counts(s: StandardForm) -> tuple[int, int]:
    """(spin structures, mu-bar zeros) of a genus-0 standard form, counted.

    A DP over the arms of the star, in order, on (parity of the lead bits,
    weight sum in C) joins the (lead bit, weight sum) of the arm solutions
    of ``spin_report``, each distinct arm solved once; no subset is listed.
    mu-bar is zero when the weight sum is |Gamma|, so larger sums share one
    state.
    """
    graph = build_plumbing(s)
    e, size = graph.central_weight, graph.size
    total = zeros = 0
    for x0 in (0, 1):
        solved = {arm: _arm_solutions(arm, x0) for arm in set(graph.arms)}
        states = {(0, min(e, size + 1) if x0 else 0): 1}
        for arm in graph.arms:
            joined: dict[tuple[int, int], int] = {}
            for (par, w), n in states.items():
                for lead, weight, _ in solved[arm]:
                    key = (par ^ lead, min(w + weight, size + 1))
                    joined[key] = joined.get(key, 0) + n
            states = joined
        need = e * (1 + x0) & 1
        for (par, w), n in states.items():
            if par == need:
                total += n
                zeros += n if w == size else 0
    return total, zeros


# ---------------------------------------------------------------------------
# Embedding conditions


class ClassSpinFacts(NamedTuple):
    """What the even-multiplicity spin rules say about one partition class."""

    evens: int                   # members of even multiplicity
    ceiling_checked: bool        # complementary with exactly two even members
    ceiling_failure: str | None  # detail when the ceiling bound fails
    product_failure: str | None  # detail when the class is (u, v, uv) with uv even

    @property
    def failed(self) -> bool:
        return self.ceiling_failure is not None or self.product_failure is not None


def class_spin_facts(s: StandardForm, cls) -> ClassSpinFacts:
    """The per-class spin rules on one class of fiber indices (1-based).

    A complementary class (reciprocal sum 1) with exactly two even members
    {x, y, odds...} obeys ceil(fiber_x) <= 1 + sum of (p - 1) over the other
    members, and symmetrically; a complementary class {u, v, uv} needs uv odd.
    """
    members = [s.fibers[i - 1] for i in cls]
    evens = [i for i, (p, _) in zip(cls, members) if p % 2 == 0]
    ceiling_checked = False
    ceiling = product = None
    if len(evens) == 2 or len(members) == 3:
        if sum(s.weights[i - 1] for i in cls) == s.lcm:
            ceiling_checked = len(evens) == 2
            if ceiling_checked:
                for x in evens:
                    p, q = s.fibers[x - 1]
                    bound = 1 + sum(s.fibers[i - 1][0] - 1 for i in cls if i != x)
                    lhs = -(-p // q)  # ceil
                    if lhs > bound:
                        ceiling = f"class {cls}: ceil({format_rational((p, q))}) = {lhs} > {bound}"
                        break
            if len(members) == 3:
                # a member uv is an integer whose square is the product of all
                # three multiplicities, and then it is the largest
                prod = math.prod(p for p, _ in members)
                top = next((p for p, q in members if q == 1 and p * p == prod), 1)
                if top % 2 == 0:
                    product = f"complementary class {cls} has shape (u, v, uv) with uv = {top} even"
    return ClassSpinFacts(len(evens), ceiling_checked, ceiling, product)


def partition_even_conditions(s: StandardForm, partition) -> list[TraceStep]:
    """Per-partition constraints forced by extendable spin structures.

    With at least one even multiplicity: exactly one class contains an odd
    number (1 or 3) of even-multiplicity fibers and every other class 0 or
    2, and no class breaks a rule of ``class_spin_facts``.
    """
    facts = [class_spin_facts(s, c) for c in partition]
    counts = {tuple(c): f.evens for c, f in zip(partition, facts)}
    odd_classes = [c for c, n in counts.items() if n % 2 == 1]
    parity_ok = (
        len(odd_classes) == 1
        and counts[odd_classes[0]] in (1, 3)
        and all(n in (0, 2) for c, n in counts.items() if c != odd_classes[0])
    )
    if parity_ok:
        out = [TraceStep("even_fiber_class_parity", PASS)]
    else:
        out = [
            TraceStep(
                "even_fiber_class_parity",
                FAIL,
                f"need one class with 1 or 3 even multiplicities and 0/2 elsewhere; got {counts}",
            )
        ]

    failure = next((f.ceiling_failure for f in facts if f.ceiling_failure), None)
    if failure:
        out.append(TraceStep("even_pair_ceiling_bound", FAIL, failure))
    elif any(f.ceiling_checked for f in facts):
        out.append(TraceStep("even_pair_ceiling_bound", PASS))
    else:
        out.append(
            TraceStep(
                "even_pair_ceiling_bound",
                NOT_APPLICABLE,
                "no complementary class with exactly two even members",
            )
        )

    failure = next((f.product_failure for f in facts if f.product_failure), None)
    if failure:
        out.append(TraceStep("size3_product_class", FAIL, failure))
    else:
        out.append(
            TraceStep(
                "size3_product_class",
                NOT_APPLICABLE,
                "no size-3 class of product shape with even product",
            )
        )
    return out


def mubar_embedding_conditions(s: StandardForm) -> tuple[TraceStep, TraceStep]:
    """Necessary spin/mu-bar conditions for embedding, as their trace steps.

    The space has genus 0, eps > 0 and tor H_1 a direct double.  First
    dim H^1(Y;Z_2) <= 2e (``z2_cohomology_bound``).  Then at least 2^(dim/2)
    of the 2^dim spin structures have mu-bar zero (``mubar_zero_count``).
    The rules on even multiplicities hold partition by partition, in
    ``partition_even_conditions`` and ``class_spin_facts``.

    The dimension counts the even invariant factors of H_1, and a direct
    double has those in pairs, so it is even and 2^dim is a square.  An odd
    dimension is outside this contract and raises ``ValueError``.
    """
    if s.genus != 0:
        raise ValueError("mu-bar conditions apply to base S^2 only")
    if s.eps_num <= 0:
        raise ValueError("mu-bar conditions need eps > 0")
    count, zeros = spin_counts(s)
    dim = _checked_z2_dim(s, count)
    if dim % 2:
        raise ValueError(f"dim H^1(Y;Z2) = {dim} is odd: tor H1 is not a direct double")
    e = s.central
    if dim <= 2 * e:
        bound = TraceStep("z2_cohomology_bound", PASS, f"dim = {dim} <= 2e = {2 * e}")
    else:
        bound = TraceStep("z2_cohomology_bound", FAIL, f"dim = {dim} > 2e = {2 * e}")
    need = 1 << (dim // 2)
    if zeros >= need:
        return bound, TraceStep("mubar_zero_count", PASS, f"{zeros} mu-bar zeros >= {need}")
    return bound, TraceStep("mubar_zero_count", FAIL, f"{zeros} mu-bar zeros < {need}")
