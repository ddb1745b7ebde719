"""Spin structures on plumbed 3-manifolds and the Neumann-Siebenmann invariant.

Spin structures on the boundary of the canonical positive definite plumbing
correspond to *characteristic subsets* C of the vertex set: the 0/1 indicator
w of C satisfies Q w = diag(Q) mod 2, i.e. at every vertex v of weight a_v
the neighbours in C number a_v (1 + w_v) mod 2.  On the star this is solved
arm by arm, each distinct fiber once per central bit, and run by run: the
arm of p/q is read as its (weight, run length) pairs (``neg_cfrac_runs``)
and never expanded.  Fix the central bit x_0; an arm with weights a_1, ...,
a_m (root to leaf) is a chain over GF(2),

    x_{j+1} = a_j (1 + x_j) + x_{j-1},

so its lead bit x_1 determines it, and the leaf equation asks x_{m+1} = 0.
Over a run of n even weights the chain only swaps its two bits,
x_{j+1} = x_{j-1}, so the run is one step that adds ceil(n/2) cur +
floor(n/2) prev members.  The arms are then joined under the central parity
e x_0 + sum of lead bits = e.  The chain admits no two adjacent members, so
C is isolated and

    mubar(Y, C) = |Gamma| - w^T Q w = |Gamma| - sum of the weights in C,

with |Gamma| = 1 + the sum of the run lengths.

The value vanishes whenever the spin structure extends over a spin rational
homology ball, which is what embedding in the 4-sphere provides; counting spin
structures and mu-bar zeros therefore obstructs embeddings
(``mubar_embedding_conditions``).  That count lists nothing: a DP over the
arms, in order, on (parity of the lead bits, weight sum) gives both numbers
(``spin_counts``), and the mu-bar values with their counts (``spin_values``,
for the pretzel classifier's one spin structure).  Only ``sfs4 mubar`` lists
the subsets (``spin_report``), from the same solver, each arm's member
positions written out and shifted to the arm's start.  The
even-multiplicity fibers are also constrained partition by partition
(parity counts, and a ceiling bound inside classes with two of them);
``class_spin_facts`` holds the per-class rules.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .homology import dim_h1_z2
from .rationals import format_rational, neg_cfrac_runs
from .seifert import StandardForm, TraceStep

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"

SPIN_LISTING_LIMIT = 1 << 16  # the most spin structures ``sfs4 mubar`` lists


class MubarReport(NamedTuple):
    subsets: tuple[tuple[int, ...], ...]
    values: tuple[int, ...]
    z2_dim: int


_ODD_CYCLE = ((0, 0), (0, 1), (1, 0))  # (prev, cur) along a run of odd weights


def _run_solutions(runs, x0: int):
    """The chain solutions for central bit x0 of the arm with these runs.

    Each is (lead bit, weight sum, members), the members a list of ranges of
    the ascending positions from the root (0 for the root) of the arm's
    vertices in C.  Each run is one step.  Over even weights the bits read
    cur, prev, cur, ...; over odd weights x_{j+1} = 1 + x_j + x_{j-1}, so
    (prev, cur) cycles through ``_ODD_CYCLE`` and a member sits at every
    (0, 1).  Once two adjacent bits are set every later bit is, and the
    leaf equation fails.
    """
    out = []
    for lead in (0, 1):
        prev, cur = x0, lead
        members, weight, pos = [], 0, 0
        for a, n in runs:
            if prev and cur:
                break
            if a & 1:
                i = 2 * prev + cur
                first, step = (1 - i) % 3, 3
                prev, cur = _ODD_CYCLE[(i + n) % 3]
            else:
                first, step = (prev if prev or cur else n), 2  # n: no member
                if n & 1:
                    prev, cur = cur, prev
            if first < n:  # counted, not len(): a run may pass sys.maxsize
                members.append(range(pos + first, pos + n, step))
                weight += a * ((n - first + step - 1) // step)
            pos += n
        if not cur:
            out.append((lead, weight, members))
    return out


def _star_runs(s: StandardForm):
    """The runs of each distinct fiber of a genus-0, eps > 0 standard form,
    and |Gamma| = 1 + the sum of the run lengths over all fibers."""
    if s.genus != 0:
        raise ValueError("characteristic subsets classify spin structures for base S^2 only")
    if s.eps_num <= 0:
        raise ValueError("mu-bar uses the positive definite plumbing: eps > 0")
    runs: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    size = 1
    for r in s.fibers:
        arm = runs.get(r)
        if arm is None:
            arm = runs[r] = neg_cfrac_runs(r)
        for _, n in arm:
            size += n
    return runs, size


def spin_report(s: StandardForm) -> MubarReport:
    """All spin structures of a genus-0 standard form with their mu-bar values."""
    runs, size = _star_runs(s)
    e = s.central
    starts, pos = [], 1
    for r in s.fibers:
        starts.append(pos)
        pos += sum(n for _, n in runs[r])
    found = []
    for x0 in (0, 1):
        solved = {r: _run_solutions(arm, x0) for r, arm in runs.items()}
        # (subset so far, its weight sum, lead-bit parity); equal fibers share
        # solutions, shifted to each arm's start, and the arms come in vertex
        # order, so each subset comes out ascending
        partial = [((0,) if x0 else (), e * x0, 0)]
        for start, r in zip(starts, s.fibers):
            partial = [
                (c + tuple([start + j for block in members for j in block]), w + weight, par ^ lead)
                for c, w, par in partial
                for lead, weight, members in solved[r]
            ]
        need = e * (1 + x0) & 1
        found += [(c, size - w) for c, w, par in partial if par == need]
    found.sort()
    dim = _checked_z2_dim(s, len(found))
    return MubarReport(tuple(c for c, _ in found), tuple(v for _, v in found), dim)


def _checked_z2_dim(s: StandardForm, count: int) -> int:
    """dim H^1(Y; Z_2), after checking that ``count`` spin structures is 2^dim."""
    dim = dim_h1_z2(s)
    if count != 1 << dim:
        raise AssertionError(f"spin count {count} must be 2^dim H^1(Y;Z2) = 2^{dim}")
    return dim


def _weight_sums(s: StandardForm, capped: bool) -> tuple[int, dict[int, int]]:
    """|Gamma| and the number of spin structures by the weight sum in C.

    A DP over the arms of the star, in order, on (parity of the lead bits,
    weight sum in C) joins the (lead bit, weight sum) of the run solutions,
    each distinct fiber solved once per central bit; no subset is listed.
    An arm with one solution, as every arm of odd numerator has, adds the
    same to every state, so only the other arms branch.  With ``capped``
    the sums above |Gamma| share one state, |Gamma| + 1.
    """
    runs, size = _star_runs(s)
    e = s.central
    top = size + 1 if capped else math.inf
    sums: dict[int, int] = {}
    for x0 in (0, 1):
        solved = {r: _run_solutions(arm, x0) for r, arm in runs.items()}
        par, w, branching = 0, e * x0, []
        for r in s.fibers:
            solutions = solved[r]
            if len(solutions) == 1:
                par ^= solutions[0][0]
                w += solutions[0][1]
            else:
                branching.append(solutions)
        states = {(par, min(w, top)): 1}
        for solutions in branching:
            joined: dict[tuple[int, int], int] = {}
            for (par, w), n in states.items():
                for lead, weight, _ in solutions:
                    key = (par ^ lead, min(w + weight, top))
                    joined[key] = joined.get(key, 0) + n
            states = joined
        need = e * (1 + x0) & 1
        for (par, w), n in states.items():
            if par == need:
                sums[w] = sums.get(w, 0) + n
    return size, sums


def spin_counts(s: StandardForm) -> tuple[int, int]:
    """(spin structures, mu-bar zeros) of a genus-0 standard form, counted.

    mu-bar is zero when the weight sum is |Gamma|, so larger sums share one
    state of the DP.
    """
    size, sums = _weight_sums(s, capped=True)
    return sum(sums.values()), sums.get(size, 0)


def spin_values(s: StandardForm) -> dict[int, int]:
    """The mu-bar values of the spin structures of a genus-0 standard form,
    each with the number of structures that take it, counted by the DP
    after checking that there are 2^dim H^1(Y; Z_2) of them."""
    size, sums = _weight_sums(s, capped=False)
    _checked_z2_dim(s, sum(sums.values()))
    return {size - w: n for w, n in sums.items()}


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
