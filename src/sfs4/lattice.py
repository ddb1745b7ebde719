"""Backtracking enumeration of lattice embeddings into the diagonal lattice.

An embedding of the intersection lattice (Z^n, Q) is an n x N integer matrix
A with A A^T = Q; row i is the image of vertex i in an orthonormal basis
e_1..e_N (N = n by default).  Embeddings are enumerated vertex by vertex
(central first, then arms root-to-leaf) and reported up to the automorphisms
of Z^N, i.e. signed column permutations, via a canonical form.

Two soundness-preserving prunes drive the search on star-shaped forms:

* unit-coordinate bound: the reciprocals of the fractions of arms whose
  leading vertices share a coordinate can never sum above 1, and hitting 1
  exactly forces all those pairings to be +-1;

* structural search (``constrain_central``): restricted to embeddings where
  the central vertex maps to e_1 + ... + e_e, leading vertices pair -1/0
  with those coordinates and other vertices not at all, which is the normal
  position forced on a space whose torsion is a direct double.

Embeddings yield induced partitions and a pair surjectivity test (all
invariant factors of the n x 2n augmented matrix equal 1).  Only ``sfs4
lattice`` runs this engine; ``classify`` never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .intmat import smith_diagonal
from .plumbing import IntersectionForm, PlumbingGraph, is_positive_definite
from .seifert import StandardForm


class StructureViolation(ValueError):
    """An embedding does not have the direct-double normal form."""

    def __init__(self, message, vertex=None, column=None):
        super().__init__(message)
        self.vertex = vertex
        self.column = column


@dataclass(frozen=True)
class LatticeEmbedding:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def ambient_rank(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def gram(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(sum(a * b for a, b in zip(r1, r2)) for r2 in self.rows)
            for r1 in self.rows
        )

    def canonical(self) -> "LatticeEmbedding":
        """Normal form under signed column permutations.

        Each column's sign makes its first nonzero entry positive; columns
        then sort in descending lexicographic order.
        """
        cols = []
        for j in range(self.ambient_rank):
            col = [row[j] for row in self.rows]
            lead = next((x for x in col if x != 0), 0)
            if lead < 0:
                col = [-x for x in col]
            cols.append(tuple(col))
        cols.sort(reverse=True)
        return LatticeEmbedding(tuple(zip(*cols)) if cols else ())


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
            tuple(1 / r for r in graph.arm_fractions()),
        )


@dataclass
class SearchResult:
    embeddings: list[LatticeEmbedding]
    nodes: int
    budget_exceeded: bool

    def __iter__(self):
        return iter(self.embeddings)

    def __len__(self):
        return len(self.embeddings)


class _Budget(Exception):
    pass


def enumerate_embeddings(
    q: IntersectionForm,
    structure: StarStructure | None = None,
    budget: int = 10**7,
    ambient_rank: int | None = None,
    constrain_central: bool = False,
    reduce_symmetry: bool = True,
) -> SearchResult:
    """All embeddings of (Z^n, Q) into (Z^N, Id) up to signed column permutation.

    ``structure`` enables the unit-coordinate pruning; ``constrain_central``
    additionally fixes the central row to e_1 + ... + e_e and restricts how
    other rows meet the first e coordinates.  The search is depth-first with
    a node budget; exceeding it sets ``budget_exceeded`` on the result.
    """
    if not is_positive_definite(q):
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
            found.add(LatticeEmbedding(tuple(rows)).canonical().rows)
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
    return SearchResult(embeddings, state["nodes"], state["over"])


def embeddings_for(
    graph: PlumbingGraph,
    q: IntersectionForm,
    budget: int = 10**7,
) -> SearchResult:
    """Embedding search for a star plumbing and its form, with all prunes on."""
    return enumerate_embeddings(
        q,
        structure=StarStructure.from_graph(graph),
        budget=budget,
        constrain_central=True,
    )


def induced_partition(a: LatticeEmbedding, s: StandardForm, graph: PlumbingGraph):
    """Fiber partition read off an embedding in direct-double normal form.

    Class i collects the arms whose leading vertex pairs nontrivially with
    the i-th central coordinate.  Verifies the normal form: central row is a
    0/1 vector with e ones, only leading vertices meet the central
    coordinates, classes partition the fibers, and the class sums are e-1
    ones plus the single deficit 1 - 1/lcm.
    """
    e = s.central
    central = a.rows[0]
    if sorted(central, reverse=True) != [1] * e + [0] * (a.ambient_rank - e):
        raise StructureViolation("central row is not a sum of e distinct coordinates", vertex=0)
    central_cols = [j for j, x in enumerate(central) if x == 1]
    starts = graph.arm_starts
    lead_of_col: dict[int, list[int]] = {j: [] for j in central_cols}
    for arm_index, start in enumerate(starts, start=1):
        row = a.rows[start]
        touching = [j for j in central_cols if row[j] != 0]
        if len(touching) != 1:
            raise StructureViolation(
                f"leading vertex of arm {arm_index} meets {len(touching)} central coordinates",
                vertex=start,
            )
        lead_of_col[touching[0]].append(arm_index)
    for v in range(1, a.size):
        if v in starts:
            continue
        for j in central_cols:
            if a.rows[v][j] != 0:
                raise StructureViolation(
                    "non-leading vertex meets a central coordinate", vertex=v, column=j
                )
    classes = [tuple(sorted(arms)) for arms in lead_of_col.values() if arms]
    if sum(len(c) for c in classes) != s.fiber_count or len(classes) != e:
        raise StructureViolation("leading pairings do not partition the arms")
    sums = sorted(sum(s.weights[i - 1] for i in c) for c in classes)
    if sums != [s.lcm - 1] + [s.lcm] * (e - 1):
        raise StructureViolation(f"class weight sums {sums} over L = {s.lcm} violate the sum law")
    return tuple(sorted(classes))


def pair_surjective(a1: LatticeEmbedding, a2: LatticeEmbedding) -> bool:
    """Whether the n x 2n augmented matrix (A1 | A2) is surjective over Z."""
    if a1.size != a2.size or a1.ambient_rank != a2.ambient_rank:
        raise ValueError("embedding pair shape mismatch")
    m = [list(r1) + list(r2) for r1, r2 in zip(a1.rows, a2.rows)]
    diag = smith_diagonal(m)
    return len(diag) >= a1.size and all(d == 1 for d in diag[: a1.size])

