"""Canonical star-shaped plumbing graphs and their intersection forms.

A standard-form space bounds the 4-manifold plumbed on a star: a central
vertex of weight e joined to one linear arm per fiber, the arm for p_i/q_i
carrying the negative continued fraction weights of p_i/q_i root-to-leaf.
The intersection form is the weighted adjacency matrix (weights on the
diagonal, -1 on edges); it is positive definite exactly when eps > 0 and is
independent of the base genus.

Vertex numbering is part of the public contract: vertex 0 is central, then
arms in fiber order, each root-to-leaf.  Lattice and spin certificates refer
to this numbering.
"""

from __future__ import annotations

import math

from .rationals import neg_cfrac_eval, neg_cfrac_expand
from .seifert import Frozen, StandardForm


class PlumbingGraph(Frozen):
    _fields = ("central_weight", "arms", "genus")

    def __init__(self, central_weight: int, arms, genus: int = 0):
        self.__dict__.update(central_weight=central_weight, arms=tuple(map(tuple, arms)),
                             genus=genus)
        if any(not arm or min(arm) < 2 for arm in self.arms):
            raise ValueError("every arm must be a nonempty chain of weights >= 2")

    @property
    def size(self) -> int:
        return 1 + sum(len(a) for a in self.arms)

    @property
    def arm_starts(self) -> tuple[int, ...]:
        """Vertex index of each arm's first (root) vertex."""
        starts = []
        pos = 1
        for arm in self.arms:
            starts.append(pos)
            pos += len(arm)
        return tuple(starts)

    def vertex_weights(self) -> tuple[int, ...]:
        ws = [self.central_weight]
        for arm in self.arms:
            ws.extend(arm)
        return tuple(ws)

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for start, arm in zip(self.arm_starts, self.arms):
            out.append((0, start))
            out.extend((start + i, start + i + 1) for i in range(len(arm) - 1))
        return tuple(out)

    def arm_fractions(self) -> tuple[tuple[int, int], ...]:
        """Each arm's fraction [a_1, ..., a_m]^- as its pair (p, q)."""
        return tuple(neg_cfrac_eval(arm) for arm in self.arms)

    def to_text(self) -> str:
        lines = [f"vertex {i} {w}" for i, w in enumerate(self.vertex_weights())]
        lines.extend(f"edge {u} {v}" for u, v in self.edges())
        return "\n".join(lines)

    def to_dict(self):
        """The ``graph`` block of the JSON reports."""
        return {
            "central_weight": self.central_weight,
            "arms": self.arms,
            "genus": self.genus,
            "vertex_weights": self.vertex_weights(),
            "edges": self.edges(),
        }


class IntersectionForm(Frozen):
    _fields = ("matrix",)

    def __init__(self, matrix):
        self.__dict__["matrix"] = m = tuple(tuple(row) for row in matrix)
        n = len(m)
        if any(len(row) != n for row in m):
            raise ValueError("intersection form must be square")
        if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
            raise ValueError("intersection form must be symmetric")

    @property
    def size(self) -> int:
        return len(self.matrix)


def build_plumbing(s: StandardForm) -> PlumbingGraph:
    """Plumbing graph of a standard form: arm i expands fiber i."""
    return PlumbingGraph(
        s.central,
        tuple(neg_cfrac_expand(r) for r in s.fibers),
        s.genus,
    )


def intersection_form(graph: PlumbingGraph) -> IntersectionForm:
    n = graph.size
    m = [[0] * n for _ in range(n)]
    for i, w in enumerate(graph.vertex_weights()):
        m[i][i] = w
    for u, v in graph.edges():
        m[u][v] = m[v][u] = -1
    return IntersectionForm(tuple(tuple(row) for row in m))


def form_determinant(s: StandardForm) -> int:
    """det Q of the star plumbing of ``s``, read off the Seifert invariants.

    Eliminating arm i leaf to root multiplies the determinant by p_i and
    takes q_i/p_i off the central entry, which leaves eps; so det Q is
    eps p_1 ... p_k = (L eps)(p_1 ... p_k / L).  No n x n matrix is built.
    """
    return s.eps_num * (math.prod(s.multiplicities) // s.lcm)

