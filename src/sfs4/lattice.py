"""Backtracking enumeration of lattice embeddings into the diagonal lattice.

An embedding of the intersection lattice (Z^n, Q) of a star plumbing is an
n x n integer matrix A with A A^T = Q; row i is the image of vertex i in an
orthonormal basis e_1..e_n.  ``embeddings_for`` has one configuration: the
central row is fixed to e_1 + ... + e_e (e the central weight), which is the
normal position forced on a space whose torsion is a direct double; each
leading vertex then pairs -1 with exactly one of those coordinates, and
every other vertex meets none of them.  The other rows are enumerated vertex
by vertex, arms root-to-leaf, and embeddings are reported up to the
automorphisms of Z^n, i.e. signed column permutations, via a canonical form:
a fresh coordinate takes only entries >= 0, and a coordinate whose column so
far repeats the previous one takes entries no larger than it.

The unit-coordinate bound prunes leading rows: the reciprocals of the
fractions of arms whose leading vertices share a coordinate can never sum
above 1, and hitting 1 exactly forces all those pairings to be +-1.  The
loads are integers over the lcm of the arm numerators.

A row is filled coordinate by coordinate.  After coordinates 0..j-1 the
residual pairing d_s = Q[t][s] - <v[:j], rows[s][:j]> with an earlier row s
must still be reachable: d_s^2 <= (norm left) * |rows[s][j:]|^2 by
Cauchy-Schwarz.  The search keeps d_s only where it is nonzero, since a zero
residual passes that test at every coordinate; on a star form a new row
starts with one nonzero residual, its parent, and coordinate j changes only
the rows that are nonzero at j.  Each placed row's suffix norms are computed
once, when it is placed, and the placed rows' column nonzeros and
column-symmetry flags once for each row being filled.  None of this changes
which values are tried or in what order, so the search visits the same nodes
as the dense test over all earlier rows, and the node count, a reported
output, is unchanged.

Embeddings yield induced partitions and a pair surjectivity test (all
invariant factors of the n x 2n augmented matrix equal 1).  Only ``sfs4
lattice`` runs this engine; ``classify`` never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm

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
        """A A^T, every entry, summed over the nonzero entries of each column."""
        n = self.size
        g = [[0] * n for _ in range(n)]
        for col in zip(*self.rows):
            nonzero = [(i, x) for i, x in enumerate(col) if x]
            for i, x in nonzero:
                gi = g[i]
                for k, y in nonzero:
                    gi[k] += x * y
        return tuple(tuple(r) for r in g)

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


DEFAULT_NODE_BUDGET = 10**7


def embeddings_for(
    graph: PlumbingGraph,
    q: IntersectionForm,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchResult:
    """All embeddings of the star form ``q`` of ``graph`` in normal position.

    Embeddings go into (Z^n, Id) with the central row fixed to
    e_1 + ... + e_e, and are reported up to signed column permutation.  The
    search is depth-first with a node budget; exceeding it sets
    ``budget_exceeded`` on the result.
    """
    if not is_positive_definite(q):
        raise ValueError("embedding search requires a positive definite form")
    n = q.size
    matrix = q.matrix
    e = graph.central_weight
    if e > n:
        raise ValueError("central weight incompatible with the structural search")
    # the unit-coordinate bound in units of 1/scale: a leading row adds
    # load_of[t] = scale / r_t to every coordinate it meets
    fractions = graph.arm_fractions()
    scale = lcm(*(num for num, _ in fractions))
    load_of = {
        t: den * (scale // num) for t, (num, den) in zip(graph.arm_starts, fractions)
    }
    # the nonzero pairings of each row with the rows placed before it
    earlier = [{s: matrix[t][s] for s in range(t) if matrix[t][s]} for t in range(n)]

    rows: list[tuple[int, ...]] = []
    supports: list[list[int]] = []  # nonzero coordinates of each placed row
    tails: list[list[int]] = []     # tails[s][j]: squared norm of rows[s][j:]
    colload = [0] * n  # leading-row load per coordinate, in units of 1/scale
    colmax = [0] * n   # max |entry| per coordinate over leading rows
    found: set[tuple[tuple[int, ...], ...]] = set()
    nodes = 0

    def push(row: tuple[int, ...], support: list[int]):
        tail = [0] * (n + 1)
        for j in range(n - 1, -1, -1):
            tail[j] = tail[j + 1] + row[j] * row[j]
        rows.append(row)
        supports.append(support)
        tails.append(tail)

    def pop():
        rows.pop()
        supports.pop()
        tails.pop()

    def candidates(t: int):
        # column j's nonzeros over the placed rows; a fresh column is all
        # zero, and ``same[j]`` says column j repeats column j - 1
        colnz: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for s, (row, support) in enumerate(zip(rows, supports)):
            for j in support:
                colnz[j].append((s, row[j]))
        same = [j > 0 and colnz[j] == colnz[j - 1] for j in range(n)]
        lead = t in load_of
        v = [0] * n

        def rec(j: int, remnorm: int, res: dict[int, int], marks: int):
            # ``res`` holds the nonzero residual pairings Q[t][s] - <v[:j], rows[s][:j]>;
            # a zero residual always passes the Cauchy-Schwarz test below
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                raise _Budget
            if lead and j == e and marks != 1:
                return  # leading rows meet exactly one central coordinate
            if j == n:
                if remnorm == 0 and not res:
                    yield tuple(v)
                return
            if j < e:
                vals = ((-1, 0) if marks == 0 else (0,)) if lead else (0,)
                if same[j]:
                    vals = [val for val in vals if val <= v[j - 1]]
            else:
                top = isqrt(remnorm)
                lo = 0 if not colnz[j] else -top  # fresh coordinate: sign is a column symmetry
                if same[j]:
                    top = min(top, v[j - 1])  # equal history: sort entries
                vals = range(top, lo - 1, -1)
            col = colnz[j]
            for val in vals:
                rem2 = remnorm - val * val
                if rem2 < 0:
                    continue
                new = res
                if val and col:
                    new = dict(res)
                    for s, x in col:
                        d = new.get(s, 0) - val * x
                        if d:
                            new[s] = d
                        else:
                            del new[s]
                for s, d in new.items():
                    if d * d > rem2 * tails[s][j + 1]:
                        break
                else:
                    v[j] = val
                    yield from rec(j + 1, rem2, new, marks + (1 if j < e and val else 0))
                    v[j] = 0

        yield from rec(0, matrix[t][t], earlier[t], 0)

    def unit_bound_ok(v: tuple[int, ...], support: list[int], b: int) -> bool:
        for j in support:
            total = colload[j] + b
            if total > scale:
                return False
            if total == scale and (abs(v[j]) > 1 or colmax[j] > 1):
                return False
        return True

    def place(t: int):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _Budget
        if t == n:
            found.add(LatticeEmbedding(tuple(rows)).canonical().rows)
            return
        b = load_of.get(t)
        for v in candidates(t):
            support = [j for j in range(n) if v[j]]
            if b is not None:
                if not unit_bound_ok(v, support, b):
                    continue
                saved = [(colload[j], colmax[j]) for j in support]
                for j in support:
                    colload[j] += b
                    colmax[j] = max(colmax[j], abs(v[j]))
            push(v, support)
            place(t + 1)
            pop()
            if b is not None:
                for j, (cl, cm) in zip(support, saved):
                    colload[j], colmax[j] = cl, cm

    over = False
    try:
        push(tuple(1 if j < e else 0 for j in range(n)), list(range(e)))
        place(1)
    except _Budget:
        over = True

    embeddings = sorted((LatticeEmbedding(r) for r in found), key=lambda a: a.rows)
    for a in embeddings:  # re-verify: pairing preservation, post-search
        if a.gram() != matrix:
            raise AssertionError("search produced a non-embedding")
    return SearchResult(embeddings, nodes, over)


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

