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
residual passes that test at every coordinate.  A value is tested first on
the rows nonzero at j, the only residuals it changes; only a value that
passes gets its residuals copied and all of them tested.  Once the norm is
used up no residual can be live, so the rest of the row is zeros, counted
one node a column without a call.  The placed rows' suffix norms, column
nonzeros and column-symmetry flags are kept up to date as rows are placed
and taken off.  Each row's candidates are listed at once, each with the node
count reached at it, and rows are placed from an explicit stack: taking a
candidate adds the nodes listed before it, so a budget cut falls on the node,
with the embeddings found, where a walk placing each row as it is found
stops.  None of this changes which values are tried or in what order, so the
search visits the same nodes as the dense test over all earlier rows, and
the node count, a reported output, is unchanged.

Embeddings yield induced partitions and a pair test: (A1 | A2) is surjective
when its n invariant factors are 1.  With U A1 V = D, taken once per A1,
that holds exactly when the r x (r + n) matrix [diag(d_R) | U_R A2] over the
rows R with d_i != 1 has Smith diagonal all ones, as the columns of A1 span
U^-1 D Z^n.  Only ``sfs4 lattice`` runs this engine; ``classify`` never
calls it.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, lcm

from .intmat import smith_diagonal, smith_form
from .plumbing import PlumbingGraph, intersection_form
from .seifert import Budget, Frozen, StandardForm


class StructureViolation(ValueError):
    """An embedding does not have the direct-double normal form."""


class LatticeEmbedding(Frozen):
    _fields = ("rows",)

    def __init__(self, rows):
        self.__dict__["rows"] = tuple(tuple(r) for r in rows)

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


def canonical_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Normal form of ``rows`` under signed column permutations: each column's
    first nonzero entry made positive, columns in descending order."""
    cols = [col if next((x for x in col if x), 0) >= 0 else tuple(-x for x in col)
            for col in zip(*rows)]
    cols.sort(reverse=True)
    return tuple(zip(*cols))


class SearchResult:
    def __init__(self, embeddings: list[LatticeEmbedding], nodes: int, budget: Budget | None):
        self.embeddings = embeddings
        self.nodes = nodes
        self.budget = budget  # set when the node budget stopped the search

    def __iter__(self):
        return iter(self.embeddings)

    def __len__(self):
        return len(self.embeddings)


DEFAULT_NODE_BUDGET = 10**7
MAX_SEARCH_VERTICES = 800  # the coordinate walk recurses once per column


def embeddings_for(graph: PlumbingGraph, budget: int = DEFAULT_NODE_BUDGET) -> SearchResult:
    """All embeddings of the star form of ``graph`` in normal position.

    Embeddings go into (Z^n, Id) with the central row fixed to
    e_1 + ... + e_e, and are reported up to signed column permutation.  The
    search is depth-first with a node budget; exceeding it sets ``budget``
    on the result, with the reported node count as its value.
    """
    n = graph.size
    if n > MAX_SEARCH_VERTICES:  # before any n x n work
        raise ValueError(f"lattice search is limited to {MAX_SEARCH_VERTICES} vertices; "
                         f"this graph has {n}")
    weights = graph.vertex_weights()
    e = graph.central_weight
    # the unit-coordinate bound in units of 1/scale: a leading row adds
    # load_of[t] = scale / r_t to every coordinate it meets
    fractions = graph.arm_fractions()
    scale = lcm(*(num for num, _ in fractions))
    load_of = {
        t: den * (scale // num) for t, (num, den) in zip(graph.arm_starts, fractions)
    }
    # leaf-to-root pivots: each arm's are its fraction's tails, all > 1 since
    # every weight is >= 2, and the central one is eps = e - sum 1/r_t
    if e * scale <= sum(load_of.values()):
        raise ValueError("embedding search requires a positive definite form")
    if e > n:
        raise ValueError("central weight incompatible with the structural search")
    # the nonzero pairings of each row with the rows placed before it: -1
    # with its parent
    earlier: list[dict[int, int]] = [{} for _ in range(n)]
    for parent, t in graph.edges():
        earlier[t][parent] = -1

    rows: list[tuple[int, ...]] = []
    supports: list[list[int]] = []  # nonzero coordinates of each placed row
    tails: list[list[int]] = []     # tails[s][j]: squared norm of rows[s][j:]
    # column j's nonzeros (s, x) over the placed rows; a fresh column is all
    # zero, and ``same[j]`` says column j repeats column j - 1
    colnz: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    same = [j > 0 for j in range(n)]
    colload = [0] * n  # leading-row load per coordinate, in units of 1/scale
    colmax = [0] * n   # max |entry| per coordinate over leading rows
    found: set[tuple[tuple[int, ...], ...]] = set()

    def restate(support: list[int]):
        for j in support:
            same[j] = j > 0 and colnz[j] == colnz[j - 1]
            if j + 1 < n:
                same[j + 1] = colnz[j + 1] == colnz[j]

    def push(row: tuple[int, ...], support: list[int]):
        tail = [0] * (n + 1)
        for j in range(n - 1, -1, -1):
            tail[j] = tail[j + 1] + row[j] * row[j]
        for j in support:
            colnz[j].append((len(rows), row[j]))
        rows.append(row)
        supports.append(support)
        tails.append(tail)
        restate(support)

    def pop():
        rows.pop()
        tails.pop()
        for j in supports[-1]:
            colnz[j].pop()
        restate(supports.pop())

    def candidates(t: int, room: int):
        """Row t's values in search order, each with the node count reached
        at it, and the listing's count, which stops once it passes ``room``."""
        lead = t in load_of
        v = [0] * n
        out: list[tuple[tuple[int, ...], int]] = []
        count = 0

        def rec(j: int, remnorm: int, res: dict[int, int], marks: int):
            # ``res`` holds the nonzero residual pairings Q[t][s] - <v[:j], rows[s][:j]>;
            # a zero residual always passes the Cauchy-Schwarz test below
            nonlocal count
            count += 1
            if count > room or lead and j == e and marks != 1:
                return  # leading rows meet exactly one central coordinate
            if not remnorm:
                # a live residual would have failed the test with no norm
                # left, so the rest of the row is zeros: one node a column,
                # up to the equal-history or the central exit
                if j < n and same[j] and v[j - 1] < 0:
                    return
                if lead and j < e and marks != 1:
                    count += e - j
                    return
                count += n - j
                if count <= room:
                    out.append((tuple(v), count))
                return
            if j == n:
                return
            col = colnz[j]
            j1 = j + 1
            if j < e:
                vals = (-1, 0) if lead and not marks else (0,)
                if same[j]:
                    vals = [val for val in vals if val <= v[j - 1]]
            else:
                top = isqrt(remnorm)
                lo = -top if col else 0  # fresh coordinate: sign is a column symmetry
                if same[j]:
                    top = min(top, v[j - 1])  # equal history: sort entries
                vals = range(top, lo - 1, -1)
            for val in vals:
                rem2 = remnorm - val * val
                new = res
                if val and col:
                    # the rows met at j first, alone; only a value that
                    # passes them gets its residuals copied
                    for s, x in col:
                        d = res.get(s, 0) - val * x
                        if d * d > rem2 * tails[s][j1]:
                            break
                    else:
                        new = dict(res)
                        for s, x in col:
                            d = new.get(s, 0) - val * x
                            if d:
                                new[s] = d
                            else:
                                del new[s]
                    if new is res:
                        continue  # no copy: a row met at j failed
                for s, d in new.items():
                    if d * d > rem2 * tails[s][j1]:
                        break
                else:
                    v[j] = val
                    rec(j1, rem2, new, marks + (1 if j < e and val else 0))
                    v[j] = 0

        rec(0, weights[t], earlier[t], 0)
        return out, count

    def search() -> int:
        # one frame per row being placed: [listing, its count, position,
        # count reached, loads saved under the candidate placed last]
        nodes, stack, t = 0, [], 1
        while True:
            nodes += 1  # the node that places row t
            if nodes > budget:
                return nodes
            if t == n:
                found.add(canonical_rows(rows))
            else:
                stack.append([*candidates(t, budget - nodes), 0, 0, ()])
            while stack:
                frame = stack[-1]
                listing, total, pos, reached, saved = frame
                t = len(stack)
                if len(rows) > t:  # take off the candidate placed last
                    pop()
                    for j, cl, cm in saved:
                        colload[j], colmax[j] = cl, cm
                v, count = listing[pos] if pos < len(listing) else (None, total)
                nodes += count - reached  # the listing's nodes up to v
                if nodes > budget:
                    return nodes
                if v is None:
                    stack.pop()
                    continue
                frame[2:] = pos + 1, count, ()
                support = [j for j in range(n) if v[j]]
                b = load_of.get(t)
                if b is not None:
                    if any(colload[j] + b > scale or colload[j] + b == scale
                           and (abs(v[j]) > 1 or colmax[j] > 1) for j in support):
                        continue  # the unit-coordinate bound
                    frame[4] = [(j, colload[j], colmax[j]) for j in support]
                    for j in support:
                        colload[j] += b
                        colmax[j] = max(colmax[j], abs(v[j]))
                push(v, support)
                t += 1
                break
            else:
                return nodes

    push(tuple(1 if j < e else 0 for j in range(n)), list(range(e)))
    nodes = search()
    embeddings = sorted((LatticeEmbedding(r) for r in found), key=lambda a: a.rows)
    matrix = intersection_form(graph).matrix
    for a in embeddings:  # re-verify: pairing preservation, post-search
        if a.gram() != matrix:
            raise AssertionError("search produced a non-embedding")
    stop = Budget("lattice_search", "nodes", budget, budget + 1) if nodes > budget else None
    return SearchResult(embeddings, min(nodes, budget + 1), stop)


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
        raise StructureViolation("central row is not a sum of e distinct coordinates")
    central_cols = [j for j, x in enumerate(central) if x == 1]
    starts = graph.arm_starts
    lead_of_col: dict[int, list[int]] = {j: [] for j in central_cols}
    for arm_index, start in enumerate(starts, start=1):
        row = a.rows[start]
        touching = [j for j in central_cols if row[j] != 0]
        if len(touching) != 1:
            raise StructureViolation(
                f"leading vertex of arm {arm_index} meets {len(touching)} central coordinates"
            )
        lead_of_col[touching[0]].append(arm_index)
    for v in range(1, a.size):
        if v in starts:
            continue
        for j in central_cols:
            if a.rows[v][j] != 0:
                raise StructureViolation("non-leading vertex meets a central coordinate")
    classes = [tuple(sorted(arms)) for arms in lead_of_col.values() if arms]
    if sum(len(c) for c in classes) != s.fiber_count or len(classes) != e:
        raise StructureViolation("leading pairings do not partition the arms")
    sums = sorted(sum(s.weights[i - 1] for i in c) for c in classes)
    if sums != [s.lcm - 1] + [s.lcm] * (e - 1):
        raise StructureViolation(f"class weight sums {sums} over L = {s.lcm} violate the sum law")
    return tuple(sorted(classes))


@lru_cache(maxsize=1)
def _cokernel_rows(rows) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """(d_i, nonzeros of row i of U) for each d_i != 1 of U A V = D."""
    diag, u = smith_form(rows, with_u=True)
    diag += [0] * (len(rows) - len(diag))  # rows past the diagonal are zero in D
    return tuple((d, tuple((k, x) for k, x in enumerate(ui) if x))
                 for d, ui in zip(diag, u) if d != 1)


def pair_surjective(a1: LatticeEmbedding, a2: LatticeEmbedding) -> bool:
    """Whether (A1 | A2) is surjective over Z, by A1's Smith form (module docstring)."""
    if a1.size != a2.size or a1.ambient_rank != a2.ambient_rank:
        raise ValueError("embedding pair shape mismatch")
    cokernel = _cokernel_rows(a1.rows)
    r = len(cokernel)
    m = []
    for i, (d, ui) in enumerate(cokernel):
        row = [0] * (r + a2.ambient_rank)
        row[i] = d
        for k, uk in ui:
            for j, y in enumerate(a2.rows[k], start=r):
                if y:
                    row[j] += uk * y
        m.append(row[:r] + [x % d for x in row[r:]] if d else row)
    return all(x == 1 for x in smith_diagonal(m))
