import math
import random
from itertools import combinations, permutations

from sfs4.intmat import determinant, smith_diagonal, smith_form
from tests.oracles import leading_principal_minors


def brute_determinant(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def determinantal_divisors(m):
    """gcd of all k x k minors, k = 1..min(rows, cols); 0 when all vanish."""
    rows, cols = len(m), len(m[0])
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[m[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, brute_determinant(sub))
        out.append(g)
    return out


def test_determinant_matches_permanent_expansion():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert determinant(m) == brute_determinant(m), m


def test_smith_diagonal_matches_determinantal_divisors():
    rng = random.Random(9)
    for _ in range(80):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag = smith_diagonal(m)
        ds = determinantal_divisors(m)
        prev = 1
        for k, dk in enumerate(ds):
            if dk == 0:
                assert all(d == 0 for d in diag[k:]), (m, diag, ds)
                break
            assert diag[k] == dk // prev, (m, diag, ds)
            prev = dk
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0


def test_leading_principal_minors():
    m = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert leading_principal_minors(m) == [2, 3, 4]


def test_smith_form_left_factor_is_unimodular():
    # U is a product of row operations: det U = +-1, U A has A's diagonal,
    # and U A = D V^-1, so row i of U A is d_i times an integer row (zero
    # where d_i = 0 or past the diagonal)
    rng = random.Random(10)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.choice((0, 0, 1, -1, 2, -3, 6)) for _ in range(cols)] for _ in range(rows)]
        diag, u = smith_form(m, with_u=True)
        assert diag == smith_diagonal(m) and smith_form(m) == (diag, None)
        assert abs(determinant(u)) == 1, m
        um = [[sum(x * row[j] for x, row in zip(ui, m)) for j in range(cols)] for ui in u]
        assert smith_diagonal(um) == diag, m
        for i, row in enumerate(um):
            d = diag[i] if i < len(diag) else 0
            assert all(x % d == 0 for x in row) if d else not any(row), (m, i)
