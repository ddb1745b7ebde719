"""Exact integer matrix utilities: Smith normal form and determinants.

Everything works on lists of lists of Python ints, so there is no overflow;
matrices in this package stay small (a few dozen rows) and these routines are
deliberately simple rather than asymptotically clever.  ``smith_form`` is the
one Smith reduction; it can also return the U of U A V = D, which the lattice
pair test takes once per embedding.  No command calls ``determinant``; the
tests use it as the reference for ``plumbing.form_determinant``.
"""

from __future__ import annotations


def determinant(m) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def smith_diagonal(m) -> list[int]:
    """Diagonal of the Smith normal form: nonnegative d_1 | d_2 | ... ."""
    return smith_form(m)[0]


def smith_form(m, with_u: bool = False) -> tuple[list[int], list[list[int]] | None]:
    """Smith diagonal of ``m`` and, if asked, a unimodular U with U m V = D.

    Pivots are chosen as the smallest nonzero absolute value in the remaining
    block, scanned row-major, so intermediate states are deterministic.
    The diagonal has length min(rows, cols) and includes trailing zeros.  U
    is an identity block right of ``m`` that every row operation carries
    along and no pivot or column step reads; without ``with_u`` it is None.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    a = [list(row) + [int(i == k) for k in range(rows)] if with_u else list(row)
         for i, row in enumerate(m)]
    diag = []
    t = 0
    while t < min(rows, cols):
        # locate pivot; no entry is less than a unit, so one ends the scan
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
            if pivot and abs(a[pivot[0]][pivot[1]]) == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        while True:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t]:
                    # remainder smaller than the pivot: swap it up and retry
                    a[t], a[i] = a[i], a[t]
                    if a[t][t] < 0:
                        a[t] = [-x for x in a[t]]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t + 1, cols):
                q = a[t][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if a[t][j]:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    if a[t][t] < 0:
                        a[t] = [-x for x in a[t]]
                    dirty = True
                    break
            if dirty:
                continue
            if p == 1:
                break  # a unit divides the remaining block
            # pivot must divide the remaining block for the divisibility chain
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        diag.append(a[t][t])
        t += 1
    diag.extend([0] * (min(rows, cols) - len(diag)))
    return diag, [row[cols:] for row in a] if with_u else None
