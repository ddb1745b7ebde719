#!/usr/bin/env python3
"""Classify the Brieskorn homology spheres of the paper's open region.

Every pairwise coprime 2 <= a < b < c with a < 12, b < 25 and c < 40 gives
one homology sphere Sigma(a, b, c) = SFS(g=0; e; a/q1, b/q2, c/q3) with
eps = 1/(abc): e abc - q1 bc - q2 ac - q3 ab = 1 and 1 <= q_i < p_i fix
q_i = -(abc/p_i)^-1 mod p_i, and then e is 1 or 2.  The script prints each
sphere with its ``classify`` verdict (the obstruction's name when it is
obstructed), then how many spheres have each outcome.

Usage: python3 scripts/brieskorn_census.py
"""

import math
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sfs4.classify import OBSTRUCTED, classify  # noqa: E402
from sfs4.seifert import SeifertData  # noqa: E402

A, B, C = 12, 25, 40  # the bounds a < A, b < B, c < C


def spheres() -> list[tuple[tuple[int, int, int], SeifertData]]:
    """((a, b, c), Sigma(a, b, c)) for every triple, in order."""
    out = []
    for a in range(2, A):
        for b in range(a + 1, B):
            for c in range(b + 1, C):
                if math.gcd(a, b) != 1 or math.gcd(a, c) != 1 or math.gcd(b, c) != 1:
                    continue
                n = a * b * c
                fibers = tuple((p, -pow(n // p, -1, p) % p) for p in (a, b, c))
                e, rest = divmod(1 + sum(q * (n // p) for p, q in fibers), n)
                assert rest == 0 and e in (1, 2), (a, b, c)
                out.append(((a, b, c), SeifertData(0, e, fibers)))
    return out


def main():
    rows = spheres()
    counts = Counter()
    for (a, b, c), sphere in rows:
        verdict = classify(sphere)
        outcome = verdict.obstruction.name if verdict.tag == OBSTRUCTED else verdict.tag
        counts[outcome] += 1
        print(f"Sigma({a},{b},{c})\t{sphere}\t{outcome}")
    print(f"{len(rows)} spheres")
    for name, n in sorted(counts.items()):
        print(f"  {name}: {n}")


if __name__ == "__main__":
    main()
