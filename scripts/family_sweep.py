#!/usr/bin/env python3
"""Sweep the classified extremal families and print a verdict table.

Walks the e = (k+1)/2 family over a range of parameters, the e = k/2 pair
family over small (p/q, r/s) solutions of 1/u + 1/v = 1 - 1/(num(u) num(v)),
and random spaces near the boundary, reporting the classification of each.

Usage: python scripts/family_sweep.py [--amax 8] [--emax 5] [--seed 0]
"""

import argparse
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sfs4.classify import classify
from sfs4.partitions import match_theorem_families
from sfs4.rationals import complement, format_rational
from sfs4.seifert import StandardForm


def half_plus_family(amax, emax):
    for a in range(2, amax + 1):
        for e in range(1, emax + 1):
            yield StandardForm(0, e, ((a, a - 1),) + ((a, 1), (a, a - 1)) * (e - 1))


def pair_solutions(limit):
    """Small u = p/q, v = r/s with 1/u + 1/v = 1 - 1/(p r), as coprime pairs.

    In integers the equation reads q r + s p = p r - 1.
    """
    for p in range(2, limit + 1):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            for r in range(2, limit + 1):
                for s in range(1, r):
                    if math.gcd(r, s) == 1 and q * r + s * p == p * r - 1:
                        yield (p, q), (r, s)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--amax", type=int, default=8)
    ap.add_argument("--emax", type=int, default=5)
    ap.add_argument("--limit", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("== e = (k+1)/2 family ==")
    for s in half_plus_family(args.amax, args.emax):
        v = classify(s)
        fam = match_theorem_families(s)
        print(f"{str(s):55s} {v.tag:10s} family={fam.family if fam else '-'}")

    print("\n== e = k/2 base pairs (each is a Seifert S^3, so embeds) ==")
    for u, v in pair_solutions(args.limit):
        s = StandardForm(0, 1, (u, v))
        print(f"u={format_rational(u)}, v={format_rational(v)}: {s} -> {classify(s).tag}")
        expanded = StandardForm(0, 2, (u, v, u, complement(u)))
        print(f"  one expansion -> {classify(expanded).tag}")

    print("\n== random spaces at the bound e = (k+1)/2 ==")
    rng = random.Random(args.seed)
    rows = 0
    while rows < 15:
        k = rng.choice([3, 5])
        fibers = []
        for _ in range(k):
            p = rng.randint(2, 9)
            q = rng.randint(1, p - 1)
            g = math.gcd(p, q)
            fibers.append((p // g, q // g))
        try:
            s = StandardForm(0, (k + 1) // 2, tuple(fibers))
        except ValueError:
            continue
        if s.eps_num <= 0:
            continue
        v = classify(s)
        print(f"{str(s):55s} {v.tag}")
        rows += 1


if __name__ == "__main__":
    main()
