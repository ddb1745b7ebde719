"""The benchmark's four workloads: input pools, seeded inputs, item runners.

Each workload has a fixed pool of input lines, recorded together with the
digest of every line's expected output in ``data/<workload>.tsv`` (written
by ``record.py``).  A run's seed never changes which spaces are in the pool,
so every run measures the same mix; it changes the text the program reads:

* every SFS fiber p/q may be rewritten as p/(q + n p) with the central
  weight raised by n (n in -1..1), which normalization undoes exactly;
* pretzel strands are put in a seeded order (verdicts are mutation
  invariant, which ``record.py`` checks on the whole pool);
* separators get seeded whitespace, which the parser strips;
* every pass visits the pool in a fresh seeded order.

The program receives only these text lines, each parsed by
``sfs4.cli.parse_input``.  Pool generators take their seed as an argument;
``record.py`` calls them with ``POOL_SEED``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("shallow_mix", "deep_chain", "pretzel_census", "lattice_engine")
POOL_SEED = 0

# shallow_mix keeps a line only when |p_1...p_k * eps| (the H1 torsion order,
# or the product of pair multiplicities when eps = 0) is at most this bound.
# It caps the trial division in H1 at about 10^6 steps, so the tail holds
# items of tens of milliseconds and a run always finishes.
SHALLOW_TORSION_BOUND = 4 * 10**12
SHALLOW_POOL = 3000
DEEP_EXPANSIONS = 150
# pretzel_census measures every third knot of the census (4554 of 13662).
PRETZEL_STRIDE = 3
LATTICE_BUDGET = 10**7


def fmt_rational(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def sfs_line(genus: int, central: int, fibers) -> str:
    return f"SFS(g={genus}; e={central}; " + ", ".join(fmt_rational(r) for r in fibers) + ")"


_SFS_LINE = re.compile(r"^SFS\(g=(\d+); e=(-?\d+); (.*)\)$")


def split_sfs_line(line: str):
    m = _SFS_LINE.match(line)
    if not m:
        raise ValueError(f"not a canonical SFS line: {line!r}")
    fibers = [Fraction(t) for t in m.group(3).split(", ")]
    return int(m.group(1)), int(m.group(2)), fibers


# ---------------------------------------------------------------------------
# pool generators


def _log_uniform_fiber(rng: random.Random) -> Fraction:
    p = int(math.exp(rng.uniform(math.log(2), math.log(2000))))
    while True:
        q = rng.randint(1, p - 1)
        if math.gcd(p, q) == 1:
            return Fraction(p, q) * rng.choice((1, -1))


def _shallow_line(rng: random.Random) -> str:
    genus = rng.randint(0, 1)
    if rng.random() < 0.1:
        # doubled disk: complementary pairs (r, -r) or (r, r/(r-1)), eps = 0
        while True:
            fibers, central = [], 0
            for _ in range(rng.randint(1, 4)):
                r = abs(_log_uniform_fiber(rng))
                if rng.random() < 0.5:
                    fibers += [r, -r]
                else:
                    fibers += [r, r / (r - 1)]
                    central += 1
            if math.prod(r.numerator for r in fibers[::2]) <= SHALLOW_TORSION_BOUND:
                rng.shuffle(fibers)
                return sfs_line(genus, central, fibers)
    while True:
        central = rng.randint(-5, 5)
        fibers = [_log_uniform_fiber(rng) for _ in range(rng.randint(1, 8))]
        eps = central - sum((1 / r for r in fibers), Fraction(0))
        torsion = abs(eps * math.prod(r.numerator for r in fibers))
        if eps != 0 and torsion <= SHALLOW_TORSION_BOUND:
            return sfs_line(genus, central, fibers)


def generate_shallow_mix(seed: int) -> list[str]:
    rng = random.Random(seed)
    lines: dict[str, None] = {}
    while len(lines) < SHALLOW_POOL:
        lines[_shallow_line(rng)] = None
    return list(lines)


def _complement(r: Fraction) -> Fraction:
    return Fraction(r.numerator, r.numerator - r.denominator)


def pair_solutions(limit: int):
    """(u, v) with 1/u + 1/v = 1 - 1/(num u * num v), u, v in lowest terms.

    The same enumeration as ``scripts/family_sweep.py``, kept here so that the
    recorded pool does not change when the script does.
    """
    for p in range(2, limit + 1):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            for r in range(2, limit + 1):
                for s in range(1, r):
                    if math.gcd(r, s) != 1:
                        continue
                    u, v = Fraction(p, q), Fraction(r, s)
                    if 1 / u + 1 / v == 1 - Fraction(1, p * r):
                        yield u, v


def half_plus(a: int, central: int) -> str:
    fibers = [Fraction(a, a - 1)] + [Fraction(a), Fraction(a, a - 1)] * (central - 1)
    return sfs_line(0, central, fibers)


def generate_deep_chain(seed: int) -> list[str]:
    lines = [half_plus(a, e) for a in (3, 4, 5) for e in range(2, 8)]
    bases = list(pair_solutions(12))
    for u, v in bases:
        prod = u.numerator * v.numerator
        for nu in range(3):
            for nv in range(2):
                for npr in range(2):
                    fibers = (
                        [u, v]
                        + [u, _complement(u)] * nu
                        + [v, _complement(v)] * nv
                        + [Fraction(prod), Fraction(prod, prod - 1)] * npr
                    )
                    lines.append(sfs_line(0, 1 + nu + nv + npr, fibers))
    # random expansions of e = 1 bases known to embed, fiber order shuffled
    rng = random.Random(seed)
    e1_bases = [[Fraction(a, a - 1)] for a in range(2, 8)]
    e1_bases += [[u, v] for u, v in bases]
    e1_bases.append([Fraction(4), Fraction(4), Fraction(12, 5)])
    expansions: dict[str, None] = {}
    while len(expansions) < DEEP_EXPANSIONS:
        fibers = list(rng.choice(e1_bases))
        central = 1
        for _ in range(rng.randint(1, (9 - len(fibers)) // 2)):
            r = rng.choice(fibers)
            fibers += [_complement(r), r]
            central += 1
        rng.shuffle(fibers)
        line = sfs_line(0, central, fibers)
        if line not in lines:
            expansions[line] = None
    return lines + list(expansions)


def pretzel_census_all() -> list[str]:
    values = [c for c in range(-9, 10) if c % 2]
    return [
        "P(" + ",".join(map(str, strands)) + ")"
        for k in (3, 5, 7)
        for strands in combinations_with_replacement(values, k)
    ]


def generate_pretzel_census(seed: int) -> list[str]:
    # the census is fixed; a stride sample keeps every shape in proportion
    return pretzel_census_all()[::PRETZEL_STRIDE]


def generate_lattice_engine(seed: int) -> list[str]:
    lines = [half_plus(a, e) for a in range(2, 6) for e in range(1, 6)]
    return lines + [
        "SFS(g=0; e=1; 4, 4, 4)",
        "SFS(g=0; e=1; 4, 4, 12/5)",
        "SFS(g=0; e=2; 2, 3/2, 5/4)",
    ]


GENERATORS = {
    "shallow_mix": generate_shallow_mix,
    "deep_chain": generate_deep_chain,
    "pretzel_census": generate_pretzel_census,
    "lattice_engine": generate_lattice_engine,
}


# ---------------------------------------------------------------------------
# recorded pools and seeded inputs


def load_records(workload: str) -> tuple[list[str], list[str]]:
    """(canonical lines, expected output digests) of a workload's pool."""
    lines, digests = [], []
    with open(DATA / f"{workload}.tsv") as fh:
        for row in fh:
            digest, line = row.rstrip("\n").split("\t")
            digests.append(digest)
            lines.append(line)
    return lines, digests


def _spaced(rng: random.Random, parts) -> str:
    return "".join(p + rng.choice(("", "", " ", "  ")) for p in parts[:-1]) + parts[-1]


def present(line: str, rng: random.Random) -> str:
    """A seeded text for the same space or knot (see the module docstring)."""
    if line.startswith("P("):
        strands = line[2:-1].split(",")
        rng.shuffle(strands)
        return "P(" + _spaced(rng, [s + "," for s in strands[:-1]] + [strands[-1] + ")"])
    genus, central, fibers = split_sfs_line(line)
    shown = []
    for r in fibers:
        n = rng.choice((-1, 0, 0, 1))
        shown.append(1 / (1 / r + n))
        central += n
    parts = [f"SFS(g={genus};", f"e={central};"]
    parts += [fmt_rational(r) + "," for r in shown[:-1]] + [fmt_rational(shown[-1]) + ")"]
    return _spaced(rng, parts)


def make_inputs(workload: str, seed: int, pool: list[str]) -> list[str]:
    """The seeded text of every pool item, in pool order."""
    rng = random.Random(f"{workload}:present:{seed}")
    return [present(line, rng) for line in pool]


def pass_orders(workload: str, seed: int, size: int):
    """Endless seeded permutations of range(size), one per pass."""
    rng = random.Random(f"{workload}:order:{seed}")
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield order


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# running items through the program's public functions


def sfs4_module(name: str):
    return importlib.import_module(f"sfs4.{name}")


def make_runner(workload: str):
    """A function from one input line to its output text.

    Functions are looked up on their modules at call time, so a traced run
    sees the rebound ones.
    """
    cli = sfs4_module("cli")
    if workload in ("shallow_mix", "deep_chain"):
        classify = sfs4_module("classify")

        def run(line):
            verdict = classify.classify(cli.parse_input(line))
            return json.dumps(verdict.to_dict(), sort_keys=True)

    elif workload == "pretzel_census":
        pretzel = sfs4_module("pretzel")

        def run(line):
            v = pretzel.doubly_slice_classify(cli.parse_input(line))
            return json.dumps([v.verdict, v.parameter, v.failed_condition, v.detail])

    elif workload == "lattice_engine":
        args = cli.build_parser().parse_args(["lattice", "--budget", str(LATTICE_BUDGET)])

        def run(line):
            report, _text, _over = cli.cmd_lattice(cli.parse_input(line), line, args)
            return json.dumps(report, sort_keys=True)

    else:
        raise ValueError(f"unknown workload {workload!r}")
    return run


def output_digest(workload: str, line: str, out: str) -> str:
    """Digest of an output, minus the lattice report's echo of its input text."""
    if workload == "lattice_engine":
        report = json.loads(out)
        if report.pop("input", None) != line:
            return "input-echo-mismatch"
        out = json.dumps(report, sort_keys=True)
    return digest(out)


def cross_check(workload: str, line: str) -> bool:
    """An independent check of one item, untimed; True when it holds.

    shallow_mix, deep_chain: H1 by the determinantal formula equals H1 by the
    Smith normal form oracle.  pretzel_census: mu-bar from the spin solver
    equals the closed form.  lattice_engine has none.
    """
    value = sfs4_module("cli").parse_input(line)
    if workload in ("shallow_mix", "deep_chain"):
        homology = sfs4_module("homology")
        std = sfs4_module("seifert").normalize(value)
        return homology.h1_formula(std) == homology.h1_oracle(std)
    if workload == "pretzel_census":
        pretzel = sfs4_module("pretzel")
        return pretzel.pretzel_mubar(value) == pretzel.pretzel_mubar_formula(value)
    return True
