#!/usr/bin/env python3
"""Record the golden outputs of the sfs4 command line.

For every corpus line and every case (``classify``, ``partitions``, ``mubar``
and ``homology``, each as text and with ``--json``) the line runs alone
through ``sfs4.cli.main``, in process, and the file keeps its exit code and
the sha256 digests (first 16 hex digits) of its stdout and stderr.
``tests/test_golden.py`` replays every case and compares, so a change that
moves one output byte fails the test suite.

The corpus (about 400 lines, seeded) holds every half-plus member with
a in 2..5 up to k = 13, the start of the 2e = k + 1 audit corpus
(``tests.oracles.paired_corpus``), every eighth ``deep_chain`` pool line,
every twentieth ``shallow_mix`` pool line and a few pretzel knots.

Usage, from the root of a checkout, only when an output change is intended:

    python3 scripts/record_golden.py [--out tests/data/golden_cli.tsv]
"""

import argparse
import contextlib
import hashlib
import io
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sfs4 import cli  # noqa: E402
from sfs4.seifert import format_sfs  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "golden_cli.tsv"
CASES = tuple(
    (command, as_json)
    for command in ("classify", "partitions", "mubar", "homology")
    for as_json in (False, True)
)
AUDIT_LINES = 120
PRETZELS = ("P(3,-3,3)", "P(1,1,1)", "P(3,5,-3)", "P(-3,5,7,-5,3)", "P(5,-3,3,-5)")


def case_name(command: str, as_json: bool) -> str:
    return f"{command}{' --json' if as_json else ''}"


def _pool(workload: str, stride: int) -> list[str]:
    with open(ROOT / "bench" / "data" / f"{workload}.tsv") as fh:
        return [row.rstrip("\n").split("\t")[1] for row in fh][::stride]


def corpus() -> list[str]:
    """The recorded input lines, in order, without repeats."""
    sys.path.insert(0, str(ROOT))
    from tests.oracles import paired_corpus

    lines = [
        format_sfs(0, e, [Fraction(a, a - 1)] + [Fraction(a), Fraction(a, a - 1)] * (e - 1))
        for a in range(2, 6)
        for e in range(1, 8)
    ]
    lines += [str(s) for s in paired_corpus()[:AUDIT_LINES]]
    lines += _pool("deep_chain", 8) + _pool("shallow_mix", 20) + list(PRETZELS)
    return list(dict.fromkeys(lines))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcome(command: str, as_json: bool, line: str) -> str:
    """``exit/stdout digest/stderr digest`` of one line through the command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, line] + (["--json"] if as_json else []))
    return f"{code}/{_digest(out.getvalue())}/{_digest(err.getvalue())}"


@contextlib.contextmanager
def one_parser():
    """Reuse one argument parser across ``outcome`` calls.

    ``cli.main`` builds its parser on every call, which takes about 2 ms,
    more than most commands; a built parser parses any number of lines.
    """
    build = cli.build_parser
    parser = build()
    cli.build_parser = lambda: parser
    try:
        yield
    finally:
        cli.build_parser = build


def load(path: Path = GOLDEN) -> list[tuple[str, list[str]]]:
    """(line, one outcome per case in ``CASES`` order) for every recorded line."""
    rows = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[1:] != [case_name(c, j) for c, j in CASES]:
            raise ValueError(f"{path}: header does not list the cases {CASES}")
        for row in fh:
            line, *outcomes = row.rstrip("\n").split("\t")
            rows.append((line, outcomes))
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=Path, default=GOLDEN)
    args = ap.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    lines = corpus()
    with open(args.out, "w") as fh, one_parser():
        fh.write("\t".join(["input"] + [case_name(c, j) for c, j in CASES]) + "\n")
        for line in lines:
            fh.write("\t".join([line] + [outcome(c, j, line) for c, j in CASES]) + "\n")
    print(f"{len(lines)} lines x {len(CASES)} cases -> {args.out}")


if __name__ == "__main__":
    main()
