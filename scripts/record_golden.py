#!/usr/bin/env python3
"""Record the golden outputs of the sfs4 command line.

Each table pairs a corpus of input lines with a set of cases (a subcommand
with its flags, as text and with ``--json``).  For every line and case the
line runs alone through ``sfs4.cli.main``, in process, and the table keeps its
exit code and the sha256 digests (first 16 hex digits) of its stdout and
stderr.
``tests/test_golden.py`` replays every table and compares, so a change that
moves one output byte fails the test suite.  The tables:

* ``golden_cli.tsv``: ``classify``, ``partitions``, ``mubar``, ``homology``
  and ``reduce`` on about 400 seeded lines: every half-plus member with
  a in 2..5 up to k = 13, the start of the 2e = k + 1 audit corpus
  (``tests.oracles.paired_corpus``), every eighth ``deep_chain`` pool line,
  every twentieth ``shallow_mix`` pool line and a few pretzel knots;
* ``golden_lattice.tsv``: ``lattice`` on the ``lattice_engine`` pool lines
  with e <= 4 (e = 5 takes up to seconds a line) and 30 seeded small
  eps > 0 spaces (``tests.oracles.small_positive_spaces``), so the node
  count and every embedding are pinned;
* ``golden_plumbing.tsv``: ``plumbing`` on the lines of both corpora whose
  plumbing graph has at most 100 vertices, and on the pretzel lines;
* ``golden_pretzel.tsv``: ``pretzel`` on every tenth ``pretzel_census`` pool
  line, the pretzel lines above and a few edge cases: a link, the unknot
  P(1,-1,1), P(1,1,3) and the one-strand knots P(3) and P(-1,-1,-1);
* ``golden_budget.tsv``: the budget stops, ``classify``, ``partitions`` and
  ``pretzel`` at ``--fiber-budget 0``, ``lattice`` at ``--budget 50`` and
  ``mubar``, on every tenth line of the ``golden_cli.tsv`` and every
  twentieth of the ``golden_pretzel.tsv`` corpus, the two knots of that
  corpus whose cover stops, and 25 fibers 2, past the spin listing limit;
* ``golden_brieskorn.tsv``: ``classify`` on the Brieskorn homology spheres of
  ``scripts/brieskorn_census.py``.

Usage, from the root of a checkout, only when an output change is intended:

    python3 scripts/record_golden.py [--only golden_lattice.tsv ...]
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import brieskorn_census  # noqa: E402
from sfs4 import cli  # noqa: E402
from sfs4.plumbing import build_plumbing  # noqa: E402
from sfs4.seifert import SeifertData, format_sfs, normalize  # noqa: E402

DATA = ROOT / "tests" / "data"
AUDIT_LINES = 120
SMALL_SPACES = 30
MAX_PLUMBING_VERTICES = 100
PRETZELS = ("P(3,-3,3)", "P(1,1,1)", "P(3,5,-3)", "P(-3,5,7,-5,3)", "P(5,-3,3,-5)")
PRETZEL_EDGES = ("P(3,5)", "P(1,-1,1)", "P(1,1,3)", "P(3)", "P(-1,-1,-1)")


def _both(*commands: str, flags: tuple[str, ...] = ()) -> tuple[tuple[str, ...], ...]:
    """The cases ``command *flags`` and ``command *flags --json`` of each command."""
    return tuple((command, *flags, *as_json) for command in commands for as_json in ((), ("--json",)))


def case_name(case: tuple[str, ...]) -> str:
    return " ".join(case)


def _pool(workload: str, stride: int = 1) -> list[str]:
    with open(ROOT / "bench" / "data" / f"{workload}.tsv") as fh:
        return [row.rstrip("\n").split("\t")[1] for row in fh][::stride]


def _oracles():
    sys.path.insert(0, str(ROOT))
    import tests.oracles

    return tests.oracles


def corpus() -> list[str]:
    """The ``classify``/``partitions``/``mubar``/``homology``/``reduce`` lines, in order, without repeats."""
    lines = [
        format_sfs(0, e, [(a, a - 1)] + [(a, 1), (a, a - 1)] * (e - 1))
        for a in range(2, 6)
        for e in range(1, 8)
    ]
    lines += [str(s) for s in _oracles().paired_corpus()[:AUDIT_LINES]]
    lines += _pool("deep_chain", 8) + _pool("shallow_mix", 20) + list(PRETZELS)
    return list(dict.fromkeys(lines))


def lattice_corpus() -> list[str]:
    """The ``lattice`` lines: cheap ``lattice_engine`` pool lines and small seeded spaces."""
    pool = [line for line in _pool("lattice_engine") if normalize(cli.parse_input(line)).central <= 4]
    spaces = _oracles().small_positive_spaces(seed=10, count=SMALL_SPACES, max_vertices=10, max_genus=1)
    return list(dict.fromkeys(pool + [str(s) for s in spaces]))


def _small_graph(line: str) -> bool:
    value = cli.parse_input(line)
    return not isinstance(value, SeifertData) or build_plumbing(normalize(value)).size <= MAX_PLUMBING_VERTICES


def plumbing_corpus() -> list[str]:
    """The ``plumbing`` lines: both other corpora, graphs of at most 100 vertices."""
    return [line for line in dict.fromkeys(corpus() + lattice_corpus()) if _small_graph(line)]


def pretzel_corpus() -> list[str]:
    """The ``pretzel`` lines: census knots, the pretzel lines of ``corpus`` and edge cases."""
    return list(dict.fromkeys(_pool("pretzel_census", 10) + list(PRETZELS) + list(PRETZEL_EDGES)))


def budget_corpus() -> list[str]:
    """The budget lines: samples of both corpora and two lines that stop."""
    stopped = ("P(-5,-5,-5,-3,1)", "P(-5,-1,3,5,5,5,5)", "SFS(g=0; e=13; " + ", ".join(["2"] * 25) + ")")
    return list(dict.fromkeys(corpus()[::10] + pretzel_corpus()[::20] + list(stopped)))


def brieskorn_corpus() -> list[str]:
    """The Brieskorn census lines, in its order."""
    return [str(sphere) for _, sphere in brieskorn_census.spheres()]


TABLES = {
    "golden_cli.tsv": (_both("classify", "partitions", "mubar", "homology", "reduce"), corpus),
    "golden_lattice.tsv": (_both("lattice"), lattice_corpus),
    "golden_plumbing.tsv": (_both("plumbing"), plumbing_corpus),
    "golden_pretzel.tsv": (_both("pretzel"), pretzel_corpus),
    "golden_budget.tsv": (
        _both("classify", "partitions", "pretzel", flags=("--fiber-budget", "0"))
        + _both("lattice", flags=("--budget", "50")) + _both("mubar"),
        budget_corpus,
    ),
    "golden_brieskorn.tsv": (_both("classify"), brieskorn_corpus),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcome(case: tuple[str, ...], line: str) -> str:
    """``exit/stdout digest/stderr digest`` of one line through the command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([case[0], line, *case[1:]])
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


def load(table: str) -> list[tuple[str, list[str]]]:
    """(line, one outcome per case of the table, in order) for every recorded line."""
    cases = TABLES[table][0]
    rows = []
    with open(DATA / table) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[1:] != [case_name(c) for c in cases]:
            raise ValueError(f"{table}: header does not list the cases {cases}")
        for row in fh:
            line, *outcomes = row.rstrip("\n").split("\t")
            rows.append((line, outcomes))
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--only", nargs="+", choices=sorted(TABLES), default=sorted(TABLES))
    args = ap.parse_args()
    DATA.mkdir(parents=True, exist_ok=True)
    for table in args.only:
        cases, lines_of = TABLES[table]
        lines = lines_of()
        with open(DATA / table, "w") as fh, one_parser():
            fh.write("\t".join(["input"] + [case_name(c) for c in cases]) + "\n")
            for line in lines:
                fh.write("\t".join([line] + [outcome(c, line) for c in cases]) + "\n")
        print(f"{len(lines)} lines x {len(cases)} cases -> {DATA / table}")


if __name__ == "__main__":
    main()
