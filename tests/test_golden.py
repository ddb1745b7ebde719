"""Every recorded command-line output, byte for byte.

``tests/data/golden_cli.tsv`` holds, for about 400 seeded input lines, the
exit code and the stdout and stderr digests of ``sfs4 classify``,
``partitions``, ``mubar``, ``homology`` and ``reduce``, as text and with
``--json``; ``golden_lattice.tsv``, ``golden_plumbing.tsv`` and
``golden_pretzel.tsv`` hold the same for ``sfs4 lattice``, ``sfs4 plumbing``
and ``sfs4 pretzel``; ``golden_budget.tsv`` holds every command that can stop
on a budget, at a budget that stops it, and ``golden_brieskorn.tsv`` holds
``sfs4 classify`` on the Brieskorn census.  ``scripts/record_golden.py`` writes them; re-record
only for an intended output change, and say so where the change is
described.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import record_golden  # noqa: E402


def _replay(table: str) -> list[str]:
    """One line per recorded outcome that the current code does not reproduce."""
    cases = record_golden.TABLES[table][0]
    with record_golden.one_parser():
        return [
            f"{record_golden.case_name(case)} {line!r}: {want} -> {got}"
            for line, wants in record_golden.load(table)
            for case, want in zip(cases, wants)
            if (got := record_golden.outcome(case, line)) != want
        ]


def test_command_line_outputs_match_the_recording():
    assert len(record_golden.load("golden_cli.tsv")) >= 400
    diffs = _replay("golden_cli.tsv")
    assert not diffs, "\n".join(diffs[:20])


def test_lattice_outputs_match_the_recording():
    # the lattice_engine pool lines with e <= 4 and 30 seeded small spaces:
    # node counts and embeddings, as text and JSON
    assert len(record_golden.load("golden_lattice.tsv")) >= 45
    diffs = _replay("golden_lattice.tsv")
    assert not diffs, "\n".join(diffs[:20])


def test_plumbing_outputs_match_the_recording():
    assert len(record_golden.load("golden_plumbing.tsv")) >= 400
    diffs = _replay("golden_plumbing.tsv")
    assert not diffs, "\n".join(diffs[:20])


def test_pretzel_outputs_match_the_recording():
    # every tenth pretzel_census pool knot and the edge cases: a link, the
    # unknot, one-strand knots; the verdict, mu-bar and the cover's verdict
    assert len(record_golden.load("golden_pretzel.tsv")) >= 460
    diffs = _replay("golden_pretzel.tsv")
    assert not diffs, "\n".join(diffs[:20])


def test_budget_outputs_match_the_recording():
    # every command that can stop on a budget, at a budget that stops it
    assert len(record_golden.load("golden_budget.tsv")) >= 60
    diffs = _replay("golden_budget.tsv")
    assert not diffs, "\n".join(diffs[:20])


def test_brieskorn_outputs_match_the_recording():
    # the 1167 spheres of scripts/brieskorn_census.py, as text and JSON
    assert len(record_golden.load("golden_brieskorn.tsv")) == 1167
    diffs = _replay("golden_brieskorn.tsv")
    assert not diffs, "\n".join(diffs[:20])


def test_the_corpora_rebuild_the_recorded_lines():
    # recording nothing, each table's corpus builder gives its lines in order
    for table in record_golden.TABLES:
        lines = record_golden.TABLES[table][1]()
        assert lines == [line for line, _ in record_golden.load(table)], table
