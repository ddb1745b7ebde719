"""Every recorded command-line output, byte for byte.

``tests/data/golden_cli.tsv`` holds, for about 400 seeded input lines, the
exit code and the stdout and stderr digests of ``sfs4 classify``,
``partitions``, ``mubar`` and ``homology``, as text and with ``--json``.
``scripts/record_golden.py`` writes it; re-record only for an intended
output change, and say so where the change is described.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import record_golden  # noqa: E402


def test_command_line_outputs_match_the_recording():
    rows = record_golden.load()
    assert len(rows) >= 400
    with record_golden.one_parser():
        diffs = [
            f"{record_golden.case_name(command, as_json)} {line!r}: {want} -> {got}"
            for line, wants in rows
            for (command, as_json), want in zip(record_golden.CASES, wants)
            if (got := record_golden.outcome(command, as_json, line)) != want
        ]
    assert not diffs, "\n".join(diffs[:20])
