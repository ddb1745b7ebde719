"""The summary of ``scripts/bench_pairs.py``, on canned run records (no bench
run), and ``scripts/ab_items.py`` comparing a checkout with itself."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import ab_items  # noqa: E402
import bench_pairs  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}


def _record(items_per_s, setup_s, failed=0):
    line = json.dumps({
        "correct": not failed, "attempted": 100, "failed": failed,
        "metrics": {"items_per_s": {"value": items_per_s, "unit": "1/s"},
                    "setup_s": {"value": setup_s, "unit": "s"}},
    })
    return bench_pairs.result_of("workload deep_chain  seed 1\n  items_per_s 1.0 1/s\n" + line + "\n")


def test_summary_of_canned_pairs():
    parent = [_record(v, s) for v, s in ((100, 0.05), (110, 0.05), (90, 0.06), (100, 0.05))]
    change = [_record(v, s) for v, s in ((130, 0.08), (120, 0.09), (85, 0.07), (125, 0.08))]
    lines = bench_pairs.summarize(SPEC, parent, change)
    assert lines[0] == "4 pairs; failed items: parent 0, change 0"
    # medians 100 and 122.5, quartiles by the inclusive method; the change
    # won 3 of 4 pairs and reads 1.225 of the parent against a floor of 0.75
    assert lines[1] == (
        "items_per_s      parent 100 [97.5, 102.5]  change 122.5 [111.25, 126.25]  won 3/4  "
        "ratio 1.225 (bound >= 0.75: within)"
    )
    # setup_s: lower is better, and 0.08 over 0.05 is past the 1.25 ceiling
    assert lines[2] == (
        "setup_s          parent 0.05 [0.05, 0.0525]  change 0.08 [0.0775, 0.0825]  won 0/4  "
        "ratio 1.600 (bound <= 1.25: OUTSIDE)"
    )
    # neither won 9 in 10 pairs, and both parent IQRs are inside the bound
    assert lines[3] == ("items_per_s      no gain: won 3/4, median better by 22.5, "
                        "parent IQR 5 (bound x median 25)")
    assert lines[4] == ("setup_s          no gain: won 0/4, median better by -0.03, "
                        "parent IQR 0.0025 (bound x median 0.0125)")
    assert len(lines) == 5


def test_verdict_gain_and_unresolved():
    # items_per_s: 9 of 10 pairs won, medians 50 apart against a parent IQR
    # of 4.5, so a gain; setup_s: the parent alternates 0.05 and 0.09 s, an
    # IQR of 0.04 over 0.25 x its median 0.07, so unresolved
    parent = [_record(100 + i, (0.05, 0.09)[i % 2]) for i in range(10)]
    change = [_record(150 + i if i else 99, 0.06) for i in range(10)]
    lines = bench_pairs.summarize(SPEC, parent, change)
    assert lines[3] == ("items_per_s      gain: won 9/10, median better by 50, "
                        "parent IQR 4.5 (bound x median 26.125)")
    assert lines[4].startswith("setup_s          unresolved: won 5/10, median better by 0.01, ")


def test_summary_counts_failed_items():
    lines = bench_pairs.summarize(SPEC, [_record(1, 1)], [_record(2, 1, failed=3)])
    assert lines[0] == "1 pairs; failed items: parent 0, change 3"
    assert "won 1/1" in lines[1] and "won 0/1" in lines[2]


def test_item_ab_of_a_checkout_against_itself():
    # two workers of this checkout on 30 shallow_mix items: the same digests,
    # the recorded ones, and a total-time ratio near 1
    here = Path(__file__).resolve().parent.parent
    r = ab_items.compare(here, here, "shallow_mix", seed=1, items=30)
    assert r["items"] == 30 and r["mismatches"] == []
    assert r["sources"][0] == r["sources"][1] == str(here / "src" / "sfs4" / "cli.py")
    assert 0.5 <= r["ratio"] <= 2, r
    assert r["interval"][0] <= r["interval"][1]
