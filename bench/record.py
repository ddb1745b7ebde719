#!/usr/bin/env python3
"""Record each workload's pool and the digest of every item's expected output.

Usage, from the root of a checkout:

    python3 bench/record.py [workload ...]

Writes ``bench/data/<workload>.tsv`` with one ``digest<TAB>line`` row per
pool item.  Recording refuses an item that raises, fails its cross-check, or
whose output changes under a seeded presentation of its text.  Re-record only
when the program's outputs change on purpose, and say so in the change.
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def _kind(out: str) -> str:
    value = json.loads(out)
    if isinstance(value, list):  # pretzel: verdict, parameter, failed condition, detail
        return f"{value[0]} {value[2] or ''}"
    if "verdict" in value:
        return f"{value['verdict']} at {value['trace'][-1]['test']}"
    return "surjective pair" if value["surjective_pair"] else "no surjective pair"


def record(workload: str) -> None:
    pool = workloads.GENERATORS[workload](workloads.POOL_SEED)
    if len(set(pool)) != len(pool):
        raise SystemExit(f"{workload}: duplicate lines in the pool")
    run = workloads.make_runner(workload)
    rng = random.Random(f"{workload}:record")
    rows, times, verdicts = [], [], Counter()
    for line in pool:
        t0 = time.perf_counter()
        out = run(line)
        times.append(time.perf_counter() - t0)
        d = workloads.output_digest(workload, line, out)
        shown = workloads.present(line, rng)
        if workloads.output_digest(workload, shown, run(shown)) != d:
            raise SystemExit(f"{workload}: output of {line!r} changes when written as {shown!r}")
        if not workloads.cross_check(workload, line):
            raise SystemExit(f"{workload}: cross-check fails on {line!r}")
        verdicts[_kind(out)] += 1
        rows.append(f"{d}\t{line}\n")
    workloads.DATA.mkdir(exist_ok=True)
    (workloads.DATA / f"{workload}.tsv").write_text("".join(rows))
    times.sort()
    print(f"{workload}: {len(pool)} items, {sum(times):.2f} s, median {times[len(times) // 2] * 1e3:.2f} ms, "
          f"max {times[-1] * 1e3:.1f} ms")
    for verdict, count in verdicts.most_common(8):
        print(f"  {count:6d}  {verdict}")


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(workloads.WORKLOADS)
    for name in names:
        if name not in workloads.WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}")
        record(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
