#!/usr/bin/env python3
"""Compare two checkouts item by item on one benchmark workload.

    python3 scripts/ab_items.py --parent DIR --change DIR \\
        --workload deep_chain [--seed 1] [--items N] [--passes 3]

One long-lived worker process per checkout imports that checkout's ``sfs4``
(``PYTHONPATH=<tree>/src``) once and runs ``bench/workloads.make_runner``
of this checkout.  Both workers get the same ``PYTHONHASHSEED``, the
caller's if it is set and else 0, so that string hashing, and with it the
layout of every dict and set keyed by strings, is the same on both sides.
Both workers get the same seeded items (``load_records``, ``make_inputs``;
``--items`` keeps the first N of the pool), each pass in the workload's
seeded order, and the parent goes first on every other item, so that a
machine that drifts favours neither side.  A worker times each item
with ``time.process_time`` and returns that time and the digest of its
output, so that process start-up, imports and the pipe are not timed.

The summary gives the change's total time over the parent's, the median and
the 90th percentile of the per-item ratios (each item's times summed over the
passes) and a seeded bootstrap 95% interval of the total ratio over items.
The exit code is 1 when the two outputs of some item differ or either
differs from the recorded digest, and 0 otherwise.  Only the standard library
is used.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

BOOTSTRAP = 2000


def worker(workload: str) -> None:
    """Answer each JSON-encoded input line on stdin with [seconds, digest]."""
    run = workloads.make_runner(workload)
    print(json.dumps(workloads.sfs4_module("cli").__file__), flush=True)
    for request in sys.stdin:
        line = json.loads(request)
        start = time.process_time()
        out = run(line)
        seconds = time.process_time() - start
        print(json.dumps([seconds, workloads.output_digest(workload, line, out)]), flush=True)


class Worker:
    """A worker process for the checkout ``tree``."""

    def __init__(self, tree: Path, workload: str):
        env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
                   PYTHONHASHSEED=os.environ.get("PYTHONHASHSEED", "0"))
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", workload],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.source = json.loads(self.proc.stdout.readline())

    def run(self, line: str) -> tuple[float, str]:
        self.proc.stdin.write(json.dumps(line) + "\n")
        self.proc.stdin.flush()
        seconds, digest = json.loads(self.proc.stdout.readline())
        return seconds, digest

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _percentile(xs: list[float], q: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def compare(parent: Path, change: Path, workload: str, seed: int = 1,
            items: int | None = None, passes: int = 3) -> dict:
    """Per-item times and digest mismatches of the two checkouts (see the module docstring)."""
    pool, recorded = workloads.load_records(workload)
    n = len(pool) if items is None else min(items, len(pool))
    inputs = workloads.make_inputs(workload, seed, pool)
    sides: list[Worker] = []
    times = [[0.0] * n, [0.0] * n]
    mismatches = []
    try:
        sides += [Worker(parent, workload), Worker(change, workload)]
        orders = workloads.pass_orders(workload, seed, len(pool))
        turn = 0
        for _ in range(passes):
            for i in (i for i in next(orders) if i < n):
                digests = [None, None]
                for side in ((0, 1) if turn % 2 == 0 else (1, 0)):
                    seconds, digests[side] = sides[side].run(inputs[i])
                    times[side][i] += seconds
                turn += 1
                if digests[0] != digests[1] or digests[0] != recorded[i]:
                    mismatches.append((pool[i], recorded[i], *digests))
    finally:
        for side in sides:
            side.close()
    ps, cs = times
    ratios = [c / p for p, c in zip(ps, cs) if p > 0]
    rng = random.Random(seed)
    boot = []
    for _ in range(BOOTSTRAP):
        picks = [rng.randrange(n) for _ in range(n)]
        total = sum(ps[i] for i in picks)
        boot.append(sum(cs[i] for i in picks) / total if total else float("inf"))
    return {
        "sources": [side.source for side in sides],
        "items": n, "passes": passes,
        "parent_s": sum(ps), "change_s": sum(cs),
        "ratio": sum(cs) / sum(ps) if sum(ps) else float("inf"),
        "median": statistics.median(ratios) if ratios else float("nan"),
        "p90": _percentile(ratios, 0.9) if ratios else float("nan"),
        "interval": (_percentile(boot, 0.025), _percentile(boot, 0.975)),
        "mismatches": mismatches,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--worker", metavar="WORKLOAD", help=argparse.SUPPRESS)
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--items", type=int, help="the first N items of the pool (default: all)")
    ap.add_argument("--passes", type=int, default=3)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if not (args.parent and args.change and args.workload):
        ap.error("--parent, --change and --workload are required")
    r = compare(args.parent, args.change, args.workload, args.seed, args.items, args.passes)
    lo, hi = r["interval"]
    print(f"workload {args.workload}  seed {args.seed}  items {r['items']}  passes {r['passes']}")
    print(f"parent {r['sources'][0]}\nchange {r['sources'][1]}")
    print(f"total: parent {r['parent_s']:.4f} s  change {r['change_s']:.4f} s  ratio {r['ratio']:.4f}  "
          f"bootstrap 95% [{lo:.4f}, {hi:.4f}]")
    print(f"per item ratio: median {r['median']:.4f}  p90 {r['p90']:.4f}")
    for line, want, got_parent, got_change in r["mismatches"]:
        print(f"MISMATCH {line!r}: recorded {want}, parent {got_parent}, change {got_change}")
    print(f"digest mismatches: {len(r['mismatches'])}")
    return 1 if r["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
