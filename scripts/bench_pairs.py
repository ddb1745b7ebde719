#!/usr/bin/env python3
"""Run the benchmark alternately in two checkouts and compare their metrics.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload deep_chain --seed 1 --pairs 10 [--seconds 10]

Each pair runs ``bench/run.py --trace 0`` once in each checkout, the parent
first in even pairs and the change first in odd ones, so that a machine
that drifts during the series favours neither side.  Before every run the
``__pycache__`` directories under both ``src`` trees are deleted: the
``setup_s`` metric imports every module, and a tree with cached bytecode
imports about twice as fast as one that compiles from source.

Each pair's readings go to stderr as the series runs.  For each end-to-end
metric the change declares in its ``BENCHMARK.json`` the summary gives the
parent and change medians with their quartiles, the pairs the change won,
and the change's median over the parent's against the metric's bound; a
verdict line per metric follows (``gain``, ``unresolved`` or ``no gain``, as
``summarize`` defines them).  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def result_of(stdout: str) -> dict:
    """The JSON record ``bench/run.py`` prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec: dict, parent: list[dict], change: list[dict]) -> list[str]:
    """One line per end-to-end metric of ``spec`` over paired run records,
    then one verdict line per metric.

    ``gain``: the change won at least 9 in 10 of the pairs, ties counting for
    neither, and its median is better than the parent's by more than the
    parent's interquartile range.  Otherwise ``unresolved`` when that range
    is wider than the metric's bound times the parent's median, and else
    ``no gain``.
    """
    lines = [f"{len(parent)} pairs; failed items: parent {sum(r['failed'] for r in parent)}, "
             f"change {sum(r['failed'] for r in change)}"]
    verdicts = []
    for metric in spec["end_to_end"]:
        name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        ps = [r["metrics"][name]["value"] for r in parent]
        cs = [r["metrics"][name]["value"] for r in change]
        won = sum((c > p) if higher else (c < p) for p, c in zip(ps, cs))
        (p1, pm, p3), (c1, cm, c3) = _quartiles(ps), _quartiles(cs)
        ratio = cm / pm if pm else float("inf")
        limit = 1 - bound if higher else 1 + bound
        within = ratio >= limit if higher else ratio <= limit
        lines.append(
            f"{name:16s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"won {won}/{len(ps)}  ratio {ratio:.3f} (bound {'>=' if higher else '<='} {limit:.2f}: "
            f"{'within' if within else 'OUTSIDE'})"
        )
        iqr, better = p3 - p1, cm - pm if higher else pm - cm
        if 10 * won >= 9 * len(ps) and better > iqr:
            verdict = "gain"
        elif iqr > bound * pm:
            verdict = "unresolved"
        else:
            verdict = "no gain"
        verdicts.append(f"{name:16s} {verdict}: won {won}/{len(ps)}, median better by {better:.6g}, "
                        f"parent IQR {iqr:.6g} (bound x median {bound * pm:.6g})")
    return lines + verdicts


def _drop_bytecode(*trees: Path) -> None:
    for tree in trees:
        for cache in (tree / "src").rglob("__pycache__"):
            shutil.rmtree(cache, ignore_errors=True)


def _run(tree: Path, args) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return result_of(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    parent, change = [], []
    for i in range(args.pairs):
        order = [(args.parent, parent), (args.change, change)]
        for tree, runs in order if i % 2 == 0 else reversed(order):
            _drop_bytecode(args.parent, args.change)
            runs.append(_run(tree, args))
        values = "  ".join(f"{m['name']} {parent[-1]['metrics'][m['name']]['value']:.6g} / "
                           f"{change[-1]['metrics'][m['name']]['value']:.6g}" for m in spec["end_to_end"])
        print(f"pair {i + 1}/{args.pairs} (parent / change): {values}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}")
    print("\n".join(summarize(spec, parent, change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
