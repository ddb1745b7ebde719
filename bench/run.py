#!/usr/bin/env python3
"""sfs4 benchmark: one workload, one seed, one process, one thread.

Usage, from the root of a checkout:

    python3 bench/run.py --workload shallow_mix --seed 1 --seconds 10 --trace 0

A run repeats whole passes over the workload's pool, each pass in a fresh
seeded order, until ``--seconds`` have passed and at least ``MIN_PASSES``
have run; a pass is never cut, so every run measures the same mix of items.  Outputs are checked against the digests
recorded in ``data/`` after the timed loop, together with an independent
cross-check per item (see ``workloads.cross_check``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs whole passes
untraced for half of ``--seconds``, then the same passes traced, and reports
per-layer calls, self time and work counters, per pass.  Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import COUNTERS, EXITS, ITEM, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 9
# Every item is timed at least this often, so that a per-item median exists
# even where one pass outlasts --seconds (deep_chain).
MIN_PASSES = 3

_SETUP_CODE = """\
import importlib, time
t = time.perf_counter()
import sfs4
for name in {modules!r}:
    importlib.import_module("sfs4." + name)
print(repr(time.perf_counter() - t))
"""


def measure_setup(runs: int = SETUP_RUNS) -> float:
    """Median time, over fresh processes, to import sfs4 and every submodule."""
    modules = sorted(p.stem for p in (SRC / "sfs4").glob("*.py") if p.stem != "__init__")
    code = _SETUP_CODE.format(modules=modules)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class RunState:
    """Per-item latencies and outputs over all passes of one run."""

    def __init__(self, size: int):
        self.latencies: list[list[float]] = [[] for _ in range(size)]
        self.first: list[str | None] = [None] * size
        self.mismatches = [0] * size
        self.errors: list[str] = []

    @property
    def executions(self) -> int:
        return sum(len(ts) for ts in self.latencies)


def run_passes(call, lines, orders, state: RunState, seconds=0.0, passes=None, min_passes=1):
    """Whole passes until ``seconds`` have passed and at least ``min_passes``
    have run, or exactly ``passes``.

    ``call(i, line)`` returns the output text.  Only the call is inside the
    per-item timing; an output is compared with the item's first output
    right after it.  Returns the wall time of each pass.
    """
    clock = time.perf_counter
    walls = []
    start = clock()
    while True:
        pass_start = clock()
        for i in next(orders):
            t0 = clock()
            try:
                out = call(i, lines[i])
            except Exception as exc:  # one failing item must not stop the run
                out = f"error: {type(exc).__name__}: {exc}"
                state.errors.append(f"{lines[i]}: {out}")
            state.latencies[i].append(clock() - t0)
            if state.first[i] is None:
                state.first[i] = out
            elif out != state.first[i]:
                state.mismatches[i] += 1
        walls.append(clock() - pass_start)
        if passes is not None:
            if len(walls) >= passes:
                break
        elif len(walls) >= min_passes and clock() - start >= seconds:
            break
    return walls


def check(workload, lines, digests, state: RunState):
    """Indices of failed items: raised, differs from its record or across
    passes, or fails its cross-check.  Runs outside the timed region."""
    failed = []
    for i, out in enumerate(state.first):
        if out is None:
            continue
        ok = state.mismatches[i] == 0 and workloads.output_digest(workload, lines[i], out) == digests[i]
        if ok:
            try:
                ok = workloads.cross_check(workload, lines[i])
            except Exception as exc:  # a crash in the cross-check is a failure
                state.errors.append(f"{lines[i]}: cross-check: {type(exc).__name__}: {exc}")
                ok = False
        if not ok:
            failed.append(i)
    return failed


def latency_stats(state: RunState):
    """Median and tail of per-item latency, in ms.

    An item's latency is the median of its timings over the run's passes,
    so the sample size is the number of distinct items whatever the number
    of passes.  The tail is the highest percentile with at least ten items
    beyond it.  Returns (p50, tail, tail percentile, distinct items).
    """
    per_item = sorted(statistics.median(ts) * 1e3 for ts in state.latencies if ts)
    n = len(per_item)
    if n > 10:
        tail, pct = per_item[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = per_item[-1], 100.0
    return statistics.median(per_item), tail, pct, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes, items_per_pass, traced_wall, untraced_wall):
    """Per-layer metrics of a traced run, each per pass, with their units."""
    calls, self_s = tracer.summary()
    m = {}
    for target in tracer.targets:
        m[f"{target}.calls"] = (calls[target] / passes, "count")
        m[f"{target}.self_s"] = (self_s[target] / passes, "s")
    for name in COUNTERS:
        m[name] = (tracer.counts[name] / passes, "count")
    for name in EXITS:
        m[f"classify.exit.{name}"] = (tracer.counts[f"classify.exit.{name}"] / passes, "count")

    def val(name):
        return m[name][0]

    n_classify = val("classify.classify.calls")
    m["homology.h1_calls_per_item"] = (_ratio(val("homology.h1_formula.calls"), items_per_pass), "ratio")
    m["partitions.witness_ratio"] = (
        _ratio(val("partitions.witnesses"), val("partitions.is_partitionable.calls")), "ratio")
    m["lattice.nodes_per_s"] = (_ratio(val("lattice.nodes"), val("lattice.embeddings_for.self_s")), "1/s")
    m["lattice.surjective_ratio"] = (
        _ratio(val("lattice.surjective"), val("lattice.pair_surjective.calls")), "ratio")
    m["share.exit_direct_double"] = (_ratio(val("classify.exit.direct_double"), n_classify), "ratio")
    m["share.eps_zero"] = (_ratio(val("classify.eps_zero"), n_classify), "ratio")
    m["share.spin_filtered_search"] = (_ratio(val("classify.spin_filtered_search"), n_classify), "ratio")
    m["share.repeated_fibers"] = (_ratio(val("classify.repeated_fibers"), n_classify), "ratio")
    m["share.multi_spin"] = (
        _ratio(val("mubar.multi_spin_reports"), val("mubar.spin_report.calls")), "ratio")
    layers_self = sum(self_s[t] for t in tracer.targets) / passes
    m["trace.items"] = (items_per_pass, "count")
    m["trace.passes"] = (passes, "count")
    m["trace.wall_s"] = (traced_wall / passes, "s")
    m["trace.untraced_wall_s"] = (untraced_wall / passes, "s")
    m["trace.layers_self_s"] = (layers_self, "s")
    m["bench.item.self_s"] = (self_s[ITEM] / passes, "s")
    m["trace_overhead_frac"] = (_ratio(traced_wall - untraced_wall, untraced_wall), "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                    help="one workload, or all of them, each in a fresh process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sfs4" / "__init__.py").is_file():
        print(f"error: no sfs4 sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for w in workloads.WORKLOADS
        ]
        return max(codes)
    sys.path.insert(0, str(SRC))

    pool, digests = workloads.load_records(args.workload)
    lines = workloads.make_inputs(args.workload, args.seed, pool)
    run = workloads.make_runner(args.workload)
    orders = workloads.pass_orders(args.workload, args.seed, len(lines))
    state = RunState(len(lines))

    if args.trace:
        untraced = run_passes(lambda i, line: run(line), lines, orders, state, seconds=args.seconds / 2)
        passes, untraced_wall = len(untraced), sum(untraced)
        tracer = Tracer()
        with tracer:
            traced_wall = sum(run_passes(
                lambda i, line: tracer.run_item(i, run, line), lines, orders, state, passes=passes))
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(spans_path)
        metrics = layer_metrics(tracer, passes, len(lines), traced_wall, untraced_wall)
    else:
        walls = run_passes(lambda i, line: run(line), lines, orders, state,
                           seconds=args.seconds, min_passes=MIN_PASSES)
        passes = len(walls)
        p50, tail, pct, distinct = latency_stats(state)
        metrics = {
            "items_per_s": (len(lines) / statistics.median(walls), "1/s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_tail_ms": (tail, "ms"),
            "setup_s": (measure_setup(), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    failed_items = check(args.workload, lines, digests, state)
    attempted = state.executions
    failed = sum(len(state.latencies[i]) for i in failed_items)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {passes}  "
          f"items {attempted}  distinct {len(lines)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  latency_tail_ms is p{pct:.3f} of {distinct} distinct items (10 beyond)")
        print(f"  items_per_s is items per pass / median pass wall; pass walls (s): "
              + " ".join(f"{w:.3f}" for w in walls))
    else:
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        if tracer.missing:
            print(f"  not found, counted as zero: {', '.join(tracer.missing)}")
    print(f"  fail_frac {_ratio(failed, attempted):.6g} ({failed} of {attempted} items; "
          f"{len(failed_items)} distinct)")
    for err in state.errors[:5]:
        print(f"  error: {err}", file=sys.stderr)
    for i in failed_items[:5]:
        print(f"  failed: {lines[i]}", file=sys.stderr)

    result = {
        "correct": not failed_items,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
