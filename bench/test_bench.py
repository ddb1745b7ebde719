"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _one_pass(workload, indices, tracer=None):
    """(state, lines, wall) of one pass, in pool order, over some pool items."""
    pool, _ = workloads.load_records(workload)
    lines = [pool[i] for i in indices]
    runner = workloads.make_runner(workload)
    state = run.RunState(len(lines))
    if tracer is None:
        call = lambda i, line: runner(line)  # noqa: E731
    else:
        call = lambda i, line: tracer.run_item(i, runner, line)  # noqa: E731
    wall = sum(run.run_passes(call, lines, iter([list(range(len(lines)))]), state, passes=1))
    return state, lines, wall


def _check(workload, indices, state, lines, digests=None):
    if digests is None:
        _, recorded = workloads.load_records(workload)
        digests = [recorded[i] for i in indices]
    return run.check(workload, lines, digests, state)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeded_inputs_repeat_and_differ(workload):
    pool, _ = workloads.load_records(workload)
    one = "\n".join(workloads.make_inputs(workload, 1, pool)).encode()
    assert one == "\n".join(workloads.make_inputs(workload, 1, pool)).encode()
    assert one != "\n".join(workloads.make_inputs(workload, 2, pool)).encode()
    orders = workloads.pass_orders(workload, 1, len(pool))
    assert next(orders) == next(workloads.pass_orders(workload, 1, len(pool)))
    assert sorted(next(orders)) == list(range(len(pool)))


@pytest.mark.parametrize("workload", ["shallow_mix", "deep_chain", "pretzel_census", "lattice_engine"])
def test_recorded_pool_is_what_the_generator_makes(workload):
    pool, _ = workloads.load_records(workload)
    assert pool == workloads.GENERATORS[workload](workloads.POOL_SEED)


def test_shallow_pool_seed_changes_lines():
    a = workloads.generate_shallow_mix(0)[:20]
    assert a == workloads.generate_shallow_mix(0)[:20]
    assert a != workloads.generate_shallow_mix(1)[:20]


def test_changed_record_makes_fail_frac_nonzero():
    indices = list(range(40))
    state, lines, _ = _one_pass("shallow_mix", indices)
    assert _check("shallow_mix", indices, state, lines) == []
    _, recorded = workloads.load_records("shallow_mix")
    digests = [recorded[i] for i in indices]
    digests[7] = "0" * 16
    failed = _check("shallow_mix", indices, state, lines, digests)
    assert failed == [7]
    assert sum(len(state.latencies[i]) for i in failed) / state.executions > 0


def _bindings():
    return {
        (m.__name__, attr): value
        for m in tracing.sfs4_modules()
        for attr, value in vars(m).items()
        if callable(value)
    }


def test_trace_rebinds_everywhere_and_restores():
    workloads.make_runner("lattice_engine")  # import every layer first
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        partitions = sys.modules["sfs4.partitions"]
        assert getattr(partitions.h1_formula, "bench_traced", False)
        assert getattr(sys.modules["sfs4"].h1_formula, "bench_traced", False)
        state, lines, wall = _one_pass("shallow_mix", list(range(30)), tracer=tracer)
    assert _check("shallow_mix", list(range(30)), state, lines) == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(getattr(v, "bench_traced", False) for v in after.values())
    calls, self_s = tracer.summary()
    assert calls["classify.classify"] == 30 and calls[tracing.ITEM] == 30
    assert calls["homology.h1_formula"] >= 30
    assert all(v >= -1e-9 for v in self_s.values())
    assert sum(self_s[t] for t in tracer.targets) <= wall


def test_missing_target_counts_zero():
    tracer = tracing.Tracer(tracing.TARGETS + ("homology.no_such_function", "no_such_module.f"))
    with tracer:
        state, lines, wall = _one_pass("pretzel_census", list(range(10)), tracer=tracer)
    assert _check("pretzel_census", list(range(10)), state, lines) == []
    assert tracer.missing == ["homology.no_such_function", "no_such_module.f"]
    metrics = run.layer_metrics(tracer, 1, 10, wall, wall)
    assert metrics["homology.no_such_function.calls"] == (0.0, "count")
    assert metrics["pretzel.doubly_slice_classify.calls"][0] == 10


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_exactly_the_declared_metrics(trace):
    spec = _bench_json()
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice_engine", "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # MIN_PASSES passes; a traced run is one pass untraced, then the same pass traced
    passes = 2 if trace else run.MIN_PASSES
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 23 * passes
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_run_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shallow_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
