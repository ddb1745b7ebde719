"""The benchmark tracer's hold on the program.

``bench/tracing.py`` skips a target that no longer exists and reads a result
attribute through ``getattr`` with a default, so a rename in ``sfs4`` would
zero a per-layer counter without an error.  These tests load the tracer by
path and check that every target is a callable of ``sfs4`` and that every
attribute its counters read exists on a real result of that target.
"""

import ast
import importlib
import importlib.util
import inspect
import textwrap
from pathlib import Path

import pytest

from sfs4.cli import parse_input
from sfs4.seifert import normalize

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _target(name):
    module_name, func_name = name.rsplit(".", 1)
    return getattr(importlib.import_module(f"sfs4.{module_name}"), func_name, None)


@pytest.mark.parametrize("name", tracing.TARGETS)
def test_every_target_is_a_callable_of_sfs4(name):
    assert callable(_target(name))


def _getattr_reads():
    """Per ``target == "..."`` branch of ``Tracer._count``, the attribute
    names it reads through ``getattr``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(tracing.Tracer._count)))
    reads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare):
            target = node.test.comparators[0].value
            reads[target] = {
                call.args[1].value
                for stmt in node.body
                for call in ast.walk(stmt)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"
            }
    return reads


# a real result of each target whose counters read attributes, and the paths
# to those attributes from the result
SPACE = normalize(parse_input("SFS(g=0; e=2; 3/2, 3, 3/2)"))
RESULTS = {
    "plumbing.build_plumbing": ((SPACE,), ("size",)),
    "partitions.is_partitionable": ((SPACE,), ("is_witness",)),
    "mubar.spin_report": ((SPACE,), ("subsets",)),
    "lattice.embeddings_for": (
        (_target("plumbing.build_plumbing")(SPACE),), ("nodes", "embeddings")
    ),
    "classify.classify": ((SPACE,), ("trace", "epsilon", "standard_form", "standard_form.fibers")),
}


def test_the_checked_attributes_are_the_ones_read():
    reads = {target: names for target, names in _getattr_reads().items() if names}
    assert reads == {
        target: {path.rsplit(".", 1)[-1] for path in paths}
        for target, (_args, paths) in RESULTS.items()
    }


@pytest.mark.parametrize("target", RESULTS)
def test_counted_attributes_exist_on_a_real_result(target):
    args, paths = RESULTS[target]
    result = _target(target)(*args)
    for path in paths:
        value = result
        for name in path.split("."):
            assert hasattr(value, name), f"{target} result has no {path}"
            value = getattr(value, name)
