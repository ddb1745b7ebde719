"""Per-layer tracing from outside the program.

``Tracer`` rebinds chosen public functions of ``sfs4`` to wrappers that
record a span per call: (function, start, end, parent span, item).  A
function imported by name into several modules (``h1_formula`` lives in
``homology``, ``classify``, ``partitions``, ``pretzel``, ``cli`` and the
package itself) is rebound in every ``sfs4`` module namespace that holds it,
so calls inside the program are seen too.  A target that no longer exists is
skipped and its counts read zero.  ``restore`` puts every original binding
back.

Work counters come only from return values, in ``_count``.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter

TARGETS = (
    "cli.parse_input",
    "cli.cmd_lattice",
    "seifert.normalize",
    "seifert.find_contractions",
    "homology.h1_formula",
    "homology.h1_oracle",
    "intmat.smith_diagonal",
    "intmat.determinant",
    "plumbing.build_plumbing",
    "plumbing.intersection_form",
    "partitions.is_partitionable",
    "partitions.sum_condition_partitions",
    "partitions.match_theorem_families",
    "mubar.spin_report",
    "mubar.partition_even_conditions",
    "mubar.mubar_embedding_conditions",
    "lattice.embeddings_for",
    "lattice.induced_partition",
    "lattice.pair_surjective",
    "classify.classify",
    "classify.replay_certificate",
    "pretzel.doubly_slice_classify",
    "pretzel.pretzel_mubar",
)

ITEM = "bench.item"

# Last trace steps of a classify verdict; any other step counts as "other".
EXITS = (
    "no_exceptional_fibers",
    "eps_zero_pairing",
    "eps_zero_all_odd",
    "eps_zero_one_even",
    "eps_zero_known_disk",
    "furuta_ten_eighths",
    "direct_double",
    "central_weight_bound",
    "partitionable",
    "spin_count_square",
    "mubar_zero_count",
    "spin_partition_conditions",
    "contraction",
    "other",
)

COUNTERS = (
    "plumbing.vertices",
    "partitions.candidates",
    "partitions.witnesses",
    "mubar.spin_structures",
    "mubar.multi_spin_reports",
    "lattice.nodes",
    "lattice.embeddings",
    "lattice.surjective",
    "classify.eps_zero",
    "classify.spin_filtered_search",
    "classify.repeated_fibers",
)


def sfs4_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sfs4" or name.startswith("sfs4."))]


class Tracer:
    """Rebinds ``targets`` while installed; spans and counters accumulate."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names = [ITEM, *self.targets]
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.counts = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._item = -1

    # -- installation -------------------------------------------------------

    def install(self):
        modules = sfs4_modules()
        for key, target in enumerate(self.targets, start=1):
            module_name, func_name = target.rsplit(".", 1)
            home = sys.modules.get(f"sfs4.{module_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if not callable(original):
                self.missing.append(target)
                continue
            wrapper = self._wrap(key, target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bindings.append((module, attr, original))
        return self

    def restore(self):
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, key, target, original):
        spans, stack, count = self.spans, self._stack, self._count
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (key, start, end, parent, self._item)
            count(target, result)
            return result

        wrapper.bench_traced = True
        return wrapper

    # -- items --------------------------------------------------------------

    def run_item(self, item: int, func, *args):
        """Call ``func(*args)`` under a root span for one item."""
        self._item = item
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return func(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (0, start, end, -1, item)

    # -- counters from return values -----------------------------------------

    def _count(self, target, result):
        c = self.counts
        if target == "plumbing.build_plumbing":
            c["plumbing.vertices"] += getattr(result, "size", 0)
        elif target == "partitions.sum_condition_partitions":
            c["partitions.candidates"] += len(result)
        elif target == "partitions.is_partitionable":
            c["partitions.witnesses"] += bool(getattr(result, "is_witness", False))
        elif target == "mubar.spin_report":
            structures = len(getattr(result, "subsets", ()))
            c["mubar.spin_structures"] += structures
            c["mubar.multi_spin_reports"] += structures > 1
        elif target == "lattice.embeddings_for":
            c["lattice.nodes"] += getattr(result, "nodes", 0)
            c["lattice.embeddings"] += len(getattr(result, "embeddings", ()))
        elif target == "lattice.pair_surjective":
            c["lattice.surjective"] += bool(result)
        elif target == "classify.classify":
            trace = getattr(result, "trace", ())
            last = trace[-1].test if trace else "other"
            c["classify.exit." + (last if last in EXITS else "other")] += 1
            c["classify.eps_zero"] += getattr(result, "epsilon", None) == 0
            c["classify.spin_filtered_search"] += any(
                t.test == "spin_partition_conditions" and t.result in ("pass", "fail") for t in trace
            )
            fibers = getattr(getattr(result, "standard_form", None), "fibers", ())
            c["classify.repeated_fibers"] += len(set(fibers)) < len(fibers)

    # -- summaries ----------------------------------------------------------

    def summary(self):
        """Per target: (calls, self seconds).  Self = duration - children."""
        child = [0.0] * len(self.spans)
        for key, start, end, parent, _item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = Counter()
        for sid, (key, start, end, _parent, _item) in enumerate(self.spans):
            name = self.names[key]
            calls[name] += 1
            self_s[name] += (end - start) - child[sid]
        return calls, self_s

    def write_spans(self, path):
        """Spans as gzipped TSV: id, name, start, end, parent, item."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tstart\tend\tparent\titem\n")
            for sid, (key, start, end, parent, item) in enumerate(self.spans):
                fh.write(f"{sid}\t{self.names[key]}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")
