"""Command line front end.

Inputs are Seifert fibered spaces ``SFS(g=<int>; e=<int>; r1, r2, ...)`` with
rationals written ``p/q`` or ``n``, or odd pretzels ``P(c1,...,ck)``; the
grammar is whitespace-insensitive.  Each subcommand takes one input inline or
``--file`` with one input per line (``-`` for stdin) and reports per line, in
input order.  ``--json`` emits one JSON object per line, stable across runs
(keys sorted); the shape is described by ``schema/report.schema.json``.

A batch streams: each line is read when the one before it is done, and each
record is flushed as it completes.  A line that fails to parse or is rejected
by its subcommand becomes an error record (``{"input": ..., "error": ...}``
under ``--json``, one ``error:`` line on stderr otherwise) and the batch goes
on.  Usage and open errors come before any output.

Exit codes: 0 when every line completed, 1 for usage errors, when some line
failed or when stdout was closed before the output was written (as by
``| head -1``; no traceback), 2 when a budget stopped some line (this wins
over 1 unless stdout was closed).  Under ``--json`` a stopped record carries
the ``seifert.Budget`` of the stage that stopped as its ``budget`` object.
``SFS4_BUDGET`` (lattice nodes) and ``SFS4_FIBER_BUDGET`` (partition search
fibers) set the default budgets, nonnegative integers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys

from .classify import BUDGET_EXCEEDED, classify
from .homology import dim_h1_z2, h1_formula
from .lattice import DEFAULT_NODE_BUDGET, StructureViolation, embeddings_for, induced_partition
from .lattice import pair_surjective
from .mubar import SPIN_LISTING_LIMIT, spin_counts, spin_report
from .partitions import DEFAULT_FIBER_BUDGET, is_partitionable
from .plumbing import build_plumbing, form_determinant
from .pretzel import OddPretzel, double_branched_cover, doubly_slice_classify
from .rationals import format_rational, parse_rational
from .seifert import Budget, SeifertData, contraction_walk, normalize


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_SFS_RE = re.compile(r"^SFS\(g=(-?\d+);e=(-?\d+);(.*)\)$")
_PRETZEL_RE = re.compile(r"^P\((.*)\)$")


def parse_input(text: str):
    """Parse one input line into SeifertData or OddPretzel."""
    stripped = re.sub(r"\s+", "", text)
    if not stripped:
        raise ParseError("empty input", 0)

    def at(i: int) -> int:
        """Position in ``text`` of character ``i`` of ``stripped``."""
        kept = [c.start() for c in re.finditer(r"\S", text)]
        return kept[i] if i < len(kept) else len(text)

    def entries(start: int, body: str):
        """Comma-separated entries of ``body``, found at ``start`` in ``stripped``."""
        for part in body.split(","):
            yield part, start
            start += len(part) + 1

    m = _SFS_RE.match(stripped)
    if m:
        genus, central, body = int(m.group(1)), int(m.group(2)), m.group(3)
        fibers = []
        if body:
            for part, pos in entries(m.start(3), body):
                if not part:
                    raise ParseError("empty fiber entry", at(pos))
                try:
                    r = parse_rational(part)
                except ValueError as exc:
                    raise ParseError(str(exc), at(pos)) from None
                if r[0] == 0:
                    raise ParseError(f"zero fiber {part!r}", at(pos))
                fibers.append(r)
        if genus < 0:
            raise ParseError("genus must be nonnegative", at(m.start(1)))
        return SeifertData(genus, central, tuple(fibers))
    m = _PRETZEL_RE.match(stripped)
    if m:
        strands = []
        for part, pos in entries(m.start(1), m.group(1)):
            if not part:
                raise ParseError("empty strand entry", at(pos))
            try:
                c = int(part)
            except ValueError:
                raise ParseError(f"malformed strand {part!r}", at(pos)) from None
            if c % 2 == 0:
                raise ParseError(f"even strand {c}", at(pos))
            strands.append(c)
        return OddPretzel(tuple(strands))
    raise ParseError("expected SFS(g=..; e=..; ...) or P(...)", 0)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cmd_classify(data, line, args):
    verdict = classify(data, fiber_budget=args.fiber_budget)
    report = {"input": line, "command": "classify", **verdict.to_dict()}
    text = [f"{line}: {verdict.tag}"]
    if verdict.certificate:
        text.append(f"  certificate: {verdict.certificate.rule}")
    if verdict.obstruction:
        text.append(f"  obstruction: {verdict.obstruction.name}: {verdict.obstruction.detail}")
    for t in verdict.trace:
        text.append(f"  [{t.result}] {t.test}: {t.detail}")
    return report, "\n".join(text), verdict.budget is not None


def cmd_homology(data, line, args):
    group = h1_formula(data)
    report = {
        "input": line,
        "command": "homology",
        "h1": group.to_dict(),
        "pretty": str(group),
    }
    return report, f"{line}: H1 = {group}", False


def cmd_partitions(data, line, args):
    std = normalize(data)
    if std.eps_num <= 0:
        raise ValueError("partition search needs eps > 0 after normalization")
    res = is_partitionable(std, fiber_budget=args.fiber_budget)
    report = {"input": line, "command": "partitions", "status": res.status}
    if res.is_witness:
        report["witness"] = res.witness._asdict()
        text = f"{line}: partitionable; P1 = {res.witness.p1}, P2 = {res.witness.p2}"
    elif res.status == "refuted":
        report["refuted"] = res.refuted
        report["detail"] = res.detail
        text = f"{line}: not partitionable ({res.refuted}: {res.detail})"
    else:
        report["detail"] = res.detail
        report["budget"] = res.budget._asdict()
        text = f"{line}: budget exceeded ({res.detail})"
    return report, text, res.budget is not None


def cmd_mubar(data, line, args):
    std = normalize(data)
    report = {"input": line, "command": "mubar", "standard_form": std.to_dict()}
    dim = dim_h1_z2(std) if std.genus == 0 and std.eps_num > 0 else 0
    if 1 << dim > SPIN_LISTING_LIMIT:
        # too many to list; the counts take polynomial time
        count, zeros = spin_counts(std)
        budget = Budget("spin_listing", "spin_structures", SPIN_LISTING_LIMIT, count)
        report.update(verdict=BUDGET_EXCEEDED, budget=budget._asdict(), z2_dim=dim,
                      spin_structure_count=count, mubar_zero_count=zeros)
        text = f"{line}: {BUDGET_EXCEEDED} ({budget})\n  spin structures: {count}; mu-bar zeros: {zeros}"
        return report, text, True
    rep = spin_report(std)
    report["spin_structures"] = [
        {"characteristic_subset": c, "mubar": v} for c, v in zip(rep.subsets, rep.values)
    ]
    report["z2_dim"] = rep.z2_dim
    lines = [f"{line}: {len(rep.subsets)} spin structure(s)"]
    lines += [f"  subset {list(c)}: mubar = {v}" for c, v in zip(rep.subsets, rep.values)]
    return report, "\n".join(lines), False


def cmd_plumbing(data, line, args):
    std = normalize(data)
    graph = build_plumbing(std)
    report = {
        "input": line,
        "command": "plumbing",
        "standard_form": std.to_dict(),
        "graph": graph.to_dict(),
        "determinant": form_determinant(std),
    }
    return report, f"{line}:\n{graph.to_text()}", False


def cmd_lattice(data, line, args):
    std = normalize(data)
    if std.eps_num <= 0:
        raise ValueError("lattice search needs eps > 0 after normalization")
    graph = build_plumbing(std)
    res = embeddings_for(graph, budget=args.budget)
    rows = []
    for a in res:
        entry = {"matrix": a.rows}
        try:
            entry["induced_partition"] = induced_partition(a, std, graph)
        except StructureViolation:
            pass
        rows.append(entry)
    found = res.embeddings
    pair = next(((a1, a2) for i, a1 in enumerate(found) for a2 in found[i:] if pair_surjective(a1, a2)),
                None)  # the first surjective pair, a1 listed no later than a2
    surjective_pair = pair and [a.rows for a in pair]
    report = {
        "input": line,
        "command": "lattice",
        "vertex_count": graph.size,
        "embeddings": rows,
        "nodes": res.nodes,
        "budget_exceeded": res.budget is not None,
        "surjective_pair": surjective_pair,
    }
    text = f"{line}: {len(rows)} embedding(s), {res.nodes} nodes"
    if res.budget is not None:
        report["budget"] = res.budget._asdict()
        text += f" (budget exceeded: {res.budget})"
    return report, text, res.budget is not None


def cmd_pretzel(knot, line, args):
    cover = double_branched_cover(knot)
    cover_verdict = classify(cover, fiber_budget=args.fiber_budget)
    report = {
        "input": line,
        "command": "pretzel",
        "strands": knot.strands,
        "double_cover": {"input": str(cover), **cover_verdict.to_dict()},
    }
    lines = [f"{line}: double branched cover {cover}"]
    if knot.is_knot:
        verdict = doubly_slice_classify(knot, cover_verdict)
        report["verdict"] = verdict.verdict
        report["parameter"] = verdict.parameter
        report["failed_condition"] = verdict.failed_condition
        report["mubar"] = verdict.mubar
        lines.append(f"  {verdict.verdict}" + (f" (a = {verdict.parameter})" if verdict.parameter else ""))
        if verdict.failed_condition:
            lines.append(f"  failed: {verdict.failed_condition}: {verdict.detail}")
    else:
        report["verdict"] = "LINK_OUT_OF_SCOPE"
        lines.append("  even strand count: a link; double sliceness not classified")
    lines.append(f"  cover classification: {cover_verdict.tag}")
    return report, "\n".join(lines), cover_verdict.tag == BUDGET_EXCEEDED


def cmd_reduce(data, line, args):
    std = normalize(data)
    walk = contraction_walk(std)
    steps = [
        {"duplicated_fiber": format_rational(smaller.fibers[j - 1]), "result": smaller.to_dict()}
        for j, smaller in walk
    ]
    minimal = walk[-1][1] if walk else std
    report = {
        "input": line,
        "command": "reduce",
        "standard_form": std.to_dict(),
        "epsilon": format_rational((std.eps_num, std.lcm)),
        "steps": steps,
        "minimal": minimal.to_dict(),
    }
    lines = [f"{line}: standard form {std}"]
    lines.extend(f"  contract {s['duplicated_fiber']}" for s in steps)
    lines.append(f"  minimal: {minimal}")
    return report, "\n".join(lines), False


COMMANDS = {
    "classify": (cmd_classify, SeifertData),
    "homology": (cmd_homology, SeifertData),
    "partitions": (cmd_partitions, SeifertData),
    "mubar": (cmd_mubar, SeifertData),
    "plumbing": (cmd_plumbing, SeifertData),
    "lattice": (cmd_lattice, SeifertData),
    "pretzel": (cmd_pretzel, OddPretzel),
    "reduce": (cmd_reduce, SeifertData),
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit code 2 is reserved for an exceeded budget
        self.exit(1, f"error: {message}\n")


def _budget(text: str) -> int:
    """A budget flag or variable: a nonnegative integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"invalid budget {text!r}: expected a nonnegative integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="sfs4",
        description="Classify Seifert fibered spaces against smooth embedding in the 4-sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", nargs="?", help="one input, e.g. 'SFS(g=0; e=2; 3/2, 3, 3/2)' or 'P(3,-3,3)'")
        p.add_argument("--file", help="file with one input per line, or - for stdin")
        p.add_argument("--json", action="store_true", help="emit one JSON object per input line")
        # each budget only where it is read; string defaults pass through
        # ``type``, so bad variables are usage errors
        if name == "lattice":
            p.add_argument(
                "--budget",
                type=_budget,
                default=os.environ.get("SFS4_BUDGET", str(DEFAULT_NODE_BUDGET)),
                help="lattice search node budget",
            )
        if name in ("classify", "partitions", "pretzel"):
            p.add_argument(
                "--fiber-budget",
                type=_budget,
                default=os.environ.get("SFS4_FIBER_BUDGET", str(DEFAULT_FIBER_BUDGET)),
                help="partition search fiber-count budget",
            )
    return parser


def _input_lines(args, stack: contextlib.ExitStack):
    """The stripped nonempty input lines; a file is opened now, on ``stack``, and read lazily."""
    if args.file and args.input:
        raise ValueError("give an inline input or --file, not both")
    if args.file:
        fh = sys.stdin if args.file == "-" else stack.enter_context(open(args.file))
        return (ln.strip() for ln in fh if ln.strip())
    if args.input is None:
        raise ValueError("no input given")
    return [args.input]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, kind = COMMANDS[args.command]
    budget_hit = failed = False
    with contextlib.ExitStack() as stack:
        try:
            for line in _input_lines(args, stack):
                try:
                    value = parse_input(line)
                    if not isinstance(value, kind):
                        need = "an SFS" if kind is SeifertData else "a P"
                        raise ValueError(f"this subcommand needs {need}(...) input")
                    report, text, over = handler(value, line, args)
                except ValueError as exc:  # ParseError included
                    failed = True
                    if args.json:
                        print(_dump({"input": line, "error": str(exc)}), flush=True)
                    else:
                        print(f"error: {line!r}: {exc}", file=sys.stderr)
                    continue
                budget_hit = budget_hit or over
                print(_dump(report) if args.json else text, flush=True)
        except BrokenPipeError:
            # the reader closed stdout; point it at devnull so that the flush at
            # interpreter exit does not raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        except (ValueError, OSError) as exc:  # usage, or the input file could not be opened or read
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 2 if budget_hit else 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
