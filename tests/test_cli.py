import copy
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import sfs4
from sfs4 import cli
from sfs4.classify import classify
from sfs4.cli import ParseError, main, parse_input
from sfs4.lattice import embeddings_for
from sfs4.partitions import is_partitionable
from sfs4.plumbing import build_plumbing
from sfs4.pretzel import OddPretzel
from sfs4.seifert import Budget, SeifertData, normalize


@pytest.fixture(scope="module")
def schema():
    text = resources.files("sfs4").joinpath("schema/report.schema.json").read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def validate_json_lines(out, schema):
    reports = [json.loads(line) for line in out.strip().splitlines()]
    for rep in reports:
        jsonschema.validate(rep, schema)
    return reports


def test_parse_input():
    s = parse_input("SFS(g=0; e=2; 3/2, 3, 3/2)")
    assert isinstance(s, SeifertData)
    assert s.central == 2 and len(s.fibers) == 3

    p = parse_input(" P( 3, -3, 3 ) ")
    assert isinstance(p, OddPretzel)
    assert p.strands == (3, -3, 3)

    s2 = parse_input("SFS(g=1;e=0;)")
    assert s2.fibers == ()

    for bad in ("SFS(g=0; e=1; 0/1)", "P(2,3)", "nonsense", "SFS(g=-1; e=0; 2)", "SFS(g=0; e=1; 3/0)"):
        with pytest.raises(ParseError):
            parse_input(bad)

    # positions index the raw text, also for tokens written with inner spaces
    for bad, token in (
        ("SFS(g=0; e=2; 5, 3 /0)", "3 /0"),
        ("SFS(g=0; e=2; 5, 3/0)", "3/0"),
        ("SFS(g=0; e=1; 3, , 5)", ", 5"),
        ("P( 3, 4 )", "4 )"),
    ):
        with pytest.raises(ParseError) as info:
            parse_input(bad)
        assert bad[info.value.position:].startswith(token), (bad, info.value.position)


def test_text_form_round_trips_through_parser():
    from fractions import Fraction

    s = SeifertData(0, 2, (Fraction(3, 2), Fraction(3), Fraction(3, 2)))
    assert parse_input(str(s)) == s
    t = SeifertData(2, -1, (Fraction(-7, 3),))
    assert parse_input(str(t)) == t
    empty = SeifertData(1, 0, ())
    assert parse_input(str(empty)) == empty


def test_classify_exit_codes(capsys):
    code, out, _ = run(capsys, "classify", "SFS(g=0; e=2; 2, 3/2, 5/4)")
    assert code == 0
    assert "OBSTRUCTED" in out

    code, _, err = run(capsys, "classify", "SFS(g=0; e=1; oops)")
    assert code == 1
    assert "error" in err


# k = 16 and eps = 1/6 at 2e = k: the labelled partition search, over the
# default fiber budget 14
OVER_BUDGET = "SFS(g=0; e=8; 2, 3, " + ", ".join(["2"] * 14) + ")"


def test_budget_exit_code(capsys):
    line = OVER_BUDGET
    code, out, _ = run(capsys, "classify", line)
    assert code == 2


# its cover normalizes to SFS(g=0; e=1; 5, 5, 5, 3), k = 4, which reaches the partition search
STOPPED_COVER = "P(-5,-5,-5,-3,1)"


def test_fiber_budget_report(capsys, schema):
    # a pretzel report carries its cover's budget object inside the cover
    for command, line, limit, value, text in (
        ("classify", OVER_BUDGET, 14, 16, f"{OVER_BUDGET}: BUDGET_EXCEEDED\n"),
        ("partitions", OVER_BUDGET, 14, 16, f"{OVER_BUDGET}: budget exceeded (k = 16 exceeds budget 14)\n"),
        ("pretzel", STOPPED_COVER, 0, 4, f"{STOPPED_COVER}: double branched cover "),
    ):
        budget = {"stage": "partition_search", "counter": "fibers", "limit": limit, "value": value}
        record = (lambda report: report["double_cover"]) if command == "pretzel" else (lambda report: report)
        code, out, _ = run(capsys, command, line, "--fiber-budget", str(limit))
        assert code == 2 and out.startswith(text), out
        code, out, _ = run(capsys, command, line, "--fiber-budget", str(limit), "--json")
        (stopped,) = validate_json_lines(out, schema)
        assert code == 2 and record(stopped)["budget"] == budget
        code, out, _ = run(capsys, command, line, "--fiber-budget", "40", "--json")
        (done,) = validate_json_lines(out, schema)
        assert code == 0 and "budget" not in record(done)
        # the schema asks for the object, naming its stage, exactly on a budget stop
        wrong_stage = copy.deepcopy(stopped)
        record(wrong_stage)["budget"]["stage"] = "lattice_search"
        del record(stopped)["budget"]
        record(done)["budget"] = budget
        for report in (stopped, done, wrong_stage):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(report, schema)


def test_library_budgets_are_the_printed_ones(capsys):
    # the stage that stops makes the Budget; the command line prints it as is
    data = parse_input(OVER_BUDGET)
    line = "SFS(g=0; e=2; 3/2, 3, 3/2)"
    graph = build_plumbing(normalize(parse_input(line)))
    for argv, stopped, done in (
        (["classify", OVER_BUDGET], classify(data).budget, classify(data, fiber_budget=40).budget),
        (["partitions", OVER_BUDGET], is_partitionable(normalize(data)).budget,
         is_partitionable(normalize(data), fiber_budget=40).budget),
        (["lattice", line, "--budget", "50"], embeddings_for(graph, 50).budget, embeddings_for(graph).budget),
    ):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 2 and isinstance(stopped, Budget), argv
        assert json.loads(out)["budget"] == stopped._asdict(), argv
        assert done is None, argv


def test_json_reports_validate(capsys, schema):
    cases = [
        ("classify", "SFS(g=0; e=2; 3/2, 3, 3/2)"),
        ("classify", "SFS(g=0; e=2; 2, 3/2, 5/4)"),
        ("classify", "SFS(g=0; e=0; 4, -4, 12/5, -12/5)"),
        ("homology", "SFS(g=2; e=0;)"),
        ("partitions", "SFS(g=0; e=2; 3/2, 3, 3/2)"),
        ("partitions", "SFS(g=0; e=2; 2, 3/2, 5/4)"),
        ("mubar", "SFS(g=0; e=1; 4, 4, 12/5)"),
        ("plumbing", "SFS(g=0; e=2; 2, 3/2, 5/4)"),
        ("lattice", "SFS(g=0; e=2; 3/2, 3, 3/2)"),
        ("pretzel", "P(3,-3,3)"),
        ("pretzel", "P(3,-3,5)"),
        ("reduce", "SFS(g=0; e=2; 2, 5/2, 2, 2)"),
    ]
    for command, line in cases:
        code, out, _ = run(capsys, command, line, "--json")
        assert code == 0, (command, line)
        reports = validate_json_lines(out, schema)
        assert reports[0]["command"] == command


def test_mubar_listing_is_bounded(capsys, schema):
    # 2^24 spin structures are counted, not listed: the line names the stage
    # spin_listing, exits 2 and still gives both counts
    line = "SFS(g=0; e=13; " + ", ".join(["2"] * 25) + ")"
    start = time.perf_counter()
    code, out, _ = run(capsys, "mubar", line)
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == (
        f"{line}: BUDGET_EXCEEDED (spin_listing: 16777216 spin structures exceed the limit 65536)\n"
        "  spin structures: 16777216; mu-bar zeros: 5200300\n"
    )
    code, out, _ = run(capsys, "mubar", line, "--json")
    (report,) = validate_json_lines(out, schema)
    assert code == 2 and "spin_structures" not in report
    # a listing has no budget object
    code, out, _ = run(capsys, "mubar", "SFS(g=0; e=1; 4, 4, 12/5)", "--json")
    (listed,) = validate_json_lines(out, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({**listed, "budget": report["budget"]}, schema)
    assert report["budget"] == {
        "stage": "spin_listing", "counter": "spin_structures", "limit": 65536, "value": 1 << 24
    }
    assert (report["spin_structure_count"], report["mubar_zero_count"], report["z2_dim"]) == (
        1 << 24, 5200300, 24
    )


def test_mubar_counts_past_the_limit_equal_the_listing(capsys, schema, monkeypatch):
    # with the limit at 2^5, eleven fibers 2 (2^10 spin structures) are
    # counted; the counts are those of the full listing, and 2^5 still lists
    from sfs4.mubar import spin_report
    from sfs4.seifert import normalize

    monkeypatch.setattr(cli, "SPIN_LISTING_LIMIT", 1 << 5)
    for fibers, e in (("2, " * 10 + "2", 6), ("2, 3, 4, 5/3, 7/4, 6", 3), ("2, 2, 2, 2, 2, 2", 4)):
        line = f"SFS(g=0; e={e}; {fibers})"
        listed = spin_report(normalize(parse_input(line)))
        code, out, _ = run(capsys, "mubar", line, "--json")
        (report,) = validate_json_lines(out, schema)
        if len(listed.subsets) > 1 << 5:
            assert code == 2, line
            assert report["spin_structure_count"] == len(listed.subsets), line
            assert report["mubar_zero_count"] == listed.values.count(0), line
        else:
            assert code == 0 and len(report["spin_structures"]) == len(listed.subsets), line


def test_batch_file_order_and_determinism(tmp_path, capsys):
    inputs = [
        "SFS(g=0; e=2; 3/2, 3, 3/2)",
        "SFS(g=0; e=2; 2, 3/2, 5/4)",
        "SFS(g=0; e=1; 4, 4, 12/5)",
    ]
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(inputs) + "\n")
    code1, out1, _ = run(capsys, "classify", "--file", str(f), "--json")
    code2, out2, _ = run(capsys, "classify", "--file", str(f), "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    reports = [json.loads(line) for line in out1.strip().splitlines()]
    assert [r["input"] for r in reports] == inputs
    assert [r["verdict"] for r in reports] == ["EMBEDS", "OBSTRUCTED", "EMBEDS"]


def test_lattice_json_contains_surjective_pair(capsys, schema):
    code, out, _ = run(capsys, "lattice", "SFS(g=0; e=2; 3/2, 3, 3/2)", "--json")
    assert code == 0
    rep = validate_json_lines(out, schema)[0]
    assert rep["surjective_pair"] is not None
    assert len(rep["embeddings"]) >= 1


def test_lattice_reports_only_normal_form_misses(capsys, monkeypatch):
    # an embedding out of the direct-double normal form has no induced
    # partition; any other error in ``induced_partition`` fails the line
    line = "SFS(g=0; e=2; 3/2, 3, 3/2)"

    def broken(a, s, graph):
        raise ValueError("broken induced partition")

    monkeypatch.setattr(cli, "induced_partition", broken)
    code, out, err = run(capsys, "lattice", line, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"input": line, "error": "broken induced partition"}


def test_lattice_e8_empty(capsys, schema):
    code, out, _ = run(capsys, "lattice", "SFS(g=0; e=2; 2, 3/2, 5/4)", "--json")
    assert code == 0
    rep = validate_json_lines(out, schema)[0]
    assert rep["embeddings"] == []
    assert rep["surjective_pair"] is None


def test_lattice_budget_report(capsys, schema):
    line = "SFS(g=0; e=2; 3/2, 3, 3/2)"
    code, out, _ = run(capsys, "lattice", line, "--budget", "50")
    assert code == 2
    assert out == (f"{line}: 1 embedding(s), 51 nodes "
                   "(budget exceeded: lattice_search: 51 nodes exceed the limit 50)\n")
    code, out, _ = run(capsys, "lattice", line, "--budget", "50", "--json")
    (report,) = validate_json_lines(out, schema)
    assert code == 2 and report["budget_exceeded"]
    assert report["budget"] == {"stage": "lattice_search", "counter": "nodes", "limit": 50, "value": 51}
    budget = report["budget"]
    code, out, _ = run(capsys, "lattice", line, "--json")
    (report,) = validate_json_lines(out, schema)
    assert code == 0 and "budget" not in report
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({**report, "budget": budget}, schema)


def test_lattice_long_arms(tmp_path, capsys):
    # a lens space of 520 vertices: rows are placed from an explicit stack
    # and its one embedding comes back
    line = "SFS(g=0; e=1; 520/519)"
    code, out, _ = run(capsys, "lattice", line)
    assert (code, out) == (0, f"{line}: 1 embedding(s), 405859 nodes\n")
    # past the depth of the coordinate walk a line is refused, by its vertex
    # count, and the batch goes on to its last line
    f = tmp_path / "batch.txt"
    f.write_text("SFS(g=0; e=1; 2)\nSFS(g=0; e=1; 1000/999)\nSFS(g=0; e=2; 3/2, 3, 3/2)\n")
    code, out, err = run(capsys, "lattice", "--file", str(f))
    assert code == 1
    assert out.splitlines()[-1] == "SFS(g=0; e=2; 3/2, 3, 3/2): 2 embedding(s), 85 nodes"
    assert err == ("error: 'SFS(g=0; e=1; 1000/999)': lattice search is limited to 800 vertices; "
                   "this graph has 1000\n")


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "SFS(g=0; e=1; 2)", "--frobnicate"])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_budget_flags_only_where_read(capsys):
    # --budget on the lattice search, --fiber-budget on the subcommands that
    # run the partition search; anywhere else a budget flag is unknown
    settable = set()
    for name in cli.COMMANDS:
        for flag in ("--budget", "--fiber-budget"):
            try:
                cli.build_parser().parse_args([name, "SFS(g=0; e=1; 2)", flag, "5"])
                settable.add((name, flag))
            except SystemExit as exc:
                assert exc.code == 1
                assert "unrecognized arguments" in capsys.readouterr().err
    assert settable == {("lattice", "--budget"), ("classify", "--fiber-budget"),
                        ("partitions", "--fiber-budget"), ("pretzel", "--fiber-budget")}


@pytest.mark.parametrize("name", ["SFS4_BUDGET", "SFS4_FIBER_BUDGET"])
def test_bad_budget_env_is_a_usage_error(monkeypatch, capsys, name):
    # from the environment and from the flag alike: a budget is a nonnegative
    # integer, read by a subcommand that has the flag
    command, flag = {"SFS4_BUDGET": ("lattice", "--budget"),
                     "SFS4_FIBER_BUDGET": ("classify", "--fiber-budget")}[name]
    for value in ("abc", "-5"):
        for from_env in (True, False):
            monkeypatch.delenv(name, raising=False)
            if from_env:
                monkeypatch.setenv(name, value)
            with pytest.raises(SystemExit) as info:
                main([command, "SFS(g=0; e=1; 2)"] + ([] if from_env else [flag, value]))
            assert info.value.code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"'{value}'" in err and err.count("\n") == 1
            assert flag in err and "exceed" not in err


def test_batch_keeps_results_before_a_bad_line(tmp_path, capsys, schema):
    # a bad middle line becomes an error record; the batch goes on and exits 1
    inputs = ["SFS(g=0; e=2; 3/2, 3, 3/2)", "SFS(g=0; e=2; 3/0)", "SFS(g=0; e=1; 2)"]
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(inputs) + "\n")
    code, out, err = run(capsys, "classify", "--file", str(f), "--json")
    assert code == 1
    reports = validate_json_lines(out, schema)
    assert [r["input"] for r in reports] == inputs
    assert [r.get("verdict") for r in reports] == ["EMBEDS", None, "EMBEDS"]
    assert set(reports[1]) == {"input", "error"} and "zero denominator" in reports[1]["error"]
    assert err == ""

    code, out, err = run(capsys, "classify", "--file", str(f))
    assert code == 1
    assert [ln.split(": ")[0] for ln in out.splitlines() if not ln.startswith(" ")] == [
        inputs[0], inputs[2]
    ]
    assert err.count("\n") == 1 and err.startswith("error:") and "3/0" in err


def test_batch_budget_exit_wins_over_a_bad_line(tmp_path, capsys):
    over = OVER_BUDGET
    f = tmp_path / "batch.txt"
    f.write_text(f"nonsense\n{over}\n")
    code, out, err = run(capsys, "classify", "--file", str(f))
    assert code == 2
    assert "BUDGET_EXCEEDED" in out and err.startswith("error:")


def test_batch_rejected_line_is_an_error_record(tmp_path, capsys, schema):
    # the line parses but the subcommand rejects it (eps = 0 has no partition search)
    f = tmp_path / "batch.txt"
    f.write_text("SFS(g=0; e=0; 3, -3)\nSFS(g=0; e=2; 3/2, 3, 3/2)\n")
    code, out, _ = run(capsys, "partitions", "--file", str(f), "--json")
    assert code == 1
    reports = validate_json_lines(out, schema)
    assert "eps > 0" in reports[0]["error"]
    assert reports[1]["status"] == "witness"


def test_wrong_input_kind(capsys):
    code, _, err = run(capsys, "homology", "P(3,-3,3)")
    assert code == 1
    assert "SFS" in err


def test_reduce_minimal_line_uses_the_space_text(capsys):
    code, out, _ = run(capsys, "reduce", "SFS(g=0; e=1;)")
    assert code == 0
    assert out.splitlines()[-1] == "  minimal: SFS(g=0; e=1;)"
    code, out, _ = run(capsys, "reduce", "SFS(g=0; e=3; 3/2, 3, 3/2, 3, 3/2)")
    assert code == 0
    assert out.splitlines()[-1] == "  minimal: SFS(g=0; e=1; 3/2)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["partitions", "SFS(g=0; e=0; 3, -3)"], "needs eps > 0"),
        (["lattice", "SFS(g=0; e=0; 3, -3)"], "needs eps > 0"),
        (["homology", "P(3,-3,3)"], "needs an SFS(...) input"),
        (["pretzel", "SFS(g=0; e=1; 2)"], "needs a P(...) input"),
        (["classify"], "no input given"),
        (["classify", "SFS(g=0; e=1; 2)", "--file", "-"], "not both"),
        (["lattice", "SFS(g=0; e=5; 2)"], "central weight incompatible"),
        (["classify", "--file", str(Path(__file__).parent / "data" / "no_such_input.txt")], "No such file"),
        (["classify", "P(3,-3,3)"], "needs an SFS(...) input"),
        (["partitions", "P(3,-3,3)"], "needs an SFS(...) input"),
        (["mubar", "P(3,-3,3)"], "needs an SFS(...) input"),
        (["plumbing", "P(3,-3,3)"], "needs an SFS(...) input"),
        (["lattice", "P(3,-3,3)"], "needs an SFS(...) input"),
        (["reduce", "P(3,-3,3)"], "needs an SFS(...) input"),
    ],
)
def test_non_parse_errors_name_no_position(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert message in err and "position" not in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_plumbing_of_a_long_arm_is_fast(capsys):
    # 1031 vertices; dense elimination of Q took about a minute, the closed
    # form eps * p_1 ... p_k takes microseconds.  The digest is the output
    # recorded when the determinant still came from elimination.
    start = time.perf_counter()
    code, out, err = run(capsys, "plumbing", "--json", "SFS(g=1; e=0; -1030, 1030)")
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "")
    assert json.loads(out)["determinant"] == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "59f7e9de11d103be82676c366f9af721100087f536acb1b37a59722e4bb6a5c6"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["mubar", "SFS(g=0; e=9; " + ", ".join(["2"] * 17) + ")"],  # 65536 lines
        ["classify", "SFS(g=0; e=1; 2)"],
    ],
)
def test_closed_stdout_exits_quietly(argv):
    # the reader is gone before the first line is written, as with ``| head -1``
    # once head has exited: exit 1, no traceback
    env = dict(os.environ, PYTHONPATH=str(Path(sfs4.__file__).resolve().parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sfs4.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_batch_streams_each_record_before_stdin_closes():
    # without PYTHONUNBUFFERED stdout is block-buffered on a pipe; the first
    # record must still arrive while stdin stays open
    env = dict(os.environ, PYTHONPATH=str(Path(sfs4.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "sfs4.cli", "classify", "--file", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    got = []
    reader = threading.Thread(target=lambda: got.append(proc.stdout.readline()), daemon=True)
    try:
        proc.stdin.write("SFS(g=0; e=1; 2)\n")
        proc.stdin.flush()
        reader.start()
        reader.join(timeout=30)
        assert got == ["SFS(g=0; e=1; 2): EMBEDS\n"], got
    finally:
        proc.stdin.close()
        proc.stdout.close()
        proc.stderr.close()
        proc.wait(timeout=60)
    assert proc.returncode == 0
