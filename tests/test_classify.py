import ast
import gc
import importlib
import inspect
import math
import os
import pkgutil
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import sfs4
from sfs4 import cli
from sfs4.classify import (
    BUDGET_EXCEEDED,
    CITED_FACTS,
    EMBEDS,
    OBSTRUCTED,
    UNKNOWN,
    Certificate,
    EpsZeroPairing,
    PairingImbalance,
    TraceStep,
    _contraction_certificate,
    classify,
    eps_zero_pairing,
    replay_certificate,
)
from sfs4.homology import h1_formula, is_direct_double
from sfs4.mubar import mubar_embedding_conditions, partition_even_conditions
from sfs4.partitions import (
    FamilyMatch,
    PartitionPair,
    bound_e,
    is_partitionable,
    match_theorem_families,
)
from sfs4.seifert import Budget, SeifertData, StandardForm, expand, normalize
from tests.oracles import (
    breadth_first_certificate,
    euler,
    labelled_partitions,
    paired_corpus,
    seifert_data,
    sfs,
    spin_survivors,
    values,
)
from tests.test_homology import random_seifert
from tests.test_partitions import oracle_corpus

F = Fraction


def test_eps_zero_pairing_examples():
    p = eps_zero_pairing(normalize(sfs(0, 0, 3, -3, 2, -2)))
    assert isinstance(p, EpsZeroPairing)
    assert p.disk_fibers == ((3, 1), (2, 1))  # reciprocal classes 1/3, 1/2

    with pytest.raises(ValueError):  # eps = 1/2 after normalization
        eps_zero_pairing(normalize(sfs(0, 0, 3, -3, 2)))

    p2 = eps_zero_pairing(normalize(sfs(0, 0, 4, -4, F(12, 5), F(-12, 5))))
    assert isinstance(p2, EpsZeroPairing)
    assert p2.disk_fibers == ((4, 1), (12, 5))

    # integral reciprocal sum but no complement partners
    bad = eps_zero_pairing(StandardForm(0, 1, ((5, 1),) * 5))
    assert isinstance(bad, PairingImbalance)
    assert bad.value == (1, 5) and bad.count == 5 and bad.complement_count == 0


def test_eps_zero_pairing_standard_form_input():
    # the pairing is presentation independent: standard form fibers pair
    # through complements
    std = normalize(sfs(0, 0, 3, -3, 2, -2))
    p = eps_zero_pairing(std)
    assert isinstance(p, EpsZeroPairing)
    assert sorted(p.disk_fibers) == [(2, 1), (3, 1)]


def test_golden_verdicts():
    v1 = classify(sfs(0, 0, -3, 3, -3))
    assert v1.tag == EMBEDS
    assert v1.certificate.kind == "expansion"
    assert v1.certificate.base_fibers == ((3, 2),)
    assert len(v1.certificate.expansions) == 1

    v2 = classify(sfs(0, 2, 2, F(3, 2), F(5, 4)))
    assert v2.tag == OBSTRUCTED
    assert v2.obstruction.name == "not_partitionable"

    v3 = classify(sfs(0, 1, 4, 4, F(12, 5)))
    assert v3.tag == EMBEDS
    assert v3.certificate.rule == "known_embedding_4_4_12_5"

    v4 = classify(sfs(0, 2, 3, F(5, 3), 15, F(15, 14)))
    assert v4.tag == UNKNOWN
    assert all(t.result != "fail" for t in v4.trace if t.test != "contraction")

    v5 = classify(sfs(2, 2, F(3, 2), 3, F(3, 2)))
    assert v5.tag == EMBEDS
    assert v5.certificate.genus_bumps == 2


def test_eps_zero_branch_rules():
    assert classify(sfs(0, 0, 3, -3, 5, -5)).tag == EMBEDS
    assert classify(sfs(0, 0, 2, -2, 3, -3)).tag == EMBEDS
    v = classify(sfs(0, 0, 4, -4, F(12, 5), F(-12, 5)))
    assert v.tag == EMBEDS
    assert v.certificate.rule == "eps_zero_known_disk"
    v2 = classify(sfs(0, 0, 4, -4, 6, -6))
    assert v2.tag == OBSTRUCTED
    assert v2.obstruction.name == "furuta_ten_eighths"
    # a = b even: duplicated pair of an embeddable space
    v3 = classify(sfs(0, 0, 4, -4, 4, -4))
    assert v3.tag == EMBEDS
    # >= 2 distinct even classes outside the known shapes
    v4 = classify(sfs(0, 0, 4, -4, 6, -6, 3, -3))
    assert v4.tag == UNKNOWN


def test_eps_zero_unpaired_obstructed():
    # beta sum = 1/2 + 1/2 + 1/3 + 1/3 + 1/3 = 2 = e, so eps = 0, but the
    # three 1/3-fibers cannot match complements
    v = classify(sfs(0, 2, 2, 2, 3, 3, 3))
    assert v.tag == OBSTRUCTED
    assert v.obstruction.name == "unpaired_fibers"


def test_k0_cases():
    assert classify(sfs(0, 1)).tag == EMBEDS
    assert classify(sfs(0, -1)).tag == EMBEDS  # normalizes to e = 1 reversed
    assert classify(sfs(0, 0)).tag == UNKNOWN
    assert classify(sfs(1, 1)).tag == UNKNOWN
    # |e| >= 2: tor H1 = Z/|e| is not a direct double (Hantzsche), at any genus
    for g, e, h1 in ((0, 3, "Z/3"), (0, -2, "Z/2"), (1, 2, "Z^2 + Z/2")):
        v = classify(sfs(g, e))
        assert v.tag == OBSTRUCTED and v.obstruction.name == "torsion_not_direct_double", (g, e)
        assert v.trace[-1] == TraceStep("direct_double", "fail", f"tor H1 = {h1}"), (g, e)


def test_k0_regular_fiber_fold():
    # fibers with integer reciprocals fold away entirely
    assert classify(sfs(0, 2, 1, F(1, 1))).tag == UNKNOWN  # folds to SFS(g=0;e=0;)


def test_half_weight_bound_obstruction():
    v = classify(sfs(0, 3, 2, 2, F(3, 2)))
    assert v.tag == OBSTRUCTED
    assert v.obstruction.name in ("torsion_not_direct_double", "central_weight_bound")


def test_direct_double_obstruction():
    v = classify(sfs(0, 0, 3, -3, 5))
    assert v.tag == OBSTRUCTED
    assert v.obstruction.name == "torsion_not_direct_double"
    assert "Z/9" in v.obstruction.detail


def test_ceiling_bound_obstruction():
    v = classify(sfs(0, 2, 2, F(5, 2), 10, F(10, 9)))
    assert v.tag == OBSTRUCTED
    assert v.obstruction.name == "spin_partition_conditions"


def test_z2_bound_obstruction():
    # partitionable (single class summing to 1 - 1/8) with a direct double,
    # but five even multiplicities force dim H^1(Y;Z2) = 4 > 2e = 2
    v = classify(sfs(0, 1, 4, 4, 8, 8, 8))
    assert v.tag == OBSTRUCTED
    assert v.obstruction.name == "z2_cohomology_bound"


def test_budget_exceeded():
    # the half-pair {2, 3} with fourteen fibers 2: k = 16 at 2e = k, so the
    # labelled search runs, and k is over the default budget 14
    s = SeifertData(0, 8, tuple([F(2), F(3)] + [F(2)] * 14))
    v = classify(s)
    assert v.tag == BUDGET_EXCEEDED
    assert v.trace[-1] == TraceStep("partitionable", "budget", "k = 16 exceeds budget 14")
    assert v.budget == Budget("partition_search", "fibers", 14, 16)
    assert v.to_dict()["budget"] == v.budget._asdict()
    # a verdict the budget did not stop has no budget, nor a budget key
    done = classify(s, fiber_budget=16)
    assert done.budget is None and "budget" not in done.to_dict()


def test_half_plus_past_the_budget_is_counted():
    # at 2e = k + 1 the partitions are counted, not listed, so the fiber
    # budget does not apply: SFS(g=0; e=(k+1)/2; 2 x k) embeds for k = 15..31
    for k in range(15, 32, 2):
        start = time.perf_counter()
        v = classify(SeifertData(0, (k + 1) // 2, tuple([F(2)] * k)))
        assert time.perf_counter() - start < 1, k
        assert v.tag == EMBEDS, k
        assert v.certificate.base_fibers == ((2, 1),), k
    # for a >= 3 the weights are 1 and L - 1, and the walk for the witness's
    # P2 follows the fiber order: shuffled half-plus spaces of a in {3, 5}
    rng = random.Random(1531)
    for a in (3, 5):
        for k in range(25, 32, 2):
            e = (k + 1) // 2
            fibers = [F(a, a - 1)] + [F(a), F(a, a - 1)] * (e - 1)
            for _ in range(4):
                rng.shuffle(fibers)
                start = time.perf_counter()
                v = classify(SeifertData(0, e, tuple(fibers)))
                assert time.perf_counter() - start < 1, (a, k, fibers)
                assert v.tag == EMBEDS, (a, k, fibers)
                assert v.certificate.base_fibers == ((a, a - 1),), (a, k)


def test_certificates_replay():
    cases = [
        sfs(0, 0, -3, 3, -3),
        sfs(0, 1, 4, 4, F(12, 5)),
        sfs(2, 2, F(3, 2), 3, F(3, 2)),
        sfs(0, 2, 2, F(5, 2), 2, 2),
        sfs(0, 0, 4, -4, F(12, 5), F(-12, 5)),
        sfs(0, 1),
    ]
    for s in cases:
        v = classify(s)
        assert v.tag == EMBEDS, s
        assert replay_certificate(v.certificate, v.standard_form), s


def test_replay_refuses_a_base_fiber_not_in_lowest_terms():
    # the replay builds the base as a ``StandardForm``, which takes standard
    # pairs as they are: (6, 4) is refused, not read as (3, 2)
    v = classify(sfs(0, 2, F(3, 2), 3, F(3, 2)))
    assert v.certificate.base_fibers == ((3, 2),)
    assert replay_certificate(v.certificate, v.standard_form)
    with pytest.raises(ValueError, match=r"\(6, 4\)"):
        replay_certificate(v.certificate._replace(base_fibers=((6, 4),)), v.standard_form)


def test_a_standard_form_classifies_as_its_seifert_data():
    # ``normalize`` returns a standard form with orientation_reversed False,
    # so classify needs no separate branch for one
    rng = random.Random(2727)
    spaces = [normalize(random_seifert(rng, gmax=1, kmax=6, pmax=12)) for _ in range(200)]
    spaces += oracle_corpus()[::4] + paired_corpus(count=60)
    reversed_ = 0
    for s in spaces:
        if rng.random() < 0.5:
            s = StandardForm(s.genus, s.central, s.fibers, not s.orientation_reversed)
        reversed_ += s.orientation_reversed
        assert classify(s) == classify(seifert_data(s)), s
    assert reversed_ > 50


def test_cited_eps_zero_rules_replay_only_at_eps_zero():
    # SFS(g=0; e=2; 3, 3/2) has eps = 1 and is OBSTRUCTED, though its fibers
    # pair; the reciprocals of the second space do not sum to an integer
    pairs_up, unpaired = StandardForm(0, 2, ((3, 1), (3, 2))), StandardForm(0, 2, ((5, 1), (5, 4), (3, 1)))
    assert classify(pairs_up).tag == OBSTRUCTED
    for rule in ("eps_zero_all_odd", "eps_zero_one_even", "eps_zero_known_disk"):
        for target in (pairs_up, unpaired):
            assert target.eps_num and replay_certificate(Certificate("cited", rule), target) is False
    assert replay_certificate(Certificate("cited", "eps_zero_all_odd"), StandardForm(0, 1, ((3, 1), (3, 2))))


def _walk_corpus(rng, count):
    """Seeded eps > 0 spaces, many with repeated value pairs and runs of 2s.

    Each is a genus 0 or 1 expansion, 0 to 5 times, of an e = 1 base known to
    embed or of a random base with eps > 0, fibers shuffled.
    """
    palette = [(p, q) for p in range(2, 10) for q in range(1, p) if math.gcd(p, q) == 1]
    bases = [(1, ((a, a - 1),)) for a in range(2, 8)] + [(1, ((4, 1), (4, 1), (12, 5)))]
    bases += [(1, (u, v)) for u in palette for v in palette if u[1] * v[0] + v[1] * u[0] == u[0] * v[0] - 1]
    spaces = []
    while len(spaces) < count:
        if rng.random() < 0.6:
            central, fibers = rng.choice(bases)
        else:
            fibers = tuple(rng.choice(palette[:3]) for _ in range(rng.randint(1, 3)))
            central = math.floor(sum(F(q, p) for p, q in fibers)) + 1
        s = StandardForm(0, central, fibers)
        for _ in range(rng.randint(0, 5)):
            twos = [j for j, r in enumerate(s.fibers, start=1) if r == (2, 1)]
            s = expand(s, rng.choice(twos) if twos and rng.random() < 0.4 else rng.randint(1, s.fiber_count))
        fibers = list(s.fibers)
        rng.shuffle(fibers)
        spaces.append(StandardForm(rng.randint(0, 1), s.central, tuple(fibers)))
    return spaces


def test_contraction_walk_certifies_as_the_breadth_first_search():
    pool = Path(__file__).resolve().parent.parent / "bench" / "data" / "deep_chain.tsv"
    lines = [row.rstrip("\n").split("\t")[1] for row in pool.read_text().splitlines()]
    spaces = _walk_corpus(random.Random(2020), 2000) + [normalize(cli.parse_input(t)) for t in lines]
    certified = 0
    for s in spaces:
        assert s.eps_num > 0, s
        cert = _contraction_certificate(s)
        assert cert == breadth_first_certificate(s), s
        if cert is not None:
            assert replay_certificate(cert, s), s
            certified += 1
    assert len(spaces) >= 2000 + 984 and certified >= 300, (len(spaces), certified)


def test_orientation_insensitive():
    rng = random.Random(77)
    for _ in range(60):
        s = random_seifert(rng, gmax=1, kmax=5, pmax=9)
        rev = SeifertData(s.genus, -s.central, tuple(-r for r in values(s)))
        assert classify(s).tag == classify(rev).tag, s


def test_monotone_under_expansion():
    rng = random.Random(1234)
    checked = 0
    for _ in range(300):
        s = normalize(random_seifert(rng, gmax=1, kmax=4, pmax=7))
        if s.fiber_count == 0:
            continue
        v = classify(seifert_data(s))
        if v.tag != EMBEDS:
            continue
        checked += 1
        for j in range(1, s.fiber_count + 1):
            bigger = expand(s, j)
            assert classify(seifert_data(bigger)).tag == EMBEDS, (s, j)
        if checked >= 8:
            break
    assert checked > 0


def test_half_plus_decides_the_top_central_weight():
    # at 2e = k + 1 the paper's classification is complete: the half-plus
    # family embeds and every other space is obstructed, never UNKNOWN
    kinds = {}
    half_plus = 0
    for s in paired_corpus():
        verdict = classify(s)
        match = match_theorem_families(verdict.standard_form)
        is_half_plus = match is not None and match.family == "half-plus"
        assert is_half_plus == (verdict.tag == EMBEDS), (s, verdict.tag)
        assert verdict.tag in (EMBEDS, OBSTRUCTED), (s, verdict.tag)
        half_plus += is_half_plus
        if verdict.obstruction is not None:
            name = verdict.obstruction.name
            kinds[name] = kinds.get(name, 0) + 1
    assert half_plus > 100
    assert set(kinds) == {"not_partitionable", "torsion_not_direct_double"}, kinds
    assert min(kinds.values()) > 50, kinds


# `sfs4 classify` on the a = 2 half-plus member at k = 13, as the labelled
# search printed it in about 2.9 s
_HALF_PLUS_2_13 = """\
SFS(g=0; e=7; 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2): EMBEDS
  certificate: s3_one_exceptional
  [info] normalize: SFS(g=0; e=7; 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2); eps = 1/2
  [info] h1: Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2
  [pass] direct_double: tor H1 = Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2
  [pass] central_weight_bound: e = 7, k = 13
  [pass] partitionable: P1 = ((1,), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13)), \
P2 = ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12), (13,))
  [pass] z2_cohomology_bound: dim = 12 <= 2e = 14
  [pass] mubar_zero_count: 1716 mu-bar zeros >= 64
  [pass] spin_partition_conditions: 135135/135135 partitions survive; surviving pair exists
  [pass] contraction: base SFS(g=0; e=1; 2) via 6 expansions, 0 genus bumps
"""


def test_half_plus_at_k_13_classifies_fast(capsys):
    line = "SFS(g=0; e=7; " + ", ".join(["2"] * 13) + ")"
    start = time.perf_counter()
    verdict = classify(SeifertData(0, 7, (F(2),) * 13))
    assert time.perf_counter() - start < 0.5
    assert verdict.tag == EMBEDS
    assert cli.main(["classify", line]) == 0
    assert capsys.readouterr().out == _HALF_PLUS_2_13


def test_embeds_never_obstructed_audit():
    # no EMBEDS verdict may fail any implemented obstruction
    rng = random.Random(4321)
    audited = 0
    for _ in range(400):
        s = normalize(random_seifert(rng, gmax=1, kmax=5, pmax=9))
        v = classify(seifert_data(s))
        if v.tag != EMBEDS:
            continue
        audited += 1
        eps = euler(s)
        assert is_direct_double(h1_formula(s))
        if eps > 0 and s.fiber_count:
            assert bound_e(s).result == "pass"
            assert is_partitionable(s).is_witness
            if s.genus == 0:
                assert not any(c.result == "fail" for c in mubar_embedding_conditions(s)), s
                if any(p % 2 == 0 for p in s.multiplicities):
                    witness = is_partitionable(s).witness
                    for part in (witness.p1, witness.p2):
                        assert not any(c.result == "fail" for c in partition_even_conditions(s, part)), s
    assert audited > 3


def test_trace_is_complete_for_unknown():
    v = classify(sfs(0, 2, 3, F(5, 3), 15, F(15, 14)))
    names = [t.test for t in v.trace]
    assert "direct_double" in names
    assert "central_weight_bound" in names
    assert "partitionable" in names
    assert "contraction" in names


# Each snippet must fail with AssertionError even under ``python -O``, which
# strips bare ``assert`` statements.
_OPTIMIZED_CHECKS = {
    "certificate_replay": """
import importlib
c = importlib.import_module("sfs4.classify")  # the package rebinds the name to the function
c.replay_certificate = lambda cert, target: False
c.classify(c.SeifertData(0, 2, (F(3, 2), F(3), F(3, 2))))
""",
    "partition_pair_sum_law": """
from sfs4.partitions import PartitionPair
from sfs4.seifert import StandardForm
s = StandardForm(0, 2, ((3, 2), (3, 1), (3, 2)))
PartitionPair(((1, 2, 3),), ((1, 2), (3,)), (1, 2, 3), (3,)).validate(s)
""",
    "partition_pair_validate": """
from sfs4.partitions import PartitionPair
from sfs4.seifert import StandardForm
s = StandardForm(0, 2, ((3, 2), (3, 1), (3, 2)))
PartitionPair(((1, 2), (3,)), ((1, 2), (3,)), (3,), (3,)).validate(s)
""",
    "spin_count": """
import sfs4.mubar as m
from sfs4.seifert import StandardForm
m.dim_h1_z2 = lambda s: 1
m.spin_report(StandardForm(0, 2, ((2, 1), (3, 2), (5, 4))))
""",
    "spin_count_dp": """
import sfs4.mubar as m
from sfs4.seifert import StandardForm
m.dim_h1_z2 = lambda s: 1
m.mubar_embedding_conditions(StandardForm(0, 2, ((2, 1), (3, 2), (5, 4))))
""",
}


@pytest.mark.parametrize("name", sorted(_OPTIMIZED_CHECKS))
def test_checks_survive_python_O(name):
    code = (
        "from fractions import Fraction as F\n"
        "if __debug__:\n    raise SystemExit('not running under -O')\n"
        + _OPTIMIZED_CHECKS[name]
    )
    src = str(Path(sfs4.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.strip().splitlines()[-1].startswith("AssertionError"), done.stderr


def _package_nodes():
    """(module file name, node) for every ast node of every sfs4 module."""
    paths = sorted(Path(sfs4.__file__).resolve().parent.glob("*.py"))
    assert len(paths) > 10
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_no_bare_assert_in_the_package():
    # a check in sfs4 raises, so it holds under ``python -O`` as well
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes() if isinstance(node, ast.Assert)]
    assert not found, found


# Routines that only tests reach live in tests/oracles.py; dead surface is gone.
_OUT_OF_THE_PACKAGE = (
    "_solve_mod2", "characteristic_subsets", "mubar", "chain_characteristic_subsets",
    "arm_construction_subsets", "ConditionReport",
    "ExpansionStructure", "expansion_structure", "_comp_pairs", "_renumber",
    "_contract_by_pair", "_contract_by_singletons",
    "MontesinosNormal", "QAObstructionReport", "qa_montesinos_obstruction",
    "p_primary", "padic_valuation", "Rational", "ONE", "invariant_factors",
    "leading_principal_minors", "dense_enumerate_embeddings",
    "enumerate_embeddings", "StarStructure",
    "labelled_partitions", "_place", "first_union_pair", "canonical_partition",
    "_spin_survivors", "_paired_count", "_paired_partitions", "_paired_union_pair",
    "partition_sum_law", "PartitionLawResult", "breadth_first_certificate",
    "NOT_A_PARTITION", "EPS_NOT_POSITIVE", "CLASS_SUM_EXCEEDS_ONE", "TOO_MANY_CLASSES",
    "CLASS_COUNT_MISMATCH", "STRICT_CLASS_COUNT", "DEFICIT_MISMATCH", "GCD_NOT_ONE",
    "OrientedCover", "oriented_cover", "doubly_slice_verdict", "_spin_filtered_pair_search",
    "copy_matrix",
)


def test_package_keeps_only_what_a_command_reaches():
    modules = [sfs4] + [
        importlib.import_module(f"sfs4.{m.name}") for m in pkgutil.iter_modules(sfs4.__path__)
    ]
    assert len(modules) > 10
    found = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in _OUT_OF_THE_PACKAGE
        # the package's ``mubar`` attribute is the submodule, not the dense routine
        if hasattr(module, name) and not inspect.ismodule(getattr(module, name))
    ]
    assert not found, found
    assert not hasattr(FamilyMatch, "embeds") and not hasattr(PartitionPair, "classes")
    assert "eps_zero_int_pair_even_odd" not in CITED_FACTS
    assert list(inspect.signature(mubar_embedding_conditions).parameters) == ["s"]
    assert list(inspect.signature(eps_zero_pairing).parameters) == ["s"]
    # methods that only tests called
    from sfs4.homology import AbelianGroup
    from sfs4.lattice import LatticeEmbedding, embeddings_for
    from sfs4.mubar import MubarReport
    from sfs4.plumbing import IntersectionForm
    from sfs4.pretzel import OddPretzel

    for cls, name in (
        (AbelianGroup, "is_trivial"), (AbelianGroup, "torsion_order"),
        (LatticeEmbedding, "preserves"),
        (IntersectionForm, "norm"), (IntersectionForm, "pairing"), (MubarReport, "zero_count"),
        (IntersectionForm, "det"), (LatticeEmbedding, "canonical"), (OddPretzel, "strand_count"),
    ):
        assert not hasattr(cls, name), (cls, name)
    assert list(inspect.signature(embeddings_for).parameters) == ["graph", "budget"]
    # the contraction certificate is one walk, not a breadth-first search
    assert not hasattr(importlib.import_module("sfs4.classify"), "deque")


def test_importing_the_package_loads_no_dataclass_machinery():
    # importing is most of a one-line command's time: ``dataclasses`` brings
    # ``inspect``, ``ast`` and ``dis`` with it, and only ``Verdict.epsilon``
    # reads ``fractions``.  The files are listed with pathlib, as
    # ``pkgutil.iter_modules`` loads ``inspect`` itself.
    package = Path(sfs4.__file__).resolve().parent
    names = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert len(names) > 10
    code = (
        "import importlib, sys\nimport sfs4\n"
        f"for name in {names!r}:\n    importlib.import_module('sfs4.' + name)\n"
        "print([m for m in ('dataclasses', 'inspect', 'fractions') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0 and done.stdout.strip() == "[]", done.stdout + done.stderr


def test_no_package_module_imports_dataclasses():
    found = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert not found, found


def test_readme_library_examples():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = [b.split("\n", 1)[1] for b in library.split("```")[1::2] if b.startswith("python")]
    assert len(blocks) == 2
    space, knot = {}, {}
    exec(blocks[0], space)
    exec(blocks[1], knot)
    v, d = space["v"], knot["d"]
    assert v.tag == "EMBEDS" and v.epsilon == Fraction(1, 3) and type(v.epsilon) is Fraction
    assert v.certificate.base_fibers == ((3, 2),) and v.certificate.expansions == ((3, 2),)
    assert d.verdict == "DOUBLY_SLICE_UP_TO_MUTATION" and (d.parameter, d.mubar) == (3, 0)


def test_only_seifert_computes_the_euler_invariant():
    # a space sets eps once, when it is built; every other layer reads ``.eps_num``
    found = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if name != "seifert.py"
        and isinstance(node, ast.Call)
        and "euler_invariant" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not found, found


def _fraction_constructions(run):
    """How many ``Fraction`` objects ``run()`` builds, counted by a profile hook."""
    import fractions

    made = [0]

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == fractions.__file__ and code.co_name in (
            "__new__", "_from_coprime_ints"
        ):
            made[0] += 1

    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return made[0], result


def test_no_fraction_on_the_classify_and_pretzel_paths():
    # fibers are integer pairs and eps an integer over L, from the parsed line
    # through normalize, the partition and spin stages, the contraction search
    # and the certificate replay
    from itertools import combinations_with_replacement

    from sfs4.pretzel import OddPretzel, doubly_slice_classify

    assert _fraction_constructions(lambda: Fraction(3, 2))[0] >= 1
    rng = random.Random(1212)
    lines = [str(random_seifert(rng, gmax=1, kmax=6, pmax=12)) for _ in range(300)]
    lines += [str(s) for s in paired_corpus(count=100) + oracle_corpus()[:100]]
    tags = set()
    for line in lines:
        made, v = _fraction_constructions(lambda: classify(cli.parse_input(line)))
        assert made == 0, line
        tags.add(v.tag)
        if v.certificate and v.certificate.kind == "expansion":
            made, ok = _fraction_constructions(
                lambda: replay_certificate(v.certificate, v.standard_form)
            )
            assert ok and made == 0, line
    assert tags == {EMBEDS, OBSTRUCTED, UNKNOWN}
    odd = [c for c in range(-9, 10) if c % 2]
    knots = [s for k in (3, 5) for s in combinations_with_replacement(odd, k)][::7]
    for strands in knots:
        k = OddPretzel(rng.sample(strands, len(strands)))
        assert _fraction_constructions(lambda: doubly_slice_classify(k))[0] == 0, strands


def test_spin_filter_matches_partition_even_conditions():
    kept = dropped = 0
    for s in oracle_corpus():
        if all(p % 2 for p in s.multiplicities):
            continue
        parts = labelled_partitions(s)
        expected = [
            p for p in parts if not any(c.result == "fail" for c in partition_even_conditions(s, p))
        ]
        assert spin_survivors(s, parts) == expected, s
        kept += len(expected)
        dropped += len(parts) - len(expected)
    assert kept > 100 and dropped > 100


def test_classify_leaves_no_reference_cycles():
    # garbage in cycles waits for the collector, so it shows in peak memory
    data = sfs(0, 7, *([F(4, 3)] + [4, F(4, 3)] * 6))
    gc.collect()
    gc.disable()
    try:
        verdict = classify(data)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert verdict.tag == EMBEDS
