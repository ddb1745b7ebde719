"""Three-valued classification of Seifert fibered spaces against the 4-sphere.

``classify`` normalizes its input and runs the obstruction chain cheapest
first (torsion direct double, the central-weight bound, the partition search,
then the spin conditions for base S^2), then the constructive side.  The spin
stage checks the global mu-bar conditions, then, when some multiplicity is
even, keeps the sum-condition partitions that pass the even-multiplicity
rules (``_spin_survivor_count``); it obstructs only when no pair of them
meets the union condition.  Each stage makes its own ``seifert.TraceStep``,
and the trace is those steps in order.  The constructive side is the
contraction walk of ``sfs4 reduce`` (``seifert.contraction_walk``), which
removes complementary fiber pairs down to the one minimal form.  Every
order of contractions ends there, so an expansion certificate exists exactly
when that form is a recognized base known to embed.  Verdicts carry
machine-checkable certificates:

* EMBEDS: a base space, a genus bump count and an expansion sequence whose
  replay reproduces the input, or a cited-fact rule for the eps = 0 families
  and the sporadic known embedding;
* OBSTRUCTED: the violated condition along with its witness;
* UNKNOWN: every implemented test passed and no certificate was found; the
  full trace is attached.

Cited facts (results used, not re-proved, by this package) are kept in a
declarative table separate from the conditions the other modules establish
computationally.
"""

from __future__ import annotations

from typing import NamedTuple

from .homology import AbelianGroup, h1_formula, is_direct_double
from .mubar import class_spin_facts, mubar_embedding_conditions
from .partitions import DEFAULT_FIBER_BUDGET, bound_e, is_partitionable, least_partner
from .rationals import format_rational
from .seifert import (
    Budget,
    SeifertData,
    StandardForm,
    TraceStep,
    contraction_walk,
    expand,
    format_sfs,
    normalize,
)

EMBEDS = "EMBEDS"
OBSTRUCTED = "OBSTRUCTED"
UNKNOWN = "UNKNOWN"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"

# Facts imported from the literature rather than established by this package.
CITED_FACTS = {
    "s3_empty": "With no exceptional fibers and central weight 1 over S^2 the space is the 3-sphere, which embeds.",
    "s3_one_exceptional": "S^2(1; a/(a-1)) is a Seifert structure on the 3-sphere for every integer a >= 2.",
    "s3_two_exceptional": "S^2(1; p/q, r/s) with q/p + s/r = 1 - 1/(pr) is a lens space with trivial first homology, hence the 3-sphere.",
    "known_embedding_4_4_12_5": "S^2(1; 4, 4, 12/5) embeds smoothly in the 4-sphere.",
    "eps_zero_all_odd": "A doubled disk space whose pair multiplicities are all odd embeds smoothly (2-twist-spin fiber construction).",
    "eps_zero_one_even": "A doubled disk space with at most one even pair multiplicity embeds smoothly.",
    "eps_zero_known_disk": "Pairs drawn from {4, 12/5} double a disk piece of the known embedding of S^2(1; 4, 4, 12/5).",
    "furuta_ten_eighths": "S^2(0; a, -a, b, -b) with a, b both even and a != b does not embed smoothly, by the 10/8 bound.",
    "expansion_embeds": "Expanding a fiber into a complementary pair keeps the space embedded (it embeds in Y x [0,1]).",
    "genus_bump_embeds": "Raising the base genus of a smoothly embedded Seifert fibered space keeps it embedded.",
}


class Obstruction(NamedTuple):
    name: str
    detail: str


class Certificate(NamedTuple):
    """Replayable evidence for EMBEDS.

    kind "expansion": start from the genus-0 ``base`` (itself covered by the
    cited rule ``rule``), raise the genus ``genus_bumps`` times, then expand
    the recorded fiber values in order; the result must equal the normalized
    input up to fiber permutation.  kind "cited": the rule's hypothesis is
    re-checked directly against the normalized input.
    """

    kind: str  # "expansion" | "cited"
    rule: str
    base_central: int = 0
    base_fibers: tuple[tuple[int, int], ...] = ()  # fiber pairs (p, q)
    genus_bumps: int = 0
    expansions: tuple[tuple[int, int], ...] = ()
    pairing: tuple[tuple[int, int], ...] = ()

    def to_dict(self):
        return {
            "kind": self.kind,
            "rule": self.rule,
            "statement": CITED_FACTS[self.rule],
            "base": {
                "central": self.base_central,
                "fibers": [format_rational(r) for r in self.base_fibers],
            },
            "genus_bumps": self.genus_bumps,
            "expansions": [format_rational(r) for r in self.expansions],
            "pairing": self.pairing,
        }


class Verdict(NamedTuple):
    tag: str
    standard_form: StandardForm
    h1: AbelianGroup
    certificate: Certificate | None = None
    obstruction: Obstruction | None = None
    trace: tuple[TraceStep, ...] = ()
    budget: Budget | None = None  # the stage's record, with BUDGET_EXCEEDED

    @property
    def epsilon(self) -> Fraction:
        from fractions import Fraction  # this property is the package's only Fraction

        return Fraction(self.standard_form.eps_num, self.standard_form.lcm)

    def to_dict(self):
        report = {
            "standard_form": self.standard_form.to_dict(),
            "epsilon": format_rational((self.standard_form.eps_num, self.standard_form.lcm)),
            "h1": self.h1.to_dict(),
            "verdict": self.tag,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "obstruction": self.obstruction._asdict() if self.obstruction else None,
            "trace": [t.to_dict() for t in self.trace],
        }
        if self.budget is not None:
            report["budget"] = self.budget._asdict()
        return report


# ---------------------------------------------------------------------------
# eps = 0: complementary pairing and the sufficiency/obstruction rules


class EpsZeroPairing(NamedTuple):
    pairs: tuple[tuple[int, int], ...]       # 1-based indices into the fibers
    disk_fibers: tuple[tuple[int, int], ...]  # one representative > 1 per pair


class PairingImbalance(NamedTuple):
    value: tuple[int, int]  # the reciprocal class, as a pair
    count: int
    complement_count: int

    def describe(self) -> str:
        return (
            f"reciprocal class {format_rational(self.value)} occurs {self.count} times but its "
            f"complement occurs {self.complement_count} times"
        )


def eps_zero_pairing(s: StandardForm) -> EpsZeroPairing | PairingImbalance:
    """Match the fibers of a standard form with eps = 0 into complementary pairs.

    Two fibers pair when their reciprocals sum to 1, so fiber (p, q) pairs
    with (p, p - q).  Returns the pairing with one representative per pair
    (the member with reciprocal <= 1/2), or the first imbalance.
    """
    if s.eps_num:
        raise ValueError(f"pairing applies to eps = 0, not {format_rational((s.eps_num, s.lcm))}")
    groups: dict[tuple[int, int], list[int]] = {}  # fiber value -> its indices
    for i, r in enumerate(s.fibers, start=1):
        groups.setdefault(r, []).append(i)
    pairs = []
    reps = []
    for r in sorted(groups, key=lambda r: r[1] * (s.lcm // r[0])):  # reciprocal ascending
        p, q = r
        if 2 * q > p:
            continue
        mine = groups[r]
        if 2 * q == p:  # r = 2
            if len(mine) % 2:
                return PairingImbalance((q, p), len(mine), len(mine))
            for x, y in zip(mine[0::2], mine[1::2]):
                pairs.append((x, y))
                reps.append(r)
            continue
        other = groups.get((p, p - q), [])
        if len(mine) != len(other):
            return PairingImbalance((q, p), len(mine), len(other))
        for x, y in zip(mine, other):
            pairs.append((x, y))
            reps.append(r)
    return EpsZeroPairing(tuple(pairs), tuple(reps))


def _eps_zero_branch(std: StandardForm, trace: list[TraceStep]):
    pairing = eps_zero_pairing(std)
    if isinstance(pairing, PairingImbalance):
        trace.append(TraceStep("eps_zero_pairing", "fail", pairing.describe()))
        return OBSTRUCTED, None, Obstruction("unpaired_fibers", pairing.describe())
    trace.append(
        TraceStep(
            "eps_zero_pairing",
            "pass",
            "pairs " + ", ".join(format_rational(r) for r in pairing.disk_fibers),
        )
    )
    # the distinct representatives, increasing: disk_fibers has reciprocals ascending
    support = tuple(dict.fromkeys(reversed(pairing.disk_fibers)))
    even_support = [r for r in support if r[0] % 2 == 0]

    def cert(rule):
        return Certificate(kind="cited", rule=rule, pairing=pairing.pairs,
                           base_fibers=support)

    if not even_support:
        trace.append(TraceStep("eps_zero_all_odd", "pass", "all pair multiplicities odd"))
        return EMBEDS, cert("eps_zero_all_odd"), None
    trace.append(TraceStep("eps_zero_all_odd", "fail", "even multiplicity present"))
    if len(even_support) == 1:
        only = format_rational(even_support[0])
        trace.append(TraceStep("eps_zero_one_even", "pass", f"single even class {only}"))
        return EMBEDS, cert("eps_zero_one_even"), None
    trace.append(TraceStep("eps_zero_one_even", "fail", f"{len(even_support)} even classes"))
    if set(support) <= {(4, 1), (12, 5)}:
        trace.append(TraceStep("eps_zero_known_disk", "pass", "pairs inside {4, 12/5}"))
        return EMBEDS, cert("eps_zero_known_disk"), None
    trace.append(TraceStep("eps_zero_known_disk", "fail", "pairs not inside {4, 12/5}"))
    reps = pairing.disk_fibers
    if (
        len(reps) == 2
        and all(q == 1 and p % 2 == 0 for p, q in reps)
        and reps[0] != reps[1]
    ):
        detail = "pairs ({0}, -{0}), ({1}, -{1}), both even, distinct".format(reps[0][0], reps[1][0])
        trace.append(TraceStep("furuta_ten_eighths", "fail", detail))
        return OBSTRUCTED, None, Obstruction("furuta_ten_eighths", detail)
    trace.append(TraceStep("furuta_ten_eighths", "skip", "not the two-integer-pair shape"))
    return UNKNOWN, None, None


# ---------------------------------------------------------------------------
# eps > 0: constructive side


def _recognize_base(central: int, fibers) -> str | None:
    """Cited rule name if (e; fibers) is a recognized embeddable base."""
    if central != 1:
        return None
    fs = sorted(fibers)
    if len(fs) == 1 and fs[0][0] - fs[0][1] == 1:
        return "s3_one_exceptional"
    if len(fs) == 2:
        (p, q), (r, s) = fs
        if q * r + s * p == p * r - 1:  # q/p + s/r = 1 - 1/(pr)
            return "s3_two_exceptional"
    if fs == [(4, 1), (4, 1), (12, 5)]:
        return "known_embedding_4_4_12_5"
    return None


def _contraction_certificate(s: StandardForm) -> Certificate | None:
    """The certificate of ``s``'s contraction walk, when it ends in a recognized base.

    ``contraction_walk`` says why its one path is the whole search: with
    eps > 0 a recognized base has e = 1, and the only e = 1 space that
    contractions reach is the walk's end.
    """
    steps = contraction_walk(s)
    base = steps[-1][1] if steps else s
    rule = _recognize_base(base.central, base.fibers)
    if rule is None:
        return None
    by_value = sorted(zip(base.weights, base.fibers), reverse=True)  # weight decreasing
    return Certificate(
        kind="expansion",
        rule=rule,
        base_central=base.central,
        base_fibers=tuple(r for _, r in by_value),
        genus_bumps=s.genus,
        expansions=tuple(smaller.fibers[j - 1] for j, smaller in reversed(steps)),
    )


def replay_certificate(cert: Certificate, target: StandardForm) -> bool:
    """Re-derive an EMBEDS certificate against the normalized input."""
    if cert.kind == "expansion":
        cur = StandardForm(cert.genus_bumps, cert.base_central, cert.base_fibers)
        for value in cert.expansions:
            if value not in cur.fibers:
                return False
            cur = expand(cur, cur.fibers.index(value) + 1)
        if cur.canonical_key() != target.canonical_key():
            return False
        return _recognize_base(cert.base_central, cert.base_fibers) == cert.rule
    if cert.kind == "cited":
        if cert.rule == "s3_empty":
            return target.fiber_count == 0 and target.central == 1 and target.genus == 0
        if target.eps_num:  # the other cited rules are the eps = 0 families
            return False
        pairing = eps_zero_pairing(target)
        if isinstance(pairing, PairingImbalance):
            return False
        support = set(pairing.disk_fibers)
        evens = [r for r in support if r[0] % 2 == 0]
        if cert.rule == "eps_zero_all_odd":
            return not evens
        if cert.rule == "eps_zero_one_even":
            return len(evens) <= 1
        if cert.rule == "eps_zero_known_disk":
            return support <= {(4, 1), (12, 5)}
        return False
    return False


# ---------------------------------------------------------------------------
# the pipeline


def _spin_rules(s: StandardForm):
    """(class test, partition test) of the even-multiplicity spin rules.

    A class passes when it breaks no rule of ``class_spin_facts`` and has at
    most 3 even members; a partition survives when its classes pass and
    exactly one has an odd number of even members.  The rules read member
    values only, once per multiset of them.
    """
    odd_share: dict[tuple, int | None] = {}  # by class and by member values; 0 or 1, None: fails

    def share(c) -> int | None:
        if c not in odd_share:
            key = tuple(sorted([s.fibers[i - 1] for i in c]))
            if key not in odd_share:
                facts = class_spin_facts(s, c)
                odd_share[key] = None if facts.failed or facts.evens > 3 else facts.evens & 1
            odd_share[c] = odd_share[key]
        return odd_share[c]

    def survives(p) -> bool:
        shares = [share(c) for c in p]
        return None not in shares and sum(shares) == 1

    return (lambda c: share(c) is not None), survives


def _spin_survivor_count(s: StandardForm, search) -> tuple[int, bool]:
    """How many sum-condition partitions pass the spin rules, and whether a
    pair of them meets the union condition.

    The rules read fiber values only, so a whole orbit passes or fails with
    its least member.  A surviving pair exists when the witness survives,
    or else when some surviving member has a surviving partner.
    """
    passes, survives = _spin_rules(s)
    kept = [(p, n) for p, n in search.orbits if survives(p)]
    count = sum(n for _, n in kept)
    if not count:
        return 0, False
    w = search.witness
    if survives(w.p1) and survives(w.p2):
        return count, True
    return count, any(least_partner(s, p, survives, passes) for p, _ in kept)


def classify(data: SeifertData | StandardForm, fiber_budget: int = DEFAULT_FIBER_BUDGET) -> Verdict:
    """Full decision pipeline for one Seifert fibered space."""
    std = normalize(data)
    h1 = h1_formula(std)
    trace: list[TraceStep] = [
        TraceStep("normalize", "info", f"{std}; eps = {format_rational((std.eps_num, std.lcm))}"),
        TraceStep("h1", "info", str(h1)),
    ]

    def verdict(tag, certificate=None, obstruction=None, budget=None):
        if certificate is not None and not replay_certificate(certificate, std):
            raise AssertionError("certificate must replay")
        return Verdict(tag, std, h1, certificate, obstruction, tuple(trace), budget)

    if std.fiber_count == 0:
        if std.genus == 0 and std.central == 1:
            trace.append(TraceStep("no_exceptional_fibers", "pass", "the 3-sphere"))
            return verdict(EMBEDS, Certificate(kind="cited", rule="s3_empty"))
        # else tor H1 = Z/e, e >= 2, and the direct-double test (Hantzsche) obstructs
        if is_direct_double(h1):
            trace.append(
                TraceStep("no_exceptional_fibers", "skip", "no certified family without exceptional fibers")
            )
            return verdict(UNKNOWN)

    if std.eps_num == 0:
        tag, certificate, obstruction = _eps_zero_branch(std, trace)
        return verdict(tag, certificate, obstruction)

    # eps > 0 obstruction chain, cheapest first
    if not is_direct_double(h1):
        trace.append(TraceStep("direct_double", "fail", f"tor H1 = {h1}"))
        return verdict(
            OBSTRUCTED, obstruction=Obstruction("torsion_not_direct_double", f"tor H1 = {h1}")
        )
    trace.append(TraceStep("direct_double", "pass", f"tor H1 = {h1}"))

    bound = bound_e(std)
    trace.append(bound)
    if bound.result == "fail":
        return verdict(OBSTRUCTED, obstruction=Obstruction(bound.test, bound.detail))

    search = is_partitionable(std, fiber_budget=fiber_budget, h1=h1)
    step = search.step
    trace.append(step)
    if search.budget is not None:
        return verdict(BUDGET_EXCEEDED, budget=search.budget)
    if not search.is_witness:
        return verdict(OBSTRUCTED, obstruction=Obstruction("not_partitionable", step.detail))

    if std.genus == 0:
        # the global conditions; the partition rules run below, on every
        # sum-condition partition
        conditions = mubar_embedding_conditions(std)
        trace.extend(conditions)
        failed = next((c for c in conditions if c.result == "fail"), None)
        if failed is not None:
            return verdict(OBSTRUCTED, obstruction=Obstruction(failed.test, failed.detail))
        if any(p % 2 == 0 for p in std.multiplicities):
            kept, paired = _spin_survivor_count(std, search)
            if not paired:
                trace.append(
                    TraceStep(
                        "spin_partition_conditions",
                        "fail",
                        f"{kept} of {search.count} sum-condition partitions pass the "
                        "even-multiplicity spin conditions, and no surviving pair meets the "
                        "union condition",
                    )
                )
                return verdict(
                    OBSTRUCTED,
                    obstruction=Obstruction(
                        "spin_partition_conditions",
                        "every partition pair meeting the sum conditions violates the "
                        "even-multiplicity spin conditions",
                    ),
                )
            trace.append(
                TraceStep(
                    "spin_partition_conditions",
                    "pass",
                    f"{kept}/{search.count} partitions survive; surviving pair exists",
                )
            )
        else:
            trace.append(TraceStep("spin_partition_conditions", "skip", "all multiplicities odd"))
    else:
        trace.append(TraceStep("spin_conditions", "skip", "base genus > 0"))

    certificate = _contraction_certificate(std)
    if certificate is not None:
        trace.append(
            TraceStep(
                "contraction",
                "pass",
                f"base {format_sfs(0, certificate.base_central, certificate.base_fibers)}"
                f" via {len(certificate.expansions)} expansions, {certificate.genus_bumps} genus bumps",
            )
        )
        return verdict(EMBEDS, certificate)
    trace.append(TraceStep("contraction", "fail", "no contraction path to a recognized base"))
    return verdict(UNKNOWN)
