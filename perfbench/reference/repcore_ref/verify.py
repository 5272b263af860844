"""Exhaustive claim verification over small universes of interrupted repetitions.

Each claim is a per-spec assertion evaluated by brute-force occurrence
counting.  Gating claims are expected to hold (a failure fails the run);
reported claims record their empirical status and never gate, because the
straightforward readings of the occurrence-count side claims are false on
small instances and the point is to say so with witnesses.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .errors import (
    ClassificationFailure,
    InvalidUniverse,
    NotApplicable,
    UniverseTooLarge,
)
from .interrupts import (
    CoreReport,
    DeletionSplit,
    InterruptSpec,
    anchor_windows,
    classify_window,
    core,
    iter_splits,
)
from .words import cyclic_occurrences, occurrences, primitive_words

DEFAULT_MAX_CHECKS = 10_000_000
DEFAULT_MAX_VIOLATIONS = 10
MAX_X_LEN = 12


class ClaimId(str, Enum):
    """Fixed enumeration of verifiable claims, in canonical report order."""

    DFT_BOUND = "dft_bound"
    THEOREM1 = "theorem1"
    THEOREM1_DELETION = "theorem1_deletion"
    DICHOTOMY = "dichotomy"
    DISTINCT_COUNT = "distinct_count"
    CORE_CYCLIC_UNIQUE = "core_cyclic_unique"
    NOTE2_LINEAR = "note2_linear"
    NOTE3_LINEAR = "note3_linear"
    NOTE3_CYCLIC = "note3_cyclic"


GATING_CLAIMS = frozenset(
    {
        ClaimId.DFT_BOUND,
        ClaimId.THEOREM1,
        ClaimId.THEOREM1_DELETION,
        ClaimId.DICHOTOMY,
        ClaimId.DISTINCT_COUNT,
    }
)
REPORTED_CLAIMS = frozenset(ClaimId) - GATING_CLAIMS


@dataclass(frozen=True)
class Universe:
    """The enumeration universe: alphabet, |x| range, exponent sums, split forms."""

    alphabet_size: int = 2
    min_x: int = 2
    max_x: int = 8
    e_sums: tuple[int, ...] = (3, 4)
    forms: str = "prefix"

    def __post_init__(self) -> None:
        if self.alphabet_size < 2:
            raise InvalidUniverse(
                f"alphabet_size must be >= 2, got {self.alphabet_size}"
            )
        if self.alphabet_size > 26:
            raise InvalidUniverse("alphabet_size is capped at 26 (letter rendering)")
        if not 1 <= self.min_x <= self.max_x:
            raise InvalidUniverse(f"bad x length range [{self.min_x}, {self.max_x}]")
        if self.max_x > MAX_X_LEN:
            raise InvalidUniverse(f"max_x is capped at {MAX_X_LEN}")
        if self.forms not in ("prefix", "deletion", "both"):
            raise InvalidUniverse(f"unknown forms {self.forms!r}")
        sums = tuple(sorted(set(self.e_sums)))
        if not sums:
            raise InvalidUniverse("e_sums is empty")
        if any(s < 3 for s in sums):
            raise InvalidUniverse(f"every e1+e2 must be >= 3, got {sums}")
        object.__setattr__(self, "e_sums", sums)


@dataclass(frozen=True)
class Witness:
    """A re-checkable counterexample: the spec, the factor, and both counts."""

    spec: InterruptSpec
    factor: str
    expected: int
    actual: int


@dataclass(frozen=True)
class SpecCheck:
    """check_claim result for one spec: assertions evaluated and violations found."""

    checked: int
    violations: tuple[Witness, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ClaimReport:
    """Aggregated claim status over a universe."""

    claim: ClaimId
    checked: int
    status: str  # "holds" | "fails" | "not_applicable"
    counterexamples: tuple[Witness, ...]


def exponent_pairs(e_sums: Iterable[int]) -> list[tuple[int, int]]:
    """All (e1, e2) with e1+e2 in e_sums, sorted by (e1, e2)."""
    return sorted((e1, s - e1) for s in set(e_sums) for e1 in range(1, s))


def splits_count(n: int, forms: str) -> int:
    if forms == "prefix":
        return n - 1
    if forms == "deletion":
        return n * (n - 1) // 2
    return (n + 1) * n // 2 - 1


def estimated_checks(universe: Universe) -> int:
    """Upper bound on window checks, computed without enumerating words."""
    pairs = exponent_pairs(universe.e_sums)
    total = 0
    for n in range(universe.min_x, universe.max_x + 1):
        per_spec = sum((e1 + e2 + 1) * n for e1, e2 in pairs)
        total += universe.alphabet_size**n * splits_count(n, universe.forms) * per_spec
    return total


def enumerate_specs(
    universe: Universe, max_checks: int = DEFAULT_MAX_CHECKS
) -> Iterator[InterruptSpec]:
    """Every spec of the universe exactly once, in canonical order.

    Canonical order: (|x|, x lexicographic, cut1, cut2, e1, e2).
    """
    estimate = estimated_checks(universe)
    if estimate > max_checks:
        raise UniverseTooLarge(
            f"estimated {estimate} window checks exceed the cap {max_checks}"
        )
    pairs = exponent_pairs(universe.e_sums)
    for n in range(universe.min_x, universe.max_x + 1):
        for x in primitive_words(n, universe.alphabet_size):
            for cut1, cut2 in iter_splits(n, universe.forms):
                split = DeletionSplit(x, cut1, cut2)
                for e1, e2 in pairs:
                    yield InterruptSpec(split, e1, e2)


def applies(claim: ClaimId, spec: InterruptSpec) -> bool:
    """Whether the claim is stated for the spec's form."""
    if claim is ClaimId.THEOREM1:
        return spec.split.is_prefix_form
    if claim is ClaimId.THEOREM1_DELETION:
        return not spec.split.is_prefix_form
    return True


class _SpecContext:
    """Shared per-spec intermediates so each claim does not recompute them."""

    __slots__ = ("spec", "report", "n", "word", "anchors")

    def __init__(self, spec: InterruptSpec):
        self.spec = spec
        self.report: CoreReport = core(spec)
        self.n = len(spec.split.x)
        self.word = self.report.word
        self.anchors = anchor_windows(spec, self.report)


def _evaluate(claim: ClaimId, ctx: _SpecContext) -> tuple[int, list[Witness]]:
    """(assertions evaluated, violations in factor-lexicographic order)."""
    spec, rep, word, n = ctx.spec, ctx.report, ctx.word, ctx.n
    e_total = spec.e1 + spec.e2

    if claim is ClaimId.DFT_BOUND:
        actual = rep.p_len + rep.s_len
        if actual > n - 2:
            return 1, [Witness(spec, "", n - 2, actual)]
        return 1, []

    if claim in (ClaimId.THEOREM1, ClaimId.THEOREM1_DELETION):
        bad = []
        factors = sorted({f for _, f in ctx.anchors})
        for f in factors:
            count = len(occurrences(f, word))
            if count != 1:
                bad.append(Witness(spec, f, 1, count))
        return len(factors), bad

    if claim is ClaimId.DICHOTOMY:
        windows = len(word) - n + 1
        bad_factors = set()
        for j in range(windows):
            try:
                classify_window(spec, j, rep)
            except ClassificationFailure:
                bad_factors.add(word[j : j + n])
        return windows, [Witness(spec, f, 1, 0) for f in sorted(bad_factors)]

    if claim is ClaimId.DISTINCT_COUNT:
        distinct = len({word[j : j + n] for j in range(len(word) - n + 1)})
        expected = 2 * n - rep.p_len - rep.s_len - 1
        if distinct != expected:
            return 1, [Witness(spec, "", expected, distinct)]
        return 1, []

    if claim is ClaimId.CORE_CYCLIC_UNIQUE:
        bad = []
        factors = sorted({f for _, f in ctx.anchors})
        for f in factors:
            count = len(cyclic_occurrences(f, word))
            if count != 1:
                bad.append(Witness(spec, f, 1, count))
        return len(factors), bad

    if claim is ClaimId.NOTE2_LINEAR:
        # Stated only for the boundary case lcp + lcs == |x| - 2.
        if rep.p_len + rep.s_len != n - 2:
            return 0, []
        sp = rep.s_tilde[1:] + rep.p_tilde[:-1]
        factors = sorted(
            {word[j : j + n - 1] for j in range(len(word) - n + 2)}
        )
        bad = []
        checked = 0
        for f in factors:
            if sp not in f:
                continue
            checked += 1
            count = len(occurrences(f, word))
            if count != e_total:
                bad.append(Witness(spec, f, e_total, count))
        return checked, bad

    if claim in (ClaimId.NOTE3_LINEAR, ClaimId.NOTE3_CYCLIC):
        anchored = {j for j, _ in ctx.anchors}
        factors = sorted(
            {
                word[j : j + n]
                for j in range(len(word) - n + 1)
                if j not in anchored
            }
        )
        counter = (
            occurrences if claim is ClaimId.NOTE3_LINEAR else cyclic_occurrences
        )
        bad = []
        for f in factors:
            count = len(counter(f, word))
            if count != e_total:
                bad.append(Witness(spec, f, e_total, count))
        return len(factors), bad

    raise AssertionError(f"unhandled claim {claim}")


def check_claim(claim: ClaimId, spec: InterruptSpec) -> SpecCheck:
    """Evaluate one claim on one spec.

    Raises NotApplicable when the claim is stated for the other split form.
    A zero-checks result means the spec does not qualify (note2 outside the
    boundary case).
    """
    if not applies(claim, spec):
        raise NotApplicable(f"{claim.value} does not apply to this split form")
    checked, violations = _evaluate(claim, _SpecContext(spec))
    return SpecCheck(checked, tuple(violations))


def _eval_chunk(args: tuple[list[InterruptSpec], list[ClaimId]]):
    specs, claims = args
    acc: dict[ClaimId, tuple[int, list[Witness]]] = {c: (0, []) for c in claims}
    for spec in specs:
        ctx = _SpecContext(spec)
        for c in claims:
            if not applies(c, spec):
                continue
            checked, violations = _evaluate(c, ctx)
            old_checked, old_violations = acc[c]
            old_violations.extend(violations)
            acc[c] = (old_checked + checked, old_violations)
    return acc


def run(
    universe: Universe,
    claims: Iterable[ClaimId] | None = None,
    max_violations: int = DEFAULT_MAX_VIOLATIONS,
    jobs: int = 1,
    max_checks: int = DEFAULT_MAX_CHECKS,
) -> list[ClaimReport]:
    """Evaluate claims over every spec of the universe.

    Output is deterministic and identical for any job count: specs are
    enumerated canonically, every spec is evaluated (no early exit), and
    chunk results merge in enumeration order.  Witness lists are truncated
    to max_violations after the merge.
    """
    if max_violations < 1:
        raise ValueError("max_violations must be >= 1")
    if claims is None:
        claim_list = list(ClaimId)
    else:
        wanted = set(claims)
        claim_list = [c for c in ClaimId if c in wanted]
    if not claim_list:
        return []
    specs = list(enumerate_specs(universe, max_checks))
    if jobs <= 1 or len(specs) < 2:
        merged = [_eval_chunk((specs, claim_list))]
    else:
        size = max(1, (len(specs) + jobs * 8 - 1) // (jobs * 8))
        chunks = [specs[i : i + size] for i in range(0, len(specs), size)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            merged = list(pool.map(_eval_chunk, [(c, claim_list) for c in chunks]))

    reports = []
    for c in claim_list:
        checked = sum(part[c][0] for part in merged)
        violations: list[Witness] = []
        for part in merged:
            violations.extend(part[c][1])
        if checked == 0:
            status = "not_applicable"
        elif violations:
            status = "fails"
        else:
            status = "holds"
        reports.append(
            ClaimReport(c, checked, status, tuple(violations[:max_violations]))
        )
    return reports


def verdict(reports: Iterable[ClaimReport], strict_notes: bool = False) -> bool:
    """True when no gating claim (nor, with strict_notes, any claim) fails."""
    for rep in reports:
        if rep.status != "fails":
            continue
        if rep.claim in GATING_CLAIMS or strict_notes:
            return False
    return True
