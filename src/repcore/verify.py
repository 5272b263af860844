"""Exhaustive claim verification over small universes of interrupted repetitions.

Each claim is a per-spec assertion about how often the length-|x| (or, for
note2, length-(|x|-1)) factors of W occur.  Every spec slices its windows
once into a histogram that all claims read, and a table maps each claim to
its evaluator.  Gating claims are expected to hold (a failure fails the
run); reported claims record their empirical status and never gate, because
the straightforward readings of the occurrence-count side claims are false
on small instances and the point is to say so with witnesses.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator

from .errors import InvalidLimit, InvalidUniverse, NotApplicable, UniverseTooLarge

# The claims read _SpecContext's histograms and call none of classify_window,
# occurrences and cyclic_occurrences.  They stay importable from this module
# because perfbench/tracing.py patches them here by name and its tests expect
# every patched name to exist; a traced run reports zero calls to them.
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
    """One spec's core and window histograms, shared by every claim.

    The length-|x| windows of W are sliced once; the anchored range comes
    from anchor_windows and is exactly where classify_window answers
    CoreAnchored.  The cyclic and the length-(|x|-1) histograms are built
    on first use.
    """

    def __init__(self, spec: InterruptSpec):
        self.spec = spec
        self.report: CoreReport = core(spec)
        self.n = n = len(spec.split.x)
        self.word = word = self.report.word
        self.windows = windows = [word[j : j + n] for j in range(len(word) - n + 1)]
        self.hist = Counter(windows)
        anchors = anchor_windows(spec, self.report)
        lo, hi = anchors[0][0], anchors[-1][0] + 1
        self.anchored = sorted(set(windows[lo:hi]))
        self.non_anchored = sorted(set(windows[:lo]) | set(windows[hi:]))

    @cached_property
    def cyclic_hist(self) -> Counter:
        """Windows of W read cyclically: the linear ones plus |x|-1 wraparounds."""
        word, n = self.word, self.n
        wrapped = word[len(word) - n + 1 :] + word[: n - 1]
        return Counter(self.windows + [wrapped[j : j + n] for j in range(n - 1)])

    @cached_property
    def short_hist(self) -> Counter:
        """Histogram of the length-(|x|-1) windows of W."""
        word, m = self.word, self.n - 1
        return Counter(word[j : j + m] for j in range(len(word) - m + 1))


# Each claim maps a spec context to (assertions evaluated, violations in
# factor-lexicographic order).  The violations are a lazy iterator, so a
# caller that keeps only the first few builds no other Witness; the
# assertion count never depends on how many are taken.
_Result = tuple[int, Iterator[Witness]]


def _mismatches(
    spec: InterruptSpec, factors: Iterable[str], hist: Counter, expected: int
) -> Iterator[Witness]:
    for f in factors:
        actual = hist[f]
        if actual != expected:
            yield Witness(spec, f, expected, actual)


def _single(
    spec: InterruptSpec, fails: bool, expected: int, actual: int
) -> Iterator[Witness]:
    if fails:
        yield Witness(spec, "", expected, actual)


def _dft_bound(ctx: _SpecContext) -> _Result:
    rep, n = ctx.report, ctx.n
    actual = rep.p_len + rep.s_len
    return 1, _single(ctx.spec, actual > n - 2, n - 2, actual)


def _theorem1(ctx: _SpecContext) -> _Result:
    return len(ctx.anchored), _mismatches(ctx.spec, ctx.anchored, ctx.hist, 1)


def _dichotomy(ctx: _SpecContext) -> _Result:
    # A length-|x| factor is a rotation of x exactly when it occurs in x+x.
    xx = ctx.spec.split.x * 2
    bad = (Witness(ctx.spec, f, 1, 0) for f in ctx.non_anchored if f not in xx)
    return len(ctx.windows), bad


def _distinct_count(ctx: _SpecContext) -> _Result:
    rep, n = ctx.report, ctx.n
    distinct = len(ctx.hist)
    expected = 2 * n - rep.p_len - rep.s_len - 1
    return 1, _single(ctx.spec, distinct != expected, expected, distinct)


def _core_cyclic_unique(ctx: _SpecContext) -> _Result:
    return len(ctx.anchored), _mismatches(ctx.spec, ctx.anchored, ctx.cyclic_hist, 1)


def _note2_linear(ctx: _SpecContext) -> _Result:
    # Stated only for the boundary case lcp + lcs == |x| - 2.
    rep, spec = ctx.report, ctx.spec
    if rep.p_len + rep.s_len != ctx.n - 2:
        return 0, iter(())
    sp = rep.s_tilde[1:] + rep.p_tilde[:-1]
    hist = ctx.short_hist
    factors = [f for f in sorted(hist) if sp in f]
    return len(factors), _mismatches(spec, factors, hist, spec.e1 + spec.e2)


def _note3_linear(ctx: _SpecContext) -> _Result:
    spec = ctx.spec
    return len(ctx.non_anchored), _mismatches(
        spec, ctx.non_anchored, ctx.hist, spec.e1 + spec.e2
    )


def _note3_cyclic(ctx: _SpecContext) -> _Result:
    spec = ctx.spec
    return len(ctx.non_anchored), _mismatches(
        spec, ctx.non_anchored, ctx.cyclic_hist, spec.e1 + spec.e2
    )


_CLAIMS = {
    ClaimId.DFT_BOUND: _dft_bound,
    ClaimId.THEOREM1: _theorem1,
    ClaimId.THEOREM1_DELETION: _theorem1,
    ClaimId.DICHOTOMY: _dichotomy,
    ClaimId.DISTINCT_COUNT: _distinct_count,
    ClaimId.CORE_CYCLIC_UNIQUE: _core_cyclic_unique,
    ClaimId.NOTE2_LINEAR: _note2_linear,
    ClaimId.NOTE3_LINEAR: _note3_linear,
    ClaimId.NOTE3_CYCLIC: _note3_cyclic,
}


def check_claim(claim: ClaimId, spec: InterruptSpec) -> SpecCheck:
    """Evaluate one claim on one spec.

    Raises NotApplicable when the claim is stated for the other split form.
    A zero-checks result means the spec does not qualify (note2 outside the
    boundary case).
    """
    if not applies(claim, spec):
        raise NotApplicable(f"{claim.value} does not apply to this split form")
    checked, violations = _CLAIMS[claim](_SpecContext(spec))
    return SpecCheck(checked, tuple(violations))


def _eval_chunk(args: tuple[list[InterruptSpec], list[ClaimId], int]):
    """Per claim: (assertions evaluated, the chunk's first max_violations witnesses)."""
    specs, claims, max_violations = args
    checked = dict.fromkeys(claims, 0)
    kept: dict[ClaimId, list[Witness]] = {c: [] for c in claims}
    by_form: dict[bool, list[ClaimId]] = {}  # applies() reads only the form
    for spec in specs:
        ctx = _SpecContext(spec)
        form = spec.split.is_prefix_form
        if form not in by_form:
            by_form[form] = [c for c in claims if applies(c, spec)]
        for c in by_form[form]:
            count, violations = _CLAIMS[c](ctx)
            checked[c] += count
            found = kept[c]
            found.extend(islice(violations, max_violations - len(found)))
    return {c: (checked[c], kept[c]) for c in claims}


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
    chunk results merge in enumeration order.  Each chunk keeps only its
    first max_violations witnesses per claim and counts the rest of its
    assertions, so memory is bounded by what is reported; because chunks
    are contiguous in canonical order, the first max_violations of the
    merged lists are the first of the whole universe.
    """
    if max_violations < 1:
        raise InvalidLimit(f"max_violations must be >= 1, got {max_violations}")
    if claims is None:
        claim_list = list(ClaimId)
    else:
        wanted = set(claims)
        claim_list = [c for c in ClaimId if c in wanted]
    if not claim_list:
        return []
    specs = list(enumerate_specs(universe, max_checks))
    if jobs <= 1 or len(specs) < 2:
        merged = [_eval_chunk((specs, claim_list, max_violations))]
    else:
        size = max(1, (len(specs) + jobs * 8 - 1) // (jobs * 8))
        chunks = [specs[i : i + size] for i in range(0, len(specs), size)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            merged = list(
                pool.map(
                    _eval_chunk, [(c, claim_list, max_violations) for c in chunks]
                )
            )

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
