"""Exhaustive claim verification over small universes of interrupted repetitions.

Each claim is a per-spec assertion about how often the length-|x| (or, for
note2, length-(|x|-1)) factors of W occur.  The alteration is fixed by the
split (x, cut1, cut2); the exponents only repeat x around it.  So the split
is the unit of work: each is evaluated once, from its shortest word
W0 = x·x1·x3·x·x (e1 = 1, e2 = MIN_E_SUM - 1), and a table maps each claim
to an evaluator that takes all of the split's (e1, e2) at once.  Specs with
the same e1+e2 have the same counts, so a claim lists its mismatches once
per exponent sum.  A worker chunk is a range of split indices in canonical
order; the worker enumerates those splits itself.

Lemma: the length-|x| windows of W are those of W0 plus e1+e2-MIN_E_SUM
more copies of each rotation of x, and the length-(|x|-1) windows are
those of W0 plus as many copies of (x+x)[k:k+|x|-1] for each k < |x|.
Why: W is x·x1·x3·x with e1+e2-2 copies of x added at its two ends.  A
window that crosses the junction between an added copy and its neighbour
lies inside one copy of x on each side, so it is a factor of x+x; each
copy adds one window at each of its |x| offsets, the same ones at either
end.  The anchored windows (those that contain the core) lie inside
x·x1·x3·x and do not move, and W0 already holds every rotation of x
outside them, so the anchored and non-anchored factor sets and the number
of distinct windows do not depend on (e1, e2) either.
test_check_claim_equals_naive_oracle checks this on every spec of four
universes against the slicing oracle evaluate_naive in tests/oracles.py.

Gating claims are expected to hold (a failure fails the run); reported
claims record their empirical status and never gate, because the
straightforward readings of the occurrence-count side claims are false on
small instances and the point is to say so with witnesses.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import InvalidLimit, InvalidUniverse, NotApplicable, UniverseTooLarge

# The claims read _SplitContext's histograms and call none of classify_window,
# occurrences and cyclic_occurrences.  They stay importable from this module
# because perfbench/tracing.py patches them here by name and its tests expect
# every patched name to exist; a traced run reports zero calls to them.
from .interrupts import (
    FORMS,
    MIN_E_SUM,
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
        if self.forms not in FORMS:
            raise InvalidUniverse(f"unknown forms {self.forms!r}")
        sums = tuple(sorted(set(self.e_sums)))
        if not sums:
            raise InvalidUniverse("e_sums is empty")
        if any(s < MIN_E_SUM for s in sums):
            raise InvalidUniverse(f"every e1+e2 must be >= {MIN_E_SUM}, got {sums}")
        object.__setattr__(self, "e_sums", sums)


@dataclass(frozen=True)
class Witness:
    """A re-checkable counterexample: the spec, the factor, and both counts.

    str() is the text `repcore verify` prints: the spec's str(), then the
    factor and both counts.
    """

    spec: InterruptSpec
    factor: str
    expected: int
    actual: int

    def __str__(self) -> str:
        return (
            f"{self.spec} factor={self.factor!r}"
            f" expected={self.expected} actual={self.actual}"
        )


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


def estimated_checks(universe: Universe) -> int:
    """Upper bound on window checks, computed without enumerating words."""
    pairs = exponent_pairs(universe.e_sums)
    total = 0
    for n in range(universe.min_x, universe.max_x + 1):
        per_spec = sum((e1 + e2 + 1) * n for e1, e2 in pairs)
        splits = sum(1 for _ in iter_splits(n, universe.forms))
        total += universe.alphabet_size**n * splits * per_spec
    return total


def _check_size(universe: Universe, max_checks: int) -> None:
    """Reject a universe whose estimated_checks exceed max_checks."""
    estimate = estimated_checks(universe)
    if estimate > max_checks:
        raise UniverseTooLarge(
            f"estimated {estimate} window checks exceed the cap {max_checks}"
        )


def _split_count(universe: Universe) -> int:
    """Number of splits (x, cut1, cut2) in the universe."""
    return sum(
        sum(1 for _ in primitive_words(n, universe.alphabet_size))
        * sum(1 for _ in iter_splits(n, universe.forms))
        for n in range(universe.min_x, universe.max_x + 1)
    )


def _splits(universe: Universe, lo: int, hi: int) -> Iterator[tuple[str, int, int]]:
    """(x, cut1, cut2) for the split indices lo..hi-1, in canonical order.

    Canonical order: (|x|, x lexicographic, cut1, cut2).  Every x of one
    length has the same cuts, so a word whose splits all lie below lo is
    skipped whole.
    """
    i = 0
    for n in range(universe.min_x, universe.max_x + 1):
        cuts = list(iter_splits(n, universe.forms))
        for x in primitive_words(n, universe.alphabet_size):
            if i >= hi:
                return
            if i + len(cuts) > lo:
                for cut1, cut2 in cuts[max(lo - i, 0) : hi - i]:
                    yield x, cut1, cut2
            i += len(cuts)


def enumerate_specs(
    universe: Universe, max_checks: int = DEFAULT_MAX_CHECKS
) -> Iterator[InterruptSpec]:
    """Every spec of the universe exactly once, in canonical order.

    Canonical order: (|x|, x lexicographic, cut1, cut2, e1, e2).
    """
    _check_size(universe, max_checks)
    pairs = exponent_pairs(universe.e_sums)
    for x, cut1, cut2 in _splits(universe, 0, _split_count(universe)):
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


class _SplitContext:
    """One split's core and window histograms, shared by every claim and (e1, e2).

    Built once from W0 = x·x1·x3·x·x, the split's shortest word (spec0).
    Each histogram is a pair (base, copy): the windows of W0, and the
    windows one more copy of x adds.  By the lemma in the module docstring,
    a spec with e1+e2 = s has count(f) = base[f] + (s - MIN_E_SUM)·copy[f].
    The anchored range comes from anchor_windows and is exactly where
    classify_window answers CoreAnchored.  W starts and ends with x, so its
    |x|-1 wraparound windows are the rotations 1..|x|-1 of x, each once:
    read cyclically, a factor f occurs once more when f is in wraparound =
    (x+x)[1:-1].  The length-(|x|-1) pair is built on first use.
    """

    def __init__(self, split: DeletionSplit):
        self.split = split
        self.spec0 = spec0 = InterruptSpec(split, 1, MIN_E_SUM - 1)
        self.report: CoreReport = core(spec0)
        self.n = n = len(split.x)
        self.xx = xx = split.x * 2
        word = self.report.word
        windows = [word[j : j + n] for j in range(len(word) - n + 1)]
        self.hist = Counter(windows), Counter(xx[k : k + n] for k in range(n))
        anchors = anchor_windows(spec0, self.report)
        lo, hi = anchors[0][0], anchors[-1][0] + 1
        self.anchored = sorted(set(windows[lo:hi]))
        self.non_anchored = sorted(set(windows[:lo]) | set(windows[hi:]))
        self.wraparound = xx[1:-1]

    @cached_property
    def short_hist(self) -> tuple[Counter, Counter]:
        """The (base, copy) pair of the length-(|x|-1) windows."""
        word, m = self.report.word, self.n - 1
        base = Counter(word[j : j + m] for j in range(len(word) - m + 1))
        return base, Counter(self.xx[k : k + m] for k in range(self.n))


# Each claim maps a split context and the split's exponent pairs, in
# canonical (e1, e2) order, to (assertions evaluated over all of them,
# violations in spec-then-factor order).  The count is per-split
# arithmetic.  The violations are a lazy iterator: a caller that keeps only
# the first few builds no other Witness or InterruptSpec and does no
# per-factor work for the specs after them.  A cyclic claim is its linear
# twin with wraparound = ctx.wraparound: each factor that occurs in it
# counts once more.
_Pairs = Sequence[tuple[int, int]]
_Result = tuple[int, Iterator[Witness]]
_Violation = tuple[str, int, int]  # (factor, expected, actual)


def _mismatches(
    ctx: _SplitContext,
    pairs: _Pairs,
    factors: list[str],
    hist: tuple[Counter, Counter],
    expected: int | None = None,
    wraparound: str = "",
) -> _Result:
    """Factors whose count is not expected (None: e1+e2) in each spec.

    Specs with the same e1+e2 share their counts, so the mismatches are
    listed at most once per sum.
    """

    def witnesses() -> Iterator[Witness]:
        base, copy = hist
        by_sum: dict[int, list[_Violation]] = {}
        for e1, e2 in pairs:
            s = e1 + e2
            if s not in by_sum:
                want, extra = expected or s, s - MIN_E_SUM
                counts = (
                    (f, base[f] + extra * copy[f] + (f in wraparound)) for f in factors
                )
                by_sum[s] = [(f, want, a) for f, a in counts if a != want]
            if by_sum[s]:
                spec = InterruptSpec(ctx.split, e1, e2)
                for f, want, actual in by_sum[s]:
                    yield Witness(spec, f, want, actual)

    return len(factors) * len(pairs), witnesses()


def _every_spec(
    ctx: _SplitContext, pairs: _Pairs, violations: Iterable[_Violation]
) -> Iterator[Witness]:
    """The same violations, which do not depend on (e1, e2), for each spec."""
    found = list(violations)
    if found:
        for e1, e2 in pairs:
            spec = InterruptSpec(ctx.split, e1, e2)
            for f, want, actual in found:
                yield Witness(spec, f, want, actual)


def _dft_bound(ctx: _SplitContext, pairs: _Pairs) -> _Result:
    rep, n = ctx.report, ctx.n
    actual = rep.p_len + rep.s_len
    fails = [("", n - 2, actual)] if actual > n - 2 else []
    return len(pairs), _every_spec(ctx, pairs, fails)


def _theorem1(ctx: _SplitContext, pairs: _Pairs, wrap: str = "") -> _Result:
    return _mismatches(ctx, pairs, ctx.anchored, ctx.hist, 1, wrap)


def _dichotomy(ctx: _SplitContext, pairs: _Pairs) -> _Result:
    # A length-|x| factor is a rotation of x exactly when it occurs in x+x.
    # Every window of W is one assertion: (e1+e2)·|x| - |x2| + 1 of them.
    bad = ((f, 1, 0) for f in ctx.non_anchored if f not in ctx.xx)
    windows = sum(e1 + e2 for e1, e2 in pairs) * ctx.n
    return windows - len(pairs) * (len(ctx.split.x2) - 1), _every_spec(ctx, pairs, bad)


def _distinct_count(ctx: _SplitContext, pairs: _Pairs) -> _Result:
    rep, n = ctx.report, ctx.n
    distinct = len(ctx.hist[0])
    expected = 2 * n - rep.p_len - rep.s_len - 1
    fails = [("", expected, distinct)] if distinct != expected else []
    return len(pairs), _every_spec(ctx, pairs, fails)


def _note2_linear(ctx: _SplitContext, pairs: _Pairs) -> _Result:
    # Stated only for the boundary case lcp + lcs == |x| - 2.
    rep = ctx.report
    if rep.p_len + rep.s_len != ctx.n - 2:
        return 0, iter(())
    sp = rep.s_tilde[1:] + rep.p_tilde[:-1]
    hist = ctx.short_hist
    factors = [f for f in sorted(hist[0]) if sp in f]
    return _mismatches(ctx, pairs, factors, hist)


def _note3_linear(ctx: _SplitContext, pairs: _Pairs, wrap: str = "") -> _Result:
    return _mismatches(ctx, pairs, ctx.non_anchored, ctx.hist, None, wrap)


_CLAIMS = {
    ClaimId.DFT_BOUND: _dft_bound,
    ClaimId.THEOREM1: _theorem1,
    ClaimId.THEOREM1_DELETION: _theorem1,
    ClaimId.DICHOTOMY: _dichotomy,
    ClaimId.DISTINCT_COUNT: _distinct_count,
    ClaimId.CORE_CYCLIC_UNIQUE: (
        lambda ctx, pairs: _theorem1(ctx, pairs, ctx.wraparound)
    ),
    ClaimId.NOTE2_LINEAR: _note2_linear,
    ClaimId.NOTE3_LINEAR: _note3_linear,
    ClaimId.NOTE3_CYCLIC: (
        lambda ctx, pairs: _note3_linear(ctx, pairs, ctx.wraparound)
    ),
}


def check_claim(claim: ClaimId, spec: InterruptSpec) -> SpecCheck:
    """Evaluate one claim on one spec.

    Raises NotApplicable when the claim is stated for the other split form.
    A zero-checks result means the spec does not qualify (note2 outside the
    boundary case).
    """
    if not applies(claim, spec):
        raise NotApplicable(f"{claim.value} does not apply to this split form")
    pairs = [(spec.e1, spec.e2)]
    checked, violations = _CLAIMS[claim](_SplitContext(spec.split), pairs)
    return SpecCheck(checked, tuple(violations))


def _eval_chunk(args: tuple[Universe, int, int, list[ClaimId], int]):
    """Per claim: (assertions evaluated, the chunk's first max_violations witnesses).

    The chunk is the splits with canonical indices lo..hi-1, each with every
    (e1, e2) of the universe.  The worker enumerates them itself, and builds
    an InterruptSpec only for a witness it keeps.
    """
    universe, lo, hi, claims, max_violations = args
    pairs = exponent_pairs(universe.e_sums)
    checked = dict.fromkeys(claims, 0)
    kept: dict[ClaimId, list[Witness]] = {c: [] for c in claims}
    for x, cut1, cut2 in _splits(universe, lo, hi):
        ctx = _SplitContext(DeletionSplit(x, cut1, cut2))
        for c in claims:
            if not applies(c, ctx.spec0):
                continue
            count, violations = _CLAIMS[c](ctx, pairs)
            checked[c] += count
            found = kept[c]
            if len(found) < max_violations:
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

    Output is deterministic and identical for any job count: every spec is
    evaluated (no early exit), and chunk results merge in canonical order.
    A chunk is a range of split indices, so the parent holds no spec and
    sends each worker five small values.  Each chunk keeps only its first
    max_violations witnesses per claim and counts the rest of its
    assertions, so memory is bounded by what is reported; because chunks
    are contiguous in canonical order, the first max_violations of the
    merged lists are the first of the whole universe.  The pool starts at
    most one worker per CPU, whatever jobs asks for.
    """
    if max_violations < 1:
        raise InvalidLimit(f"max_violations must be >= 1, got {max_violations}")
    if jobs < 1:
        raise InvalidLimit(f"jobs must be >= 1, got {jobs}")
    if claims is None:
        claim_list = list(ClaimId)
    else:
        wanted = set(claims)
        claim_list = [c for c in ClaimId if c in wanted]
    if not claim_list:
        return []
    _check_size(universe, max_checks)
    splits = _split_count(universe)
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1 or splits < 2:
        merged = [_eval_chunk((universe, 0, splits, claim_list, max_violations))]
    else:
        size = -(-splits // (workers * 8))
        tasks = [
            (universe, lo, min(lo + size, splits), claim_list, max_violations)
            for lo in range(0, splits, size)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            merged = list(pool.map(_eval_chunk, tasks))

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
