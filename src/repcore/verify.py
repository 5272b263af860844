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

Renaming the letters of x injectively keeps every claim's status, count
and factor pattern, since each claim reads only which positions of W hold
equal letters.  So only one x per orbit is evaluated: the first-use word,
whose letters first appear in the order a, b, c, ... (words.first_use_words),
the smallest of its orbit.  Its counts are multiplied by the orbit size,
and each of its violations stands for one violation of every renamed
spec, with the factor renamed too.  From the claim to the report a
violation is a row (|x|, σ(x), cut1, cut2, e1, e2, factor, expected,
actual), whose plain tuple order is canonical witness order, since a factor
occurs at most once per spec and claim.  Renaming moves rows out of that
order, so each chunk keeps its first max_violations rows in a bounded list
that it sorts as it goes and returns sorted.  run() merges the chunks'
rows in plain tuple order and builds a Witness only for the rows it
reports.

Count rule: a window f of length |x| or |x|-1 occurs
count_W0(f) + (e1+e2-MIN_E_SUM)·(f in x+x) times in W.
Why: W is x·x1·x3·x with e1+e2-2 copies of x added at its two ends.  A
window that crosses the junction between an added copy and its neighbour
lies inside one copy of x on each side, so it is a factor of x+x; each
copy adds one window at each of its |x| offsets, the same ones at either
end: the windows of x+x at offsets 0..|x|-1, which every later window of
x+x repeats.  For primitive x these are distinct at both lengths, so each
copy adds one occurrence of each window of x+x.  At length |x| they are
the rotations of x, distinct because x is primitive.  At length |x|-1,
two rotations whose first |x|-1 letters agree have the same letters in
all, so their last letters agree too and they are the same rotation.
The anchored windows (those that contain the core) lie inside x·x1·x3·x
and do not move, and W0 already holds every rotation of x outside them,
so the anchored and non-anchored factor sets and the number of distinct
windows do not depend on (e1, e2) either.
test_check_claim_equals_naive_oracle and
test_check_claim_equals_naive_oracle_on_long_x check this against the
slicing oracle evaluate_naive in tests/oracles.py.

Gating claims are expected to hold (a failure fails the run); reported
claims record their empirical status and never gate, because the
straightforward readings of the occurrence-count side claims are false on
small instances and the point is to say so with witnesses.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from copy import copy
from dataclasses import dataclass
from enum import Enum
from functools import cache
from heapq import merge
from itertools import islice, tee
from math import perm
from typing import Callable, Iterable, Iterator, Sequence

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
from .words import (
    count_first_use_words,
    count_primitive_words,
    cyclic_occurrences,
    first_use_words,
    occurrences,
    primitive_words,
    renamings,
)

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
    """Specs run() evaluates: first-use splits times (e1, e2) pairs.

    Closed form in the word lengths and the exponent sums: sum s has s-1
    pairs, and count_first_use_words counts the words without enumerating
    them, so a universe is sized before any work and in time independent
    of its exponent sums.
    """
    return _split_count(universe) * sum(s - 1 for s in universe.e_sums)


def _check_size(count: int, max_checks: int, what: str) -> None:
    """Reject max_checks < 0, and a universe whose count of specs exceeds it."""
    if max_checks < 0:
        raise InvalidLimit(f"max_checks must be >= 0, got {max_checks}")
    if count > max_checks:
        raise UniverseTooLarge(f"{count} {what} exceed the cap {max_checks}")


def _split_count(universe: Universe, count_words=count_first_use_words) -> int:
    """Number of splits (x, cut1, cut2) in the universe, by default first-use ones.

    count_words(n, k) counts the words x of length n.
    """
    return sum(
        count_words(n, universe.alphabet_size)
        * sum(1 for _ in iter_splits(n, universe.forms))
        for n in range(universe.min_x, universe.max_x + 1)
    )


def _word_cuts(universe: Universe, lo: int, hi: int) -> Iterator[tuple[str, list]]:
    """(x, cuts) for the first-use split indices lo..hi-1, one x at a time.

    cuts lists x's (cut1, cut2) with an index in lo..hi-1, so the splits
    come in canonical order: (|x|, x lexicographic, cut1, cut2).  Every x of
    one length has the same cuts, so a word whose splits all lie below lo is
    skipped whole.
    """
    i = 0
    for n in range(universe.min_x, universe.max_x + 1):
        cuts = list(iter_splits(n, universe.forms))
        for x in first_use_words(n, universe.alphabet_size):
            if i >= hi:
                return
            if i + len(cuts) > lo:
                yield x, cuts[max(lo - i, 0) : hi - i]
            i += len(cuts)


def enumerate_specs(
    universe: Universe, max_checks: int = DEFAULT_MAX_CHECKS
) -> Iterator[InterruptSpec]:
    """Every spec of the universe exactly once, every x of every orbit.

    Canonical order: (|x|, x lexicographic, cut1, cut2, e1, e2).  The cap
    applies to the specs yielded, k!/(k-m)! per first-use spec.
    """
    splits = _split_count(universe, count_primitive_words)
    _check_size(splits * sum(s - 1 for s in universe.e_sums), max_checks, "specs")
    if not splits:
        return
    pairs = exponent_pairs(universe.e_sums)
    for n in range(universe.min_x, universe.max_x + 1):
        cuts = list(iter_splits(n, universe.forms))
        for x in primitive_words(n, universe.alphabet_size):
            for cut1, cut2 in cuts:
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
    """One split's core and windows, shared by every claim and (e1, e2).

    pairs are the split's (e1, e2) in canonical order.  A claim reads the
    context and lists its violations as plain (factor, expected, actual)
    values, which _Kept turns into rows.  The windows come from
    W0 = x·x1·x3·x·x, the split's shortest word (spec0): hist counts its
    length-|x| windows, and note2_linear counts its length-(|x|-1) ones
    itself.  By the count rule in the module docstring, a window f of
    either length occurs h[f] + (s - MIN_E_SUM)·(f in xx) times in a spec
    with e1+e2 = s, h being W0's histogram of that length.  W starts and ends with x, so its |x|-1 wraparound windows
    are the rotations 1..|x|-1 of x, each once: read cyclically, f occurs
    once more when f is in wraparound = (x+x)[1:-1].
    """

    def __init__(self, split: DeletionSplit, pairs: Sequence[tuple[int, int]]):
        self.split = split
        self.pairs = pairs
        self.spec0 = spec0 = InterruptSpec(split, 1, MIN_E_SUM - 1)
        self.report: CoreReport = core(spec0)
        self.n = n = len(split.x)
        self.xx = xx = split.x * 2
        word = self.report.word
        windows = [word[j : j + n] for j in range(len(word) - n + 1)]
        self.hist = Counter(windows)
        anchors = anchor_windows(spec0, self.report)
        lo, hi = anchors[0][0], anchors[-1][0] + 1
        self.anchored = sorted(set(windows[lo:hi]))
        self.non_anchored = sorted(set(windows[:lo]) | set(windows[hi:]))
        self.wraparound = xx[1:-1]


# Each claim maps a split context to (assertions evaluated over all of its
# (e1, e2), per_sum), where per_sum(s) lists the (factor, expected, actual)
# violations of a spec with e1+e2 = s, in factor order.  The count is
# per-split arithmetic; per_sum does the per-factor work, and only when
# _Kept.offer or check_claim asks for it.
# A cyclic claim is its linear twin with wraparound = ctx.wraparound.
_PerSum = Callable[[int], list[tuple[str, int, int]]]
_Result = tuple[int, _PerSum]


def _mismatches(
    ctx: _SplitContext,
    factors: list[str],
    hist: Counter,
    expected: int | None = None,
    wraparound: str = "",
) -> _Result:
    """Factors whose count is not expected (None: e1+e2) in each spec."""

    def per_sum(s: int) -> list[tuple[str, int, int]]:
        want, extra = expected or s, s - MIN_E_SUM
        counts = (
            (f, hist[f] + extra * (f in ctx.xx) + (f in wraparound)) for f in factors
        )
        return [(f, want, a) for f, a in counts if a != want]

    return len(factors) * len(ctx.pairs), per_sum


class _Kept:
    """The first `limit` violation rows offered, in tuple order.

    A row is (|x|, σ(x), cut1, cut2, e1, e2, factor, expected, actual): the
    spec's key, then the factor, so tuple order is canonical witness order.
    Rows gather unsorted.  Whenever limit more have come, the list is
    sorted and cut back to limit, and the last row kept becomes the bound:
    a later row past it cannot be among the first limit.  So keeping costs
    O(log limit) per row in any arrival order, and the list never holds
    more than 2·limit.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.bound: tuple | None = None
        self._rows: list[tuple] = []

    def cut(self) -> list[tuple]:
        """Sort the rows and cut them back to limit; returns them."""
        self._rows.sort()
        del self._rows[self.limit :]
        return self._rows

    def offer(self, ctx: _SplitContext, per_sum: _PerSum, orbit: Iterator) -> None:
        """Keep the violations of every orbit member's specs that can rank.

        x comes first in its orbit, so a split whose first-use head
        (|x|, x, cut1, cut2) is past the bound has no row to keep, and
        per_sum is not called for it: once the bound is set low, the splits
        after it cost no per-factor work.  Otherwise per_sum lists the
        split's violations once per exponent sum, and only a split that has
        one reads a copy of orbit, the tee of x's renamings (σ(x), σ) of
        words.renamings in σ(x) order.  The specs and renamed factors of
        each member come in row order, so the first row past the bound ends
        the offer: an offer draws at most limit + 1 renamings.  The rows
        stay rows up to run(), which builds the witnesses.
        """
        rows, n, cut1, cut2 = self._rows, ctx.n, ctx.split.cut1, ctx.split.cut2
        if self.bound is not None and (n, ctx.split.x, cut1, cut2) > self.bound[:4]:
            return
        found = {s: per_sum(s) for s in {e1 + e2 for e1, e2 in ctx.pairs}}
        if not any(found.values()):
            return  # x has no violation, so no renaming of it has one
        for sx, table in copy(orbit):
            renamed = {
                s: sorted((f.translate(table), want, got) for f, want, got in fs)
                for s, fs in found.items()
            }
            for e1, e2 in ctx.pairs:
                for f, want, actual in renamed[e1 + e2]:
                    row = (n, sx, cut1, cut2, e1, e2, f, want, actual)
                    if self.bound is not None and row > self.bound:
                        return
                    rows.append(row)
                    if len(rows) == 2 * self.limit:
                        self.bound = self.cut()[-1]


def _dft_bound(ctx: _SplitContext) -> _Result:
    rep, n = ctx.report, ctx.n
    actual = rep.p_len + rep.s_len
    fails = [("", n - 2, actual)] if actual > n - 2 else []
    return len(ctx.pairs), lambda s: fails


def _dichotomy(ctx: _SplitContext) -> _Result:
    # A length-|x| factor is a rotation of x exactly when it occurs in x+x.
    # Every window of W is one assertion: (e1+e2)·|x| - |x2| + 1 of them.
    windows = sum(e1 + e2 for e1, e2 in ctx.pairs) * ctx.n
    checked = windows - len(ctx.pairs) * (len(ctx.split.x2) - 1)
    return checked, lambda s: [(f, 1, 0) for f in ctx.non_anchored if f not in ctx.xx]


def _distinct_count(ctx: _SplitContext) -> _Result:
    rep, n = ctx.report, ctx.n
    distinct = len(ctx.hist)
    expected = 2 * n - rep.p_len - rep.s_len - 1
    fails = [("", expected, distinct)] if distinct != expected else []
    return len(ctx.pairs), lambda s: fails


def _note2_linear(ctx: _SplitContext) -> _Result:
    # Stated only for the boundary case lcp + lcs == |x| - 2.
    rep = ctx.report
    if rep.p_len + rep.s_len != ctx.n - 2:
        return 0, lambda s: []
    sp = rep.s_tilde[1:] + rep.p_tilde[:-1]
    word, m = rep.word, ctx.n - 1
    hist = Counter(word[j : j + m] for j in range(len(word) - m + 1))
    return _mismatches(ctx, [f for f in sorted(hist) if sp in f], hist)


_CLAIMS: dict[ClaimId, Callable[[_SplitContext], _Result]] = {
    ClaimId.DFT_BOUND: _dft_bound,
    ClaimId.THEOREM1: lambda ctx: _mismatches(ctx, ctx.anchored, ctx.hist, 1),
    ClaimId.THEOREM1_DELETION: lambda ctx: _mismatches(ctx, ctx.anchored, ctx.hist, 1),
    ClaimId.DICHOTOMY: _dichotomy,
    ClaimId.DISTINCT_COUNT: _distinct_count,
    ClaimId.CORE_CYCLIC_UNIQUE: (
        lambda ctx: _mismatches(ctx, ctx.anchored, ctx.hist, 1, ctx.wraparound)
    ),
    ClaimId.NOTE2_LINEAR: _note2_linear,
    ClaimId.NOTE3_LINEAR: lambda ctx: _mismatches(ctx, ctx.non_anchored, ctx.hist),
    ClaimId.NOTE3_CYCLIC: (
        lambda ctx: _mismatches(ctx, ctx.non_anchored, ctx.hist, None, ctx.wraparound)
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
    ctx = _SplitContext(spec.split, [(spec.e1, spec.e2)])
    checked, per_sum = _CLAIMS[claim](ctx)
    violations = per_sum(spec.e1 + spec.e2)
    return SpecCheck(checked, tuple(Witness(spec, *v) for v in violations))


def _eval_chunk(args: tuple[Universe, int, int, list[ClaimId], int]):
    """Per claim: (assertions evaluated, the chunk's first max_violations rows).

    The chunk is the first-use splits with canonical indices lo..hi-1, each
    with every (e1, e2) of the universe, standing for every split of its
    orbit.  The worker enumerates them itself, one first-use word x at a
    time, and keeps each claim's violations as rows (see _Kept), which it
    returns sorted.  Per x it computes the orbit size, k!/(k-m)! words for
    m distinct letters, and one tee of the renamings, never advanced
    itself; an offer that can keep a row reads a copy, so every renaming
    is drawn at most once per chunk, and only as far as an offer reads.
    """
    universe, lo, hi, claims, max_violations = args
    pairs = exponent_pairs(universe.e_sums) if lo < hi else []
    checked = dict.fromkeys(claims, 0)
    kept = {c: _Kept(max_violations) for c in claims}
    for x, cuts in _word_cuts(universe, lo, hi):
        size = perm(universe.alphabet_size, len(set(x)))
        (orbit,) = tee(renamings(x, universe.alphabet_size), 1)
        for cut1, cut2 in cuts:
            ctx = _SplitContext(DeletionSplit(x, cut1, cut2), pairs)
            for c in claims:
                if not applies(c, ctx.spec0):
                    continue
                count, per_sum = _CLAIMS[c](ctx)
                checked[c] += count * size
                kept[c].offer(ctx, per_sum, orbit)
    return {c: (checked[c], kept[c].cut()) for c in claims}


def run(
    universe: Universe,
    claims: Iterable[ClaimId] | None = None,
    max_violations: int = DEFAULT_MAX_VIOLATIONS,
    jobs: int = 1,
    max_checks: int = DEFAULT_MAX_CHECKS,
) -> list[ClaimReport]:
    """Evaluate claims over every spec of the universe.

    Output is deterministic and identical for any job count: every spec is
    evaluated (no early exit), through the first-use spec of its orbit, and
    chunk results merge in canonical order.  A chunk is a range of
    first-use split indices, so the parent holds no spec and sends each
    worker five small values.  Each chunk keeps only its first
    max_violations violation rows per claim, sorted, and counts the rest
    of its assertions, so memory is bounded by what is reported.  A renamed
    spec can sort before specs of earlier chunks, so the parent merges the
    chunks' sorted rows in plain tuple order; the first max_violations of
    the merge are the first of the whole universe, for any chunking.  Only
    those rows become Witnesses, and each reported split and spec is one
    object, shared by every claim that reports it.  The pool starts at
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
    _check_size(
        estimated_checks(universe),
        max_checks,
        "specs to evaluate (one per letter-renaming orbit)",
    )
    splits = _split_count(universe)
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1 or splits < 2:
        parts = [_eval_chunk((universe, 0, splits, claim_list, max_violations))]
    else:
        size = -(-splits // (workers * 8))
        tasks = [
            (universe, lo, min(lo + size, splits), claim_list, max_violations)
            for lo in range(0, splits, size)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_eval_chunk, tasks))
    split_of, spec_of = cache(DeletionSplit), cache(InterruptSpec)

    def witness(_n, sx, cut1, cut2, e1, e2, *violation) -> Witness:
        return Witness(spec_of(split_of(sx, cut1, cut2), e1, e2), *violation)

    reports = []
    for c in claim_list:
        checked = sum(part[c][0] for part in parts)
        rows = merge(*(part[c][1] for part in parts))
        violations = [witness(*row) for row in islice(rows, max_violations)]
        if checked == 0:
            status = "not_applicable"
        elif violations:
            status = "fails"
        else:
            status = "holds"
        reports.append(ClaimReport(c, checked, status, tuple(violations)))
    return reports


def verdict(reports: Iterable[ClaimReport], strict_notes: bool = False) -> bool:
    """True when no gating claim (nor, with strict_notes, any claim) fails."""
    for rep in reports:
        if rep.status != "fails":
            continue
        if rep.claim in GATING_CLAIMS or strict_notes:
            return False
    return True
