"""Exhaustive claim verification over small universes of interrupted repetitions.

Each claim is a per-spec assertion about how often the length-|x| (or, for
note2, length-(|x|-1)) factors of W occur.  The alteration is fixed by the
split (x, cut1, cut2); the exponents only repeat x around it.  So the split
is the unit of work: each is evaluated once, from its shortest word
W0 = x·x1·x3·x·x (e1 = 1, e2 = MIN_E_SUM - 1), into one context of plain
values.  A table maps each claim to two functions.  Its count is
arithmetic in a few per-split stats (the orbit size, how many distinct
windows are anchored and not, |x2|, |x|, note2's factor count), so a chunk
sums the stats per split form and counts every claim once at the end.
Its per_sum lists a spec's mismatches; specs with the same e1+e2 have the
same counts, so it runs once per exponent sum, and only while the claim
can still report rows.  Which claims are stated for a split depends only
on its form, so a chunk picks them once per form, not once per split.  A
worker chunk is a range of split indices in canonical order; the worker
enumerates those splits itself.

Renaming the letters of x injectively keeps every claim's status, count
and factor pattern, since each claim reads only which positions of W hold
equal letters.  So only one x per orbit is evaluated: the first-use word,
whose letters first appear in the order a, b, c, ... (words.first_use_words),
the smallest of its orbit.  Its counts are multiplied by the orbit size,
and each of its violations stands for one violation of every renamed
spec, with the factor renamed too.  From the claim to the report a
violation is a row (|x|, σ(x), cut1, cut2, e1, e2, factor, expected,
actual), whose plain tuple order is canonical witness order, since a factor
occurs at most once per spec and claim.

Which rows rank follows from that order.  Splits come in canonical order
(|x|, x, cut1, cut2), and x is the smallest word of its orbit, so every
row of a first-use split, under any renaming σ, sorts after every
identity (σ = id) row of that split and of every earlier split.  So the
first K = max_violations rows of the universe are among the first K
identity rows and the renamings of the splits those rows belong to: once
K identity rows are held, the renamed rows of the last split held, even
of one cut short, sort after all of them.  A chunk therefore keeps its
first K identity rows per claim and holds no orbit; run() takes the first
K rows of the chunks in chunk order, renames only their splits, lazily,
merges the renamed streams in plain tuple order and builds a Witness only
for the rows it reports.

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
from functools import cache, cached_property
from heapq import merge
from itertools import chain, groupby, islice, tee
from math import perm
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import InvalidLimit, InvalidUniverse, NotApplicable, UniverseTooLarge

# The verifier reads _SplitContext's windows and calls none of core,
# anchor_windows, classify_window, occurrences and cyclic_occurrences.  They
# stay importable from this module because perfbench/tracing.py patches them
# here by name and its tests expect every patched name to exist; a traced
# run reports zero calls to them.
from .interrupts import (
    FORMS,
    MIN_E_SUM,
    DeletionSplit,
    InterruptSpec,
    anchor_windows,
    classify_window,
    core,
    core_lengths,
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


def _stated_for(claim: ClaimId, prefix_form: bool) -> bool:
    """Whether the claim is stated for the prefix form (or the deletion form)."""
    if claim is ClaimId.THEOREM1:
        return prefix_form
    if claim is ClaimId.THEOREM1_DELETION:
        return not prefix_form
    return True


def applies(claim: ClaimId, spec: InterruptSpec) -> bool:
    """Whether the claim is stated for the spec's form."""
    return _stated_for(claim, spec.split.is_prefix_form)


class _Stats(NamedTuple):
    """The per-split numbers every claim's assertion count is arithmetic in.

    A split contributes (1, |anchored|, |non_anchored|, |x|, |x2|, note2's
    factor count); a chunk sums them per form, each times the split's
    orbit size.
    """

    splits: int
    anchored: int
    non_anchored: int
    x_len: int
    x2_len: int
    note2: int


class _SplitContext:
    """One split's core and W0 windows, shared by every claim and e1+e2.

    Built from plain values (x, cut1, cut2), with xx = x+x passed in by a
    caller that holds it; x is primitive.  u = xx[cut1:cut1+|x|] and
    v = xx[cut2:cut2+|x|] are the expected and the actual continuation
    past the junction, p = lcp(v, u) and s = lcs(u, v) (core_lengths).  The
    windows come from W0 = x·x1·x3·x·x, the split's shortest word
    (e1 = 1, e2 = MIN_E_SUM - 1), whose junction is |x| + cut1: the windows
    at cut1+p+1 .. |x|+cut1-s-1 contain the core and are anchored, the
    others are not.  stats holds the split's _Stats.

    A claim's per_sum reads the context and lists its violations as plain
    (factor, expected, actual) values, which _eval_chunk turns into rows.
    hist counts W0's length-|x| windows, and note2_linear counts its
    length-(|x|-1) ones (short) in the boundary case.  By the count rule in
    the module docstring, a window f of either length occurs
    h[f] + (s - MIN_E_SUM)·(f in xx) times in a spec with e1+e2 = s, h being
    W0's histogram of that length.  W starts and ends with x, so its |x|-1
    wraparound windows are the rotations 1..|x|-1 of x, each once: read
    cyclically, f occurs once more when f is in wraparound = xx[1:-1].
    """

    def __init__(self, x: str, cut1: int, cut2: int, xx: str = ""):
        self.x, self.cut1, self.cut2 = x, cut1, cut2
        self.n = n = len(x)
        self.xx = xx = xx or x + x
        u, v = xx[cut1 : cut1 + n], xx[cut2 : cut2 + n]
        self.p, self.s = p, s = core_lengths(x, u, v)
        word = x + x[:cut1] + x[cut2:] + xx
        self.windows = windows = [word[j : j + n] for j in range(len(word) - n + 1)]
        lo, hi = cut1 + p + 1, n + cut1 - s
        self.anchored = set(windows[lo:hi])
        self.non_anchored = non_anchored = set(windows[:lo])
        non_anchored.update(windows[hi:])
        # note2 is stated for the boundary case p + s = |x| - 2 only: its
        # factors are the length-(|x|-1) windows holding the core without
        # its two outer symbols.
        self.note2: set[str] = set()
        if p + s == n - 2:
            m, sp = n - 1, u[n - s :] + v[:p]
            self.short = [word[j : j + m] for j in range(len(word) - m + 1)]
            self.note2 = {f for f in self.short if sp in f}
        self.stats = _Stats(
            1, len(self.anchored), len(non_anchored), n, cut2 - cut1, len(self.note2)
        )

    @cached_property
    def hist(self) -> Counter:
        return Counter(self.windows)


# Each claim is a table entry (count, per_sum).  count(t, s) is the number
# of assertions the claim evaluates on a spec with e1+e2 = s, for a split
# with stats t; it is linear in t, so a chunk applies it to the sum of its
# splits' stats.  per_sum(ctx, s) lists the (factor, expected, actual)
# violations of such a spec, in factor order; a chunk calls it only while
# it has room for the claim's rows, and check_claim for its one spec.  A
# cyclic claim is its linear twin with wraparound = ctx.xx[1:-1].
_Count = Callable[[_Stats, int], int]
_PerSum = Callable[[_SplitContext, int], list[tuple[str, int, int]]]
# Per claim: (assertions evaluated, violation rows), for a chunk or a run.
_Chunk = dict[ClaimId, tuple[int, list[tuple]]]


def _mismatches(
    ctx: _SplitContext,
    s: int,
    factors: Iterable[str],
    hist: Counter,
    expected: int | None = None,
    wraparound: str = "",
) -> list[tuple[str, int, int]]:
    """Factors whose count in a spec with e1+e2 = s is not expected (None: s)."""
    want, extra, xx = expected or s, s - MIN_E_SUM, ctx.xx
    counts = ((f, hist[f] + extra * (f in xx) + (f in wraparound)) for f in factors)
    return sorted((f, want, a) for f, a in counts if a != want)


def _dft_bound(ctx: _SplitContext, s: int) -> list[tuple[str, int, int]]:
    actual = ctx.p + ctx.s
    return [("", ctx.n - 2, actual)] if actual > ctx.n - 2 else []


def _dichotomy(ctx: _SplitContext, s: int) -> list[tuple[str, int, int]]:
    # A length-|x| factor is a rotation of x exactly when it occurs in x+x.
    bad = [f for f in ctx.non_anchored if f not in ctx.xx]
    return [(f, 1, 0) for f in sorted(bad)]


def _distinct_count(ctx: _SplitContext, s: int) -> list[tuple[str, int, int]]:
    distinct = len(ctx.anchored | ctx.non_anchored)
    expected = 2 * ctx.n - ctx.p - ctx.s - 1
    return [("", expected, distinct)] if distinct != expected else []


def _note2_linear(ctx: _SplitContext, s: int) -> list[tuple[str, int, int]]:
    if not ctx.note2:
        return []
    return _mismatches(ctx, s, ctx.note2, Counter(ctx.short))


def _unique(ctx: _SplitContext, s: int) -> list[tuple[str, int, int]]:
    return _mismatches(ctx, s, ctx.anchored, ctx.hist, 1)


_CLAIMS: dict[ClaimId, tuple[_Count, _PerSum]] = {
    ClaimId.DFT_BOUND: (lambda t, s: t.splits, _dft_bound),
    ClaimId.THEOREM1: (lambda t, s: t.anchored, _unique),
    ClaimId.THEOREM1_DELETION: (lambda t, s: t.anchored, _unique),
    # Every window of W is one assertion: (e1+e2)·|x| - |x2| + 1 of them.
    ClaimId.DICHOTOMY: (lambda t, s: s * t.x_len - t.x2_len + t.splits, _dichotomy),
    ClaimId.DISTINCT_COUNT: (lambda t, s: t.splits, _distinct_count),
    ClaimId.CORE_CYCLIC_UNIQUE: (
        lambda t, s: t.anchored,
        lambda ctx, s: _mismatches(ctx, s, ctx.anchored, ctx.hist, 1, ctx.xx[1:-1]),
    ),
    ClaimId.NOTE2_LINEAR: (lambda t, s: t.note2, _note2_linear),
    ClaimId.NOTE3_LINEAR: (
        lambda t, s: t.non_anchored,
        lambda ctx, s: _mismatches(ctx, s, ctx.non_anchored, ctx.hist),
    ),
    ClaimId.NOTE3_CYCLIC: (
        lambda t, s: t.non_anchored,
        lambda ctx, s: _mismatches(
            ctx, s, ctx.non_anchored, ctx.hist, None, ctx.xx[1:-1]
        ),
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
    split, s = spec.split, spec.e1 + spec.e2
    ctx = _SplitContext(split.x, split.cut1, split.cut2)
    count, per_sum = _CLAIMS[claim]
    violations = per_sum(ctx, s)
    return SpecCheck(count(ctx.stats, s), tuple(Witness(spec, *v) for v in violations))


def _eval_chunk(args: tuple[Universe, int, int, list[ClaimId], int]) -> _Chunk:
    """Per claim: (assertions evaluated, the chunk's first max_violations rows).

    The chunk is the first-use splits with canonical indices lo..hi-1, each
    with every (e1, e2) of the universe, standing for every split of its
    orbit, k!/(k-m)! words for m distinct letters.  The worker enumerates
    the splits itself, one first-use word x at a time, in canonical order;
    x+x and the orbit size are computed once per word, and the claims
    stated for each form once per chunk.  A split costs one _SplitContext:
    its stats are summed per form, times the orbit size, and each claim's
    count is arithmetic in those sums at the end.  The chunk renames
    nothing, so the rows it keeps are the first identity rows (σ = id) of
    its range, in row order.  A claim calls per_sum only while it holds
    fewer than max_violations rows; after that a split costs it one len().
    _merge_chunks renames the rows that rank.
    """
    universe, lo, hi, claims, max_violations = args
    pairs = exponent_pairs(universe.e_sums) if lo < hi else []
    kept: dict[ClaimId, list[tuple]] = {c: [] for c in claims}
    # Per form (False: deletion, True: prefix): the stated claims' per_sum
    # and rows, and the sums of the splits' stats times their orbit sizes.
    stated = {
        form: [(_CLAIMS[c][1], kept[c]) for c in claims if _stated_for(c, form)]
        for form in (False, True)
    }
    totals = {form: [0] * len(_Stats._fields) for form in (False, True)}
    for x, cuts in _word_cuts(universe, lo, hi):
        n, xx = len(x), x + x
        size = perm(universe.alphabet_size, len(set(x)))
        stats: dict[bool, list[_Stats]] = {False: [], True: []}
        for cut1, cut2 in cuts:
            ctx = _SplitContext(x, cut1, cut2, xx)
            form = cut2 == n
            stats[form].append(ctx.stats)
            for per_sum, rows in stated[form]:
                if len(rows) >= max_violations:
                    continue
                found = {s: per_sum(ctx, s) for s in universe.e_sums}
                if not any(found.values()):
                    continue
                rows += islice(
                    (
                        (n, x, cut1, cut2, e1, e2, *v)
                        for e1, e2 in pairs
                        for v in found[e1 + e2]
                    ),
                    max_violations - len(rows),
                )
        for form, split_stats in stats.items():
            if split_stats:
                totals[form] = [
                    t + size * sum(col)
                    for t, col in zip(totals[form], zip(*split_stats))
                ]
    checked = dict.fromkeys(claims, 0)
    for form, total in totals.items():
        sums = _Stats(*total)
        for c in claims:
            if _stated_for(c, form):
                count = _CLAIMS[c][0]
                checked[c] += sum(count(sums, e1 + e2) for e1, e2 in pairs)
    return {c: (checked[c], kept[c]) for c in claims}


def _merge_chunks(
    parts: list[_Chunk], max_violations: int, alphabet_size: int
) -> _Chunk:
    """Per claim: (assertions evaluated, the universe's first max_violations rows).

    parts are _eval_chunk results in chunk order, so the first
    max_violations rows of their concatenation are the universe's first
    identity rows, and by the ordering argument in the module docstring
    the rows to report are among those and their splits' renamings.  Each
    such split streams its rows renamed into each word of its orbit:
    renamings yields (σ(x), σ) in σ(x) order, x first, and rows of two σ
    differ first at σ(x), so sorting each σ's rows puts the stream in row
    order.  The streams merge lazily, and a stream draws its next renaming
    only once the merge has taken every row of the one before; with one
    never-advanced tee per x, shared by every claim and split, at most
    max_violations + 1 renamings of a word are drawn.
    """
    orbit = cache(lambda x: tee(renamings(x, alphabet_size), 1)[0])

    def renamed(rows: list[tuple]) -> Iterator[tuple]:
        for sx, table in copy(orbit(rows[0][1])):
            yield from sorted(
                (n, sx, cut1, cut2, e1, e2, f.translate(table), want, got)
                for n, _, cut1, cut2, e1, e2, f, want, got in rows
            )

    merged = {}
    for c in parts[0]:
        held = islice(chain.from_iterable(p[c][1] for p in parts), max_violations)
        splits = [list(rows) for _, rows in groupby(held, key=lambda r: r[:4])]
        first = islice(merge(*map(renamed, splits)), max_violations)
        merged[c] = (sum(p[c][0] for p in parts), list(first))
    return merged


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
    max_violations identity rows per claim and counts the rest of its
    assertions, so memory is bounded by what is reported.  _merge_chunks
    renames the splits of the first max_violations of them and keeps the
    first max_violations rows of the whole universe, for any chunking.
    Only those rows become Witnesses, and each reported split and spec is
    one object, shared by every claim that reports it.  The pool starts at
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
    merged = _merge_chunks(parts, max_violations, universe.alphabet_size)
    for c, (checked, rows) in merged.items():
        violations = [witness(*row) for row in rows]
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
