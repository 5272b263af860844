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
on its form (and its mirror's), so a chunk lists them once per pair of
forms, not once per split.  Each worker runs one chunk: the first-use
words are dealt out among the chunks by canonical index, and a worker
enumerates its words itself.

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

Reading a record backwards gives another one.  x^R = x3^R·x2^R·x1^R, so W
read backwards is build(x^R, |x|-cut2, |x|-cut1, e2, e1): u and v become
v^R and u^R, p and s swap, and the core, the anchored windows and the
rotations of x become those of the reversed word.  A factor f occurs as
often in W as f^R in W^R, so each claim makes on the mirror spec the
assertions it makes on the spec, with each factor reversed, and finds the
same violations.  A prefix split (cut2 = |x|) mirrors to a deletion split
with cut1 = 0; theorem1 and theorem1_deletion are one assertion stated for
the two forms.  With x^R renamed to its first-use word m by a table τ, the
mirror of the first-use split (x, cut1, cut2) is (m, |x|-cut2, |x|-cut1).
It is in the universe always for --forms both, when cut1 > 0 for
deletion (its cut2 is |x|-cut1), and never for prefix.  A chunk evaluates
a split unless its mirror is in the universe and sorts before it (under
both, no split of a word with m < x), and a split evaluated stands for its
mirror too unless it is its own: the mirror's stats are the split's
(|x2| and the window counts are kept), and its violations are the
split's with each factor f replaced by τ(f^R) and sorted again.  So each
mirror orbit costs one context.  test_every_spec_equals_its_mirror checks
the mirror fact on every spec of two universes.

Which rows rank follows from row order.  Splits come in canonical order
(|x|, x, cut1, cut2), and x is the smallest word of its orbit, so every
row of a first-use split, under any renaming σ, sorts after every
identity (σ = id) row of that split and of every earlier split.  So the
first K = max_violations rows of the universe are among the first K
identity rows and the renamings of the splits those rows belong to: once
K identity rows are held, the renamed rows of the last split held, even
of one cut short, sort after all of them.  Each first-use split's
identity rows come from exactly one chunk: the one dealt the split's
word, or the one dealt its mirror's word when the mirror is evaluated.
A chunk keeps the first K of its identity rows per claim, its own and
its mirrors' together, and holds no orbit.  Each of the universe's first
K identity rows lies in its chunk's list, since fewer than K of that
chunk's rows, all identity rows of the universe, sort before it, however
the splits are dealt.  So run() takes the first K rows of the merge of
the chunks' sorted lists, renames only their splits, lazily, merges the
renamed streams in plain tuple order and builds a Witness only for the
rows it reports.  A chunk visits its splits in canonical order and a
mirror sorts after its split, so a row not produced yet (of the split in
hand, a later split or their mirrors) sorts after every row of an
earlier split.  So once a claim holds K rows of the chunk's own splits,
it calls per_sum no more; mirror rows do not count, since a mirror can
sort after splits still to come.

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
and do not move, and W0 already holds every rotation of x outside them
(its last x+x does), so the anchored and non-anchored factor sets and the
number of distinct windows do not depend on (e1, e2) either.
test_check_claim_equals_naive_oracle and
test_check_claim_equals_naive_oracle_on_long_x check this against the
slicing oracle evaluate_naive in tests/oracles.py.

Rotation test: a split's context slices only its anchored windows, at
lo = cut1+p+1 .. hi-1 = |x|+cut1-s-1 in W0, and checks with two compares
that W0[:lo+|x|-1] is a prefix and W0[hi:] a suffix of x^4.  The
non-anchored windows are the windows of those two stretches.  The test
holds exactly when every non-anchored window occurs in x+x.  If it holds,
each such window is a window of x^∞, a rotation of x.  Conversely, let
every window of a stretch be a rotation.  Two consecutive windows that
are both rotations advance the phase by one: the second's first |x|-1
letters are the first's last |x|-1 letters, which begin exactly one
rotation (the length-(|x|-1) argument above).  The first stretch starts
with x and the second ends with x, so by induction the first reads x^∞
from its start and the second reads it up to its end: both are in phase,
and x^4 is long enough for either (at most 3|x|-3 and 4|x|-3 symbols,
since cut1 < cut2 <= |x| and p+s <= |x|-2).  When the test holds, the
tail's 2|x|-cut2+s+1 > |x| windows are consecutive windows of x^∞ and hold
every rotation, so the non-anchored factors are the |x| rotations,
dichotomy has no violation, and the distinct count is |x| plus the
anchored windows that do not occur in x+x.  These follow from W0's
symbols for whatever p and s the context holds, not from the theorem:
with p and s right the stretches are in phase by their definition (lcp
and lcs), a p or s that overstates the agreement fails the test, and
then every stat and violation is read from all of W0's windows.

Gating claims are expected to hold (a failure fails the run); reported
claims record their empirical status and never gate, because the
straightforward readings of the occurrence-count side claims are false on
small instances and the point is to say so with witnesses.
"""

from __future__ import annotations

import os
from collections import Counter
from copy import copy
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from heapq import merge
from itertools import groupby, islice, tee
from math import perm
from multiprocessing import Pipe, Process
from multiprocessing.connection import Connection
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import InvalidLimit, InvalidUniverse, NotApplicable, UniverseTooLarge

# The verifier reads _SplitContext's windows and calls none of core,
# anchor_windows, classify_window, occurrences and cyclic_occurrences, and
# run() forks its workers without a ProcessPoolExecutor.  They stay
# importable from this module because perfbench/tracing.py patches them here
# by name and its tests expect every patched name to exist; a traced run
# reports zero calls to them.
from concurrent.futures import ProcessPoolExecutor

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
    LETTERS,
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
MAX_X_LEN = 16


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


def _word_count(universe: Universe) -> int:
    """Number of first-use words that have splits: the words _word_cuts deals."""
    return sum(
        count_first_use_words(n, universe.alphabet_size)
        for n in range(universe.min_x, universe.max_x + 1)
        if any(True for _ in iter_splits(n, universe.forms))
    )


def _word_cuts(
    universe: Universe, part: int, parts: int
) -> Iterator[tuple[str, list]]:
    """(x, cuts) for the first-use words dealt to part `part` of `parts`.

    The words that have splits are indexed in canonical order (|x|, x
    lexicographic), and the part gets every word whose index i has
    i % parts == part, with all of its (cut1, cut2); so the part's splits
    come in canonical order: (|x|, x, cut1, cut2).
    """
    i = 0
    for n in range(universe.min_x, universe.max_x + 1):
        cuts = list(iter_splits(n, universe.forms))
        if not cuts:
            continue
        for x in first_use_words(n, universe.alphabet_size):
            if i % parts == part:
                yield x, cuts
            i += 1


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
    windows come from word = W0 = x·x1·x3·x·x, the split's shortest word
    (e1 = 1, e2 = MIN_E_SUM - 1), whose junction is |x| + cut1: the windows
    at lo = cut1+p+1 .. hi-1 = |x|+cut1-s-1 contain the core and are
    anchored, the others are not.  Only the anchored ones are sliced up
    front.  in_phase is the rotation test of the module docstring: when it
    holds, the non-anchored windows are exactly the |x| rotations of x, so
    the stats, dichotomy and distinct_count need no other window.  stats
    holds the split's _Stats.

    A claim's per_sum reads the context and lists its violations as plain
    (factor, expected, actual) values, which _eval_chunk turns into rows.
    windows lists W0's length-|x| windows, non_anchored is the set of those
    outside lo..hi-1 and hist counts them; all three are built only when
    read, by a claim that counts occurrences or when in_phase fails.
    note2_linear counts the length-(|x|-1) windows (short) in the boundary
    case.  By the count rule in the module docstring, a window f of either
    length occurs h[f] + (s - MIN_E_SUM)·(f in xx) times in a spec with
    e1+e2 = s, h being W0's histogram of that length.  W starts and ends
    with x, so its |x|-1 wraparound windows are the rotations 1..|x|-1 of
    x, each once: read cyclically, f occurs once more when f is in
    wraparound = xx[1:-1].
    """

    def __init__(self, x: str, cut1: int, cut2: int, xx: str = ""):
        self.x, self.cut1, self.cut2 = x, cut1, cut2
        self.n = n = len(x)
        self.xx = xx = xx or x + x
        u, v = xx[cut1 : cut1 + n], xx[cut2 : cut2 + n]
        self.p, self.s = p, s = core_lengths(x, u, v)
        self.word = word = x + x[:cut1] + x[cut2:] + xx
        self.lo, self.hi = lo, hi = cut1 + p + 1, n + cut1 - s
        self.anchored = {word[j : j + n] for j in range(lo, hi)}
        self.in_phase = self._in_phase()
        # note2 is stated for the boundary case p + s = |x| - 2 only: its
        # factors are the length-(|x|-1) windows holding the core without
        # its two outer symbols.
        self.note2: set[str] = set()
        if p + s == n - 2:
            m, sp = n - 1, u[n - s :] + v[:p]
            self.short = [word[j : j + m] for j in range(len(word) - m + 1)]
            self.note2 = {f for f in self.short if sp in f}
        non_anchored = n if self.in_phase else len(self.non_anchored)
        self.stats = _Stats(
            1, len(self.anchored), non_anchored, n, cut2 - cut1, len(self.note2)
        )

    def _in_phase(self) -> bool:
        """W0[:lo+|x|-1] is a prefix and W0[hi:] a suffix of x^4."""
        x4, word = self.xx * 2, self.word
        return x4.startswith(word[: self.lo + self.n - 1]) and x4.endswith(
            word[self.hi :]
        )

    @cached_property
    def windows(self) -> list[str]:
        word, n = self.word, self.n
        return [word[j : j + n] for j in range(len(word) - n + 1)]

    @cached_property
    def non_anchored(self) -> set[str]:
        return set(self.windows[: self.lo]).union(self.windows[self.hi :])

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
    if ctx.in_phase:
        return []
    bad = [f for f in ctx.non_anchored if f not in ctx.xx]
    return [(f, 1, 0) for f in sorted(bad)]


def _distinct_count(ctx: _SplitContext, s: int) -> list[tuple[str, int, int]]:
    if ctx.in_phase:
        distinct = ctx.n + sum(f not in ctx.xx for f in ctx.anchored)
    else:
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


def _mirror(x: str) -> tuple[str, dict[int, int]]:
    """(m, τ): x read backwards, renamed by the str.translate table τ into
    the first-use word m of its orbit.

    >>> _mirror("aab")[0], _mirror("abb")[0], _mirror("abba")[0]
    ('abb', 'aab', 'abba')
    """
    back = x[::-1]
    tau = str.maketrans("".join(dict.fromkeys(back)), LETTERS[: len(set(x))])
    return back.translate(tau), tau


class _Held:
    """One claim's rows in a chunk: at least the first k of the rows added,
    unsorted, and how many of the rows added are of the chunk's own splits,
    not of their mirrors.  When rows outgrows 2k it is cut to its first k.
    """

    __slots__ = ("k", "rows", "own")

    def __init__(self, k: int):
        self.k, self.rows, self.own = k, [], 0

    def add(self, rows: list[tuple], own: bool) -> None:
        if own:
            self.own += len(rows)
        self.rows += rows
        if len(self.rows) > 2 * self.k:
            self.rows.sort()
            del self.rows[self.k :]


def _eval_chunk(args: tuple[Universe, int, int, list[ClaimId], int]) -> _Chunk:
    """Per claim: (assertions evaluated, the chunk's first max_violations rows).

    args is (universe, part, parts, claims, max_violations), and the chunk
    is the first-use words _word_cuts deals to part `part` of `parts`, each
    with all of its splits and every (e1, e2) of the universe, standing for
    every split of its orbit, k!/(k-m)! words for m distinct letters.  The
    worker enumerates its words itself, in canonical order; x+x, the orbit
    size and x's mirror word are computed once per word, and the claims to
    visit per (form, mirror form) once per chunk and again when a claim
    runs out of room.  A split whose mirror is in the universe and sorts
    before it is left to the mirror's chunk; any other split costs one
    _SplitContext, which also stands for its mirror.  Its stats are summed
    per form, times the orbit size, once for the split and once more, under
    the mirror's form, for a mirror that is not the split itself; each
    claim's count is arithmetic in those sums at the end, and depends only
    on e1+e2.  The chunk renames nothing but the mirror's factors, so its
    rows are identity rows (σ = id) of its splits and their mirrors, and it
    keeps the first max_violations of them per claim, in row order.  A
    claim calls per_sum for a split stated for it or for its mirror until
    it holds max_violations rows of the chunk's own splits; by the module
    docstring no row after those can rank.  _merge_chunks renames the rows
    that rank.
    """
    universe, part, parts, claims, max_violations = args
    # read only by _rows, so a chunk that meets no split builds no pairs
    pairs = cache(lambda: exponent_pairs(universe.e_sums))
    held = {c: _Held(max_violations) for c in claims}
    open_claims = list(claims)

    def visits(form: bool, back_form: bool | None) -> list:
        """(claim, per_sum, rows, stated for the split, stated for the
        mirror) per claim with room for rows that is stated for a split of
        the form or for its mirror; back_form is the mirror's form, None
        when the split has no mirror."""
        entries = []
        for c in open_claims:
            own = _stated_for(c, form)
            back = back_form is not None and _stated_for(c, back_form)
            if own or back:
                entries.append((c, _CLAIMS[c][1], held[c], own, back))
        return entries

    # Per (form, mirror form): the claims a split visits, rebuilt when a
    # claim runs out of room.  False is the deletion form, True the prefix.
    form_pairs = [(f, b) for f in (False, True) for b in (None, False, True)]
    plans = {fb: visits(*fb) for fb in form_pairs}
    # Per form (False: deletion, True: prefix): the sums of the splits'
    # stats times their orbit sizes.
    totals = {form: [0] * len(_Stats._fields) for form in (False, True)}
    paired = universe.forms != "prefix"
    for x, cuts in _word_cuts(universe, part, parts):
        n, xx = len(x), x + x
        if paired:
            m, tau = _mirror(x)
            if m < x and universe.forms == "both":
                continue
        size = perm(universe.alphabet_size, len(set(x)))
        stats: dict[bool, list[_Stats]] = {False: [], True: []}
        for cut1, cut2 in cuts:
            key, mirror = (n, x, cut1, cut2), None
            # the mirror is in a both universe always, in a deletion
            # universe when cut1 > 0; it is prefix form when cut1 = 0
            if paired and (cut1 or universe.forms == "both"):
                mirror = (n, m, n - cut2, n - cut1)
                if mirror < key:
                    continue
                if mirror == key:
                    mirror = None
            ctx = _SplitContext(x, cut1, cut2, xx)
            form, back_form = cut2 == n, None if mirror is None else not cut1
            stats[form].append(ctx.stats)
            if back_form is not None:
                stats[back_form].append(ctx.stats)
            closed = False
            for c, per_sum, kept, own, back in plans[form, back_form]:
                found = {s: per_sum(ctx, s) for s in universe.e_sums}
                if not any(found.values()):
                    continue
                if own:
                    kept.add(_rows(key, pairs(), found, max_violations), True)
                if back:
                    found = {
                        s: sorted(
                            (f[::-1].translate(tau), want, got) for f, want, got in v
                        )
                        for s, v in found.items()
                    }
                    kept.add(_rows(mirror, pairs(), found, max_violations), False)
                if kept.own >= max_violations:
                    open_claims.remove(c)
                    closed = True
            if closed:
                plans = {fb: visits(*fb) for fb in form_pairs}
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
                checked[c] += sum((s - 1) * count(sums, s) for s in universe.e_sums)
    return {c: (checked[c], sorted(held[c].rows)[:max_violations]) for c in claims}


def _rows(key: tuple, pairs: list, found: dict, limit: int) -> list[tuple]:
    """The first limit rows of split key, given its violations per e1+e2."""
    rows = (key + (e1, e2, *v) for e1, e2 in pairs for v in found[e1 + e2])
    return list(islice(rows, limit))


def _send_chunk(send: Connection, task: tuple) -> None:
    """A worker process's whole job: send the task's chunk, or the exception
    _eval_chunk raised, to the parent."""
    try:
        chunk = _eval_chunk(task)
    except Exception as exc:
        chunk = exc
    send.send(chunk)


def _eval_parts(tasks: list[tuple]) -> list[_Chunk]:
    """_eval_chunk of every task, in order: the first here, each other one in
    a child process.

    Under the fork start method a child gets its task through the fork, so
    nothing is pickled on the way in; it sends its chunk back once, through
    a one-way pipe.  A child's exception is raised again here, and a child
    that exits without sending raises RuntimeError naming its part and exit
    code.  If anything fails, the children are terminated; every child is
    joined before this returns.
    """
    children = []
    try:
        for task in tasks[1:]:
            recv, send = Pipe(duplex=False)
            child = Process(target=_send_chunk, args=(send, task), daemon=True)
            child.start()
            send.close()  # so that a child's death reads as EOFError
            children.append((child, recv))
        chunks = [_eval_chunk(tasks[0])]
        for part, (child, recv) in enumerate(children, 1):
            try:
                chunk = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"verify part {part} of {len(tasks)} exited with code"
                    f" {child.exitcode} before sending its chunk"
                ) from None
            if isinstance(chunk, Exception):
                raise chunk
            chunks.append(chunk)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    return chunks


def _merge_chunks(
    parts: list[_Chunk], max_violations: int, alphabet_size: int
) -> _Chunk:
    """Per claim: (assertions evaluated, the universe's first max_violations rows).

    parts are _eval_chunk results, each list in row order, so the first
    max_violations rows of their merge are the universe's first identity
    rows, and by the ordering argument in the module docstring the rows to
    report are among those and their splits' renamings.  Each such split
    streams its rows renamed into each word of its orbit: renamings yields
    (σ(x), σ) in σ(x) order, x first, and rows of two σ differ first at
    σ(x), so sorting each σ's rows puts the stream in row order.  The
    streams merge lazily, and a stream draws its next renaming only once
    the merge has taken every row of the one before; with one
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
        held = islice(merge(*(p[c][1] for p in parts)), max_violations)
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
    chunk results merge in canonical order.  Each worker runs one chunk,
    part `part` of `workers` (_word_cuts deals the first-use words out by
    canonical index), so the parent holds no spec.  The calling process
    runs part 0 itself and forks one child for each further part, which
    gets its five small values through the fork and sends back only its
    chunk; one worker starts no process.  Each chunk keeps only its first
    max_violations identity rows per claim and counts the rest of its
    assertions, so memory is bounded by what is reported.
    _merge_chunks renames the splits of the first max_violations of them
    and keeps the first max_violations rows of the whole universe, for any
    dealing.  Only those rows become Witnesses, and each reported split and
    spec is one object, shared by every claim that reports it.  There are
    at most as many workers as CPUs and as first-use words with splits,
    whatever jobs asks for, so at most one process per further CPU starts.
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
    workers = min(jobs, os.cpu_count() or 1, _word_count(universe)) or 1
    tasks = [
        (universe, part, workers, claim_list, max_violations)
        for part in range(workers)
    ]
    chunks = _eval_parts(tasks)
    split_of, spec_of = cache(DeletionSplit), cache(InterruptSpec)

    def witness(_n, sx, cut1, cut2, e1, e2, *violation) -> Witness:
        return Witness(spec_of(split_of(sx, cut1, cut2), e1, e2), *violation)

    reports = []
    merged = _merge_chunks(chunks, max_violations, universe.alphabet_size)
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
