"""Exhaustive claim verification over small universes of interrupted repetitions.

Each claim is a per-spec assertion about how often the length-|x| (or, for
note2, length-(|x|-1)) factors of W occur.  The alteration is fixed by the
split (x, cut1, cut2); the exponents only repeat x around it.  So the split
is the unit of work: it is read from its shortest word
W0 = x·x1·x3·x·x (e1 = 1, e2 = MIN_E_SUM - 1), into one context of plain
values.  A table maps each claim to two functions.  Its count is
arithmetic in a few per-split stats (how many distinct windows are
anchored, |x2|, |x|, note2's factor count), which are the same on every
split of a configuration and of a record (below), so a chunk sums them
per split form, one context per record, and counts every claim once at
the end.  Its per_sum lists a spec's mismatches; specs with the same
e1+e2 have the same counts, so it runs once per exponent sum, and only
while the claim can still report rows.  dft_bound and dichotomy have no
per_sum: core_lengths refuses a split that breaks the bound, and the
rotation test one that would break the dichotomy, before its context
exists.  Each worker runs one chunk: the configuration classes are dealt
out among the chunks by the index of their Lyndon representative, and a
worker enumerates its share itself.  For the rows, the chunk of part 0 alone
walks every split in canonical order with one list of the claims that
can still report rows, each with the two forms it is stated for, and
stops when the list is empty.

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
rotations of x become those of the reversed word.  So the mirror split
(x^R, |x|-cut2, |x|-cut1) has the split's stats (|x2| and the window
counts are kept), and a prefix split (cut2 = |x|) mirrors to a deletion
split with cut1 = 0; theorem1 and theorem1_deletion are one assertion
stated for the two forms.  _classes pairs mirror classes of
configurations by this (Configurations, below).
test_every_spec_equals_its_mirror checks on every spec of two universes
that each claim makes on the mirror spec the assertions it makes on the
spec, with each factor reversed.

Which rows rank follows from row order.  Splits come in canonical order
(|x|, x, cut1, cut2), and x is the smallest word of its orbit, so every
row of a first-use split, under any renaming σ, sorts after every
identity (σ = id) row of that split and of every earlier split.  So the
first K = max_violations rows of the universe are among the first K
identity rows and the renamings of the splits those rows belong to: once
K identity rows are held, the renamed rows of the last split held, even
of one cut short, sort after all of them.  Part 0 visits every
first-use split in canonical order and lists each split's identity rows
in row order, so its lists are sorted, and a row not produced yet (of the
split in hand or a later split) sorts after every row held.  So it keeps
the universe's first K identity rows per claim, holds no orbit, and once
a claim holds K rows calls its per_sum no more.  A claim stated for no
form the universe holds never lists a row.  So when every other claim
holds its K rows, no split still to come can add a row that ranks, and
the walk stops; the counts do not need it.  run() renames only the
splits of part 0's rows, lazily, merges the renamed streams in plain
tuple order and builds a Witness only for the rows it reports.

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
and lcs), and a p or s that overstates the agreement fails the test.  So
a context whose test fails raises InternalBoundViolation, as core_lengths
does for a broken bound, and the run ends; WindowScan in tests/oracles.py
reads every stat, dichotomy and distinct count from all of W0's windows.

Phase counts.  So a window outside lo..hi-1 is counted, not sliced.  A
window of length m = |x| or |x|-1 at j < lo+|x|-m lies in the head
stretch W0[:lo+|x|-1] and reads x^∞ from phase j mod |x|; one at j >= hi
lies in the tail, which ends W0 with x, and reads it from phase
(j-|W0|) mod |x|.  These windows of x^∞ differ between the |x| phases
(count rule), so a factor f that first occurs in x+x at r is the window
of phase r alone, and one not in x+x of none: _SplitContext.count(f)
compares f with the windows at lo+|x|-m .. hi-1 and adds two arithmetic
progressions.  In the boundary case p+s = |x|-2, hi = lo+1, so every
length-(|x|-1) window lies in the head (j <= lo) or the tail (j >= hi)
and is the prefix of a rotation of x, and the tail's 2|x|-cut2+s+2 > |x|
of them hold every such prefix.  So note2's factors are the rotation
prefixes that hold u[|x|-s:]·v[:p] (u and v as below).

Configurations.  Rotate x by r and shift both cuts by -r: the record is
the same bi-infinite word, x^∞ up to the junction and x^∞ jumped ahead by
d = |x2| after it, read from another start.  With L the Lyndon rotation
of x, u = rotate(L, a) and v = rotate(L, a+d) for a junction phase a, and
(L, a, d) is the split's configuration.  Of the |x| rotations, the
|x|-d+1 whose cuts stay in 0 <= cut1 < cut2 <= |x| are splits of the
model: one prefix split, the prefix member (rotate(L, a+d), |x|-d, |x|),
and |x|-d deletion splits.  Every split of a configuration has the same
stats.  |x| and |x2| are fixed, and p and s are read from u and v.  The
anchored windows are the length-|x| windows of W0[lo : hi+|x|-1] =
u[p+1:]·v[:|x|-s-1], which reads only u and v, and note2's factors are
the rotation prefixes that hold u[|x|-s:]·v[:p] (phase counts), which
rotating x keeps.  Renaming keeps the stats too, so a chunk counts per
class of words closed under rotation and renaming.  Its representative x
is the first-use word that no first-use renaming of a rotation of x
sorts before; a first-use renaming never sorts after the word it
renames, so x is a Lyndon word.  The rotations that map x to a
renaming of x are the multiples of the smallest one, g (a subgroup of the
rotations), so the class holds g·k!/(k-m)! words for m distinct letters,
and its configurations of jump d are those of phases a < g.  The class's
(word, cut1) pairs whose junction phase is a modulo g are the splits of
configuration (x, a, d): k!/(k-m)! prefix splits and (|x|-d)·k!/(k-m)!
deletion splits, the weights of its stats in the per-form sums.  Reading
backwards maps the class of x onto the class of x^R and its splits of
jump d onto theirs, keeping the stats; each configuration has one prefix
split and |x|-d deletion splits, so the two classes' per-form sums are
equal.  A class whose mirror class's representative sorts first is
skipped, and one whose mirror class's representative sorts after it
counts twice.  test_every_split_has_its_configurations_stats and
test_count_pass_equals_the_sum_over_splits check this on small
universes.

Gaps.  Several configurations of one class and jump can be one record.
The record of phase a holds x^∞[i] at each position i < a and x^∞[i+d]
at each i >= a; the record of phase a+1 differs from it only at
position a, x^∞[a] for x^∞[a+d].  So phases a and a+1 read the same
record exactly when x[a] = x[a+d] (indices modulo |x|), and then their
stats agree: p falls by one and s rises by one, with p+s constant, and
u[p+1:]·v[:|x|-s-1] and note2's factors are the same symbols.  The
mismatches x[a] != x[a+d] repeat with period g, since rotate(x, g) is a
renaming of x and a renaming keeps equal letters equal; phase a+g reads
a renaming of phase a's record, with its stats.  Some a < g is a
mismatch, or there would be none at all and rotate(x, d) = x, which a
primitive x is not.  So the phases 0..g-1, taken cyclically, split into
runs b+1..a between consecutive mismatches b and a (the first run starts
past the last mismatch, minus g), and every run reads one record, up to
renaming where it wraps past g.  _totals builds one context per run, on
the prefix member of its last phase a, a mismatch below g, and weights
its stats by the run's length; the lengths sum to g.
test_every_phase_has_its_records_stats checks this, and that different
runs read different records, on small universes.

Gating claims are expected to hold (a failure fails the run); reported
claims record their empirical status and never gate, because the
straightforward readings of the occurrence-count side claims are false on
small instances and the point is to say so with witnesses.
"""

from __future__ import annotations

import os
from copy import copy
from dataclasses import dataclass
from enum import Enum
from functools import cache
from heapq import merge
from itertools import groupby, islice, tee
from math import perm
from multiprocessing import Pipe, Process
from multiprocessing.connection import Connection
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import (
    InternalBoundViolation,
    InvalidLimit,
    InvalidUniverse,
    NotApplicable,
    UniverseTooLarge,
)

# The verifier counts with _SplitContext.count and calls none of core,
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
    rotate,
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


def _lengths(universe: Universe) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """(|x|, its (cut1, cut2) list) for each length of the universe that has
    splits, ascending."""
    for n in range(universe.min_x, universe.max_x + 1):
        cuts = list(iter_splits(n, universe.forms))
        if cuts:
            yield n, cuts


def _split_count(universe: Universe, count_words=count_first_use_words) -> int:
    """Number of splits (x, cut1, cut2) in the universe, by default first-use ones.

    count_words(n, k) counts the words x of length n.
    """
    k = universe.alphabet_size
    return sum(count_words(n, k) * len(cuts) for n, cuts in _lengths(universe))


def _word_cuts(universe: Universe) -> Iterator[tuple[str, list]]:
    """(x, cuts) for each first-use word x that has splits, with all of its
    (cut1, cut2), in canonical order: so its splits come in canonical order,
    (|x|, x, cut1, cut2).
    """
    k = universe.alphabet_size
    return ((x, cuts) for n, cuts in _lengths(universe) for x in first_use_words(n, k))


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
    for n, cuts in _lengths(universe):
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

    A split contributes (1, |anchored|, |x|, |x2|, note2's factor count);
    every split of one configuration contributes the same (module
    docstring), and a chunk sums them per form, each configuration times
    the number of splits it stands for.  The non-anchored windows are the
    |x| rotations of x, so their count is x_len.
    """

    splits: int
    anchored: int
    x_len: int
    x2_len: int
    note2: int


class _SplitContext:
    """One split's core and W0 windows, shared by every claim and e1+e2.

    Built from plain values (x, cut1, cut2); x is primitive and xx = x+x.
    u = xx[cut1:cut1+|x|] and v = xx[cut2:cut2+|x|] are the expected and
    the actual continuation past the junction, p = lcp(v, u) and
    s = lcs(u, v) (core_lengths).  The windows come from word = W0 =
    x·x1·x3·x·x, the split's shortest word (e1 = 1, e2 = MIN_E_SUM - 1),
    whose junction is |x| + cut1: the windows at
    lo = cut1+p+1 .. hi-1 = |x|+cut1-s-1 contain the core and are
    anchored, the others are not.  Only the anchored ones are sliced.  The
    rotation test of the module docstring must hold, or the context
    raises InternalBoundViolation: then the non-anchored windows are
    exactly the |x| rotations of x, so the stats, dichotomy and
    distinct_count need no other window.  stats holds the split's _Stats.

    A claim's per_sum reads the context and lists its violations as plain
    (factor, expected, actual) values, which _eval_chunk turns into rows.
    count(f) is how often a factor f of length |x| or |x|-1 occurs in W0
    (phase counts, module docstring), and note2 holds note2_linear's
    factors in the boundary case.  By the count rule, f occurs
    count(f) + (s - MIN_E_SUM)·(f in xx) times in a spec with e1+e2 = s.
    W starts and ends with x, so its |x|-1 wraparound windows are the
    rotations 1..|x|-1 of x, each once: read cyclically, f occurs once more
    when f is in wraparound = xx[1:-1].
    """

    def __init__(self, x: str, cut1: int, cut2: int):
        self.x, self.cut1, self.cut2 = x, cut1, cut2
        self.n = n = len(x)
        self.xx = xx = x + x
        u, v = xx[cut1 : cut1 + n], xx[cut2 : cut2 + n]
        self.p, self.s = p, s = core_lengths(x, u, v)
        self.word = word = x + x[:cut1] + x[cut2:] + xx
        self.lo, self.hi = lo, hi = cut1 + p + 1, n + cut1 - s
        x4 = xx + xx
        if not (x4.startswith(word[: lo + n - 1]) and x4.endswith(word[hi:])):
            raise InternalBoundViolation(
                f"p = {p}, s = {s} fail the rotation test for x = {x!r},"
                f" cuts ({cut1}, {cut2})"
            )
        self.anchored = {word[j : j + n] for j in range(lo, hi)}
        # note2 is stated for the boundary case p + s = |x| - 2 only: its
        # factors are the length-(|x|-1) windows holding the core without
        # its two outer symbols, each the prefix of a rotation of x.
        self.note2: set[str] = set()
        if p + s == n - 2:
            sp = u[n - s :] + v[:p]
            prefixes = (xx[r : r + n - 1] for r in range(n))
            self.note2 = {f for f in prefixes if sp in f}
        self.stats = _Stats(1, len(self.anchored), n, cut2 - cut1, len(self.note2))

    def count(self, f: str) -> int:
        """Occurrences in W0 of f, of length |x| or |x|-1 (phase counts)."""
        word, n, m = self.word, self.n, len(f)
        head, hi = self.lo + n - m, self.hi
        hits = sum(word.startswith(f, j) for j in range(head, hi))
        r = self.xx.find(f)
        if r >= 0:
            # head windows j of phase j mod |x| = r, and tail windows from
            # the first j >= hi of phase (j-|W0|) mod |x| = r
            tail = hi + (r + len(word) - hi) % n
            hits += len(range(r, head, n)) + len(range(tail, len(word) - m + 1, n))
        return hits


# Each claim is a table entry (count, per_sum).  count(t, s) is the number
# of assertions the claim evaluates on a spec with e1+e2 = s, for a split
# with stats t; it is linear in t, so a chunk applies it to the sum of its
# splits' stats.  per_sum(ctx, s) lists the (factor, expected, actual)
# violations of such a spec, in factor order; a chunk calls it for a split
# stated for the claim while it has room for the claim's rows, and
# check_claim for its one spec.  A per_sum of None lists nothing.
# A cyclic claim is its linear twin with wraparound = ctx.xx[1:-1].
_Count = Callable[[_Stats, int], int]
_PerSum = Callable[[_SplitContext, int], list[tuple[str, int, int]]]
# Per claim: (assertions evaluated, violation rows), for a chunk or a run.
_Chunk = dict[ClaimId, tuple[int, list[tuple]]]


def _mismatches(
    ctx: _SplitContext,
    s: int,
    factors: Iterable[str],
    expected: int | None = None,
    wraparound: str = "",
) -> list[tuple[str, int, int]]:
    """Factors whose count in a spec with e1+e2 = s is not expected (None: s)."""
    want, extra, xx = expected or s, s - MIN_E_SUM, ctx.xx
    counts = (
        (f, ctx.count(f) + extra * (f in xx) + (f in wraparound)) for f in factors
    )
    return sorted((f, want, a) for f, a in counts if a != want)


def _distinct_count(ctx: _SplitContext, s: int) -> list[tuple[str, int, int]]:
    # the |x| rotations, and the anchored windows that are none of them (a
    # length-|x| factor is a rotation of x exactly when it occurs in x+x)
    distinct = ctx.n + sum(f not in ctx.xx for f in ctx.anchored)
    expected = 2 * ctx.n - ctx.p - ctx.s - 1
    return [("", expected, distinct)] if distinct != expected else []


def _unique(ctx: _SplitContext, s: int) -> list[tuple[str, int, int]]:
    return _mismatches(ctx, s, ctx.anchored, 1)


def _note3(
    ctx: _SplitContext, s: int, wraparound: str = ""
) -> list[tuple[str, int, int]]:
    # the non-anchored windows are the |x| rotations of x (rotation test)
    rotations = (ctx.xx[r : r + ctx.n] for r in range(ctx.n))
    return _mismatches(ctx, s, rotations, None, wraparound)


_CLAIMS: dict[ClaimId, tuple[_Count, _PerSum | None]] = {
    # core_lengths raises InternalBoundViolation for p + s > |x| - 2 before
    # a context exists, so every context satisfies the bound: no per_sum.
    ClaimId.DFT_BOUND: (lambda t, s: t.splits, None),
    ClaimId.THEOREM1: (lambda t, s: t.anchored, _unique),
    ClaimId.THEOREM1_DELETION: (lambda t, s: t.anchored, _unique),
    # Every window of W is one assertion: (e1+e2)·|x| - |x2| + 1 of them.
    # A context exists only once the rotation test holds, which makes every
    # non-anchored window a rotation of x: no per_sum.
    ClaimId.DICHOTOMY: (lambda t, s: s * t.x_len - t.x2_len + t.splits, None),
    ClaimId.DISTINCT_COUNT: (lambda t, s: t.splits, _distinct_count),
    ClaimId.CORE_CYCLIC_UNIQUE: (
        lambda t, s: t.anchored,
        lambda ctx, s: _mismatches(ctx, s, ctx.anchored, 1, ctx.xx[1:-1]),
    ),
    ClaimId.NOTE2_LINEAR: (
        lambda t, s: t.note2,
        lambda ctx, s: _mismatches(ctx, s, ctx.note2),
    ),
    ClaimId.NOTE3_LINEAR: (lambda t, s: t.x_len, _note3),
    ClaimId.NOTE3_CYCLIC: (
        lambda t, s: t.x_len,
        lambda ctx, s: _note3(ctx, s, ctx.xx[1:-1]),
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
    violations = per_sum(ctx, s) if per_sum else []
    return SpecCheck(count(ctx.stats, s), tuple(Witness(spec, *v) for v in violations))


def _forms(universe: Universe) -> tuple[bool, ...]:
    """The split forms the universe holds (False: deletion, True: prefix)."""
    forms = {"prefix": (True,), "deletion": (False,), "both": (False, True)}
    return forms[universe.forms]


def _first_use(w: str) -> str:
    """w renamed into the first-use word of its orbit.

    >>> _first_use("bbab"), _first_use("baa"), _first_use("cab")
    ('aaba', 'abb', 'abc')
    """
    letters = "".join(dict.fromkeys(w))
    return w.translate(str.maketrans(letters, LETTERS[: len(letters)]))


def _first_use_lyndon_words(length: int, alphabet_size: int) -> Iterator[str]:
    """The first-use Lyndon words of the length, in lexicographic order.

    FKM (Fredricksen, Kessler and Maiorana; Ruskey, Savage and Wang):
    extend a prenecklace w whose longest Lyndon prefix has length p by
    w[-p], which keeps p, or by a larger letter, which makes all of w a
    Lyndon prefix; a prenecklace of the length is a Lyndon word exactly
    when p is its length.  A prefix of a first-use word is first-use, so
    growing only first-use prefixes (no letter more than one past the
    largest used) leaves out no first-use word and keeps the order.

    >>> list(_first_use_lyndon_words(4, 3))
    ['aaab', 'aabb', 'aabc', 'abac', 'abbb', 'abbc', 'abcb', 'abcc']
    """

    def extend(prefix: str, p: int, used: int) -> Iterator[str]:
        if len(prefix) == length:
            if p == length:
                yield prefix
            return
        same = LETTERS.index(prefix[-p])
        yield from extend(prefix + LETTERS[same], p, used)
        for j in range(same + 1, min(used + 1, alphabet_size)):
            yield from extend(prefix + LETTERS[j], len(prefix) + 1, max(used, j + 1))

    return extend("a", 1, 1)


def _lyndon_words(universe: Universe) -> Iterator[str]:
    """The first-use Lyndon words of every length of the universe that has
    splits, in canonical order: the representatives _classes deals out."""
    k = universe.alphabet_size
    return (x for n, _ in _lengths(universe) for x in _first_use_lyndon_words(n, k))


def _classes(
    universe: Universe, part: int = 0, parts: int = 1
) -> Iterator[tuple[str, int, int]]:
    """(x, g, pairs) per class of configurations of the universe dealt to
    part `part` of `parts`, in canonical order (|x|, x), leaving out each
    class whose mirror class sorts first.

    x is the class's representative: a first-use word that no first-use
    renaming of one of its rotations sorts before.  Such an x is a Lyndon
    word, and _lyndon_words yields those in canonical order.  They are
    indexed, and the part renames only those whose index i has
    i % parts == part.  g is the smallest rotation of x whose first-use
    renaming is x (|x| if none is), and pairs is 2 when the mirror class's
    representative sorts after x, 1 when it is x.  Only the rotations, and
    the rotations of x^R, whose first run is at least as long as x's leading
    run a^j are renamed: any other one renames to a^i·b... with i < j, which
    sorts after x.

    >>> [c for c in _classes(Universe(max_x=7)) if c[1] < len(c[0]) or c[2] > 1]
    [('ab', 1, 1), ('aabb', 2, 1), ('aaabbb', 3, 1), ('aaababb', 7, 2)]
    """
    for x in islice(_lyndon_words(universe), part, None, parts):
        n = len(x)
        j, xx = n - len(x.lstrip("a")), x + x
        named = {
            r: _first_use(xx[r : r + n])
            for r in range(1, n)
            if xx[r : r + j] == xx[r] * j
        }
        if any(w < x for w in named.values()):
            continue
        # the rotations of x^R are the reversed rotations of x; that of
        # r = j ends with x's leading run a^j, so one is always renamed
        back = min(
            _first_use(xx[r : r + n][::-1])
            for r in range(n)
            if xx[r + n - j : r + n] == xx[r + n - 1] * j
        )
        if back >= x:
            g = min((r for r, w in named.items() if w == x), default=n)
            yield x, g, 1 + (back > x)


def _gaps(x: str, g: int, d: int) -> list[tuple[int, int]]:
    """(a, length) per record of jump d of the class of x with g phases: the
    phases a-length+1 .. a, taken modulo g, all read the same record, and
    a < g is the last of them, a phase with x[a] != x[a+d] (module
    docstring).  The lengths sum to g.

    >>> _gaps("aabb", 2, 1), _gaps("aabb", 2, 2), _gaps("aaababb", 7, 2)
    ([(1, 2)], [(0, 1), (1, 1)], [(1, 2), (4, 3), (5, 1), (6, 1)])
    """
    n = len(x)
    ends = [a for a in range(g) if x[a] != x[(a + d) % n]]
    return [(a, a - b) for b, a in zip([ends[-1] - g, *ends], ends)]


def _totals(universe: Universe, part: int, parts: int) -> dict[bool, _Stats]:
    """Per form of the universe: the sum of the _Stats of every split of
    every x, over the classes of configurations that _classes deals to part
    `part` of `parts`.

    A class (x, g, pairs) has one configuration per phase a < g and jump
    d in 1..|x|-1.  The configurations of one record (_gaps) share their
    stats, so they are read from one context, on the prefix member
    (rotate(x, a+d), |x|-d, |x|) of the record's last phase a, and weighted
    by the record's number of phases.  A configuration stands for k!/(k-m)!
    splits per prefix member and (|x|-d)·k!/(k-m)! deletion splits, for m
    distinct letters, each times pairs (module docstring).
    """
    k = universe.alphabet_size
    totals = {form: [0] * len(_Stats._fields) for form in _forms(universe)}
    for x, g, pairs in _classes(universe, part, parts):
        n, size = len(x), perm(k, len(set(x))) * pairs
        for d in range(1, n):
            col = [0] * len(_Stats._fields)
            for a, length in _gaps(x, g, d):
                stats = _SplitContext(rotate(x, a + d), n - d, n).stats
                col = [c + length * t for c, t in zip(col, stats)]
            for form, total in totals.items():
                weight = size if form else size * (n - d)
                totals[form] = [t + weight * c for t, c in zip(total, col)]
    return {form: _Stats(*total) for form, total in totals.items()}


def _eval_chunk(args: tuple[Universe, int, int, list[ClaimId], int]) -> _Chunk:
    """Per claim: (assertions evaluated, the universe's first max_violations
    identity rows for part 0, no rows for any other part).

    args is (universe, part, parts, claims, max_violations).  The counts
    come from _totals over the configuration classes dealt to part `part`
    of `parts`: each claim's count is arithmetic in the per-form sums of
    their stats, and depends only on e1+e2.

    Part 0 finds the rows: it walks the first-use words of _word_cuts in
    canonical order, each with all of its splits and every (e1, e2) of the
    universe, standing for every split of its orbit.  Each split costs one
    _SplitContext and is checked against each claim with room that is
    stated for its form.  The claims with room are those with a per_sum
    and stated for a form the universe holds.  The chunk renames nothing,
    so its rows are identity rows (σ = id), and come in row order.  A claim
    calls per_sum once per exponent sum until it holds max_violations rows,
    and then has no room; by the module docstring no row after those can
    rank.  The walk stops when no claim has room.  _merge_chunks renames
    the rows that rank.
    """
    universe, part, parts, claims, max_violations = args
    sums, forms = universe.e_sums, _forms(universe)
    pairs = []  # exponent_pairs(sums), built for the first row found
    held = {c: [] for c in claims}
    # (per_sum, rows, stated for (deletion, prefix)) per claim with room in
    # part 0; a claim leaves once it holds max_violations rows
    room = []
    for c in claims:
        per_sum, stated = _CLAIMS[c][1], (_stated_for(c, False), _stated_for(c, True))
        if part == 0 and per_sum is not None and any(stated[f] for f in forms):
            room.append((per_sum, held[c], stated))
    for x, cuts in _word_cuts(universe):
        if not room:
            break
        n = len(x)
        for cut1, cut2 in cuts:
            if not room:
                break
            key, ctx = (n, x, cut1, cut2), _SplitContext(x, cut1, cut2)
            for entry in room[:]:
                per_sum, kept, stated = entry
                if not stated[cut2 == n]:
                    continue
                found = {s: per_sum(ctx, s) for s in sums}
                if not any(found.values()):
                    continue
                pairs = pairs or exponent_pairs(sums)
                kept += _rows(key, pairs, found, max_violations - len(kept))
                if len(kept) >= max_violations:
                    room.remove(entry)
    checked = dict.fromkeys(claims, 0)
    for form, t in _totals(universe, part, parts).items():
        for c in claims:
            if _stated_for(c, form):
                count = _CLAIMS[c][0]
                checked[c] += sum((s - 1) * count(t, s) for s in sums)
    return {c: (checked[c], held[c]) for c in claims}


def _rows(key: tuple, pairs: list, found: dict, limit: int) -> list[tuple]:
    """The first limit rows of split key, given its violations per e1+e2:
    pairs is exponent_pairs of the universe's exponent sums."""
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

    parts are _eval_chunk results, whose counts add up.  Part 0's lists are
    the universe's first max_violations identity rows, in row order, and
    by the ordering argument in the module docstring the rows to report
    are among those and their splits' renamings.  Each such split
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
    for c, (_, held) in parts[0].items():
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
    counted once, through its configuration, and its rows are found unless
    they cannot rank.  Each worker runs one chunk, part `part` of `workers`
    (_classes deals the configuration classes out by the index of their
    Lyndon representative), so the parent holds no spec.  The calling
    process runs part 0 itself, which also walks the splits for rows, and
    forks one child for each further part, which gets its five small values
    through the fork and sends back only its counts; one worker starts no
    process.  Part 0 keeps only the first max_violations identity rows per
    claim, so memory is bounded by what is reported.  _merge_chunks renames
    their splits and keeps the first max_violations rows of the whole
    universe.  Only those rows become Witnesses, and each reported split
    and spec is one object, shared by every claim that reports it.  There
    are at most as many workers as CPUs and as Lyndon words to deal out,
    whatever jobs asks for, so at most one process per further CPU starts
    and every part is dealt a word.
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
    cap = min(jobs, os.cpu_count() or 1)
    workers = len(list(islice(_lyndon_words(universe), cap))) or 1
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
