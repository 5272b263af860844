"""Exhaustive claim verification over small universes of interrupted repetitions.

Each claim is a per-spec assertion about how often the length-|x| (or, for
note2, length-(|x|-1)) factors of W occur.  The alteration is fixed by the
split (x, cut1, cut2); the exponents only repeat x around it.  So the split
is the unit of work: it is read from its shortest word
W0 = x·x1·x3·x·x (e1 = 1, e2 = MIN_E_SUM - 1), into one context of plain
values.  A table maps each claim to two functions.  Its count is
arithmetic in a few per-split stats (how many distinct windows are
anchored, |x2|, |x|, note2's factor count), which are the same on every
split of a configuration and of a record (below), so the count pass sums
them per split form, read from each record's four integers with no
context, and every claim is counted once from the sums.  Its per_sum
lists a spec's mismatches; specs with the same e1+e2 have the same
counts, so it runs once per exponent sum, and only while the claim can
still report rows.  dft_bound and dichotomy have no per_sum:
core_lengths refuses a split that breaks the bound, and the record guard
refuses four integers that are not one run of phases between two
mismatches, within the bound.  The count pass puts every record through
it, and the walk every split's own record before the split's context
exists, which certifies the split's p and s (Records, below).

A run counts, then walks.  Every part counts: the configuration classes
are dealt out among the parts by the index of their Lyndon
representative, and each part enumerates its share itself.  run() forks
a further part only when the count pass pays for it: every part's share
of the pass's size must exceed MIN_SPLITS_PER_PART.  The size is the
universe's count of first-use prefix splits, in closed form
(_split_count); each configuration has one, so it is the classes'
configurations, each class's times its mirror pairs.  Once every part's
sums are in, the calling process alone walks for the rows: every split
in canonical order, with one list of the claims that can still report
rows, each with the forms it is stated for, and it stops when the list
is empty.  Only a claim with a per_sum and a non-zero count starts on
the list.

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
of one cut short, sort after all of them.  The walk visits every
first-use split in canonical order and lists each split's identity rows
in row order, so its lists are sorted, and a row not produced yet (of the
split in hand or a later split) sorts after every row held.  So it keeps
the universe's first K identity rows per claim, holds no orbit, and once
a claim holds K rows calls its per_sum no more.  A claim whose count is
zero has no assertion, so it never lists a row.  So when every other
claim holds its K rows, no split still to come can add a row that ranks,
and the walk stops; the counts do not need it.  run() renames only the
splits of the walk's rows, lazily, merges the renamed streams in plain
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

Phase counts.  A split's context reads only its anchored windows, at
lo = cut1+p+1 .. hi-1 = |x|+cut1-s-1 in W0, from R = W0[lo : hi+|x|-1],
which its record gives (Records, below); a window outside lo..hi-1 is
counted, not sliced.  With p and s exact, a window of length m = |x| or
|x|-1 at j < lo+|x|-m lies in the head stretch W0[:lo+|x|-1] and reads
x^∞ from phase j mod |x|; one at j >= hi lies in the tail W0[hi:], which
ends W0 with x, and reads it from phase (j-|W0|) mod |x|, where
|W0| = 4|x|-|x2| (Records: in phase).  These windows of x^∞ differ
between the |x| phases (count rule), so a factor f that first occurs in
x+x at r is the window of phase r alone, and one not in x+x of none:
_SplitContext.count(f) compares f with R's windows at |x|-m .. hi-lo-1
and adds two arithmetic progressions.  In the boundary case
p+s = |x|-2, hi = lo+1, so every length-(|x|-1) window lies in the head
(j <= lo) or the tail (j >= hi) and is the prefix of a rotation of x,
and the tail's 2|x|-cut2+s+2 > |x| of them hold every such prefix.  So
note2's factors are the rotation prefixes that hold u[|x|-s:]·v[:p] (u
and v as below).

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
rotating x keeps.  Renaming keeps the stats too, so a part counts per
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
renaming where it wraps past g.  _totals reads each run's stats on the
prefix member of its last phase a, a mismatch below g, and weights them
by the run's length; the lengths sum to g.
test_every_phase_has_its_records_stats checks this, and that different
runs read different records, on small universes.

Records.  So a record is four integers: x, the jump d, the last phase a
of its run and the run's length (_gaps), and its stats follow from them
with no context.  Its prefix member is the split (y, |x|-d, |x|) with
y = rotate(x, a+d), so u = rotate(x, a) and v = rotate(x, a+d), and
W0 = y·y[:|x|-d]·y·y.  With xx = x+x and indices of x modulo |x|:
  - p = 0 and s = length-1.  v[0] = x[a+d] differs from u[0] = x[a],
    since a is a mismatch.  u and v end with x[a-1-i] and x[a+d-1-i] at
    i = 0, 1, ...: these agree at the phases a-1 .. a-length+1 of the run
    and differ at the mismatch a-length before it (mismatches repeat with
    period g, so one run ends there even where the run wraps past g).
  - p+s <= |x|-2, that is length <= |x|-1.  A run holds at most g
    phases, and g < |x| divides |x|, so g <= |x|/2.  When g = |x|, x and
    rotate(x, d) differ in at least two positions: in one at least,
    since x is primitive, and not in exactly one, since they have equal
    letter counts.  So no run holds more than |x|-1 phases.
  - R.  lo = cut1+p+1 = |x|-d+1 and hi = |x|+cut1-s = 2|x|-d-length+1,
    so the anchored windows are the |x|-length length-|x| windows of
    R = W0[lo : hi+|x|-1] = y[|x|-d+1:]·y[:|x|-d]·y[:|x|-length], which
    is xx[a+1 : a+|x|]·xx[b : b+|x|-length] with b = (a+d) mod |x|.
  - note2.  The boundary case p+s = |x|-2 is length = |x|-1, and there
    u[|x|-s:]·v[:p] = rotate(x, a)[2:] = xx[a+2 : a+|x|]: note2's factors
    are the rotation prefixes xx[r : r+|x|-1] that hold it (phase counts).
  - A split's record.  A split (x, cut1, cut2) with p = lcp(v, u) and
    s = lcs(u, v) reads the record of jump d = cut2-cut1 whose run ends
    at phase a = (cut1+p) mod |x| and has p+s+1 phases.  p stops at a
    mismatch, u[p] = x[a] != x[a+d] = v[p], so phase a ends the run; s
    stops at one too, at phase cut1-s-1, so the run is cut1-s .. cut1+p.
    Since v[:p] = u[:p], R = xx[a+1 : a+|x|]·xx[b : b+|x|-p-s-1] =
    u[p+1:]·u[:p]·v[p:|x|-s-1] is u[p+1:]·v[:|x|-s-1], the span of the
    split's anchored windows (Configurations), and in the boundary case
    xx[a+2 : a+|x|] is u[|x|-s:]·v[:p].  So _SplitContext reads R, its
    anchored windows and note2's factors from _record as well.
  - In phase.  u[:p] = v[:p] and u[|x|-s:] = v[|x|-s:], so the head
    stretch W0[:lo+|x|-1] = x·x[:cut1]·v[:p] is x^∞[:|x|+cut1+p], and the
    tail W0[hi:] = u[|x|-s:]·x[cut2:]·x·x is x^∞[|x|+cut2-s : 4|x|].  The
    non-anchored windows, at j < lo and j >= hi, lie in them, so each is
    a window of x^∞, a rotation of x, and the tail's 2|x|-cut2+s+1 > |x|
    windows hold every rotation.  So the non-anchored factors are the |x|
    rotations, dichotomy has no violation, and the distinct count is |x|
    plus the anchored windows that do not occur in x+x.
Besides the phases _gaps reads from x, the proof rests on four facts:
a and a-length are mismatches, where p and s stop, the phases
a-length+1 .. a-1 between them are not, and length <= |x|-1.  _record
checks all four, the record guard: two letter compares, the bound, and
one slice compare, xx[a+|x|-length+1 : a+|x|] = xx[b+|x|-length+1 : b+|x|].
It raises InternalBoundViolation when one fails, and the run ends.  In
_gaps' runs a-length is the mismatch before the run, or ends[-1]-g, a
mismatch since mismatches repeat with period g, and no phase between is
one.  For a split's record the four facts are p = lcp(v, u) and
s = lcs(u, v): the slice compare says u[:p] = v[:p] and
u[|x|-s:] = v[|x|-s:], so neither overstates the agreement, and the
mismatches at a = cut1+p and a-length = cut1-s-1, u[p] != v[p] and
u[|x|-s-1] != v[|x|-s-1], say that neither understates it.  These follow
from x's letters for whatever p and s core_lengths gives, not from the
theorem.  test_records_equal_their_contexts checks p = 0, s = length-1,
R, note2 and the stats against WindowScan in tests/oracles.py, which
reads every window of the prefix member's W0, on every record of binary
|x| <= 14, ternary <= 9 and 4-letter <= 8.

Gating claims are expected to hold (a failure fails the run); reported
claims record their empirical status and never gate, because the
straightforward readings of the occurrence-count side claims are false on
small instances and the point is to say so with witnesses.
"""

from __future__ import annotations

import os
from copy import copy
from dataclasses import dataclass, replace
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
)

DEFAULT_MAX_CHECKS = 10_000_000
DEFAULT_MAX_VIOLATIONS = 10
MAX_X_LEN = 16
# The share of the count pass's size, in first-use prefix splits, that each
# part must exceed before run() forks a worker for it.  Calibrated on a
# 2-vCPU Linux VM (Python 3.11) with in-process run() of --forms both
# universes at jobs=2 (two workers) against jobs=1, 8 alternating rounds:
# two workers were slower at 1,153 to 1,438 splits (at 1,438, binary
# |x| <= 8, in 7 of 8 rounds: medians 8.5 against 7.2 ms) and faster at
# 2,016 (binary |x| = 9) in 7 of 8 and at 2,184 to 7,909 in every round.
# Interpolated, the two broke even near 1,800 splits, 900 a part.
MIN_SPLITS_PER_PART = 900


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


def _check_limit(name: str, value: int, least: int) -> None:
    """Reject a limit below its least value."""
    if value < least:
        raise InvalidLimit(f"{name} must be >= {least}, got {value}")


def _check_size(count: int, max_checks: int, what: str) -> None:
    """Reject max_checks < 0, and a universe whose count of specs exceeds it."""
    _check_limit("max_checks", max_checks, 0)
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


def applies(claim: ClaimId, spec: InterruptSpec) -> bool:
    """Whether the claim is stated for the spec's form."""
    return spec.split.is_prefix_form in _CLAIMS[claim][2]


class _Stats(NamedTuple):
    """The per-split numbers every claim's assertion count is arithmetic in.

    A split contributes (1, |anchored|, |x|, |x2|, note2's factor count);
    every split of one record contributes the same (module docstring), so
    _totals reads them from each record's _record, and sums them per form,
    each record times the number of splits it stands for.  The
    non-anchored windows are the |x| rotations of x, so their count is
    x_len.
    """

    splits: int
    anchored: int
    x_len: int
    x2_len: int
    note2: int


class _SplitContext:
    """One split's core and anchored windows, shared by every claim and e1+e2.

    Built from plain values (x, cut1, cut2); x is primitive and xx = x+x.
    u = xx[cut1:cut1+|x|] and v = xx[cut2:cut2+|x|] are the expected and
    the actual continuation past the junction, p = lcp(v, u) and
    s = lcs(u, v) (core_lengths).  In the split's shortest word
    W0 = x·x1·x3·x·x (e1 = 1, e2 = MIN_E_SUM - 1), whose junction is
    |x| + cut1, the windows at lo = cut1+p+1 .. hi-1 = |x|+cut1-s-1
    contain the core and are anchored, the others are not.  The split's
    own record, _record(x, cut2-cut1, (cut1+p) mod |x|, p+s+1), gives
    r = R = W0[lo : hi+|x|-1], the anchored windows and note2's factors
    (module docstring, Records); W0 is not built.  Beside core_lengths'
    bound, the record guard refuses, with InternalBoundViolation, a p or s
    that overstates or understates the agreement of u and v.  Once it
    holds, the non-anchored windows are exactly the |x| rotations of x,
    so the stats, dichotomy and distinct_count need no other window.
    stats holds the split's _Stats.

    >>> ctx = _SplitContext("aabab", 2, 4)  # core_lengths' example
    >>> (ctx.p, ctx.s), (ctx.r, ctx.anchored, ctx.note2) == _record("aabab", 2, 4, 4)
    ((2, 1), True)

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
        self.lo, self.hi = cut1 + p + 1, n + cut1 - s
        d = cut2 - cut1
        self.r, self.anchored, self.note2 = _record(x, d, (cut1 + p) % n, p + s + 1)
        self.stats = _Stats(1, len(self.anchored), n, d, len(self.note2))

    def count(self, f: str) -> int:
        """Occurrences in W0 of f, of length |x| or |x|-1 (phase counts)."""
        n, m, lo, hi = self.n, len(f), self.lo, self.hi
        end = 4 * n - self.stats.x2_len  # |W0|
        hits = sum(self.r.startswith(f, j) for j in range(n - m, hi - lo))
        phase = self.xx.find(f)
        if phase >= 0:
            # head windows j < lo+|x|-m of phase j mod |x|, and tail windows
            # from the first j >= hi of phase (j-|W0|) mod |x|
            tail = hi + (phase + end - hi) % n
            hits += len(range(phase, lo + n - m, n)) + len(range(tail, end - m + 1, n))
        return hits


# Each claim is a table entry (count, per_sum, forms).  count(t, s) is the
# number of assertions the claim evaluates on a spec with e1+e2 = s, for a
# split with stats t; it is linear in t, so the walk applies it to the
# universe's sum of stats.  per_sum(ctx, s) lists the (factor, expected,
# actual) violations of such a spec, in factor order; the walk calls it for
# a split stated for the claim while it has room for the claim's rows, and
# check_claim for its one spec.  A per_sum of None lists nothing.  forms
# holds the split forms the claim is stated for (False: deletion, True:
# prefix).  A cyclic claim is its linear twin with wraparound = ctx.xx[1:-1].
_Count = Callable[[_Stats, int], int]
_PerSum = Callable[[_SplitContext, int], list[tuple[str, int, int]]]
# Per claim: (assertions evaluated, violation rows), for the walk or a run.
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
    # the non-anchored windows are the |x| rotations of x (Records)
    rotations = (ctx.xx[r : r + ctx.n] for r in range(ctx.n))
    return _mismatches(ctx, s, rotations, None, wraparound)


_CLAIMS: dict[ClaimId, tuple[_Count, _PerSum | None, tuple[bool, ...]]] = {
    # core_lengths raises InternalBoundViolation for p + s > |x| - 2 before
    # a context exists, and the record guard, in the walk and in the count
    # pass, for a run of more than |x| - 1 phases, the same bound: no
    # per_sum.
    ClaimId.DFT_BOUND: (lambda t, s: t.splits, None, (False, True)),
    ClaimId.THEOREM1: (lambda t, s: t.anchored, _unique, (True,)),
    ClaimId.THEOREM1_DELETION: (lambda t, s: t.anchored, _unique, (False,)),
    # Every window of W is one assertion: (e1+e2)·|x| - |x2| + 1 of them.
    # A context exists, and a record's stats are read, only once the record
    # guard holds, which makes p and s exact and every non-anchored window
    # a rotation of x (module docstring, Records): no per_sum.
    ClaimId.DICHOTOMY: (
        lambda t, s: s * t.x_len - t.x2_len + t.splits,
        None,
        (False, True),
    ),
    ClaimId.DISTINCT_COUNT: (lambda t, s: t.splits, _distinct_count, (False, True)),
    ClaimId.CORE_CYCLIC_UNIQUE: (
        lambda t, s: t.anchored,
        lambda ctx, s: _mismatches(ctx, s, ctx.anchored, 1, ctx.xx[1:-1]),
        (False, True),
    ),
    ClaimId.NOTE2_LINEAR: (
        lambda t, s: t.note2,
        lambda ctx, s: _mismatches(ctx, s, ctx.note2),
        (False, True),
    ),
    ClaimId.NOTE3_LINEAR: (lambda t, s: t.x_len, _note3, (False, True)),
    ClaimId.NOTE3_CYCLIC: (
        lambda t, s: t.x_len,
        lambda ctx, s: _note3(ctx, s, ctx.xx[1:-1]),
        (False, True),
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
    count, per_sum, _ = _CLAIMS[claim]
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


def _record(x: str, d: int, a: int, length: int) -> tuple[str, set[str], set[str]]:
    """R, the anchored windows and note2's factors of the record of jump d
    whose run of phases (_gaps) ends at phase a and has `length` phases:
    R = xx[a+1 : a+|x|]·xx[b : b+|x|-length] with b = (a+d) mod |x|, its
    |x|-length windows of length |x|, and in the boundary case
    length = |x|-1 the rotation prefixes that hold xx[a+2 : a+|x|] (module
    docstring, Records).  Its prefix member's context has p = 0 and
    s = length-1.

    The record guard raises InternalBoundViolation unless the phases
    a-length+1 .. a are one run: a and the phase a-length before them are
    mismatches, the phases between are not, and length <= |x|-1, that is
    p + s <= |x|-2.

    >>> r, anchored, note2 = _record("aabab", 4, 2, 2)  # R = abaa·aba
    >>> r, sorted(anchored), sorted(note2)
    ('abaaaba', ['aaaba', 'abaaa', 'baaab'], [])
    >>> r, anchored, note2 = _record("aabab", 2, 4, 4)  # boundary: R = aaba·a
    >>> r, sorted(anchored), sorted(note2)
    ('aabaa', ['aabaa'], ['aaba', 'abaa', 'abab', 'baba'])

    _gaps("aabb", 2, 2)'s two runs (0, 1) and (1, 1), joined into one:

    >>> _record("aabb", 2, 1, 2)  # doctest: +ELLIPSIS
    Traceback (most recent call last):
    repcore.errors.InternalBoundViolation: the run of 2 phases ... at jump 2
    """
    n, xx = len(x), x + x
    b = (a + d) % n
    if x[a] == x[b]:
        raise InternalBoundViolation(
            f"phase {a} of x = {x!r} is no mismatch at jump {d}"
        )
    if length > n - 1:
        raise InternalBoundViolation(
            f"a run of {length} phases breaks p + s <= {n - 2}"
            f" for x = {x!r}, jump {d}"
        )
    # a-length and b-length are at least 1-|x|: x[-i] is phase |x|-i
    if x[a - length] == x[b - length]:
        raise InternalBoundViolation(
            f"phase {(a - length) % n} of x = {x!r} is no mismatch at jump {d},"
            f" before the run ending at phase {a}"
        )
    # phases a-length+1 .. a-1
    if xx[a + n - length + 1 : a + n] != xx[b + n - length + 1 : b + n]:
        raise InternalBoundViolation(
            f"the run of {length} phases ending at phase {a} of x = {x!r}"
            f" holds a mismatch at jump {d}"
        )
    r = xx[a + 1 : a + n] + xx[b : b + n - length]
    anchored = {r[j : j + n] for j in range(n - length)}
    if length < n - 1:
        return r, anchored, set()
    sp = xx[a + 2 : a + n]
    return r, anchored, {f for f in (xx[i : i + n - 1] for i in range(n)) if sp in f}


def _totals(universe: Universe, part: int, parts: int) -> dict[bool, _Stats]:
    """Per form of the universe: the sum of the _Stats of every split of
    every x, over the classes of configurations that _classes deals to part
    `part` of `parts`.

    A class (x, g, pairs) has one configuration per phase a < g and jump
    d in 1..|x|-1.  The configurations of one record (_gaps) share their
    stats, so the anchored and note2 counts are read from the record's
    four integers (_record), with no context, and weighted by the record's
    number of phases; the other columns of jump d sum to g, g·|x| and g·d.
    A configuration stands for k!/(k-m)! splits per prefix member and
    (|x|-d)·k!/(k-m)! deletion splits, for m distinct letters, each times
    pairs (module docstring).
    """
    k = universe.alphabet_size
    totals = {form: [0] * len(_Stats._fields) for form in _forms(universe)}
    for x, g, pairs in _classes(universe, part, parts):
        n, size = len(x), perm(k, len(set(x))) * pairs
        for d in range(1, n):
            anchored = note2 = 0
            for a, length in _gaps(x, g, d):
                _, windows, factors = _record(x, d, a, length)
                anchored += length * len(windows)
                note2 += length * len(factors)
            col = (g, anchored, g * n, g * d, note2)
            for form, total in totals.items():
                weight = size if form else size * (n - d)
                totals[form] = [t + weight * c for t, c in zip(total, col)]
    return {form: _Stats(*total) for form, total in totals.items()}


def _eval_chunk(
    universe: Universe,
    claims: list[ClaimId],
    max_violations: int,
    totals: dict[bool, _Stats],
) -> _Chunk:
    """Per claim: (assertions evaluated, the universe's first max_violations
    identity rows).

    totals is the universe's sum of stats per form (_eval_parts): each
    claim's count is arithmetic in the sums of the forms it is stated for,
    and depends only on e1+e2.

    Then the walk finds the rows: it visits the first-use words of
    _word_cuts in canonical order, each with all of its splits and every
    (e1, e2) of the universe, standing for every split of its orbit.  Each
    split costs one _SplitContext and is checked against each claim with
    room that is stated for its form.  The claims with room are those with
    a per_sum and a non-zero count.  The walk renames nothing, so its rows
    are identity rows (σ = id), and come in row order.  A claim calls
    per_sum once per exponent sum until it holds max_violations rows, and
    then has no room; by the module docstring no row after those can rank.
    The walk stops when no claim has room.  _merge_chunks renames the rows
    that rank.
    """
    sums = universe.e_sums
    pairs = []  # exponent_pairs(sums), built for the first row found
    # (per_sum, rows, forms) per claim with room; a claim leaves once it
    # holds max_violations rows
    checked, held, room = {}, {}, []
    for c in claims:
        count, per_sum, forms = _CLAIMS[c]
        stated = [t for form, t in totals.items() if form in forms]
        checked[c] = sum((s - 1) * count(t, s) for t in stated for s in sums)
        held[c] = []
        if per_sum and checked[c]:
            room.append((per_sum, held[c], forms))
    for x, cuts in _word_cuts(universe):
        if not room:
            break
        n = len(x)
        for cut1, cut2 in cuts:
            if not room:
                break
            key, ctx = (n, x, cut1, cut2), _SplitContext(x, cut1, cut2)
            for entry in room[:]:
                per_sum, kept, forms = entry
                if (cut2 == n) not in forms:
                    continue
                found = {s: per_sum(ctx, s) for s in sums}
                if not any(found.values()):
                    continue
                pairs = pairs or exponent_pairs(sums)
                kept += _rows(key, pairs, found, max_violations - len(kept))
                if len(kept) >= max_violations:
                    room.remove(entry)
    return {c: (checked[c], held[c]) for c in claims}


def _rows(key: tuple, pairs: list, found: dict, limit: int) -> list[tuple]:
    """The first limit rows of split key, given its violations per e1+e2:
    pairs is exponent_pairs of the universe's exponent sums."""
    rows = (key + (e1, e2, *v) for e1, e2 in pairs for v in found[e1 + e2])
    return list(islice(rows, limit))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (taskset and cpusets narrow it), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(universe: Universe, jobs: int) -> int:
    """The number of parts run() deals the configuration classes out to.

    At most jobs, one per usable CPU and one per first-use Lyndon word with
    splits (so every part is dealt a word), and no more parts than leave
    each a share of the count pass's size above MIN_SPLITS_PER_PART; at
    least one.  The size is the universe's count of first-use prefix
    splits, whatever its forms, since the count pass reads every
    configuration once for all of them.
    """
    size = _split_count(replace(universe, forms="prefix"))
    cap = max(1, min(jobs, _usable_cpus(), (size - 1) // MIN_SPLITS_PER_PART))
    return len(list(islice(_lyndon_words(universe), cap))) or 1


def _send_totals(send: Connection, universe: Universe, part: int, parts: int) -> None:
    """A child process's whole job: send _totals of its part, or the
    exception it raised, to the parent."""
    try:
        totals = _totals(universe, part, parts)
    except Exception as exc:
        totals = exc
    send.send(totals)


def _eval_parts(universe: Universe, parts: int) -> dict[bool, _Stats]:
    """The universe's sum of stats per form: _totals of every part of
    `parts`, part 0 here and each other one in a child process.

    Under the fork start method a child gets (universe, part, parts)
    through the fork, so nothing is pickled on the way in; it sends its
    _totals back once, through a one-way pipe, while this process counts
    part 0.  A child's exception is raised again here, and a child that
    exits without sending raises RuntimeError naming its part and exit
    code.  If anything fails, the children are terminated; every child is
    joined before this returns.
    """
    children = []
    try:
        for part in range(1, parts):
            recv, send = Pipe(duplex=False)
            args = (send, universe, part, parts)
            child = Process(target=_send_totals, args=args, daemon=True)
            child.start()
            send.close()  # so that a child's death reads as EOFError
            children.append((child, recv))
        totals = [_totals(universe, 0, parts)]
        for part, (child, recv) in enumerate(children, 1):
            try:
                got = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"verify part {part} of {parts} exited with code"
                    f" {child.exitcode} before sending its totals"
                ) from None
            if isinstance(got, Exception):
                raise got
            totals.append(got)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    return {
        form: _Stats(*map(sum, zip(*(t[form] for t in totals))))
        for form in _forms(universe)
    }


def _merge_chunks(chunk: _Chunk, max_violations: int, alphabet_size: int) -> _Chunk:
    """Per claim: (assertions evaluated, the universe's first max_violations rows).

    chunk is _eval_chunk's result.  Its lists are the universe's first
    max_violations identity rows, in row order, and by the ordering
    argument in the module docstring the rows to report are among those
    and their splits' renamings.  Each such split streams its rows renamed
    into each word of its orbit: renamings yields (σ(x), σ) in σ(x) order,
    x first, and rows of two σ differ first at σ(x), so sorting each σ's
    rows puts the stream in row order.  The streams merge lazily, and a
    stream draws its next renaming only once the merge has taken every row
    of the one before; with one never-advanced tee per x, shared by every
    claim and split, at most max_violations + 1 renamings of a word are
    drawn.
    """
    orbit = cache(lambda x: tee(renamings(x, alphabet_size), 1)[0])

    def renamed(rows: list[tuple]) -> Iterator[tuple]:
        for sx, table in copy(orbit(rows[0][1])):
            yield from sorted(
                (n, sx, cut1, cut2, e1, e2, f.translate(table), want, got)
                for n, _, cut1, cut2, e1, e2, f, want, got in rows
            )

    merged = {}
    for c, (checked, held) in chunk.items():
        splits = [list(rows) for _, rows in groupby(held, key=lambda r: r[:4])]
        first = islice(merge(*map(renamed, splits)), max_violations)
        merged[c] = (checked, list(first))
    return merged


def run(
    universe: Universe,
    claims: Iterable[ClaimId | str] | str | None = None,
    max_violations: int = DEFAULT_MAX_VIOLATIONS,
    jobs: int = 1,
    max_checks: int = DEFAULT_MAX_CHECKS,
) -> list[ClaimReport]:
    """Evaluate claims over every spec of the universe.

    Output is deterministic and identical for any job count: every spec is
    counted once, through its configuration, and its rows are found unless
    they cannot rank.  A run counts, then walks.  Each part counts the
    configuration classes _classes deals to it, part `part` of `workers`
    (by the index of their Lyndon representative), so no process holds a
    spec.  The calling process counts part 0 itself and forks one child for
    each further part, which gets (universe, part, workers) through the
    fork and sends back only its sums of stats; one worker starts no
    process.  Once every part's sums are in, the calling process alone
    walks the splits for rows (_eval_chunk), and keeps only the first
    max_violations identity rows per claim, so memory is bounded by what is
    reported.  _merge_chunks renames their splits and keeps the first
    max_violations rows of the whole universe.  Only those rows become
    Witnesses, and each reported split and spec is one object, shared by
    every claim that reports it.

    claims are ClaimIds or their names; an unknown name raises ValueError.
    One claim may be given alone: a str (a ClaimId is one too) is one
    claim, not a list of letters.  None means every claim.

    jobs is an upper bound (_workers): there are at most as many workers as
    usable CPUs and as Lyndon words to deal out, so at most one process per
    further CPU starts and every part is dealt a word.  A universe too small
    to pay for a fork runs in one process: a further part is forked only
    when every part's share of the count pass exceeds MIN_SPLITS_PER_PART
    first-use prefix splits.
    """
    _check_limit("max_violations", max_violations, 1)
    _check_limit("jobs", jobs, 1)
    _check_limit("max_checks", max_checks, 0)
    if isinstance(claims, str):
        claims = [claims]
    wanted = set(ClaimId if claims is None else map(ClaimId, claims))
    claim_list = [c for c in ClaimId if c in wanted]
    if not claim_list:
        return []
    _check_size(
        estimated_checks(universe),
        max_checks,
        "specs to evaluate (one per letter-renaming orbit)",
    )
    totals = _eval_parts(universe, _workers(universe, jobs))
    chunk = _eval_chunk(universe, claim_list, max_violations, totals)
    split_of, spec_of = cache(DeletionSplit), cache(InterruptSpec)

    def witness(_n, sx, cut1, cut2, e1, e2, *violation) -> Witness:
        return Witness(spec_of(split_of(sx, cut1, cut2), e1, e2), *violation)

    reports = []
    merged = _merge_chunks(chunk, max_violations, universe.alphabet_size)
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
