"""The theory in reverse: recover interrupt parameters from raw words.

Three tools: exact decomposition of a word into interrupted-repetition
parses, fingerprint lookup of (hopefully unique) anchor factors, and
phase-segment scanning against a known period x — maximal intervals that
follow some rotation of x, with the phase jump at each break.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Union

from .errors import NonPrimitivePeriod, TextTooShort, WordTooShort
# build and power_prefix are not called here; perfbench/tracing.py patches
# them in this module by name, so they stay importable from it.
from .interrupts import (
    FORMS,
    MIN_E_SUM,
    CoreReport,
    DeletionSplit,
    InterruptSpec,
    build,
    core,
)
from .words import (
    border_table,
    is_primitive,
    lcp,
    lcs,
    occurrences,
    period_breaks,
    power_prefix,
)


@dataclass(frozen=True)
class Parse:
    """A spec together with its core report; build(spec) equals the input."""

    spec: InterruptSpec
    core: CoreReport


@dataclass(frozen=True)
class Ambiguous:
    """Anchor lookup that did not pin a single position."""

    positions: tuple[int, ...]


@dataclass(frozen=True)
class Segment:
    """Maximal interval [start, end) matching rotate(x, phase) repeated."""

    start: int
    end: int
    phase: int


@dataclass(frozen=True)
class PhaseJump:
    """Phase bookkeeping between consecutive segments.

    deleted_mod = (phase2 - phase1 - (start2 - start1)) mod |x|: the length
    (mod |x|) of what a single deletion between the segments removed.
    """

    left_end: int
    right_start: int
    deleted_mod: int


@dataclass(frozen=True)
class SegmentReport:
    segments: tuple[Segment, ...]
    jumps: tuple[PhaseJump, ...]


def parses(word: str, forms: str = "both") -> list[Parse]:
    """Every spec of the requested form with build(spec) == word, canonical order.

    W = x^e1 x1 x3 x^e2 starts and ends with x, so a candidate x is a
    border word[:n] with n <= |word| // MIN_E_SUM.  One border table gives
    them all: the chain border[-1], border[b-1], ... lists every border, and
    word[:n] is primitive unless p = n - border[n-1] is a proper divisor of
    n.  Since |word| = (e1+e2+1)*n - |x2| with 0 < |x2| < n, |x2| is
    -|word| mod n (n has no parse when that is 0) and e1 + e2 is
    (|word| + |x2|) // n - 1; the splits are (cut1, cut1 + |x2|).  The left
    part x^e1 x1 is a prefix with period n and the right part x3 x^e2 a
    suffix with period n, so a spec parses exactly when its junction
    e1*n + cut1 lies in [|word| - tail, head], where head and tail are the
    lengths of the longest period-n prefix and suffix.
    """
    if forms not in FORMS:
        raise ValueError(f"forms must be one of {FORMS}, got {forms!r}")
    total = len(word)
    if total < 3:
        raise WordTooShort(f"|word| = {total} < 3")
    border = border_table(word)
    chain = [border[-1]]
    while chain[-1]:
        chain.append(border[chain[-1] - 1])
    found = []
    for n in reversed(chain[:-1]):  # every border of the word, ascending
        gap = -total % n  # |x2|
        period = n - border[n - 1]
        # skip x too long for e1 + e2 >= MIN_E_SUM, no room for x2, x a power
        if n > total // MIN_E_SUM or not gap or (period < n and n % period == 0):
            continue
        head = n + lcp(word, word[n:])
        tail = n + lcs(word, word[:-n])
        if head + tail < total:
            continue
        x = word[:n]
        e_sum = (total + gap) // n - 1
        cuts = range(n - gap + 1)  # the cut1 values; the last is the prefix form
        for cut1 in {"both": cuts, "prefix": cuts[-1:], "deletion": cuts[:-1]}[forms]:
            # total - tail <= e1*n + cut1 <= head, and 1 <= e1 < e_sum
            lo = max(1, -((cut1 + tail - total) // n))
            hi = min(e_sum - 1, (head - cut1) // n)
            for e1 in range(lo, hi + 1):
                spec = InterruptSpec(DeletionSplit(x, cut1, cut1 + gap), e1, e_sum - e1)
                found.append(Parse(spec, core(spec)))
    return found


def locate_anchor(word: str, probe: str) -> Union[int, Ambiguous]:
    """The unique position of probe in word, or the full position list.

    >>> locate_anchor("abaabab", "aa")
    2
    >>> locate_anchor("abaabab", "ab")
    Ambiguous(positions=(0, 3, 5))
    """
    positions = occurrences(probe, word)
    if len(positions) == 1:
        return positions[0]
    return Ambiguous(tuple(positions))


def periodic_segments(text: str, x: str) -> SegmentReport:
    """All maximal intervals of length >= |x| matching some rotation phase of x.

    A position j inside a segment starting at s with phase f satisfies
    text[j] == x[(f + j - s) mod |x|].  The maximal intervals with period
    |x| lie between consecutive positions k with text[k] != text[k + |x|]
    (and the two ends of the text); each is a segment exactly when its
    first |x| symbols occur in x + x, at offset f.  Segments come out sorted
    by start; consecutive pairs get a PhaseJump record.

    Those positions come from period_breaks, so a stretch with period |x|
    costs one block compare per block; a text that breaks in most blocks
    (random text, or a wrong |x|) costs what a symbol-by-symbol scan does.
    """
    n = len(x)
    if n == 0 or not is_primitive(x):
        raise NonPrimitivePeriod(f"{x!r} is not a primitive period")
    total = len(text)
    if total < n:
        raise TextTooShort(f"|text| = {total} < |x| = {n}")

    segments = []
    rotations = x + x
    start = 0
    for k in chain(period_breaks(text, n), [total - n]):
        end = k + n
        phase = rotations.find(text[start : start + n])
        if phase >= 0:
            segments.append(Segment(start, end, phase))
        start = end - n + 1

    jumps = [
        PhaseJump(
            left.end,
            right.start,
            (right.phase - left.phase - (right.start - left.start)) % n,
        )
        for left, right in zip(segments, segments[1:])
    ]
    return SegmentReport(tuple(segments), tuple(jumps))
