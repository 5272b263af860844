"""The theory in reverse: recover interrupt parameters from raw words.

Three tools: exact decomposition of a word into interrupted-repetition
parses, fingerprint lookup of (hopefully unique) anchor factors, and
phase-segment scanning against a known period x — maximal intervals that
follow some rotation of x, with the phase jump at each break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import NonPrimitivePeriod, TextTooShort, WordTooShort
from .interrupts import (
    MIN_E_SUM,
    CoreReport,
    DeletionSplit,
    InterruptSpec,
    build,
    core,
    iter_splits,
)
from .words import is_primitive, occurrences, power_prefix


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

    Candidate periods are prefixes of the word (W starts with x), of length
    at most |word| // MIN_E_SUM; everything else is checked by rebuilding.
    """
    total = len(word)
    if total < 3:
        raise WordTooShort(f"|word| = {total} < 3")
    found = []
    for n in range(1, total // MIN_E_SUM + 1):
        x = word[:n]
        if not is_primitive(x):
            continue
        for cut1, cut2 in iter_splits(n, forms):
            body = total - cut1 - (n - cut2)
            if body % n:
                continue
            e_sum = body // n
            if e_sum < MIN_E_SUM:
                continue
            for e1 in range(1, e_sum):
                spec = InterruptSpec(DeletionSplit(x, cut1, cut2), e1, e_sum - e1)
                if build(spec) == word:
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
    text[j] == x[(f + j - s) mod |x|].  Segments are maximal per alignment,
    sorted by start; consecutive pairs get a PhaseJump record.
    """
    n = len(x)
    if n == 0 or not is_primitive(x):
        raise NonPrimitivePeriod(f"{x!r} is not a primitive period")
    total = len(text)
    if total < n:
        raise TextTooShort(f"|text| = {total} < |x| = {n}")

    segments = []
    # Alignment a: position j must equal x[(j + a) mod n]; a run starting at
    # s then has phase (s + a) mod n.  Each maximal run shows up for exactly
    # one alignment, so this scan is duplicate-free.
    for a in range(n):
        ref = power_prefix(x, a, total)
        j = 0
        while j < total:
            if text[j] == ref[j]:
                start = j
                while j < total and text[j] == ref[j]:
                    j += 1
                if j - start >= n:
                    segments.append(Segment(start, j, (start + a) % n))
            else:
                j += 1
    segments.sort(key=lambda s: s.start)

    jumps = [
        PhaseJump(
            left.end,
            right.start,
            (right.phase - left.phase - (right.start - left.start)) % n,
        )
        for left, right in zip(segments, segments[1:])
    ]
    return SegmentReport(tuple(segments), tuple(jumps))
