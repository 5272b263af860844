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
# build, core and power_prefix are not called here; perfbench/tracing.py
# patches them in this module by name, so they stay importable from it.
from .interrupts import (
    FORMS,
    MIN_E_SUM,
    CoreReport,
    DeletionSplit,
    InterruptSpec,
    _core,
    build,
    core,
)
from .words import (
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

    W = x^e1 x1 x3 x^e2 starts and ends with x, and |x| = n <= |word| //
    MIN_E_SUM.  Since |word| = (e1+e2+1)*n - |x2| with 0 < |x2| < n, |x2| is
    -|word| mod n (n has no parse when that is 0) and e1 + e2 is
    (|word| + |x2|) // n - 1; the splits are (cut1, cut1 + |x2|).  The left
    part x^e1 x1 is a prefix with period n and the right part x3 x^e2 a
    suffix with period n, so a spec parses exactly when its junction
    e1*n + cut1 lies in [|word| - tail, head], where head and tail are the
    lengths of the longest period-n prefix and suffix.

    Only a few n can pass, and _lengths finds them without a table: it
    returns at most six lengths and misses no parse (its docstring says
    why).  Each then has to be a border of the word with word[:n]
    primitive, |x2| > 0 and head + tail >= |word|, as above.  Every
    parse's core.word is word itself, so a word with many parses is held
    once.
    """
    if forms not in FORMS:
        raise ValueError(f"forms must be one of {FORMS}, got {forms!r}")
    total = len(word)
    if total < 3:
        raise WordTooShort(f"|word| = {total} < 3")
    found = []
    for n in _lengths(word):
        gap = -total % n  # |x2|
        x = word[:n]
        if not gap or not word.endswith(x):
            continue
        left, right = word[:-n], word[n:]
        head = n + lcp(left, right)
        tail = n + lcs(left, right)
        if head + tail < total or not is_primitive(x):
            continue
        # A parse's junction j = e1*n + cut1 lies in [total - tail, head],
        # and in [n, total - n] as 1 <= e1 < e1 + e2.  Fewer than n
        # junctions lie in [total - tail, head] (over n of them x would equal
        # its rotation by gap), so each cut1 = j mod n has at most one e1.
        # Listing the junctions from the first multiple of n on first, then
        # the ones before it, puts cut1 in ascending order.
        e_sum = (total + gap) // n - 1
        cuts = range(n - gap + 1)  # the cut1 values; the last is the prefix form
        cuts = {"both": cuts, "prefix": cuts[-1:], "deletion": cuts[:-1]}[forms]
        lo, hi = max(n, total - tail), min(head, total - n) + 1
        wrap = lo - lo % n + n
        for j in chain(range(wrap, hi), range(lo, min(wrap, hi))):
            e1, cut1 = divmod(j, n)
            if cut1 not in cuts:
                continue
            spec = InterruptSpec(DeletionSplit(x, cut1, cut1 + gap), e1, e_sum - e1)
            found.append(Parse(spec, _core(spec, word)))
    return found


def _lengths(word: str) -> list[int]:
    """Ascending lengths n <= |word| // MIN_E_SUM, among them every parse's |x|.

    A parse with |x| = n has a period-n prefix and suffix that together
    cover the word, so one of them holds a half: the first or the last
    H = ceil(|word| / 2) symbols have period n.
    - n <= |word| / 4, so n <= H / 2.  That half's smallest period p is at
      most n and p + n <= H, so by Fine and Wilf (1965) gcd(p, n) is a
      period too: p divides n, and x = word[:n] = word[-n:] is a power of a
      word of length p.  x is primitive, so n = p.  The half's first
      ceil(H/2) symbols occur again first at p (an earlier occurrence q
      would make gcd(p, q) < p a period, by Fine and Wilf again), so that
      position is the half's candidate.
    - n > |word| / 4: then e1 + e2 = 3, and W is x x x1 x3 x or
      x x1 x3 x x.  _square_roots finds the n of the first shape on the
      word and of the second on its reversal; by the three-squares lemma
      (Crochemore and Rytter, 1995) each has at most two.  Both shapes end
      with x, a word that starts with U = word[:|word|//4 + 1], so unless
      U occurs at or after |word| - |word|//3 neither is looked for.
    Lengths that give no parse are left to the checks in parses.
    """
    total = len(word)
    top = total // MIN_E_SUM
    half = (total + 1) // 2
    m = (half + 1) // 2
    s = total - half
    lengths = [word.find(word[:m], 1, half), word.find(word[s : s + m], s + 1) - s]
    if word.find(word[: total // 4 + 1], total - top) >= 0:
        lengths += _square_roots(word) + _square_roots(word[::-1])
    return sorted({n for n in lengths if 0 < n <= top})


def _square_roots(w: str) -> list[int]:
    """At most two lengths, among them every n in (|w|/4, |w|/3] fit for x.

    n is fit when x = w[:n] is primitive and w starts with x twice and ends
    with x.  Such an n is at least k = |w|//4 + 1, so U = w[:k] occurs at
    n.  If U occurs once at a position in [k, |w|//3], that is n.
    Otherwise the positions lie at most |w|/12 <= k/3 apart, so they step
    by U's smallest period d (Fine and Wilf) inside one period-d run, which
    ends at b.  Let the period-d run from 0 end at r; x starts with U.
    - r < n: x x repeats that run at n, where it ends at n + r = b.  If U
      occurs inside [0, r), b is r and there is no such n.
    - r >= n: x has period d, and r < 2n since x x has no period d (x is
      primitive), so r - d < n <= r.  The word ends with x, so the
      occurrences of the primitive w[:d] from |w| - r + d on (there is one,
      as r >= k >= 3d) lie in that x, at positions congruent to |w| - n
      modulo d; the first one fixes n.
    Both cases need r < |w|//3 + d.
    """
    total = len(w)
    top = total // MIN_E_SUM
    k = total // 4 + 1
    u = w[:k]
    first = w.find(u, k, top + k)
    if first < 0:
        return []
    second = w.find(u, first + 1, top + k)
    if second < 0:
        return [first]
    d = second - first
    if w[d : top + d] == w[:top]:  # r >= top + d
        return []
    r = d + lcp(w, w[d:])
    roots = [r - (r - total + w.find(w[:d], total - r + d)) % d]
    if first + k > r:
        roots.append(first + d + lcp(w[first:], w[first + d :]) - r)
    return roots


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
