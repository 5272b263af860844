import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repcore import (
    DeletionSplit,
    InterruptSpec,
    Universe,
    build,
    core,
    locate_anchor,
    parses,
    periodic_segments,
)
from repcore.interrupts import iter_splits
from repcore.locate import Ambiguous, PhaseJump, Segment
from repcore.verify import enumerate_specs
from repcore.words import first_use_words, power_prefix
from repcore.errors import (
    EmptyPattern,
    NonPrimitivePeriod,
    TextTooShort,
    WordTooShort,
)

from oracles import is_primitive_naive, parses_bruteforce, phase_segments_naive


def spec_tuple(s):
    return (s.split.x, s.split.cut1, s.split.cut2, s.e1, s.e2)


def test_parses_prefix_example():
    found = parses("abaabab", "prefix")
    assert [spec_tuple(p.spec) for p in found] == [("ab", 1, 2, 1, 2)]
    assert found[0].core.core == "aa"


def test_parses_deletion_example():
    found = parses("abbabab", "deletion")
    assert ("ab", 0, 1, 1, 2) in [spec_tuple(p.spec) for p in found]


def test_parses_pure_power_has_none():
    assert parses("aaaaaa", "prefix") == []


def test_parses_rebuild_and_canonical_order():
    found = parses("aababaabaab")
    assert all(build(p.spec) == "aababaabaab" for p in found)
    keys = [p.spec.key() for p in found]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_parses_word_too_short():
    with pytest.raises(WordTooShort):
        parses("ab")


def test_parses_equals_bruteforce_exhaustive_binary():
    # every binary word of length 3..16, pruned search vs dumb enumeration
    for length in range(3, 17):
        for code in range(1 << length):
            word = bin(code)[2:].zfill(length).translate(str.maketrans("01", "ab"))
            assert [p.spec for p in parses(word)] == parses_bruteforce(word), word


@pytest.mark.parametrize("alphabet, max_x", [(2, 7), (3, 6)])
def test_parses_band_equals_bruteforce_exhaustive(alphabet, max_x):
    # e1 + e2 = 3 puts |x| in (|word|/4, |word|/3), where no half of the
    # word need have period |x|: every split of every first-use x, both
    # forms, both exponent pairs
    for n in range(2, max_x + 1):
        for x in first_use_words(n, alphabet):
            for cut1, cut2 in iter_splits(n, "both"):
                split = DeletionSplit(x, cut1, cut2)
                for e1 in (1, 2):
                    word = build(InterruptSpec(split, e1, 3 - e1))
                    found = [p.spec for p in parses(word)]
                    assert found == parses_bruteforce(word), word


@pytest.mark.parametrize(
    "word, expected",
    [
        # w[:|w|//4 + 1] occurs once where w[|x|:] starts (on the reversal)
        (
            "abaaaaaaabaaaaaabaaaaa",
            [("abaaaaa", 0, 6, 1, 2), ("abaaaaa", 1, 7, 1, 2)],
        ),
        # it recurs with period d and x has period d: |x| from the phase of
        # w[:d] near the end
        (
            "ababababaabababababababaababababa",
            [("ababababa", 0, 3, 2, 1), ("ababababa", 6, 9, 1, 2)],
        ),
        # it recurs with period d and x does not: |x| from the run ends
        (
            "aaaaaaaabaaaaaaaaabaaaaaaaaaaba",
            [("aaaaaaaaba", 0, 9, 2, 1), ("aaaaaaaaba", 1, 10, 2, 1)],
        ),
    ],
)
def test_parses_band_words_without_a_periodic_half(word, expected):
    # |x| is the smallest period of neither half of these words
    found = parses(word)
    assert [spec_tuple(p.spec) for p in found] == expected
    assert [p.spec for p in found] == parses_bruteforce(word)


@pytest.mark.parametrize("forms", ["both", "prefix", "deletion"])
def test_parses_equals_bruteforce_randomized(forms):
    rng = random.Random(20260810)
    for _ in range(10_000):
        length = rng.randint(3, 24)
        sigma = rng.choice("23")
        word = "".join(rng.choice("abc"[: int(sigma)]) for _ in range(length))
        found = [p.spec for p in parses(word, forms)]
        assert found == parses_bruteforce(word, forms), (word, forms)


def test_parses_ladder_word_within_budget():
    # the 16,005-symbol word of the benchmark's parse ladder: |x| = 16,
    # prefix form with cut 5, e1 = e2 = 500
    rng = random.Random(16005)
    x = "".join(rng.choice("ab") for _ in range(16))
    while not is_primitive_naive(x):
        x = "".join(rng.choice("ab") for _ in range(16))
    planted = InterruptSpec(DeletionSplit.prefix(x, 5), 500, 500)
    word = build(planted)
    assert len(word) == 16_005
    start = time.perf_counter()
    found = parses(word)
    assert time.perf_counter() - start < 5.0
    assert planted in [p.spec for p in found]
    assert all(build(p.spec) == word == p.core.word for p in found)


def test_parses_many_borders_none_parse_within_budget():
    # every odd-length prefix (ab)^k a is a primitive border of the word,
    # but no period-n prefix and suffix meet, so nothing parses
    start = time.perf_counter()
    assert parses("ab" * 4000 + "a") == []
    assert time.perf_counter() - start < 5.0


def _million_spec():
    """3,300,005 symbols: |x| = 16, prefix cut 5, e1 = e2 = 103,125."""
    rng = random.Random(3300005)
    x = "".join(rng.choice("ab") for _ in range(16))
    while not is_primitive_naive(x):
        x = "".join(rng.choice("ab") for _ in range(16))
    return InterruptSpec(DeletionSplit.prefix(x, 5), 103_125, 103_125)


def test_parses_scales_to_millions_of_symbols():
    # every x^k is a border of the word, and no length needs a table
    planted = _million_spec()
    word = build(planted)
    assert len(word) == 3_300_005
    start = time.perf_counter()
    found = parses(word)
    assert time.perf_counter() - start < 5.0
    assert planted in [p.spec for p in found]


def test_parses_of_millions_of_symbols_peaks_under_50_mb():
    # a parse holds a few copies of the word, not a table of ints per symbol
    word = build(_million_spec())
    tracemalloc.start()
    try:
        found = parses(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found and peak < 50 * 2**20, peak


@pytest.mark.parametrize(
    "word",
    ["a" * 3_000_000 + "b" + "a" * 5, "ab" * 1_500_000 + "a"],
    ids=["a^3000000-b-a^5", "(ab)^1500000-a"],
)
def test_parses_periodic_prefix_without_parse_within_budget(word):
    # w[:|w|//4 + 1] recurs with a short period up to |w|/3, the band's
    # periodic case; no prefix of either word is a primitive x that parses
    start = time.perf_counter()
    assert parses(word) == []
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("word", ["abc", "abaabab"])
def test_parses_rejects_unknown_forms(word):
    # checked before any work, whether or not the word has a candidate x
    message = "forms must be one of ('prefix', 'deletion', 'both'), got 'bogus'"
    with pytest.raises(ValueError, match=re.escape(message)):
        parses(word, "bogus")


def test_locate_anchor_examples():
    assert locate_anchor("abaabab", "aa") == 2
    assert locate_anchor("abaabab", "ab") == Ambiguous((0, 3, 5))
    assert locate_anchor("abaabab", "zz") == Ambiguous(())
    with pytest.raises(EmptyPattern):
        locate_anchor("abaabab", "")


def test_locate_anchor_can_be_ambiguous_for_true_anchors():
    # anchored windows are not always unique: the degenerate-run spec
    spec = InterruptSpec(DeletionSplit.prefix("aab", 2), 1, 2)
    assert locate_anchor(build(spec), "aaa") == Ambiguous((3, 4))


def test_periodic_segments_examples():
    rep = periodic_segments("abaabab", "ab")
    assert rep.segments == (Segment(0, 3, 0), Segment(3, 7, 0))
    assert rep.jumps == (PhaseJump(3, 3, 1),)

    rep = periodic_segments("abbabab", "ab")
    assert rep.segments == (Segment(0, 2, 0), Segment(2, 7, 1))
    assert rep.jumps == (PhaseJump(2, 2, 1),)

    rep = periodic_segments("ababab", "ab")
    assert rep.segments == (Segment(0, 6, 0),)
    assert rep.jumps == ()


def test_periodic_segments_errors():
    with pytest.raises(NonPrimitivePeriod):
        periodic_segments("ababab", "abab")
    with pytest.raises(NonPrimitivePeriod):
        periodic_segments("ababab", "")
    with pytest.raises(TextTooShort):
        periodic_segments("ab", "aba")


def test_periodic_segments_equals_naive_on_random_texts():
    rng = random.Random(20261018)
    for _ in range(10_000):
        letters = rng.choice(["ab", "abc"])
        n = rng.randint(1, 8)
        x = "".join(rng.choice(letters) for _ in range(n))
        if not is_primitive_naive(x):
            continue
        text = "".join(rng.choice(letters) for _ in range(rng.randint(n, 60)))
        rep = periodic_segments(text, x)
        found = [(s.start, s.end, s.phase) for s in rep.segments]
        assert found == phase_segments_naive(text, x), (text, x)


def test_periodic_segments_equals_naive_across_blocks():
    # Texts of 600-900 symbols, so the break finder crosses block edges:
    # runs of rotations of x with random phases and lengths, each followed
    # by nothing, x[0] or "c".
    rng = random.Random(20261019)
    for x in ("ab", "aab", "abaab", "aababb", "abcacb"):
        n = len(x)
        for _ in range(6):
            pieces = []
            while sum(map(len, pieces)) < 600:
                run = power_prefix(x, rng.randrange(n), rng.randint(1, 300))
                pieces.append(run + rng.choice(["", x[0], "c"]))
            text = "".join(pieces)
            rep = periodic_segments(text, x)
            found = [(s.start, s.end, s.phase) for s in rep.segments]
            assert found == phase_segments_naive(text, x), (text, x)
    # the README's three-segment example, with its junction past two blocks
    text = build(InterruptSpec(DeletionSplit("aabab", 0, 1), 120, 90))
    rep = periodic_segments(text, "aabab")
    found = [(s.start, s.end, s.phase) for s in rep.segments]
    assert found == phase_segments_naive(text, "aabab")
    assert found == [(0, 601, 0), (598, 603, 1), (600, 1054, 1)]


@given(st.text(alphabet="ab", min_size=2, max_size=40), st.sampled_from(["ab", "ba", "aab", "aba", "abb"]))
def test_periodic_segments_properties(text, x):
    n = len(x)
    if len(text) < n:
        return
    rep = periodic_segments(text, x)
    starts = [s.start for s in rep.segments]
    assert starts == sorted(starts) and len(set(starts)) == len(starts)
    for s in rep.segments:
        assert s.end - s.start >= n
        ref = power_prefix(x, s.phase, s.end - s.start)
        assert text[s.start : s.end] == ref
        # maximality
        if s.start > 0:
            assert text[s.start - 1] != x[(s.phase - 1) % n]
        if s.end < len(text):
            assert text[s.end] != x[(s.phase + s.end - s.start) % n]
    for left, right in zip(rep.segments, rep.segments[1:]):
        # non-nested
        assert left.end < right.end
    assert len(rep.jumps) == max(0, len(rep.segments) - 1)


def test_segment_recovery_on_built_words():
    # for most specs the scan recovers exactly the two phase segments
    # meeting over the core, and the jump measures |x2| mod |x|
    spec = InterruptSpec(DeletionSplit("aabab", 3, 5), 1, 2)
    rep = core(spec)
    sr = periodic_segments(rep.word, "aabab")
    assert [(s.start, s.end) for s in sr.segments] == [
        (0, rep.junction + rep.p_len),
        (rep.junction - rep.s_len, len(rep.word)),
    ]
    assert sr.jumps[0].deleted_mod == 2  # |x2| = cut2 - cut1 = 2


def test_segment_recovery_can_see_a_third_segment():
    # a rotation of x can straddle the junction as its own maximal phase
    # interval, so "exactly two segments" does not hold universally
    spec = InterruptSpec(DeletionSplit("aabab", 0, 1), 1, 2)
    W = build(spec)
    sr = periodic_segments(W, "aabab")
    assert [(s.start, s.end) for s in sr.segments] == [(0, 6), (3, 8), (5, 19)]
    assert W[3:8] == "ababa"  # = rotate(x, 1), fully inside the word


def test_segment_recovery_census_small_universe():
    # census over |x| <= 5, both forms: the two-segment recovery holds for
    # all but the straddling-rotation family; jumps always measure |x2|
    # whenever exactly two segments appear
    three_plus = 0
    total = 0
    for spec in enumerate_specs(Universe(2, 2, 5, (3,), "both")):
        total += 1
        rep = core(spec)
        n = len(spec.split.x)
        sr = periodic_segments(rep.word, spec.split.x)
        if len(sr.segments) == 2:
            assert [(s.start, s.end) for s in sr.segments] == [
                (0, rep.junction + rep.p_len),
                (rep.junction - rep.s_len, len(rep.word)),
            ]
            assert sr.jumps[0].deleted_mod == (spec.split.cut2 - spec.split.cut1) % n
        else:
            three_plus += 1
    assert total == 1124
    assert three_plus == 48  # the known straddling cases at this scale
