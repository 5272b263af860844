import random
import time
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

from repcore import cyclic_occurrences, is_primitive, lcp, lcs, occurrences
from repcore.words import (
    _BLOCK,
    count_first_use_words,
    count_primitive_words,
    first_use_words,
    parse_word,
    period_breaks,
    power_prefix,
    primitive_words,
    renamings,
    rotate,
    words_of_length,
)
from repcore.errors import (
    EmptyPattern,
    EmptyWord,
    InvalidWord,
    PatternLongerThanText,
)

from oracles import (
    is_primitive_by_square,
    lcp_naive,
    lcs_naive,
    occurrences_naive,
    period_breaks_naive,
)

words = st.text(alphabet="abc", max_size=24)
nonempty_words = st.text(alphabet="abc", min_size=1, max_size=24)


def test_lcp_examples():
    assert lcp("aabab", "abaab") == 1
    assert lcp("ab", "ba") == 0
    assert lcp("abc", "abc") == 3
    assert lcp("", "abc") == 0


def test_lcs_examples():
    assert lcs("aabab", "abaab") == 2
    assert lcs("ab", "ba") == 0
    assert lcs("abc", "abc") == 3


@given(words, words)
def test_lcp_symmetric_and_matches_naive(a, b):
    assert lcp(a, b) == lcp(b, a) == lcp_naive(a, b)


@given(words, words)
def test_lcs_is_lcp_of_reversals(a, b):
    assert lcs(a, b) == lcp(a[::-1], b[::-1]) == lcs_naive(a, b)


@given(nonempty_words)
def test_lcp_identity(w):
    assert lcp(w, w) == len(w) == lcs(w, w)


def test_lcp_lcs_on_long_words_at_block_edges():
    # The first mismatch sits where the symbol loop hands over to the
    # doubling blocks (8), on and beside each block edge 2^k, and at the end.
    rng = random.Random(20261020)
    size = 10**6
    a = "".join(rng.choice("ab") for _ in range(size))
    edges = {0, 7, 8, 9, 15, 16, 17, size - 2, size - 1}
    edges |= {(1 << k) + d for k in range(5, 20) for d in (-1, 0, 1)}
    flip = str.maketrans("ab", "ba")
    for k in sorted(edges):
        b = a[:k] + a[k].translate(flip) + a[k + 1 :]
        assert lcp(a, b) == lcp_naive(a, b) == k, k
        b = a[: size - 1 - k] + a[size - 1 - k].translate(flip) + a[size - k :]
        assert lcs(a, b) == lcs_naive(a, b) == k, k
    # no mismatch: the shorter word ends first
    for m in (size, size - 1, 9, 8, 7):
        assert lcp(a, a[:m]) == lcp_naive(a, a[:m]) == m
        assert lcs(a, a[size - m :]) == lcs_naive(a, a[size - m :]) == m


def test_is_primitive_examples():
    assert not is_primitive("abab")
    assert is_primitive("aabab")
    assert is_primitive("a")
    assert not is_primitive("aaaa")


def test_primitivity_implementations_agree_exhaustively():
    # every word up to length 12 over alphabets of size 2 and 3
    for sigma in (2, 3):
        for n in range(1, 13):
            for w in words_of_length(n, sigma):
                assert is_primitive(w) == is_primitive_by_square(w), w


def test_first_use_words_are_one_per_renaming_orbit_exhaustively():
    for k in range(1, 5):
        for n in range(1, 9):
            reps = list(first_use_words(n, k))
            assert reps == sorted(set(reps))
            assert count_first_use_words(n, k) == len(reps), (n, k)
            # the orbits by brute force: primitive words grouped by which
            # positions hold equal letters; each representative is the
            # smallest word of its orbit
            orbits = {}
            for w in primitive_words(n, k):
                orbits.setdefault(tuple(w.index(ch) for ch in w), []).append(w)
            assert sorted(min(orbit) for orbit in orbits.values()) == reps
            images = Counter()
            for x in reps:
                m = len(set(x))
                orbit = list(renamings(x, k))
                assert len(orbit) == factorial(k) // factorial(k - m)
                ys = [y for y, _ in orbit]
                assert ys == sorted(ys) and ys[0] == x
                for y, table in orbit:
                    assert len(table) == len(set(table.values())) == m  # injective
                    assert y == x.translate(table)
                images.update(ys)
            # every primitive word is the image of exactly one representative
            # under exactly one renaming, so the orbit sizes sum to their count
            primitive = list(primitive_words(n, k))
            assert count_primitive_words(n, k) == len(primitive)
            assert images == Counter(primitive), (n, k)
            assert sum(len(list(renamings(x, k))) for x in reps) == len(primitive)


def test_rotate_examples():
    assert rotate("aabab", 1) == "ababa"
    assert rotate("ab", 1) == "ba"
    assert rotate("abc", 0) == "abc"
    assert rotate("abc", 5) == rotate("abc", 2)
    assert rotate("abc", -1) == "cab"


@given(nonempty_words, st.integers(-50, 50))
def test_rotate_roundtrip(w, k):
    assert rotate(rotate(w, k), -k) == w
    assert len(rotate(w, k)) == len(w)


def test_occurrences_examples():
    assert occurrences("aa", "abaabab") == [2]
    assert occurrences("ab", "abaabab") == [0, 3, 5]
    assert occurrences("a", "aaa") == [0, 1, 2]
    assert occurrences("zz", "abaabab") == []
    assert occurrences("ab", "a") == []


@given(st.text(alphabet="ab", min_size=1, max_size=8), st.text(alphabet="ab", max_size=64))
def test_occurrences_matches_naive(pattern, text):
    assert occurrences(pattern, text) == occurrences_naive(pattern, text)


def test_occurrences_equals_naive_exhaustively():
    # periodic patterns, runs that end at the text's end and patterns
    # longer than the text: 389,082 pairs
    for sigma, max_text, max_pattern in ((2, 10, 6), (3, 6, 4)):
        texts = [t for n in range(max_text + 1) for t in words_of_length(n, sigma)]
        for m in range(1, max_pattern + 1):
            for pattern in words_of_length(m, sigma):
                for text in texts:
                    assert occurrences(pattern, text) == occurrences_naive(
                        pattern, text
                    ), (pattern, text)


def test_occurrences_of_long_periodic_pattern_within_budget():
    # a find loop that resumes one symbol after each hit rescans the
    # pattern at every one of the 200,001 hits; stepping by the period
    # reads each symbol about once
    text = "a" * 3 * 10**5
    for pattern, expected in (
        ("a" * 10**5, list(range(200_001))),
        ("a" * (10**5 - 1) + "b", []),
    ):
        start = time.perf_counter()
        assert occurrences(pattern, text) == expected
        assert time.perf_counter() - start < 5.0


def test_cyclic_occurrences_examples():
    assert cyclic_occurrences("ba", "abaabab") == [1, 4, 6]
    assert cyclic_occurrences("ab", "ab") == [0]
    assert cyclic_occurrences("aa", "abaabab") == [2]


@given(st.data())
def test_cyclic_occurrences_equals_wraparound_scan(data):
    text = data.draw(st.text(alphabet="ab", min_size=1, max_size=32))
    m = data.draw(st.integers(1, len(text)))
    pattern = data.draw(st.text(alphabet="ab", min_size=m, max_size=m))
    expected = [
        j
        for j in range(len(text))
        if all(text[(j + i) % len(text)] == pattern[i] for i in range(m))
    ]
    assert cyclic_occurrences(pattern, text) == expected


def test_power_prefix_examples():
    assert power_prefix("ab", 1, 5) == "babab"
    assert power_prefix("aabab", 3, 7) == "abaabab"
    assert power_prefix("abc", 0, 3) == "abc"
    assert power_prefix("ab", 0, 0) == ""


@given(nonempty_words, st.integers(0, 20), st.integers(0, 60))
def test_power_prefix_is_periodic(x, phase, n):
    w = power_prefix(x, phase, n)
    assert len(w) == n
    r = rotate(x, phase)
    assert all(w[i] == r[i % len(x)] for i in range(n))


def test_empty_word_errors():
    for fn in (is_primitive, is_primitive_by_square):
        with pytest.raises(EmptyWord):
            fn("")
    with pytest.raises(EmptyWord):
        rotate("", 1)
    with pytest.raises(EmptyWord):
        power_prefix("", 0, 3)


def test_empty_pattern_errors():
    with pytest.raises(EmptyPattern):
        occurrences("", "abc")
    with pytest.raises(EmptyPattern):
        occurrences_naive("", "abc")
    with pytest.raises(EmptyPattern):
        cyclic_occurrences("", "abc")


def test_pattern_longer_than_text():
    with pytest.raises(PatternLongerThanText):
        cyclic_occurrences("aaaa", "aa")


def test_parse_word():
    assert parse_word("abz") == "abz"
    assert parse_word("") == ""
    # the first invalid symbol and its position, not the word, are reported
    for bad, ch, pos in (
        ("aB", "B", 1),
        ("a b1", " ", 1),
        ("a1", "1", 1),
        ("ab\n", "\n", 2),
        ("zz9a9", "9", 2),
        ("abcé", "é", 3),
    ):
        with pytest.raises(InvalidWord) as exc:
            parse_word(bad)
        assert str(exc.value) == f"invalid symbol {ch!r} at position {pos}"


def test_period_breaks_equals_naive_exhaustively_on_binary_texts():
    for length in range(15):
        for text in words_of_length(length, 2):
            for n in range(1, length + 1):
                assert list(period_breaks(text, n)) == period_breaks_naive(text, n)


def _one_break(rng, length, n, k):
    """A text of the given length with period n except at k alone."""
    text = [rng.choice("abc") for _ in range(n)]
    for j in range(n, length):
        ch = text[j - n]
        text.append("bca"["abc".index(ch)] if j == k + n else ch)
    return "".join(text)


def test_period_breaks_at_block_edges():
    rng = random.Random(20261019)
    edges = (_BLOCK - 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1)
    for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 300):
        # |text| - n spans 0 to 3 blocks, ending on and beside block edges
        for length in (n, n + 1, n + _BLOCK, n + 2 * _BLOCK + 1, n + 3 * _BLOCK):
            last = length - n - 1
            for k in sorted({*edges, last}):
                if 0 <= k <= last:
                    text = _one_break(rng, length, n, k)
                    assert list(period_breaks(text, n)) == [k], (n, length, k)
            periodic = _one_break(rng, length, n, -1)  # k = -1 plants none
            assert list(period_breaks(periodic, n)) == []
            for letters in ("ab", "abc"):
                text = list(periodic)
                for j in rng.sample(range(length), min(length, 4)):
                    text[j] = rng.choice(letters)
                text = "".join(text)
                assert list(period_breaks(text, n)) == period_breaks_naive(text, n)
                noise = "".join(rng.choice(letters) for _ in range(length))
                assert list(period_breaks(noise, n)) == period_breaks_naive(noise, n)


def _planted(rng, n, length, breaks):
    """A text of the given length with period n except at the given positions.

    breaks ascend, each k with 0 <= k < length - n; text[k + n] is set to a
    symbol other than text[k], and the text goes on with period n after it.
    """
    text = "".join(rng.choice("abc") for _ in range(n))
    for k in breaks:
        tail = text[-n:]
        text += (tail * ((k + n - len(text)) // n + 1))[: k + n - len(text)]
        text += "bca"["abc".index(text[k])]
    tail = text[-n:]
    return text + (tail * ((length - len(text)) // n + 1))[: length - len(text)]


# Where period_breaks' blocks start in a stretch from 0: the block sizes
# double from _BLOCK, so block i starts at _BLOCK * (2**i - 1), up to the
# cap of _BLOCK * _BLOCK symbols (i = 8) and one capped block past it (i = 9).
_GALLOP_STARTS = [_BLOCK * (2**i - 1) for i in range(10)]
_PERIODS = (1, _BLOCK, _BLOCK + 1, 300)


def test_period_breaks_gallop_edges():
    assert _BLOCK * (2**8) == _BLOCK * _BLOCK  # block 8 is the first capped one
    rng = random.Random(20261021)
    for n in _PERIODS:
        for start in _GALLOP_STARTS:
            for k in (start - 1, start, start + 1):
                if k < 0:
                    continue
                # the break in the last comparable position, then with a
                # stretch past it that gallops up to the cap again
                for length in (k + n + 1, k + n + 1 + 70_000):
                    text = _planted(rng, n, length, [k])
                    assert list(period_breaks(text, n)) == [k], (n, k, length)


def test_period_breaks_on_texts_ending_on_a_block_start():
    rng = random.Random(20261022)
    for n in _PERIODS:
        for last in _GALLOP_STARTS[1:]:
            length = last + n
            assert list(period_breaks(_planted(rng, n, length, []), n)) == []
            for k in {0, last // 2, last - _BLOCK - 1, last - _BLOCK, last - 1} - {-1}:
                text = _planted(rng, n, length, [k])
                assert list(period_breaks(text, n)) == [k], (n, last, k)


def test_period_breaks_with_two_breaks_in_one_bisected_block():
    rng = random.Random(20261023)
    # the block of 4,096 symbols from 3,840 is the first unequal one; it is
    # bisected to the 256-symbol piece from 4,608, or its first half's
    big = _GALLOP_STARTS[4]
    for n in _PERIODS:
        for offsets in (
            (768 + 10, 768 + 200),  # both in one final piece
            (768, 768 + 1),  # adjacent
            (768, 768 + _BLOCK - 1),  # the piece's first and last symbol
            (100, 3000),  # in two halves of the block
            (2047, 2048),  # on both sides of the first bisection
        ):
            breaks = [big + d for d in offsets]
            text = _planted(rng, n, big + 9000 + n, breaks)
            assert list(period_breaks(text, n)) == breaks, (n, offsets)
            assert period_breaks_naive(text, n) == breaks


def test_period_breaks_on_seeded_texts_with_spread_breaks():
    rng = random.Random(20261024)
    for n in (*_PERIODS, 8, 10):
        for gap in (64, 300, 1200, 5000):
            breaks, k = [], rng.randint(0, gap)
            while k < 150_000:
                breaks.append(k)
                k += rng.randint(64, gap)
            text = _planted(rng, n, 150_000 + n + rng.randint(1, 2000), breaks)
            assert list(period_breaks(text, n)) == breaks, (n, gap)
            # flipped symbols break twice, n apart; the oracle counts them
            flipped = list(text[:40_000])
            for j in rng.sample(range(40_000), 20):
                flipped[j] = rng.choice("abc")
            flipped = "".join(flipped)
            assert list(period_breaks(flipped, n)) == period_breaks_naive(flipped, n)


def test_period_breaks_rejects_a_period_below_one():
    for n in (0, -1):
        with pytest.raises(ValueError):
            list(period_breaks("abab", n))
