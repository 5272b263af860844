import pytest
from hypothesis import given, settings, strategies as st

from repcore import cyclic_occurrences, is_primitive, lcp, lcs, occurrences
from repcore.words import (
    parse_word,
    power_prefix,
    rotate,
    smallest_period,
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
    smallest_period_naive,
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


def test_smallest_period_examples():
    assert smallest_period("abab") == 2
    assert smallest_period("aabab") == 5
    assert smallest_period("aaaa") == 1
    assert smallest_period("aabaa") == 3


@given(nonempty_words)
def test_smallest_period_matches_naive(w):
    assert smallest_period(w) == smallest_period_naive(w)


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
    for fn in (smallest_period, is_primitive, is_primitive_by_square):
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
    for bad in ("aB", "a b", "a1", "ab\n"):
        with pytest.raises(InvalidWord):
            parse_word(bad)
