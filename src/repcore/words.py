"""Word primitives: comparisons, periods, rotations, occurrence enumeration.

Words are plain Python strings; text interfaces render symbols as lowercase
letters 'a', 'b', ... and reject anything else.  Positions are 0-based,
intervals half-open.  All functions are pure.
"""

from __future__ import annotations

import string
from itertools import product
from typing import Iterator

from .errors import EmptyPattern, EmptyWord, InvalidWord, PatternLongerThanText

LETTERS = string.ascii_lowercase
_LETTER_SET = frozenset(LETTERS)


def parse_word(text: str) -> str:
    """Validate a word coming from a text interface.

    Only lowercase ASCII letters are accepted; anything else raises
    InvalidWord so downstream parsing stays deterministic.
    """
    for ch in text:
        if ch not in _LETTER_SET:
            raise InvalidWord(f"invalid symbol {ch!r} in word {text!r}")
    return text


def words_of_length(length: int, alphabet_size: int) -> Iterator[str]:
    """Yield every word of the given length in lexicographic order."""
    for tup in product(LETTERS[:alphabet_size], repeat=length):
        yield "".join(tup)


def primitive_words(length: int, alphabet_size: int) -> Iterator[str]:
    """Yield the primitive words of the given length in lexicographic order."""
    for w in words_of_length(length, alphabet_size):
        if is_primitive(w):
            yield w


def lcp(a: str, b: str) -> int:
    """Length of the longest common prefix of a and b.

    >>> lcp("aabab", "abaab")
    1
    >>> lcp("ab", "ba")
    0
    """
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i


def lcs(a: str, b: str) -> int:
    """Length of the longest common suffix of a and b.

    Equals the lcp of the reversed words.

    >>> lcs("aabab", "abaab")
    2
    >>> lcs("ab", "ba")
    0
    """
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[-1 - i] == b[-1 - i]:
        i += 1
    return i


def border_table(w: str) -> list[int]:
    """Failure function: border[i] = length of the longest proper border of w[:i+1]."""
    n = len(w)
    border = [0] * n
    k = 0
    for i in range(1, n):
        while k and w[k] != w[i]:
            k = border[k - 1]
        if w[k] == w[i]:
            k += 1
        border[i] = k
    return border


def smallest_period(w: str) -> int:
    """The minimal p in [1, |w|] with w[i] == w[i+p] for all valid i.

    The period need not divide |w|.

    >>> smallest_period("abab")
    2
    >>> smallest_period("aabab")
    5
    >>> smallest_period("aaaa")
    1
    """
    if not w:
        raise EmptyWord("smallest_period of empty word")
    return len(w) - border_table(w)[-1]


def is_primitive(w: str) -> bool:
    """True iff w is not u**k for any k >= 2 (square test).

    w = u**k with k >= 2 exactly when w occurs in w+w strictly inside, at
    the shift |u| < |w|; otherwise its first occurrence after 0 is at |w|.

    >>> is_primitive("abab")
    False
    >>> is_primitive("aabab")
    True
    """
    if not w:
        raise EmptyWord("is_primitive of empty word")
    return (w + w).find(w, 1) == len(w)


def rotate(w: str, k: int) -> str:
    """The rotation w[k:] + w[:k], with k taken mod |w|.

    >>> rotate("aabab", 1)
    'ababa'
    >>> rotate("ab", 1)
    'ba'
    """
    if not w:
        raise EmptyWord("rotate of empty word")
    k %= len(w)
    return w[k:] + w[:k]


def occurrences(pattern: str, text: str) -> list[int]:
    """All positions j with text[j:j+|pattern|] == pattern, ascending.

    Border-table (failure function) scanner, linear in |pattern| + |text|.

    >>> occurrences("ab", "abaabab")
    [0, 3, 5]
    >>> occurrences("a", "aaa")
    [0, 1, 2]
    """
    m = len(pattern)
    if m == 0:
        raise EmptyPattern("occurrences of empty pattern")
    out: list[int] = []
    if m > len(text):
        return out
    border = border_table(pattern)
    k = 0
    for j, ch in enumerate(text):
        while k and pattern[k] != ch:
            k = border[k - 1]
        if pattern[k] == ch:
            k += 1
            if k == m:
                out.append(j - m + 1)
                k = border[k - 1]
    return out


def cyclic_occurrences(pattern: str, text: str) -> list[int]:
    """Positions j in [0, |text|) where pattern matches with wraparound.

    >>> cyclic_occurrences("ba", "abaabab")
    [1, 4, 6]
    >>> cyclic_occurrences("ab", "ab")
    [0]
    """
    m = len(pattern)
    if m == 0:
        raise EmptyPattern("cyclic_occurrences of empty pattern")
    if m > len(text):
        raise PatternLongerThanText(f"pattern length {m} > text length {len(text)}")
    # Positions in the extended text are automatically < |text|.
    return occurrences(pattern, text + text[: m - 1])


def power_prefix(x: str, phase: int, n: int) -> str:
    """First n symbols of the infinite word rotate(x, phase) repeated forever.

    >>> power_prefix("ab", 1, 5)
    'babab'
    >>> power_prefix("aabab", 3, 7)
    'abaabab'
    """
    if not x:
        raise EmptyWord("power_prefix of empty word")
    r = rotate(x, phase)
    return (r * (n // len(x) + 1))[:n]
