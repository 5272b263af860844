"""Word primitives: comparisons, periods, rotations, occurrence enumeration.

Words are plain Python strings; text interfaces render symbols as lowercase
letters 'a', 'b', ... and reject anything else.  Positions are 0-based,
intervals half-open.  All functions are pure.
"""

from __future__ import annotations

import string
from itertools import compress, count, permutations, product
from operator import ne
from typing import Callable, Iterator

from .errors import EmptyPattern, EmptyWord, InvalidWord, PatternLongerThanText

LETTERS = string.ascii_lowercase
_DROP_LETTERS = str.maketrans("", "", LETTERS)
# period_breaks' smallest block: after each break its block compares start
# at _BLOCK symbols and double up to _BLOCK * _BLOCK (so no slice of a long
# text is large), and an unequal block is bisected to at most _BLOCK symbols
# that are walked one by one.  A larger _BLOCK takes fewer compares per
# stretch but walks more symbols around each break.
_BLOCK = 256
# Symbols lcp and lcs compare one at a time before they switch to blocks:
# on short words (core() calls them on rotations of x) a loop is cheaper.
_SHORT = 8


def parse_word(text: str) -> str:
    """Validate a word coming from a text interface.

    Only lowercase ASCII letters are accepted; anything else raises
    InvalidWord, naming the first invalid symbol and its 0-based position
    (not the word, which may be millions of symbols long).

    >>> parse_word("ab1c")
    Traceback (most recent call last):
    ...
    repcore.errors.InvalidWord: invalid symbol '1' at position 2
    """
    rest = text.translate(_DROP_LETTERS)
    if rest:
        # rest keeps the invalid symbols in order, so rest[0] is the first
        # one and no earlier position holds the same symbol.
        ch = rest[0]
        raise InvalidWord(f"invalid symbol {ch!r} at position {text.index(ch)}")
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


def first_use_words(length: int, alphabet_size: int) -> Iterator[str]:
    """Yield the primitive words whose letters first appear in the order a, b, c, ...

    Renaming the letters of a word injectively keeps it primitive; these
    words are one per renaming orbit, each the smallest of its orbit.
    Lexicographic order.

    >>> list(first_use_words(3, 3))
    ['aab', 'aba', 'abb', 'abc']
    """

    def extend(prefix: str, used: int) -> Iterator[str]:
        if len(prefix) == length:
            yield prefix
            return
        for j in range(min(used + 1, alphabet_size)):
            yield from extend(prefix + LETTERS[j], max(used, j + 1))

    for w in extend("", 0):
        if is_primitive(w):
            yield w


def count_primitive_words(length: int, alphabet_size: int) -> int:
    """The number of words primitive_words yields, without enumerating them.

    >>> count_primitive_words(6, 2)
    54
    """
    return _primitive_count(length, lambda m: alphabet_size**m)


def count_first_use_words(length: int, alphabet_size: int) -> int:
    """The number of words first_use_words yields, without enumerating them.

    A word of length n whose m letters first appear in the order a, b, ...
    is a partition of its positions into m blocks; there are S(n, m) of
    them (Stirling numbers of the second kind).

    >>> count_first_use_words(3, 3), count_first_use_words(6, 2)
    (4, 27)
    """
    return _primitive_count(length, lambda m: _partitions(m, alphabet_size))


def _primitive_count(n: int, words: Callable[[int], int]) -> int:
    """The primitive words among words(n) of length n: Σ_{d|n} μ(d)·words(n/d).

    Each counted word is u^(n/d) for one primitive u of the same kind, with
    d | n, so words(n) = Σ_{d|n} primitive(d); Möbius inversion gives the sum.
    """
    return sum(_mobius(d) * words(n // d) for d in range(1, n + 1) if n % d == 0)


def renamings(x: str, alphabet_size: int) -> Iterator[tuple[str, dict[int, int]]]:
    """Yield (σ(x), σ) for every injective renaming σ of the letters of x.

    x is a first_use_words word; σ maps its letters into the first
    alphabet_size letters, as a str.translate table.  The renamings come
    lazily and in lexicographic order of σ(x), so x itself comes first.
    There are k!/(k-m)! of them for m distinct letters, the size of x's
    orbit.

    >>> [y for y, _ in renamings("aab", 3)]
    ['aab', 'aac', 'bba', 'bbc', 'cca', 'ccb']
    """
    used = LETTERS[: len(set(x))]
    for image in permutations(LETTERS[:alphabet_size], len(used)):
        table = str.maketrans(used, "".join(image))
        yield x.translate(table), table


def _mobius(n: int) -> int:
    """μ(n): 0 if a square divides n, else (-1) to the number of prime factors."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _partitions(n: int, k: int) -> int:
    """Σ_{m≤k} S(n, m): partitions of n positions into at most k blocks."""
    row = [1]  # S(i, m) for m = 0..i
    for i in range(1, n + 1):
        row = [0] + [
            m * (row[m] if m < i else 0) + row[m - 1] for m in range(1, i + 1)
        ]
    return sum(row[: k + 1])


def lcp(a: str, b: str) -> int:
    """Length of the longest common prefix of a and b.

    >>> lcp("aabab", "abaab")
    1
    >>> lcp("ab", "ba")
    0
    """
    limit = min(len(a), len(b))
    stop = limit if limit < _SHORT else _SHORT
    i = 0
    while i < stop and a[i] == b[i]:
        i += 1
    if i < _SHORT or i == limit:
        return i
    return _agree(a, b, i, limit, _head)


def lcs(a: str, b: str) -> int:
    """Length of the longest common suffix of a and b.

    Equals the lcp of the reversed words.

    >>> lcs("aabab", "abaab")
    2
    >>> lcs("ab", "ba")
    0
    """
    limit = min(len(a), len(b))
    stop = limit if limit < _SHORT else _SHORT
    i = 0
    while i < stop and a[-1 - i] == b[-1 - i]:
        i += 1
    if i < _SHORT or i == limit:
        return i
    return _agree(a, b, i, limit, _tail)


def _head(w: str, i: int, j: int) -> str:
    """Symbols i..j-1 of w counted from its start."""
    return w[i:j]


def _tail(w: str, i: int, j: int) -> str:
    """Symbols i..j-1 of w counted from its end: w[-1-i] down to w[-j]."""
    return w[len(w) - j : len(w) - i]


def _agree(
    a: str, b: str, i: int, limit: int, piece: Callable[[str, int, int], str]
) -> int:
    """The common length of a and b from one end, given that the first i agree.

    Compares blocks of doubling size by slice equality (in C) until one
    differs or limit is reached, then bisects that block: about 2*log2(L)
    slice compares over O(L) symbols for a result L.  piece(w, i, j) is the
    block of w holding symbols i..j-1 counted from the end being compared.
    """
    j = i
    while True:
        i, j = j, min(2 * j, limit)
        if piece(a, i, j) != piece(b, i, j):
            break
        if j == limit:
            return j
    # symbols < i agree and some symbol in i..j-1 does not
    while j - i > 1:
        mid = (i + j) // 2
        if piece(a, i, mid) == piece(b, i, mid):
            i = mid
        else:
            j = mid
    return i


def period_breaks(text: str, n: int) -> Iterator[int]:
    """Positions k < |text| - n with text[k] != text[k + n], ascending.

    These are the places where period n breaks.  The text is compared with
    itself shifted by n in blocks, one slice compare (in C) each, galloping
    as _agree does for lcp: the first block holds _BLOCK symbols, and each
    equal block doubles the next, up to _BLOCK * _BLOCK symbols.  An unequal
    block is bisected to its first unequal piece of at most _BLOCK symbols;
    only that piece is walked symbol by symbol (in C, through map and
    compress), and the blocks restart after it at _BLOCK symbols.  A stretch
    of length L with period n thus costs O(log(L / _BLOCK)) compares, plus
    one per _BLOCK * _BLOCK symbols past the cap; each break adds at most
    log2(_BLOCK) + 1 compares and a walk of at most _BLOCK symbols.  A text
    that breaks in most blocks costs about what a symbol-by-symbol scan
    does.

    >>> list(period_breaks("abaabab", 2))
    [1, 2]
    >>> list(period_breaks("ababab", 2))
    []
    """
    if n < 1:
        raise ValueError(f"period must be positive, got {n}")
    last = len(text) - n
    a, size = 0, _BLOCK
    while a < last:
        b = a + size
        if b > last:
            b = last
        # text[a:b] == text[a + n : b + n], slicing only one side
        if text.startswith(text[a + n : b + n], a):
            a = b
            if size < _BLOCK * _BLOCK:
                size *= 2
            continue
        # symbols < a agree with their shift and some symbol in a..b-1 does not
        while b - a > _BLOCK:
            mid = (a + b) // 2
            if text.startswith(text[a + n : mid + n], a):
                a = mid
            else:
                b = mid
        yield from compress(count(a), map(ne, text[a:b], text[a + n : b + n]))
        a, size = b, _BLOCK


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

    Hits come from str.find (in C).  If the pattern's smallest period p is
    at most m/2 (m = |pattern|), a hit at j is followed by one at j + p
    whenever the p symbols after it read pattern[m-p:], and there is no hit
    strictly between them: two at distance d < p would make d a period.
    Such runs are extended p symbols a step; find resumes after the last.
    Hits found by find alone lie more than m/2 apart (closer ones would
    give the pattern a period p' <= m/2, a multiple of p, and put a hit
    at j + p), so the scan is linear in |pattern| + |text|.

    >>> occurrences("ab", "abaabab")
    [0, 3, 5]
    >>> occurrences("a", "aaa")
    [0, 1, 2]
    >>> occurrences("aa", "aaaa")
    [0, 1, 2]
    """
    m = len(pattern)
    if m == 0:
        raise EmptyPattern("occurrences of empty pattern")
    # The first half recurs first at the smallest period if that is <= m/2
    # (Fine and Wilf, as in locate._lengths); p = 0 means no such period.
    p = pattern.find(pattern[: (m + 1) // 2], 1)
    if not (0 < p <= m // 2 and pattern.startswith(pattern[p:])):
        p = 0
    step = pattern[m - p :]
    out: list[int] = []
    j = text.find(pattern)
    while j >= 0:
        out.append(j)
        while p and text.startswith(step, j + m):
            j += p
            out.append(j)
        j = text.find(pattern, j + 1)
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
