"""Interrupted repetitions W = x^e1 · x1 · x3 · x^e2 and their cores.

A primitive word x is split as x = x1 x2 x3 and repeated with the factor x2
deleted once.  Around the junction (the position where the periodic
continuation first deviates) sits the *core*: the shortest factor whose
presence in a length-|x| window pins the window to the interrupt.

Two conjugates of x drive everything:

    u = rotate(x, cut1) = x2 x3 x1   what the left periodicity would continue with
    v = rotate(x, cut2) = x3 x1 x2   what actually follows the junction

With p = lcp(v, u) and s = lcs(u, v), the core is s_tilde + p_tilde where
p_tilde = v[:p+1] and s_tilde = u[|x|-s-1:], placed at
[junction - s - 1, junction + p + 1).  The prefix form (x3 empty, cut2 = |x|)
is the special case u = x2 x1, v = x1 x2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .errors import (
    ClassificationFailure,
    IndexOutOfRange,
    InternalBoundViolation,
    InvalidSpec,
    InvalidSplit,
)
from .words import is_primitive, lcp, lcs, rotate

# The one description of the split forms: each --forms value maps to the
# is_prefix_form values (cut2 == |x|) of the splits it holds.  iter_splits,
# locate.parses and the verifier read their forms from here.
FORMS = {"prefix": (True,), "deletion": (False,), "both": (False, True)}
MIN_E_SUM = 3  # e1 + e2: the smallest repetition the model admits


@dataclass(frozen=True)
class DeletionSplit:
    """A split x = x1 x2 x3 with x1 = x[:cut1], x2 = x[cut1:cut2], x3 = x[cut2:].

    x must be primitive, x2 non-empty and shorter than x (so the deletion
    is non-degenerate).  The prefix form is cut2 == |x| with cut1 >= 1.
    """

    x: str
    cut1: int
    cut2: int

    def __post_init__(self) -> None:
        n = len(self.x)
        if n == 0:
            raise InvalidSplit("x is empty")
        if not (0 <= self.cut1 < self.cut2 <= n):
            raise InvalidSplit(
                f"cuts ({self.cut1}, {self.cut2}) out of range for |x| = {n}"
            )
        if self.cut1 == 0 and self.cut2 == n:
            raise InvalidSplit("deleting all of x leaves no interrupt")
        if not is_primitive(self.x):
            raise InvalidSplit(f"{self.x!r} is not primitive")

    @classmethod
    def prefix(cls, x: str, cut: int) -> "DeletionSplit":
        """Prefix form: x = x1 x2 with x1 = x[:cut], x3 empty."""
        return cls(x, cut, len(x))

    @property
    def x1(self) -> str:
        return self.x[: self.cut1]

    @property
    def x2(self) -> str:
        return self.x[self.cut1 : self.cut2]

    @property
    def x3(self) -> str:
        return self.x[self.cut2 :]

    @property
    def is_prefix_form(self) -> bool:
        return self.cut2 == len(self.x)


@dataclass(frozen=True)
class InterruptSpec:
    """An interrupted repetition: split plus exponents e1, e2 (e1+e2 >= 3).

    str() is the text form the CLI and the scripts print:

    >>> print(InterruptSpec(DeletionSplit.prefix("ab", 1), 1, 2))
    x=ab cut1=1 cut2=2 e1=1 e2=2
    """

    split: DeletionSplit
    e1: int
    e2: int

    def __post_init__(self) -> None:
        if self.e1 < 1 or self.e2 < 1:
            raise InvalidSpec(f"exponents must be >= 1, got ({self.e1}, {self.e2})")
        if self.e1 + self.e2 < MIN_E_SUM:
            raise InvalidSpec(
                f"e1 + e2 must be >= {MIN_E_SUM}, got {self.e1 + self.e2}"
            )

    def __str__(self) -> str:
        s = self.split
        return f"x={s.x} cut1={s.cut1} cut2={s.cut2} e1={self.e1} e2={self.e2}"

    def key(self) -> tuple[int, str, int, int, int, int]:
        """Canonical ordering key: (|x|, x, cut1, cut2, e1, e2)."""
        s = self.split
        return (len(s.x), s.x, s.cut1, s.cut2, self.e1, self.e2)


@dataclass(frozen=True)
class CoreReport:
    """The computed core of the interrupt and where it sits in W."""

    word: str
    junction: int
    p_len: int
    s_len: int
    u: str
    v: str
    p_tilde: str
    s_tilde: str
    core: str
    core_start: int
    core_end: int


@dataclass(frozen=True)
class CoreAnchored:
    """Window interval contains the core interval."""


@dataclass(frozen=True)
class Conjugate:
    """Window equals rotate(x, rotation)."""

    rotation: int


WindowClass = Union[CoreAnchored, Conjugate]


def build(spec: InterruptSpec) -> str:
    """The word W = x^e1 · x1 · x3 · x^e2.

    >>> build(InterruptSpec(DeletionSplit.prefix("ab", 1), 1, 2))
    'abaabab'
    """
    s = spec.split
    return s.x * spec.e1 + s.x1 + s.x3 + s.x * spec.e2


def conjugate_pair(split: DeletionSplit) -> tuple[str, str]:
    """(u, v): the expected and the actual continuation past the junction.

    u = rotate(x, cut1) = x2 x3 x1, v = rotate(x, cut2) = x3 x1 x2; u != v.

    >>> conjugate_pair(DeletionSplit.prefix("ab", 1))
    ('ba', 'ab')
    """
    return rotate(split.x, split.cut1), rotate(split.x, split.cut2)


def core_lengths(x: str, u: str, v: str) -> tuple[int, int]:
    """(p, s) = (lcp(v, u), lcs(u, v)) for the conjugate pair (u, v) of x.

    Raises InternalBoundViolation when p + s > |x| - 2, which the model
    rules out for primitive x.

    >>> core_lengths("aabab", "babaa", "baaba")  # cut1 = 2, cut2 = 4
    (2, 1)
    """
    p_len, s_len = lcp(v, u), lcs(u, v)
    if p_len + s_len > len(x) - 2:
        raise InternalBoundViolation(
            f"lcp + lcs = {p_len + s_len} > {len(x) - 2} for x = {x!r}"
        )
    return p_len, s_len


def core(spec: InterruptSpec) -> CoreReport:
    """Compute the core of the interrupt of build(spec).

    p_tilde extends the agreeing prefix of the actual continuation by one
    symbol, s_tilde the agreeing suffix on the left; the core s_tilde+p_tilde
    occupies [junction - s - 1, junction + p + 1) in W.
    """
    return _core(spec, build(spec))


def _core(spec: InterruptSpec, word: str) -> CoreReport:
    """core(spec) with word == build(spec) given, and held as report.word.

    A caller that already holds W (locate.parses) passes it, so every
    report of that W shares the one string.
    """
    split = spec.split
    n = len(split.x)
    u, v = conjugate_pair(split)
    p_len, s_len = core_lengths(split.x, u, v)
    junction = spec.e1 * n + split.cut1
    p_tilde = v[: p_len + 1]
    s_tilde = u[n - s_len - 1 :]
    return CoreReport(
        word=word,
        junction=junction,
        p_len=p_len,
        s_len=s_len,
        u=u,
        v=v,
        p_tilde=p_tilde,
        s_tilde=s_tilde,
        core=s_tilde + p_tilde,
        core_start=junction - s_len - 1,
        core_end=junction + p_len + 1,
    )


def classify_window(
    spec: InterruptSpec, j: int, report: CoreReport | None = None
) -> WindowClass:
    """Classify the length-|x| window of W at position j.

    CoreAnchored when [j, j+|x|) contains the core interval; otherwise the
    window must equal exactly one rotation of x (ClassificationFailure if
    not — unreachable when the model is consistent).
    """
    rep = report if report is not None else core(spec)
    n = len(spec.split.x)
    if not 0 <= j <= len(rep.word) - n:
        raise IndexOutOfRange(f"window {j} outside [0, {len(rep.word) - n}]")
    if j <= rep.core_start and j + n >= rep.core_end:
        return CoreAnchored()
    factor = rep.word[j : j + n]
    k = (spec.split.x * 2).find(factor)
    if k < 0 or k >= n:
        raise ClassificationFailure(
            f"window {factor!r} at {j} is neither core-anchored nor a rotation"
        )
    return Conjugate(k)


def anchor_windows(
    spec: InterruptSpec, report: CoreReport | None = None
) -> list[tuple[int, str]]:
    """All core-anchored windows as (position, factor), ascending.

    There are |x| - p - s - 1 >= 1 of them.
    """
    rep = report if report is not None else core(spec)
    n = len(spec.split.x)
    return [
        (j, rep.word[j : j + n]) for j in range(rep.core_end - n, rep.core_start + 1)
    ]


def iter_splits(n: int, forms: str = "both") -> Iterator[tuple[int, int]]:
    """Valid (cut1, cut2) pairs for |x| = n in ascending order.

    forms is a key of FORMS: "prefix" keeps cut2 == n, "deletion" keeps
    cut2 < n, "both" all.
    """
    if forms not in FORMS:
        raise ValueError(f"forms must be one of {tuple(FORMS)}, got {forms!r}")
    for cut1 in range(n + 1):
        for cut2 in range(cut1 + 1, n + 1):
            if (cut2 == n) in FORMS[forms] and (cut1, cut2) != (0, n):
                yield cut1, cut2
