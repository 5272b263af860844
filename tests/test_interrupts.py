import pytest
from hypothesis import given, strategies as st

from repcore import (
    ClaimId,
    DeletionSplit,
    InterruptSpec,
    Universe,
    anchor_windows,
    build,
    check_claim,
    core,
    occurrences,
)
from repcore.interrupts import (
    Conjugate,
    CoreAnchored,
    classify_window,
    conjugate_pair,
    iter_splits,
)
from repcore.verify import enumerate_specs
from repcore.words import rotate
from repcore.errors import (
    ClassificationFailure,
    IndexOutOfRange,
    InvalidSpec,
    InvalidSplit,
)

from oracles import core_by_continuation, core_by_definition


def prefix_spec(x, cut, e1, e2):
    return InterruptSpec(DeletionSplit.prefix(x, cut), e1, e2)


@st.composite
def specs(draw, forms="both", max_len=6):
    from repcore import is_primitive

    alphabet = draw(st.sampled_from(["ab", "abc"]))
    n = draw(st.integers(2, max_len))
    x = draw(st.text(alphabet=alphabet, min_size=n, max_size=n).filter(is_primitive))
    cut1, cut2 = draw(st.sampled_from(list(iter_splits(n, forms))))
    e1 = draw(st.integers(1, 3))
    e2 = draw(st.integers(max(1, 3 - e1), 3))
    return InterruptSpec(DeletionSplit(x, cut1, cut2), e1, e2)


def test_build_examples():
    assert build(prefix_spec("ab", 1, 1, 2)) == "abaabab"
    assert build(InterruptSpec(DeletionSplit("aabab", 3, 5), 1, 2)) == "aababaabaababaabab"
    assert build(InterruptSpec(DeletionSplit("ab", 0, 1), 1, 2)) == "abbabab"


def test_split_parts():
    s = DeletionSplit("aabab", 1, 3)
    assert (s.x1, s.x2, s.x3) == ("a", "ab", "ab")
    assert not s.is_prefix_form
    assert DeletionSplit.prefix("aabab", 2).is_prefix_form


def test_invalid_splits():
    with pytest.raises(InvalidSplit):
        DeletionSplit("abab", 1, 4)  # not primitive
    with pytest.raises(InvalidSplit):
        DeletionSplit("ab", 0, 2)  # deletes all of x
    with pytest.raises(InvalidSplit):
        DeletionSplit("ab", 2, 1)
    with pytest.raises(InvalidSplit):
        DeletionSplit("ab", -1, 1)
    with pytest.raises(InvalidSplit):
        DeletionSplit("ab", 1, 3)
    with pytest.raises(InvalidSplit):
        DeletionSplit("", 0, 1)


def test_invalid_specs():
    split = DeletionSplit.prefix("ab", 1)
    with pytest.raises(InvalidSpec):
        InterruptSpec(split, 0, 3)
    with pytest.raises(InvalidSpec):
        InterruptSpec(split, 3, 0)
    with pytest.raises(InvalidSpec):
        InterruptSpec(split, 1, 1)


def test_conjugate_pair_examples():
    assert conjugate_pair(DeletionSplit.prefix("ab", 1)) == ("ba", "ab")
    assert conjugate_pair(DeletionSplit("aabab", 3, 5)) == ("abaab", "aabab")
    assert conjugate_pair(DeletionSplit("aab", 1, 2)) == ("aba", "baa")


def test_core_prefix_form_example():
    rep = core(prefix_spec("ab", 1, 1, 2))
    assert (rep.p_len, rep.s_len) == (0, 0)
    assert (rep.p_tilde, rep.s_tilde, rep.core) == ("a", "a", "aa")
    assert (rep.junction, rep.core_start, rep.core_end) == (3, 2, 4)
    assert rep.word == "abaabab"


def test_core_longer_example():
    rep = core(InterruptSpec(DeletionSplit("aabab", 3, 5), 1, 2))
    assert (rep.p_len, rep.s_len) == (1, 2)
    assert (rep.p_tilde, rep.s_tilde, rep.core) == ("aa", "aab", "aabaa")
    assert (rep.junction, rep.core_start, rep.core_end) == (8, 5, 10)


def test_core_deletion_form_example():
    rep = core(InterruptSpec(DeletionSplit("aab", 1, 2), 1, 2))
    assert (rep.p_len, rep.s_len) == (0, 1)
    assert rep.core == "bab"
    assert (rep.junction, rep.core_start, rep.core_end) == (4, 2, 5)
    assert rep.word == "aababaabaab"


@given(specs())
def test_core_report_invariants(spec):
    split = spec.split
    n = len(split.x)
    rep = core(spec)
    assert rep.u == rotate(split.x, split.cut1)
    assert rep.v == rotate(split.x, split.cut2)
    assert rep.u != rep.v
    assert rep.p_len + rep.s_len <= n - 2
    assert len(rep.p_tilde) == rep.p_len + 1
    assert len(rep.s_tilde) == rep.s_len + 1
    assert rep.core == rep.s_tilde + rep.p_tilde
    assert rep.word[rep.core_start : rep.core_end] == rep.core
    assert rep.junction == spec.e1 * n + split.cut1
    assert rep.core_start == rep.junction - rep.s_len - 1
    assert rep.core_end == rep.junction + rep.p_len + 1


def test_core_matches_definition_on_all_prefix_splits():
    # the general conjugate construction reproduces the direct two-word
    # definition for every prefix-form split at small scale
    for spec in enumerate_specs(Universe(2, 2, 6, (3,), "prefix")):
        rep = core(spec)
        p, s, p_t, s_t, c = core_by_definition(
            spec.split.x, spec.split.cut1, spec.e1, spec.e2
        )
        assert (rep.p_len, rep.s_len, rep.p_tilde, rep.s_tilde, rep.core) == (
            p, s, p_t, s_t, c,
        )


def test_core_matches_continuation_scan_both_forms():
    for spec in enumerate_specs(Universe(2, 2, 5, (3, 4), "both")):
        rep = core(spec)
        p, s, c, cs, ce, j = core_by_continuation(spec)
        assert (rep.p_len, rep.s_len, rep.core, rep.core_start, rep.core_end, rep.junction) == (p, s, c, cs, ce, j)


def test_classify_window_examples():
    spec = prefix_spec("ab", 1, 1, 2)
    assert classify_window(spec, 2) == CoreAnchored()
    assert classify_window(spec, 1) == Conjugate(1)
    assert classify_window(spec, 0) == Conjugate(0)
    with pytest.raises(IndexOutOfRange):
        classify_window(spec, 6)
    with pytest.raises(IndexOutOfRange):
        classify_window(spec, -1)


@given(specs())
def test_every_window_classifies(spec):
    rep = core(spec)
    x = spec.split.x
    n = len(x)
    for j in range(len(rep.word) - n + 1):
        cls = classify_window(spec, j, rep)
        if isinstance(cls, Conjugate):
            assert rep.word[j : j + n] == rotate(x, cls.rotation)
        else:
            assert j <= rep.core_start and j + n >= rep.core_end


def test_dichotomy_violations_are_the_unclassified_windows():
    # The verifier's dichotomy claim and classify_window agree spec by spec:
    # a violation is exactly a factor at a window that is neither
    # core-anchored nor a rotation of x.
    for spec in enumerate_specs(Universe(2, 2, 6, (3, 4), "both")):
        rep = core(spec)
        n = len(spec.split.x)
        neither = set()
        for j in range(len(rep.word) - n + 1):
            try:
                classify_window(spec, j, rep)
            except ClassificationFailure:
                neither.add(rep.word[j : j + n])
        violations = check_claim(ClaimId.DICHOTOMY, spec).violations
        assert [v.factor for v in violations] == sorted(neither), spec


def test_anchor_window_examples():
    assert anchor_windows(prefix_spec("ab", 1, 1, 2)) == [(2, "aa")]
    assert anchor_windows(InterruptSpec(DeletionSplit("aabab", 3, 5), 1, 2)) == [
        (5, "aabaa")
    ]
    assert anchor_windows(prefix_spec("aab", 1, 1, 2)) == [(3, "aaa")]


@given(specs())
def test_anchor_count_formula(spec):
    rep = core(spec)
    n = len(spec.split.x)
    anchors = anchor_windows(spec, rep)
    assert len(anchors) == n - rep.p_len - rep.s_len - 1
    assert len(anchors) >= 1
    assert anchors == sorted(anchors)
    for j, f in anchors:
        assert rep.word[j : j + n] == f
        assert j <= rep.core_start and j + n >= rep.core_end


def test_uniqueness_claim_minimal_counterexample():
    # The headline uniqueness claim fails at |x| = 3: gluing x1 = "aa" in
    # front of x^e2 builds the run "aaaa", and both windows over the core
    # read "aaa".  Frozen as a regression alongside the verifier's report.
    spec = prefix_spec("aab", 2, 1, 2)
    rep = core(spec)
    assert rep.word == "aabaaaabaab"
    assert (rep.p_len, rep.s_len) == (0, 0)
    assert rep.core == "aa" and (rep.core_start, rep.core_end) == (4, 6)
    assert anchor_windows(spec, rep) == [(3, "aaa"), (4, "aaa")]
    assert occurrences("aaa", rep.word) == [3, 4]
    distinct = {rep.word[j : j + 3] for j in range(len(rep.word) - 2)}
    assert len(distinct) == 4  # the 2|x|-lcp-lcs-1 formula would predict 5


def test_iter_splits_forms():
    assert list(iter_splits(3, "prefix")) == [(1, 3), (2, 3)]
    assert list(iter_splits(3, "deletion")) == [(0, 1), (0, 2), (1, 2)]
    assert list(iter_splits(3, "both")) == [
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
    ]
    assert (0, 3) not in list(iter_splits(3, "both"))
    with pytest.raises(ValueError):
        list(iter_splits(3, "bogus"))
