import multiprocessing
import os
import pickle
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from copy import copy
from dataclasses import replace
from itertools import product
from math import perm
from types import SimpleNamespace

import pytest

import oracles
import repcore.cli
import repcore.verify
from repcore import (
    ClaimId,
    DeletionSplit,
    InterruptSpec,
    Universe,
    check_claim,
    run,
)
from repcore.errors import (
    InternalBoundViolation,
    InvalidLimit,
    InvalidUniverse,
    NotApplicable,
    UniverseTooLarge,
)
from repcore.interrupts import build, core_lengths, iter_splits
from repcore.verify import (
    _CLAIMS,
    DEFAULT_MAX_VIOLATIONS,
    GATING_CLAIMS,
    REPORTED_CLAIMS,
    Witness,
    _classes,
    _distinct_count,
    _eval_chunk,
    _first_use_lyndon_words,
    _gaps,
    _lyndon_words,
    _merge_chunks,
    _record,
    _split_count,
    _SplitContext,
    _Stats,
    _totals,
    _usable_cpus,
    _workers,
    applies,
    enumerate_specs,
    estimated_checks,
    exponent_pairs,
    verdict,
)
from repcore.words import (
    count_primitive_words,
    first_use_words,
    is_primitive,
    renamings,
    rotate,
)

from oracles import evaluate_naive, run_full


def prefix_spec(x, cut, e1, e2):
    return InterruptSpec(DeletionSplit.prefix(x, cut), e1, e2)


def words(n, k):
    """Every word of length n over the first k letters, in lexicographic order."""
    return map("".join, product("abcdefghijklmnopqrstuvwxyz"[:k], repeat=n))


def is_first_use(x):
    """x's letters first appear in the order a, b, c, ..."""
    return first_use(x) == x


def first_use(w):
    """w with its letters renamed a, b, c, ... in the order they first appear."""
    used = "".join(dict.fromkeys(w))
    return w.translate(str.maketrans(used, "abcdefghijklmnopqrstuvwxyz"[: len(used)]))


def representative_specs(universe):
    """The specs whose x is the first-use word of its orbit, in canonical order:
    the specs run() evaluates, picked out of the full enumeration."""
    return [s for s in enumerate_specs(universe) if is_first_use(s.split.x)]


def row(w):
    """A witness as _eval_chunk keeps it: the spec's key, the factor and both
    counts, so plain tuple order is canonical witness order."""
    return (*w.spec.key(), w.factor, w.expected, w.actual)


def as_rows(result):
    """Per claim (checked, witnesses) with each witness as its row."""
    return {c: (checked, [row(w) for w in ws]) for c, (checked, ws) in result.items()}


def test_claim_ids_are_fixed():
    assert [c.value for c in ClaimId] == [
        "dft_bound",
        "theorem1",
        "theorem1_deletion",
        "dichotomy",
        "distinct_count",
        "core_cyclic_unique",
        "note2_linear",
        "note3_linear",
        "note3_cyclic",
    ]
    assert {c.value for c in GATING_CLAIMS} == {
        "dft_bound", "theorem1", "theorem1_deletion", "dichotomy", "distinct_count",
    }
    assert GATING_CLAIMS | REPORTED_CLAIMS == frozenset(ClaimId)


def test_universe_validation():
    with pytest.raises(InvalidUniverse):
        Universe(alphabet_size=1)
    with pytest.raises(InvalidUniverse):
        Universe(e_sums=(2,))
    with pytest.raises(InvalidUniverse):
        Universe(e_sums=())
    with pytest.raises(InvalidUniverse):
        Universe(min_x=5, max_x=4)
    with pytest.raises(InvalidUniverse, match="max_x is capped at 16"):
        Universe(max_x=17)
    with pytest.raises(InvalidUniverse):
        Universe(forms="sideways")
    # e_sums normalize to a sorted deduplicated tuple
    assert Universe(e_sums=(4, 3, 3)).e_sums == (3, 4)


def test_exponent_pairs_order():
    assert exponent_pairs({3, 4}) == [(1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]


@pytest.mark.parametrize(
    "universe, expected",
    [
        # first-use splits times (e1, e2) pairs: 14,380 / 2 prefix-form specs
        (Universe(2, 2, 8, (3, 4)), (7_190, 26_420, 33_610)),
        # |x| = 1 has no split in any form
        (Universe(3, 1, 4, (3, 4, 5)), (405, 765, 1_170)),
    ],
    ids=["binary-x8", "ternary-x4"],
)
def test_estimated_checks(universe, expected):
    estimates = tuple(
        estimated_checks(replace(universe, forms=forms))
        for forms in ("prefix", "deletion", "both")
    )
    assert estimates == expected
    # the closed form counts the first-use specs of the full enumeration
    assert estimates == tuple(
        len(representative_specs(replace(universe, forms=forms)))
        for forms in ("prefix", "deletion", "both")
    )


def test_enumerate_smallest_universe():
    specs = list(enumerate_specs(Universe(2, 2, 2, (3,), "prefix")))
    assert [
        (s.split.x, s.split.cut1, s.split.cut2, s.e1, s.e2) for s in specs
    ] == [
        ("ab", 1, 2, 1, 2),
        ("ab", 1, 2, 2, 1),
        ("ba", 1, 2, 1, 2),
        ("ba", 1, 2, 2, 1),
    ]


def test_enumerate_acceptance_universe_count():
    specs = list(enumerate_specs(Universe(2, 2, 8, (3, 4), "prefix")))
    assert len(specs) == 14380
    keys = [s.key() for s in specs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_enumerate_too_large():
    with pytest.raises(UniverseTooLarge):
        list(enumerate_specs(Universe(2, 2, 8, (3, 4), "prefix"), max_checks=100))
    assert estimated_checks(Universe(2, 2, 2, (3,), "prefix")) <= 200


def test_enumerate_caps_every_spec_it_yields():
    # run() evaluates one x per orbit, enumerate_specs yields every x: 26
    # letters and |x| <= 6 are 2,474 first-use specs but 3.2·10^9 specs.
    u = Universe(26, 2, 6, (3,), "prefix")
    assert estimated_checks(u) == 2_474
    with pytest.raises(UniverseTooLarge, match="^3186835600 specs exceed the cap"):
        next(enumerate_specs(u))
    u = Universe(3, 1, 4, (3, 4, 5), "both")
    n_specs = len(list(enumerate_specs(u)))
    assert list(enumerate_specs(u, max_checks=n_specs))
    with pytest.raises(UniverseTooLarge):
        next(enumerate_specs(u, max_checks=n_specs - 1))


def test_negative_cap_is_an_invalid_limit():
    # A universe with no split has 0 specs, which no cap >= 0 rejects; a
    # negative cap is a bad limit, not an oversized universe, at both entry
    # points that check the size.
    universe = Universe(2, 1, 1, (3, 4))
    for cap in (-1, -10**6):
        with pytest.raises(InvalidLimit, match=f"^max_checks must be >= 0, got {cap}$"):
            run(universe, max_checks=cap)
        with pytest.raises(InvalidLimit, match=f"^max_checks must be >= 0, got {cap}$"):
            next(enumerate_specs(universe, max_checks=cap))
    # also where the universe would pass the default cap, and with no claim
    # to evaluate
    with pytest.raises(InvalidLimit):
        run(Universe(2, 2, 3, (3,), "prefix"), max_checks=-1)
    with pytest.raises(InvalidLimit, match="^max_checks must be >= 0, got -5$"):
        run(Universe(), claims=(), max_checks=-5)
    # 0 is a cap, not a bad limit
    assert [r.status for r in run(universe, max_checks=0)] == ["not_applicable"] * 9
    assert list(enumerate_specs(universe, max_checks=0)) == []
    with pytest.raises(UniverseTooLarge):
        run(Universe(2, 2, 3, (3,), "prefix"), max_checks=0)


def test_cap_rejects_before_building_exponent_pairs(monkeypatch):
    # A sum of 10**8 would need about 10**8 (e1, e2) pairs; the estimate is
    # closed-form in the sums, so the cap rejects the universe without them.
    def no_pairs(*args, **kwargs):
        raise AssertionError("exponent pairs built before the cap check")

    monkeypatch.setattr(repcore.verify, "exponent_pairs", no_pairs)
    with pytest.raises(UniverseTooLarge):
        run(Universe(2, 2, 2, (3, 10**8)))


def test_universe_without_splits_builds_no_exponent_pairs(monkeypatch):
    # |x| = 1 has no split, so the universe has no spec and passes any cap;
    # neither run() nor enumerate_specs may build its 10**8 (e1, e2) pairs.
    def no_pairs(*args, **kwargs):
        raise AssertionError("exponent pairs built for a universe with no split")

    monkeypatch.setattr(repcore.verify, "exponent_pairs", no_pairs)
    universe = Universe(2, 1, 1, (3, 10**8))
    assert [r.status for r in run(universe)] == ["not_applicable"] * len(ClaimId)
    assert list(enumerate_specs(universe)) == []


def test_check_claim_theorem1_ok():
    sc = check_claim(ClaimId.THEOREM1, prefix_spec("ab", 1, 1, 2))
    assert sc.ok and sc.checked == 1


def test_check_claim_note3_linear_violation():
    sc = check_claim(ClaimId.NOTE3_LINEAR, prefix_spec("ab", 1, 1, 2))
    assert sc.checked == 2
    assert len(sc.violations) == 1
    w = sc.violations[0]
    assert (w.factor, w.expected, w.actual) == ("ba", 3, 2)


def test_check_claim_note2_linear_violation():
    spec = prefix_spec("aab", 1, 1, 2)
    sc = check_claim(ClaimId.NOTE2_LINEAR, spec)
    assert Witness(spec, "aa", 3, 4) in sc.violations


def test_check_claim_note2_not_qualifying_is_zero_checks():
    # lcp + lcs = 1 < |x| - 2 here, so the boundary-case claim has nothing
    # to assert for this spec
    sc = check_claim(ClaimId.NOTE2_LINEAR, prefix_spec("aabb", 1, 1, 2))
    assert sc.checked == 0 and sc.ok


def test_check_claim_note3_cyclic_violation():
    sc = check_claim(ClaimId.NOTE3_CYCLIC, InterruptSpec(DeletionSplit("aabab", 3, 5), 1, 2))
    assert any(
        (w.factor, w.expected, w.actual) == ("abaab", 3, 4) for w in sc.violations
    )


def test_check_claim_form_mismatch():
    with pytest.raises(NotApplicable):
        check_claim(ClaimId.THEOREM1, InterruptSpec(DeletionSplit("ab", 0, 1), 1, 2))
    with pytest.raises(NotApplicable):
        check_claim(ClaimId.THEOREM1_DELETION, prefix_spec("ab", 1, 1, 2))


def test_run_empty_claims():
    assert run(Universe(2, 2, 3, (3,), "prefix"), claims=()) == []


@pytest.mark.parametrize(
    "claims", [["theorem_1"], ["theorem1", "bogus"]], ids=["one", "one-of-two"]
)
def test_run_rejects_an_unknown_claim(claims):
    # A name that is no ClaimId raises ValueError naming it: left out, it
    # would make an empty run, whose verdict passes, or drop one claim.
    with pytest.raises(ValueError, match=f"^'{claims[-1]}' is not a valid ClaimId$"):
        run(Universe(), claims=claims)
    # the limits are checked first, and a known name is its ClaimId
    with pytest.raises(InvalidLimit):
        run(Universe(), claims=claims, jobs=0)
    one = run(Universe(), [ClaimId.THEOREM1])
    assert run(Universe(), claims=["theorem1"]) == one
    # one claim alone, by name or ClaimId, is that claim, not its letters
    assert run(Universe(), claims="theorem1") == one
    assert run(Universe(), claims=ClaimId.THEOREM1) == one
    with pytest.raises(ValueError, match="^'bogus' is not a valid ClaimId$"):
        run(Universe(), claims="bogus")


def test_run_small_universe_statuses():
    u = Universe(2, 2, 3, (3,), "prefix")
    reports = {r.claim: r for r in run(u)}
    assert reports[ClaimId.DFT_BOUND].status == "holds"
    assert reports[ClaimId.DICHOTOMY].status == "holds"
    assert reports[ClaimId.THEOREM1].status == "fails"
    assert reports[ClaimId.THEOREM1_DELETION].status == "not_applicable"
    assert reports[ClaimId.NOTE3_LINEAR].status == "fails"
    first = reports[ClaimId.NOTE3_LINEAR].counterexamples[0]
    assert first == Witness(prefix_spec("ab", 1, 1, 2), "ba", 3, 2)


def test_run_first_theorem1_witness_is_minimal():
    u = Universe(2, 2, 3, (3,), "prefix")
    rep = run(u, [ClaimId.THEOREM1])[0]
    assert rep.status == "fails"
    w = rep.counterexamples[0]
    assert w == Witness(prefix_spec("aab", 2, 1, 2), "aaa", 1, 2)


def test_run_max_violations_truncates():
    u = Universe(2, 2, 4, (3,), "prefix")
    rep = run(u, [ClaimId.NOTE3_LINEAR], max_violations=3)[0]
    assert len(rep.counterexamples) == 3
    full = run(u, [ClaimId.NOTE3_LINEAR], max_violations=10**6)[0]
    assert list(full.counterexamples[:3]) == list(rep.counterexamples)


def test_run_rejects_max_violations_below_one():
    with pytest.raises(InvalidLimit):
        run(Universe(2, 2, 3, (3,), "prefix"), max_violations=0)
    # library callers that catch ValueError keep working
    with pytest.raises(ValueError):
        run(Universe(2, 2, 3, (3,), "prefix"), max_violations=-1)


@pytest.mark.parametrize(
    "forms, claim",
    [("prefix", ClaimId.THEOREM1_DELETION), ("deletion", ClaimId.THEOREM1)],
)
def test_run_claim_of_the_other_form_is_not_applicable(forms, claim):
    [rep] = run(Universe(forms=forms), [claim])
    assert (rep.claim, rep.checked, rep.status) == (claim, 0, "not_applicable")
    assert rep.counterexamples == ()


@pytest.mark.parametrize("k", [1, 10, 10**6])
def test_run_single_claim_equals_its_entry_in_the_full_run(k):
    # A chunk dispatches the claims per form and drops a claim once it holds
    # k rows; what one claim reports does not depend on the others.
    u = Universe(3, 1, 4, (3, 5), "both")
    reports = run(u, max_violations=k)
    assert [r.claim for r in reports] == list(ClaimId)
    assert sum(bool(r.counterexamples) for r in reports) >= 3
    for rep in reports:
        assert run(u, [rep.claim], max_violations=k) == [rep], rep.claim


@pytest.mark.parametrize(
    "universe",
    [
        Universe(2, 1, 6, (3, 4, 5), "both"),
        Universe(3, 1, 4, (3, 4), "both"),
        Universe(2, 1, 5, (7,), "both"),
        Universe(3, 1, 3, (3, 4, 5, 7), "both"),
    ],
    ids=["binary-x6", "ternary-x4", "binary-x5-e7", "ternary-x3-e3457"],
)
def test_check_claim_equals_naive_oracle(universe):
    # check_claim evaluates each spec from its split's shortest word, so this
    # compares the per-split lemma (module docstring of repcore.verify) with
    # slicing every spec's own word.
    for spec in enumerate_specs(universe):
        for claim in ClaimId:
            if not applies(claim, spec):
                with pytest.raises(NotApplicable):
                    check_claim(claim, spec)
                continue
            got = check_claim(claim, spec)
            want_checked, want_violations = evaluate_naive(claim, spec)
            assert (got.checked, list(got.violations)) == (
                want_checked,
                want_violations,
            ), (claim, spec)


@pytest.mark.parametrize(
    "universe, pairs",
    [
        (Universe(2, 2, 7, (3, 4, 5), "both"), 363_168),
        (Universe(3, 2, 5, (3, 4), "both"), 165_600),
    ],
    ids=["binary-x7-e345", "ternary-x5"],
)
def test_every_spec_equals_its_mirror(universe, pairs):
    # W read backwards is build(x^R, |x|-cut2, |x|-cut1, e2, e1): u and v
    # become v^R and u^R, p and s swap, and every claim makes the same
    # assertions on the reversed factors.  A prefix split mirrors to a
    # deletion split with cut1 = 0, so theorem1 there is theorem1_deletion.
    flip = {ClaimId.THEOREM1: ClaimId.THEOREM1_DELETION}
    flip.update({b: a for a, b in flip.items()})
    found = {
        (claim, spec.key()): check_claim(claim, spec)
        for spec in enumerate_specs(universe)
        for claim in ClaimId
        if applies(claim, spec)
    }
    assert len(found) == pairs
    for (claim, (n, x, cut1, cut2, e1, e2)), got in found.items():
        prefix_form, mirror_prefix_form = cut2 == n, cut1 == 0
        if prefix_form != mirror_prefix_form:
            claim = flip.get(claim, claim)
        back = found[claim, (n, x[::-1], n - cut2, n - cut1, e2, e1)]
        assert back.checked == got.checked
        backwards = [(w.factor[::-1], w.expected, w.actual) for w in back.violations]
        assert sorted(backwards) == [
            (w.factor, w.expected, w.actual) for w in got.violations
        ], (claim, x, cut1, cut2, e1, e2)
    assert any(got.violations for got in found.values())


def random_specs(count, seed):
    """Specs with |x| 7-12 over 2-4 letters, both forms, e1+e2 3-9.  Every
    second x is a run of one letter plus a random tail, the shape whose
    anchored windows repeat (theorem1) and whose core sits at the boundary
    lcp + lcs = |x| - 2 (note2_linear)."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        n, letters = rng.randint(7, 12), "abcd"[: rng.randint(2, 4)]
        if len(specs) % 2:
            run_len = rng.randint(n - 4, n - 1)
            x = letters[0] * run_len + "".join(
                rng.choice(letters) for _ in range(n - run_len)
            )
        else:
            x = "".join(rng.choice(letters) for _ in range(n))
        if not is_primitive(x):
            continue
        cut1, cut2 = rng.choice(list(iter_splits(n, "both")))
        s = rng.randint(3, 9)
        e1 = rng.randint(1, s - 1)
        specs.append(InterruptSpec(DeletionSplit(x, cut1, cut2), e1, s - e1))
    return specs


def test_check_claim_equals_naive_oracle_on_long_x():
    # The universes above stop at |x| = 6; the verifier runs up to |x| = 12.
    failing = set()
    for spec in random_specs(300, seed=10):
        for claim in ClaimId:
            if not applies(claim, spec):
                continue
            got = check_claim(claim, spec)
            want_checked, want_violations = evaluate_naive(claim, spec)
            assert (got.checked, list(got.violations)) == (
                want_checked,
                want_violations,
            ), (claim, spec)
            if got.violations:
                failing.add(claim)
    assert {ClaimId.THEOREM1, ClaimId.NOTE2_LINEAR} <= failing


def test_count_equals_the_window_scan():
    # _SplitContext.count reads the windows outside lo..hi-1 from their
    # phase (module docstring of repcore.verify); oracles.WindowScan counts
    # them in all of W0's windows.  Every window of either length, and per
    # length the first word over the alphabet that W0 does not hold (a
    # letter outside the alphabet if it holds them all).
    factors = 0
    for k, max_x in [(2, 10), (3, 6)]:
        for n in range(2, max_x + 1):
            cuts = list(iter_splits(n, "both"))
            for x in first_use_words(n, k):
                for cut1, cut2 in cuts:
                    fast = _SplitContext(x, cut1, cut2)
                    slow = oracles.WindowScan(x, cut1, cut2)
                    held = {*slow.windows, *slow.short}
                    absent = [
                        next(
                            (f for f in words(m, k) if f not in held), "z" * m
                        )
                        for m in (n - 1, n)
                    ]
                    for f in sorted(held) + absent:
                        assert fast.count(f) == slow.count(f), (x, cut1, cut2, f)
                    assert slow.count(absent[0]) == slow.count(absent[1]) == 0
                    factors += len(held) + 2
    assert factors == 1_495_405


def test_fast_context_equals_the_window_scan():
    # Once the record guard holds, the non-anchored windows are the |x|
    # rotations of x (module docstring of repcore.verify, Records), which
    # replaces their set in the stats, dichotomy and distinct_count, and
    # dichotomy has no per_sum.  oracles.WindowScan reads all of W0's windows.
    splits = 0
    for k, max_x in [(2, 10), (3, 6)]:
        for n in range(1, max_x + 1):
            cuts = list(iter_splits(n, "both"))
            for x in first_use_words(n, k):
                for cut1, cut2 in cuts:
                    fast = _SplitContext(x, cut1, cut2)
                    slow = oracles.WindowScan(x, cut1, cut2)
                    assert fast.stats == slow.stats, (x, cut1, cut2)
                    assert len(slow.non_anchored) == fast.stats.x_len
                    for s in (3, 4, 6):
                        assert slow.dichotomy(s) == []
                        want = slow.distinct_count(s)
                        assert _distinct_count(fast, s) == want, (x, cut1, cut2, s)
                        for c, (_, per_sum, _) in _CLAIMS.items():
                            if per_sum is not None:
                                want = per_sum(slow, s)
                                assert per_sum(fast, s) == want, (x, cut1, cut2, c, s)
                    splits += 1
    assert splits == 47_550
    assert _CLAIMS[ClaimId.DICHOTOMY][1] is None


@pytest.mark.parametrize(
    "split, grown, match, window",
    [
        # W0 = aabbb·aab·b·aabbbaabbb; with p one too large the window
        # W0[5:10] ends on W0[9], the first symbol past the junction (8) out
        # of phase with x^∞, and the run ends at phase 0, no mismatch
        (("aabbb", 3, 4), 0, "phase 0 .* is no mismatch at jump 1$", "aabba"),
        # with s one too large the run starts at phase 1, so phase 0 before
        # it is no mismatch
        (("aabbb", 3, 4), 1, "phase 0 .* is no mismatch .* before the run", "abbaa"),
        # both ends stay mismatches: the run takes in the mismatch past (p)
        # or before (s) the real one, and only the slice compare of the
        # phases between refuses it
        (("aababb", 2, 4), 0, "holds a mismatch", "bbaabb"),
        (("aababb", 2, 4), 1, "holds a mismatch", "aabbaa"),
    ],
    ids=["aabbb-p", "aabbb-s", "aababb-p", "aababb-s"],
)
def test_record_guard_fails_on_an_overstated_core(
    split, grown, match, window, monkeypatch, capsys
):
    # With p or s one too large, the split's record takes in a phase where
    # x^∞ and its |x2|-shift differ, and the record guard raises
    # InternalBoundViolation before a context exists.  The window scan,
    # given the same core, reports a window out of phase with x^∞ as a
    # non-anchored dichotomy violation.
    x, cut1, cut2 = split
    n, xx = len(x), x * 2
    p, s = core_lengths(x, xx[cut1 : cut1 + n], xx[cut2 : cut2 + n])
    assert p + s < n - 2

    def overstated(x, u, v):
        p, s = core_lengths(x, u, v)
        return p + 1 - grown, s + grown

    monkeypatch.setattr(repcore.verify, "core_lengths", overstated)
    with pytest.raises(InternalBoundViolation, match=match):
        _SplitContext(x, cut1, cut2)
    monkeypatch.setattr(oracles, "lcp_naive", lambda a, b: p + 1 - grown)
    monkeypatch.setattr(oracles, "lcs_naive", lambda a, b: s + grown)
    assert oracles.WindowScan(x, cut1, cut2).dichotomy(3) == [(window, 1, 0)]
    # the same patch ends a verify run with one diagnostic line, exit 2
    for fmt in ([], ["--json"]):
        code = repcore.cli.main(["verify", "--max-x", "5", *fmt])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("InternalBoundViolation: ")


def test_record_guard_fails_on_an_understated_core(monkeypatch, capsys):
    # With p one too small the split's record ends its run at phase cut1+p,
    # where x^∞ and its |x2|-shift agree, and the record guard raises
    # InternalBoundViolation.  In x = aab, cuts (1, 3), p = lcp(aab, aba) = 1.
    def understated(x, u, v):
        p, s = core_lengths(x, u, v)
        return (p - 1 if p > 0 else p), s

    monkeypatch.setattr(repcore.verify, "core_lengths", understated)
    with pytest.raises(InternalBoundViolation, match="is no mismatch"):
        _SplitContext("aab", 1, 3)
    # the walk reaches that split, and the verify run ends with one
    # diagnostic line and exit 2 instead of false theorem1 and
    # distinct_count rows
    for fmt in ([], ["--json"]):
        code = repcore.cli.main(["verify", "--max-x", "5", *fmt])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("InternalBoundViolation: ")


def test_record_guard_fails_on_an_understated_suffix(monkeypatch, capsys):
    # With s one too small the split's record ends its run at phase
    # cut1+p, a mismatch; but the run then starts one phase late, past
    # phase cut1-s-1 of the real run, where x^∞ and its |x2|-shift agree,
    # and the record guard raises InternalBoundViolation.  In x = aab, cuts
    # (1, 2), s = lcs(aba, baa) = 1.
    def understated(x, u, v):
        p, s = core_lengths(x, u, v)
        return p, (s - 1 if s > 0 else s)

    monkeypatch.setattr(repcore.verify, "core_lengths", understated)
    with pytest.raises(InternalBoundViolation, match="phase 0 .* is no mismatch"):
        _SplitContext("aab", 1, 2)
    # without the guard on that phase the run exits 1 with a false theorem1
    # row for x = aba, cuts (1, 3)
    for fmt in ([], ["--json"]):
        code = repcore.cli.main(["verify", "--max-x", "5", *fmt])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("InternalBoundViolation: ")


def junction_key(x, cut1, cut2):
    """u·v, the two rotations of x that meet at the split's junction, renamed
    together to first-use letters.  It names the split's configuration:
    x^∞ read up to the junction, then on past a jump of |x2|."""
    n, xx = len(x), x + x
    return first_use(xx[cut1 : cut1 + n] + xx[cut2 : cut2 + n])


def configuration_stats(universe):
    """Per junction key: the stats of each configuration (x, a, d) of the
    classes _classes yields, built on its prefix member.  No two share a
    key."""
    found = {}
    for x, g, _ in _classes(universe):
        n = len(x)
        for d in range(1, n):
            for a in range(g):
                w = rotate(x, a + d)
                key = junction_key(w, n - d, n)
                assert key not in found, (x, a, d)
                found[key] = _SplitContext(w, n - d, n).stats
    return found


@pytest.mark.parametrize("k, max_x", [(2, 10), (3, 6)], ids=["binary", "ternary"])
def test_every_split_has_its_configurations_stats(k, max_x):
    # Every first-use split of both forms has the stats of its configuration,
    # or, when its mirror class sorts first, of its mirror's configuration
    # (the key of W read backwards); and every configuration is some split's.
    u = Universe(k, 1, max_x, (3,), "both")
    stats, hit = configuration_stats(u), set()
    for split in first_use_splits(u):
        key = junction_key(split.x, split.cut1, split.cut2)
        if key not in stats:
            key = first_use(key[::-1])
        assert _SplitContext(split.x, split.cut1, split.cut2).stats == stats[key], split
        hit.add(key)
    assert hit == set(stats)
    # words fixed by a rotation and a renaming, such as aabb (rotated by 2,
    # bbaa) and aabbcc, have fewer phases than letters
    fixed = {x for x, g, _ in _classes(u) if g < len(x)}
    want = {"aabb", "aaabbb"} if k == 2 else {"aabb", "aabbcc", "abac"}
    assert want <= fixed


def record(x, a, d, lo, hi):
    """Symbols lo..hi-1 of the record of phase a and jump d: x^∞ before
    position a, and x^∞ read d symbols ahead from a on."""
    n = len(x)
    return "".join(x[i % n] if i < a else x[(i + d) % n] for i in range(lo, hi))


def record_key(x, a, d):
    """The junction word of the record of phase a and jump d, renamed to
    first-use letters: x^∞[e-2|x| : e] + x^∞[e+d : e+d+2|x|], read at the
    record's first departure e >= a from x^∞.  Moving the junction from a
    to e crosses only symbols where x^∞ and its d-shift agree, so every
    phase of one record reads the same symbols around the same e; the
    renaming makes phase a+g, a renaming of phase a, read the same key."""
    n, e = len(x), a
    while x[e % n] == x[(e + d) % n]:
        e += 1
    return first_use(record(x, a, d, e - 2 * n, e + 2 * n))


def record_count(universe):
    """The number of distinct records, by junction word, over the
    configurations of oracles.classes_naive."""
    return len(
        {
            (x, d, record_key(x, a, d))
            for x, g, _ in oracles.classes_naive(universe)
            for d in range(1, len(x))
            for a in range(g)
        }
    )


GAP_UNIVERSES = [
    Universe(2, 2, 10, (3,), "both"),
    Universe(3, 2, 6, (3,), "both"),
    Universe(4, 2, 6, (3,), "both"),
]


def record_stats(x, d, a, length):
    """The _Stats of one split of the record, read from its four integers."""
    _, anchored, note2 = _record(x, d, a, length)
    return _Stats(1, len(anchored), len(x), d, len(note2))


@pytest.mark.parametrize(
    "universe", GAP_UNIVERSES, ids=["binary", "ternary", "4-letter"]
)
def test_every_phase_has_its_records_stats(universe):
    # _totals reads each record's stats from its four integers: the last
    # phase a of each run _gaps gives, weighted by the run's length.  Every
    # phase b < g of the run has those stats and a's junction word; phases
    # of different runs have different junction words; and the lengths sum
    # to g.
    wrapped = fixed = 0
    for x, g, _ in _classes(universe):
        n = len(x)
        fixed += g < n
        for d in range(1, n):
            gaps = _gaps(x, g, d)
            assert sum(length for _, length in gaps) == g, (x, d)
            keys = [record_key(x, a, d) for a, _ in gaps]
            assert len(set(keys)) == len(keys), (x, d)
            for a, length in gaps:
                wrapped += a - length + 1 < 0
                stats = record_stats(x, d, a, length)
                for b in range(a - length + 1, a + 1):
                    b %= g
                    ctx = _SplitContext(rotate(x, b + d), n - d, n)
                    assert ctx.stats == stats, (x, a, b, d)
                    assert record_key(x, b, d) == record_key(x, a, d), (x, a, b, d)
    # runs that wrap past g, also on classes with g < |x|
    assert wrapped > 0 and fixed > 0


@pytest.mark.parametrize(
    "k, max_x, records",
    [(2, 14, 59_803), (3, 9, 15_310), (4, 8, 11_982)],
    ids=["binary", "ternary", "4-letter"],
)
def test_records_equal_their_contexts(k, max_x, records):
    # Every record's four integers give what oracles.WindowScan reads from
    # all of its prefix member's W0 windows, with no guard and no record:
    # p = 0, s = length-1, R = W0[lo : hi+|x|-1], the anchored windows of
    # R, note2's factors and the stats; and the prefix member's context,
    # through core_lengths, has that p and s.  87,095 records in all.
    seen = boundary = 0
    for x, g, _ in _classes(Universe(k, 1, max_x, (3,), "both")):
        n = len(x)
        for d in range(1, n):
            for a, length in _gaps(x, g, d):
                y = rotate(x, a + d)
                ctx, slow = _SplitContext(y, n - d, n), oracles.WindowScan(y, n - d, n)
                key = (x, d, a, length)
                assert (ctx.p, ctx.s) == (slow.p, slow.s) == (0, length - 1), key
                r = slow.word[slow.lo : slow.hi + n - 1]
                assert _record(*key) == (r, slow.anchored, slow.note2), key
                assert record_stats(*key) == slow.stats, key
                seen += 1
                boundary += bool(slow.note2)
    assert seen == records
    assert 0 < boundary < records


def each_run(broken):
    """A change to _gaps' list of runs that changes every run alike."""
    return lambda runs, g, n: [broken(a, length, g, n) for a, length in runs]


def joined(runs, g, n):
    """_gaps' runs with the first two adjacent ones that fit within the
    bound joined into one, across the mismatch between them."""
    for i, ((_, first), (a, second)) in enumerate(zip(runs, runs[1:])):
        if first + second <= n - 1:
            return runs[:i] + [(a, first + second)] + runs[i + 2 :]
    return runs


@pytest.mark.parametrize(
    "broken, match",
    [
        # the run one phase longer: "ab" has one record, of 1 = |x|-1 phases
        (
            each_run(lambda a, length, g, n: (a, length + 1)),
            r"run of 2 phases breaks p \+ s",
        ),
        # the run's phase before its last: no mismatch where a run has two
        (each_run(lambda a, length, g, n: ((a - 1) % g, length)), "is no mismatch"),
        # the run starting one phase early, within the bound: the phase
        # before it is no mismatch where the run before has two phases
        (
            each_run(lambda a, length, g, n: (a, min(length + 1, n - 1))),
            "is no mismatch",
        ),
        # the run starting one phase late, as an understated s makes it: the
        # phase before it is no mismatch where the run has two phases
        (each_run(lambda a, length, g, n: (a, length - 1)), "is no mismatch"),
        # two runs joined: both ends are mismatches, and only the slice
        # compare of the phases between refuses the run
        (joined, "holds a mismatch"),
    ],
    ids=["too-long", "no-mismatch", "starts-early", "starts-late", "joined"],
)
def test_record_guard_ends_the_run(broken, match, monkeypatch, capsys):
    # The count pass builds no context, so the record guard stands in for
    # core_lengths' bound: a run that breaks p + s <= |x|-2, that does not
    # end at a mismatch or start just past one, or that holds a mismatch
    # between, raises InternalBoundViolation, and a verify run ends with one
    # diagnostic line and exit 2.
    gaps = repcore.verify._gaps

    def broken_gaps(x, g, d):
        return broken(gaps(x, g, d), g, len(x))

    monkeypatch.setattr(repcore.verify, "_gaps", broken_gaps)
    with pytest.raises(InternalBoundViolation, match=match):
        _totals(Universe(max_x=5), 0, 1)
    for fmt in ([], ["--json"]):
        code = repcore.cli.main(["verify", "--max-x", "5", *fmt])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("InternalBoundViolation: ")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", range(1, 10))
def test_first_use_lyndon_words_equal_the_rotation_compare(k, n):
    want = [
        x
        for x in first_use_words(n, k)
        if all(x < rotate(x, r) for r in range(1, n))
    ]
    assert list(_first_use_lyndon_words(n, k)) == want


@pytest.mark.parametrize(
    "universe",
    [Universe(2, 1, 12, (3,), "both"), Universe(3, 1, 7), Universe(4, 1, 6)],
    ids=["binary", "ternary", "4-letter"],
)
def test_classes_equal_the_naive_classes(universe):
    # _classes renames only the rotations whose first run is as long as
    # x's leading a's; classes_naive renames every rotation.
    for parts in range(1, 5):
        for part in range(parts):
            want = list(oracles.classes_naive(universe, part, parts))
            assert list(_classes(universe, part, parts)) == want, (part, parts)


COUNT_UNIVERSES = [
    Universe(2, 1, 10, (3,), "both"),
    Universe(3, 1, 6, (3,), "both"),
    Universe(4, 2, 6, (3,), "both"),
    Universe(2, 2, 9, (3,), "prefix"),
    Universe(3, 3, 6, (3,), "deletion"),
]
COUNT_IDS = ["binary", "ternary", "4-letter", "binary-prefix", "ternary-deletion"]


@pytest.mark.parametrize("universe", COUNT_UNIVERSES, ids=COUNT_IDS)
def test_count_pass_equals_the_sum_over_splits(universe):
    # _totals weights each configuration by the splits it stands for, over
    # every x of every orbit, and pairs mirror classes: per form it equals
    # the stats of every first-use split times its orbit size, for any
    # dealing, and its splits column is the universe's count of splits.
    k = universe.alphabet_size
    want = {form: [0] * 5 for form in (False, True)}
    for split in first_use_splits(universe):
        size = perm(k, len(set(split.x)))
        stats = _SplitContext(split.x, split.cut1, split.cut2).stats
        form = want[split.is_prefix_form]
        form[:] = [t + size * c for t, c in zip(form, stats)]
    for parts in (1, 2, 3):
        got = {}
        for part in range(parts):
            for form, t in _totals(universe, part, parts).items():
                got[form] = [a + b for a, b in zip(got.get(form, [0] * 5), t)]
        assert got == {form: t for form, t in want.items() if any(t)}, parts
    for form, name in ((False, "deletion"), (True, "prefix")):
        if form in got:
            only = replace(universe, forms=name)
            assert got[form][0] == _split_count(only, count_primitive_words)


@pytest.mark.parametrize("universe", COUNT_UNIVERSES, ids=COUNT_IDS)
def test_count_pass_size_is_its_first_use_prefix_splits(universe):
    # run() sizes the count pass before any work, whatever the universe's
    # forms, by _split_count of its prefix form: each primitive first-use x
    # has |x|-1 prefix splits.  They are the configurations, one prefix
    # member each, of the classes _classes yields and of their mirror
    # classes: g phases and |x|-1 jumps per class, times pairs.
    size = _split_count(replace(universe, forms="prefix"))
    brute = sum(
        n - 1
        for n in range(universe.min_x, universe.max_x + 1)
        for x in words(n, universe.alphabet_size)
        if is_first_use(x) and is_primitive(x)
    )
    assert size == brute > 0
    assert size == sum(pairs * g * (len(x) - 1) for x, g, pairs in _classes(universe))


# theorem1_deletion first fails on first-use spec 45 (split 9, x = aba, the
# third of the universe's ten first-use words) of this universe, so the walk
# for its rows passes two words without one; note3_linear fails on every
# spec.
RETENTION_UNIVERSE = Universe(2, 2, 4, (3, 4), "both")


def first_use_splits(universe):
    """The first-use splits in canonical order, as _eval_chunk walks them."""
    return [
        DeletionSplit(x, cut1, cut2)
        for n in range(universe.min_x, universe.max_x + 1)
        for x in first_use_words(n, universe.alphabet_size)
        for cut1, cut2 in iter_splits(n, universe.forms)
    ]


def words_with_splits(universe):
    """The first-use words that have splits, in canonical order: the words
    _word_cuts yields."""
    return list(dict.fromkeys(s.x for s in first_use_splits(universe)))


def split_key(split):
    return len(split.x), split.x, split.cut1, split.cut2


def chunk_model(universe, k):
    """What _eval_chunk(universe, claims, k, totals) keeps, by check_claim.

    The walk visits every first-use split.  Per claim: (the splits whose
    per_sum it calls, the universe's first k identity rows, and how many
    first-use splits have a spec the claim is stated for).  A claim calls
    per_sum for a split stated for it until it holds k rows.  A claim with
    no per_sum (dft_bound, dichotomy) is never called and has no rows.
    """
    pairs = exponent_pairs(universe.e_sums)
    model = {}
    for c in ClaimId:
        rows, called, applicable = [], set(), 0
        for split in first_use_splits(universe):
            if not applies(c, InterruptSpec(split, 1, 2)):
                continue
            applicable += 1
            if _CLAIMS[c][1] is None or len(rows) >= k:
                continue
            called.add(split)
            rows += [
                row(w)
                for e1, e2 in pairs
                for w in check_claim(c, InterruptSpec(split, e1, e2)).violations
            ]
        assert rows == sorted(rows)
        model[c] = (called, rows[:k], applicable)
    return model


def spec_by_spec(universe):
    """Per claim: (checked, every witness in canonical order), one check_claim
    call per spec."""
    checked = dict.fromkeys(ClaimId, 0)
    witnesses = {c: [] for c in ClaimId}
    for spec in enumerate_specs(universe):
        for c in ClaimId:
            if applies(c, spec):
                sc = check_claim(c, spec)
                checked[c] += sc.checked
                witnesses[c].extend(sc.violations)
    return {c: (checked[c], witnesses[c]) for c in ClaimId}


@pytest.fixture(scope="module")
def full():
    return spec_by_spec(RETENTION_UNIVERSE)


def test_retention_universe_fails_late(full):
    u = RETENTION_UNIVERSE
    specs, words = representative_specs(u), words_with_splits(u)
    first = full[ClaimId.THEOREM1_DELETION][1][0]
    assert specs.index(first.spec) == 45
    assert len(words) == 10 and words.index(first.spec.split.x) == 2
    # the three parts only count, and their sums are the universe's; the
    # walk keeps the universe's first rows
    totals = _totals(u, 0, 1)
    assert dealt_totals(u, 3) == totals
    chunk = _eval_chunk(u, list(ClaimId), 3, totals)
    model = chunk_model(u, 3)
    for c in ClaimId:
        assert chunk[c][1] == model[c][1], c
    assert chunk[ClaimId.THEOREM1_DELETION][1][0] == row(first)


def dealt_totals(u, parts):
    """The sum, per form, of the _totals of every part of `parts`."""
    summed = {}
    for part in range(parts):
        for form, t in _totals(u, part, parts).items():
            summed[form] = _Stats(*map(sum, zip(summed.get(form, (0,) * 5), t)))
    return summed


def check_merges_at_every_cut(u, k):
    # The parts only count and the walk has no part: for every dealing the
    # parts' summed counts are the universe's, so the merged result does
    # not depend on the part count.
    claims = list(ClaimId)
    totals = _totals(u, 0, 1)
    whole = _merge_chunks(_eval_chunk(u, claims, k, totals), k, u.alphabet_size)
    every = as_rows(spec_by_spec(u))
    assert whole == {c: (checked, rows[:k]) for c, (checked, rows) in every.items()}
    for n_parts in range(1, len(words_with_splits(u)) + 1):
        dealt = dealt_totals(u, n_parts)
        assert dealt == totals, n_parts
        chunk = _eval_chunk(u, claims, k, dealt)
        assert _merge_chunks(chunk, k, u.alphabet_size) == whole, n_parts
    note3 = whole[ClaimId.NOTE3_LINEAR][1]
    if k > len(note3):
        # concatenating each split's renamed rows would not do: a renamed
        # row of a later split sorts before a row of an earlier one
        by_split = sorted(note3, key=lambda r: (r[0], first_use(r[1]), r[2], r[3]))
        assert note3 != by_split
    return whole


def test_eval_chunk_merges_at_every_cut():
    # Nine (e1, e2) per split; the walk holds every split of every word and
    # every (e1, e2) of its splits.  Renamed rows of a later split can sort
    # first, so the renamed streams merge in row order, not by
    # concatenation.
    u = Universe(2, 2, 3, (3, 4, 5), "both")
    assert len(exponent_pairs(u.e_sums)) == 9
    whole = check_merges_at_every_cut(u, 10**6)
    assert any(len(whole[c][1]) > 100 for c in ClaimId)


@pytest.mark.parametrize("k", [1, 3, 10**6])
def test_eval_chunk_merges_deletion_pairs_at_every_cut(k):
    # In a deletion universe the mirror of (x, 0, cut2) is a prefix split,
    # outside the universe, and theorem1 is stated for no split.
    check_merges_at_every_cut(Universe(2, 2, 4, (3, 4, 5), "deletion"), k)


@pytest.mark.parametrize("k", [1, 3, 16, 10**6])
def test_eval_chunk_merges_ternary_orbits_at_every_cut(k):
    # Six renamings per orbit, and with k below the witness count the walk
    # stops at its k-th identity row.  At k = 16 the note3_linear list of
    # the split (x = abcb, cut 1) ends inside the renamed spec x = acbc,
    # whose factors the renaming reorders.
    check_merges_at_every_cut(Universe(3, 2, 4, (3, 4), "prefix"), k)


@pytest.fixture
def per_sum_calls(monkeypatch):
    """(claim, split) of every per_sum call, in order."""
    calls = []

    def counted(claim, count, per_sum):
        def per_sum_counted(ctx, s):
            calls.append((claim, DeletionSplit(ctx.x, ctx.cut1, ctx.cut2)))
            return per_sum(ctx, s)

        return count, per_sum and per_sum_counted

    for c, (count, per_sum, forms) in list(_CLAIMS.items()):
        monkeypatch.setitem(_CLAIMS, c, (*counted(c, count, per_sum), forms))
    return calls


@pytest.fixture
def contexts(monkeypatch):
    """Every _SplitContext that repcore.verify builds, in order."""
    built = []

    class Recorded(_SplitContext):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(repcore.verify, "_SplitContext", Recorded)
    return built


@pytest.mark.parametrize("k", [1, 2, 5, 16, 10**6])
def test_eval_chunk_keeps_its_first_k_identity_rows(k, per_sum_calls):
    # The walk holds no orbit.  Per claim its rows are the universe's first
    # min(k, all) identity rows (σ = id), in canonical order, and the
    # claim's per_sum is not called for a split once k rows are held
    # (chunk_model).  A split has five (e1, e2) here, so k = 2 and 16 cut
    # inside one.
    u = Universe(3, 1, 4, (3, 4), "both")
    assert words_with_splits(u)[1:4] == ["aab", "aba", "abb"]
    model = chunk_model(u, k)  # check_claim calls per_sum too
    cut_short = set()
    per_sum_calls.clear()
    chunk = _eval_chunk(u, list(ClaimId), k, _totals(u, 0, 1))
    for c in ClaimId:
        called, rows, applicable = model[c]
        assert chunk[c][1] == rows, c
        assert {sp for cl, sp in per_sum_calls if cl is c} == called, c
        # every row is of a split whose per_sum was called
        assert {r[:4] for r in rows} <= set(map(split_key, called)), c
        if _CLAIMS[c][1] is None:
            assert not called and not rows, c
        elif len(called) < applicable:
            cut_short.add(c)
    # a small k stops most claims early, and no claim has 10**6 rows
    assert len(cut_short) >= 6 if k < 10**6 else not cut_short


@pytest.mark.parametrize("k", [1, 5, 10**6])
def test_eval_chunk_lists_are_sorted_short_and_its_own(k):
    # _merge_chunks takes the walk's lists as they come, so each must
    # already be in row order, hold at most k rows, and hold only identity
    # rows of the universe's first-use splits.
    u = Universe(3, 1, 4, (3, 4), "both")
    own = set(map(split_key, first_use_splits(u)))
    chunk = _eval_chunk(u, list(ClaimId), k, _totals(u, 0, 1))
    for c, (_, rows) in chunk.items():
        assert rows == sorted(rows), c
        assert len(rows) <= k, c
        assert {r[:4] for r in rows} <= own, c


def test_child_parts_only_count(
    fan_out, two_workers, per_sum_calls, contexts, monkeypatch
):
    # A child gets (universe, part, parts) and sends back its _totals alone:
    # while the children run, no per_sum is called and no context is built,
    # and k, which reaches no child, does not change what a child sends.
    monkeypatch.setattr(repcore.verify, "_usable_cpus", lambda: 3)
    send_totals = repcore.verify._send_totals

    def child(send, *task):
        before = (len(per_sum_calls), len(contexts))
        send_totals(send, *task)
        assert (len(per_sum_calls), len(contexts)) == before, task

    monkeypatch.setattr(repcore.verify, "_send_totals", child)
    u = Universe(2, 2, 8, (3, 4), "both")
    for parts in (2, 3):
        sent = set()
        for k in (1, 10, 10**6):
            fan_out.processes.clear()
            run(u, max_violations=k, jobs=parts)
            assert per_sum_calls and contexts  # the caller walked
            assert [p.args[1:] for p in fan_out.processes] == [
                (u, part, parts) for part in range(1, parts)
            ], k
            for p in fan_out.processes:
                assert p.sent == [_totals(*p.args[1:])], (p.args[1:], k)
                assert any(t.splits for t in p.sent[0].values()), (p.args[1:], k)
            sent.add(pickle.dumps([p.sent for p in fan_out.processes]))
        assert len(sent) == 1, parts


@pytest.mark.parametrize("k, max_x", [(2, 10), (3, 6)], ids=["binary", "ternary"])
def test_parts_rename_only_their_own_classes(k, max_x, monkeypatch):
    # _classes deals the Lyndon words before renaming any, so the parts of
    # a dealing rename, in _totals, as often as one part does, and their
    # classes partition the universe's.
    renamed = []
    monkeypatch.setattr(
        repcore.verify, "_first_use", lambda w: renamed.append(w) or first_use(w)
    )
    u = Universe(k, 1, max_x, (3,), "both")
    _totals(u, 0, 1)
    one = len(renamed)
    for parts in range(2, 5):
        renamed.clear()
        for part in range(parts):
            _totals(u, part, parts)
        assert len(renamed) == one, parts
    whole = list(_classes(u))
    for parts in range(1, 5):
        dealt = [c for part in range(parts) for c in _classes(u, part, parts)]
        assert sorted(dealt, key=lambda c: (len(c[0]), c[0])) == whole, parts


def test_eval_chunk_builds_no_per_split_objects(contexts, monkeypatch):
    # A split costs one _SplitContext built from (x, cut1, cut2): no
    # DeletionSplit, InterruptSpec or core report, and no anchor_windows.
    u = Universe()
    splits = len(first_use_splits(u))
    calls = Counter()

    def counting(name):
        original = getattr(repcore.verify, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in ("DeletionSplit", "InterruptSpec", "core", "anchor_windows"):
        monkeypatch.setattr(repcore.verify, name, counting(name))
    totals = _totals(u, 0, 1)
    part = _eval_chunk(u, list(ClaimId), DEFAULT_MAX_VIOLATIONS, totals)
    assert any(rows for _, rows in part.values())
    assert calls == Counter()

    # The count pass reads each record from its four integers (the 1,284
    # configurations read 648 records): no context, no core_lengths and no
    # rotation.  The walk builds one context per split it visits for rows,
    # through core_lengths, and stops once no claim has room.  No
    # context holds W0 or a list, set or histogram of its windows, whichever
    # claims count occurrences: it reads R, its anchored windows and note2's
    # rotation prefixes from its own record, one more _record call.
    def clear():
        names = {"windows", "hist", "non_anchored", "short", "word"}
        assert not [ctx for ctx in contexts if names & vars(ctx).keys()]
        contexts.clear()
        lengths.clear()
        records.clear()

    lengths, records, rotations = [], [], []
    monkeypatch.setattr(
        repcore.verify,
        "core_lengths",
        lambda *args: lengths.append(args) or core_lengths(*args),
    )
    monkeypatch.setattr(
        repcore.verify, "_record", lambda *args: records.append(args) or _record(*args)
    )
    monkeypatch.setattr(
        repcore.words, "rotate", lambda *args: rotations.append(args) or rotate(*args)
    )
    assert not hasattr(repcore.verify, "rotate")
    configurations, record_total = len(configuration_stats(u)), record_count(u)
    assert (splits, configurations) == (1438, 1284)
    assert record_total == 648
    clear()
    _totals(u, 0, 1)
    assert (len(contexts), len(lengths), len(records)) == (0, 0, record_total)
    clear()
    # dft_bound and dichotomy list no row, so no split is walked at all
    part = _eval_chunk(u, [ClaimId.DFT_BOUND, ClaimId.DICHOTOMY], 10, totals)
    assert part[ClaimId.DICHOTOMY][0] > 0
    assert (len(contexts), len(lengths), len(records)) == (0, 0, 0)
    clear()
    # each run below counts, then walks
    part = _eval_chunk(
        u, [ClaimId.DISTINCT_COUNT], DEFAULT_MAX_VIOLATIONS, _totals(u, 0, 1)
    )
    assert part[ClaimId.DISTINCT_COUNT][1]
    assert 0 < len(contexts) < splits
    assert len(records) == record_total + len(contexts)
    clear()
    _eval_chunk(u, list(ClaimId), DEFAULT_MAX_VIOLATIONS, _totals(u, 0, 1))
    assert (len(contexts), len(lengths), len(records)) == (9, 9, record_total + 9)
    # A both universe has the same configurations and records; the walk
    # visits 25 of its 6,722 first-use splits.
    both = Universe(2, 2, 8, (3, 4), "both")
    assert len(first_use_splits(both)) == 6722
    assert len(configuration_stats(both)) == configurations
    assert record_count(both) == record_total
    clear()
    _eval_chunk(both, list(ClaimId), DEFAULT_MAX_VIOLATIONS, _totals(both, 0, 1))
    assert (len(contexts), len(lengths), len(records)) == (25, 25, record_total + 25)
    # dealt to two parts, the records are counted once between them
    clear()
    for part in range(2):
        _totals(both, part, 2)
    assert (len(contexts), len(records)) == (0, record_total)
    assert rotations == []
    clear()
    # the counters see the names the module calls
    calls.clear()
    next(enumerate_specs(u))
    assert calls == Counter(DeletionSplit=1, InterruptSpec=1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_witnesses_share_their_spec(jobs, two_workers):
    # Witnesses of different claims for one spec hold the same InterruptSpec.
    # That holds for renamed specs too.  jobs=2 forks its second worker.
    reports = run(RETENTION_UNIVERSE, max_violations=10**6, jobs=jobs)
    by_key, claims_of = {}, {}
    for rep in reports:
        for w in rep.counterexamples:
            assert by_key.setdefault(w.spec.key(), w.spec) is w.spec, (rep.claim, w)
            claims_of.setdefault(w.spec.key(), set()).add(rep.claim)
    shared = [key for key, claims in claims_of.items() if len(claims) > 1]
    assert any(not is_first_use(x) for _, x, *_ in shared)
    assert any(is_first_use(x) for _, x, *_ in shared)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_eval_chunk_keeps_first_k_witnesses(full, k):
    # The chunk's rows are the first k witnesses whose x is first-use, not
    # the first k of the full list: renamed specs are the parent's to add.
    # A chunk over the whole universe walks every first-use split until
    # each claim holds k rows, so it holds every one.
    # At k = 10 the two differ (theorem1's sixth witness is renamed), so a
    # chunk that kept its splits' renamed rows would fail here.
    u = RETENTION_UNIVERSE
    part = _eval_chunk(u, list(ClaimId), k, _totals(u, 0, 1))
    assert set(part) == set(ClaimId)
    for c in ClaimId:
        checked, kept = part[c]
        identity = [row(w) for w in full[c][1] if is_first_use(w.spec.split.x)]
        assert len(kept) <= k
        assert (checked, kept) == (full[c][0], identity[:k]), c
    assert len(full[ClaimId.NOTE3_LINEAR][1]) > 100 * k


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_run_builds_only_the_witnesses_it_reports(jobs, k, monkeypatch, two_workers):
    # A chunk keeps up to k identity rows per claim and returns rows; the
    # parent builds one Witness per reported row and none for a row the
    # merge drops.  Witnesses built in the workers would
    # not be counted here, and would leave the parent's count short.
    # jobs=2 forks its second worker.
    built, init = [], Witness.__init__

    def counted_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(Witness, "__init__", counted_init)
    reports = run(RETENTION_UNIVERSE, max_violations=k, jobs=jobs)
    reported = [w for rep in reports for w in rep.counterexamples]
    assert reported
    assert sorted(map(id, built)) == sorted(map(id, reported))


def test_run_draws_few_renamings_on_26_letters(monkeypatch):
    # A 5-letter x has 26!/21! (about 7.9 million) renamings.  _merge_chunks
    # draws a word's next renaming only once the merge has taken every row
    # of the one before, so it stops at the first renaming whose rows sort
    # past the k reported ones.
    drawn = Counter()

    def counted_renamings(x, alphabet_size):
        for member in renamings(x, alphabet_size):
            drawn[x] += 1
            yield member

    monkeypatch.setattr(repcore.verify, "renamings", counted_renamings)
    u = Universe(26, 2, 5, (3, 4), "both")
    for k in (1, 10):
        drawn.clear()
        reports = run(u, max_violations=k)
        assert any(r.counterexamples for r in reports)
        assert drawn and max(drawn.values()) <= k + 1, (k, drawn.most_common(3))


@pytest.mark.parametrize(
    "universe", [Universe(), Universe(26, 2, 5, (3, 4), "both")], ids=["default", "26"]
)
def test_run_copies_the_orbit_only_for_splits_that_rank(universe, monkeypatch):
    # _merge_chunks reads a copy of a word's renamings once per claim and
    # split among the claim's first max_violations identity rows, not once
    # per (split, claim) pair: the default universe alone has 11,504 pairs,
    # 3,130 of them with a violation.
    copies = []

    def counted_copy(orbit):
        copies.append(orbit)
        return copy(orbit)

    monkeypatch.setattr(repcore.verify, "copy", counted_copy)
    assert any(r.counterexamples for r in run(universe))
    assert 0 < len(copies) <= 50, len(copies)


def test_run_equals_full_enumeration_on_26_letters():
    u = Universe(26, 2, 2, (3, 4), "both")
    assert run(u) == run_full(u)


@pytest.mark.parametrize(
    "universe",
    [Universe(3, 1, 3, (3, 4, 5, 7), "both"), Universe(2, 1, 6, (3, 4, 5), "both")],
    ids=["ternary-x3-e3457", "binary-x6-e345"],
)
def test_eval_chunk_equals_check_claim_spec_by_spec(universe):
    # A chunk evaluates each claim on a split's whole run of (e1, e2) and
    # lists the mismatches once per e1+e2, shared by every spec with that
    # sum; the parent renames them into every word of the split's orbit.
    # check_claim evaluates one spec of one word at a time.
    whole = _eval_chunk(universe, list(ClaimId), 10**6, _totals(universe, 0, 1))
    expanded = _merge_chunks(whole, 10**6, universe.alphabet_size)
    assert expanded == as_rows(spec_by_spec(universe))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 10**6])
def test_run_reports_first_k_of_full_list(full, jobs, k, two_workers):
    # jobs=2 forks its second worker
    reports = run(RETENTION_UNIVERSE, max_violations=k, jobs=jobs)
    assert [r.claim for r in reports] == list(ClaimId)
    for rep in reports:
        checked, witnesses = full[rep.claim]
        status = (
            "not_applicable" if checked == 0 else "fails" if witnesses else "holds"
        )
        assert (rep.checked, rep.status) == (checked, status), rep.claim
        assert rep.counterexamples == tuple(witnesses[:k]), rep.claim


class InlineProcess:
    """Stands in for multiprocessing.Process: records its args and, when
    started, runs its target in this process, marked as the running child
    in seen.child.  The target sends into the real pipe, and run() receives
    it as it would from a child; sent lists what it sent."""

    def __init__(self, seen, target, args, daemon):
        self.seen, self.target, self.args, self.sent = seen, target, args, []

    def start(self):
        send, *task = self.args
        def recorded(obj):
            self.sent.append(obj)
            send.send(obj)

        self.seen.child = self
        try:
            self.target(SimpleNamespace(send=recorded), *task)
        finally:
            self.seen.child = None

    def join(self):
        pass

    def terminate(self):
        pass


@pytest.fixture
def fan_out(monkeypatch):
    """Every InlineProcess that run() starts (processes), and every call of
    _totals and _eval_chunk, in order (calls): (name, args, the
    InlineProcess it ran in, or None in the caller).  counted() lists the
    (part, parts) of each _totals call: the caller's part 0 and the inline
    children's parts."""
    seen = SimpleNamespace(processes=[], calls=[], child=None)

    def inline_process(**kwargs):
        seen.processes.append(InlineProcess(seen, **kwargs))
        return seen.processes[-1]

    def recorded(name):
        original = getattr(repcore.verify, name)

        def call(*args):
            seen.calls.append((name, args, seen.child))
            return original(*args)

        return call

    def counted():
        return [args[1:] for name, args, _ in seen.calls if name == "_totals"]

    assert repcore.verify.Process is multiprocessing.Process
    monkeypatch.setattr(repcore.verify, "Process", inline_process)
    for name in ("_totals", "_eval_chunk"):
        monkeypatch.setattr(repcore.verify, name, recorded(name))
    seen.counted = counted
    return seen


def test_run_counts_every_part_then_walks_once(fan_out, two_workers, monkeypatch):
    # Every part's _totals call, the children's and then the caller's part
    # 0, comes before one _eval_chunk call, made in the calling process with
    # the universe's sums; each child sends exactly its part's _totals.
    monkeypatch.setattr(repcore.verify, "_usable_cpus", lambda: 3)
    u = Universe(2, 2, 6, (3, 4), "both")
    assert _workers(u, 3) == 3
    reports = run(u, max_violations=5, jobs=3)
    children = fan_out.processes
    assert fan_out.calls == [
        ("_totals", (u, 1, 3), children[0]),
        ("_totals", (u, 2, 3), children[1]),
        ("_totals", (u, 0, 3), None),
        ("_eval_chunk", (u, list(ClaimId), 5, _totals(u, 0, 1)), None),
    ]
    assert [p.args[1:] for p in children] == [(u, 1, 3), (u, 2, 3)]
    for p in children:
        assert p.sent == [_totals(*p.args[1:])], p.args
    assert reports == run(u, max_violations=5, jobs=1)


def test_run_starts_at_most_one_worker_per_cpu(fan_out, two_workers, monkeypatch):
    monkeypatch.setattr(repcore.verify, "_usable_cpus", lambda: 3)
    u = Universe(2, 2, 4, (3, 4), "both")
    one = run(u, jobs=1)
    assert fan_out.processes == []  # one job counts in process
    assert fan_out.counted() == [(0, 1)]
    fan_out.calls.clear()
    assert run(u, jobs=10**6) == one
    # one part per worker, parts 0..2 of 3, not one per job asked for: the
    # caller counts part 0 and starts a process for each of the other two
    assert sorted(fan_out.counted()) == [(0, 3), (1, 3), (2, 3)]
    assert [p.args[1:] for p in fan_out.processes] == [(u, 1, 3), (u, 2, 3)]
    walks = [args for name, args, _ in fan_out.calls if name == "_eval_chunk"]
    assert [walk[:3] for walk in walks] == [(u, list(ClaimId), 10)]
    # between them the parts count every configuration class once
    dealt = [c for part, parts in fan_out.counted() for c in _classes(u, part, parts)]
    assert sorted(dealt, key=lambda c: (len(c[0]), c[0])) == list(_classes(u))
    # with one usable CPU the run stays in process
    monkeypatch.setattr(repcore.verify, "_usable_cpus", lambda: 1)
    assert run(u, jobs=10**6) == one
    assert len(fan_out.processes) == 2


def test_usable_cpus_are_the_affinity_mask(monkeypatch, child_env):
    # taskset -c 0 leaves one usable CPU on a machine of many, and run()
    # forks no worker onto it; where the platform has no affinity mask, the
    # machine's CPU count stands in, and no count at all is one CPU.
    if hasattr(os, "sched_getaffinity"):
        assert _usable_cpus() == len(os.sched_getaffinity(0))
        pinned = subprocess.run(
            [sys.executable, "-c",
             "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))});"
             " from repcore.verify import Universe, _usable_cpus, _workers;"
             " print(_usable_cpus(), _workers(Universe(2, 2, 12, (3,), 'both'), 2))"],
            capture_output=True, text=True, env=child_env, check=True,
        )
        assert pinned.stdout == "1 1\n"
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _usable_cpus() == 1


def test_run_ships_small_chunks_and_holds_no_specs(fan_out, two_workers, monkeypatch):
    # Workers enumerate their own splits: a child gets the universe and its
    # part, and sends back its sums of stats, whatever the universe's size.
    u = Universe(2, 2, 8, (3, 4), "both")
    one = run(u, jobs=1)

    def no_specs(*args, **kwargs):
        raise AssertionError("run() enumerated specs")

    monkeypatch.setattr(repcore.verify, "enumerate_specs", no_specs)
    assert run(u, jobs=1) == one
    assert fan_out.processes == []
    assert run(u, jobs=2) == one
    assert len(fan_out.processes) == 1
    for p in fan_out.processes:
        for shipped in (p.args[1:], p.sent):
            assert len(pickle.dumps(shipped, pickle.HIGHEST_PROTOCOL)) < 1000, shipped


@pytest.mark.parametrize(
    "universe, jobs, workers",
    [
        (Universe(2, 2, 2, (3, 4), "both"), 2, 1),
        (Universe(2, 1, 1, (3,), "both"), 2, 1),
        (Universe(3, 2, 3, (3,), "prefix"), 8, 4),
    ],
    ids=["one-word", "no-split", "ternary-x2-3"],
)
def test_run_starts_no_worker_that_gets_no_word(
    universe, jobs, workers, fan_out, two_workers, monkeypatch
):
    # run() starts at most one worker per first-use Lyndon word with splits,
    # the words _classes deals out by index: "ab" alone has several splits
    # under both forms, but it is one word, of one configuration class, so
    # a second part would get nothing to count.  The ternary universe has
    # five first-use words and four Lyndon ones: ab, aab, abb, abc.
    monkeypatch.setattr(repcore.verify, "_usable_cpus", lambda: 8)
    lyndon = [
        x
        for x in words_with_splits(universe)
        if all(x < rotate(x, r) for r in range(1, len(x)))
    ]
    assert list(_lyndon_words(universe)) == lyndon
    one = run(universe, jobs=1)
    assert run(universe, jobs=jobs) == one
    assert len(fan_out.processes) == workers - 1
    assert {parts for _, parts in fan_out.counted()} == {1, workers}
    # every part of a fan-out is dealt at least one Lyndon word
    for part, parts in fan_out.counted():
        assert parts == 1 or lyndon[part::parts], (part, parts)


def test_run_at_jobs_2_stays_in_process_below_the_gate(fan_out, monkeypatch):
    # --forms both --max-x 8 has 1,438 first-use prefix splits: two parts'
    # shares would not exceed the gate, so with two usable CPUs jobs=2
    # still runs in one process.
    monkeypatch.setattr(repcore.verify, "_usable_cpus", lambda: 2)
    u = Universe(2, 2, 8, (3, 4), "both")
    assert _split_count(replace(u, forms="prefix")) == 1_438
    assert run(u, jobs=2) == run(u, jobs=1)
    assert fan_out.processes == []
    assert fan_out.counted() == [(0, 1), (0, 1)]


@pytest.mark.parametrize("max_x", [6, 9, 10])
def test_run_forks_one_process_per_part_the_size_pays_for(max_x, fan_out, monkeypatch):
    # A part is paid for when its share of the count pass's size exceeds the
    # gate, so with eight usable CPUs jobs=8 deals out the largest number of
    # parts, up to 8, whose shares do.  At the module's gate binary
    # --forms both |x| <= 6 (223 splits) runs in one process, and |x| <= 9
    # and <= 10 (3,454 and 7,909 splits) fork.  At a gate equal to a share
    # of size/parts, rounded up, one part fewer is dealt out; one below it,
    # all of them.
    monkeypatch.setattr(repcore.verify, "_usable_cpus", lambda: 8)
    u = Universe(2, 2, max_x, (3, 4), "both")
    size = _split_count(replace(u, forms="prefix"))
    gate = repcore.verify.MIN_SPLITS_PER_PART
    paid = max(p for p in range(1, 9) if p == 1 or size / p > gate)
    assert (paid > 1) == (max_x >= 9)
    gates = [(gate, paid)]
    for parts in (2, 3, 5):
        share = -(-size // parts)
        gates += [(share - 1, parts), (share, parts - 1)]
    one = run(u, jobs=1)
    for gate, workers in gates:
        monkeypatch.setattr(repcore.verify, "MIN_SPLITS_PER_PART", gate)
        fan_out.processes.clear()
        assert _workers(u, 8) == workers, gate
        assert run(u, jobs=8) == one
        assert len(fan_out.processes) == workers - 1, gate


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a patched _totals reaches a worker only through fork",
)


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the caller if the block runs longer than seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def failing_part(monkeypatch, fail):
    """Patch _totals so that part 1 calls fail(); the other parts count."""
    totals = repcore.verify._totals

    def patched(universe, part, parts):
        if part == 1:
            fail()
        return totals(universe, part, parts)

    monkeypatch.setattr(repcore.verify, "_totals", patched)


@needs_fork
def test_run_forks_workers_and_leaves_none_running(two_workers):
    u = Universe(2, 2, 6, (3, 4), "both")
    assert _workers(u, 2) == 2
    with deadline(30):
        assert run(u, jobs=2) == run(u, jobs=1)
    assert multiprocessing.active_children() == []


@needs_fork
def test_run_raises_a_workers_exception(monkeypatch, two_workers):
    def fail():
        raise InternalBoundViolation("raised in part 1")

    failing_part(monkeypatch, fail)
    with deadline(30), pytest.raises(InternalBoundViolation, match="part 1"):
        run(Universe(2, 2, 6, (3, 4), "both"), jobs=2)
    assert multiprocessing.active_children() == []


@needs_fork
def test_run_reports_a_worker_that_dies(monkeypatch, two_workers):
    # A child that exits without sending its chunk must not hang the caller.
    failing_part(monkeypatch, lambda: os._exit(3))
    start = time.perf_counter()
    with deadline(30), pytest.raises(RuntimeError, match="part 1 of 2 .* code 3 "):
        run(Universe(2, 2, 6, (3, 4), "both"), jobs=2)
    assert time.perf_counter() - start < 10
    assert multiprocessing.active_children() == []


def test_run_rejects_jobs_below_one():
    for jobs in (0, -3):
        with pytest.raises(InvalidLimit, match=f"jobs must be >= 1, got {jobs}"):
            run(Universe(2, 2, 3, (3,), "prefix"), jobs=jobs)
    # checked before the universe is enumerated or sized
    with pytest.raises(InvalidLimit):
        run(Universe(2, 2, 8, (3, 4), "prefix"), jobs=0, max_checks=10)


def test_run_deterministic_across_workers(two_workers):
    u = Universe(2, 2, 4, (3, 4), "both")
    one = run(u, jobs=1)
    four = run(u, jobs=4)
    assert one == four
    assert one == run(u, jobs=1)


def test_witnesses_recheck():
    u = Universe(2, 2, 4, (3,), "both")
    for rep in run(u, max_violations=5):
        for w in rep.counterexamples:
            again = check_claim(rep.claim, w.spec)
            assert w in again.violations


def test_checked_counts_are_exact():
    u = Universe(2, 2, 3, (3,), "prefix")
    reports = {r.claim.value: r for r in run(u)}
    # 2 primitive words of length 2 (1 split) and 6 of length 3 (2 splits),
    # each with the exponent pairs (1,2) and (2,1)
    n_specs = len(list(enumerate_specs(u)))
    assert n_specs == 28
    assert reports["dft_bound"].checked == n_specs
    assert reports["distinct_count"].checked == n_specs
    # every window of every built word is one dichotomy assertion
    from repcore import build

    assert reports["dichotomy"].checked == sum(
        len(build(s)) - len(s.split.x) + 1 for s in enumerate_specs(u)
    )


def test_verdict():
    u = Universe(2, 2, 3, (3,), "prefix")
    reports = run(u)
    # theorem1 and distinct_count genuinely fail -> gating verdict False
    assert verdict(reports) is False
    notes_only = run(u, [ClaimId.NOTE3_LINEAR])
    assert verdict(notes_only) is True
    assert verdict(notes_only, strict_notes=True) is False
    clean = run(u, [ClaimId.DFT_BOUND, ClaimId.DICHOTOMY])
    assert verdict(clean) is True and verdict(clean, strict_notes=True) is True
