import multiprocessing
import os
import pickle
import random
import signal
import time
from collections import Counter
from contextlib import contextmanager
from copy import copy
from dataclasses import replace
from itertools import groupby
from types import SimpleNamespace

import pytest

import oracles
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
    _dichotomy,
    _distinct_count,
    _eval_chunk,
    _merge_chunks,
    _SplitContext,
    _word_count,
    _word_cuts,
    applies,
    enumerate_specs,
    estimated_checks,
    exponent_pairs,
    verdict,
)
from repcore.words import first_use_words, is_primitive, renamings

from oracles import evaluate_naive, run_full


def prefix_spec(x, cut, e1, e2):
    return InterruptSpec(DeletionSplit.prefix(x, cut), e1, e2)


def is_first_use(x):
    """x's letters first appear in the order a, b, c, ..."""
    return "".join(dict.fromkeys(x)) == "abcdefghijklmnopqrstuvwxyz"[: len(set(x))]


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


def merged(parts, k):
    """Per-claim results of a full enumeration merged: counts summed, rows
    sorted and cut to the first k."""
    return {
        c: (sum(p[c][0] for p in parts), sorted(r for p in parts for r in p[c][1])[:k])
        for c in parts[0]
    }


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
    # also where the universe would pass the default cap
    with pytest.raises(InvalidLimit):
        run(Universe(2, 2, 3, (3,), "prefix"), max_checks=-1)
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


class WindowScan(_SplitContext):
    """The split context with the rotation test forced false, so its stats
    and violations are read from all of W0's windows."""

    def _in_phase(self):
        return False


def test_fast_context_equals_the_window_scan():
    # The rotation test (module docstring of repcore.verify) replaces the
    # non-anchored window set in the stats, dichotomy and distinct_count.
    splits = 0
    for k, max_x in [(2, 10), (3, 6)]:
        for n in range(1, max_x + 1):
            cuts = list(iter_splits(n, "both"))
            for x in first_use_words(n, k):
                for cut1, cut2 in cuts:
                    fast = _SplitContext(x, cut1, cut2)
                    slow = WindowScan(x, cut1, cut2)
                    assert fast.in_phase and not slow.in_phase
                    assert fast.stats == slow.stats, (x, cut1, cut2)
                    for c, (_, per_sum) in _CLAIMS.items():
                        for s in (3, 4, 6):
                            want = per_sum(slow, s)
                            assert per_sum(fast, s) == want, (x, cut1, cut2, c, s)
                    splits += 1
    assert splits == 47_550


def test_rotation_test_fails_on_an_overstated_core(monkeypatch):
    # With p one too large, the window that ends on the first mismatch past
    # the junction counts as non-anchored; it is no rotation of x, so the
    # rotation test fails and dichotomy reports it, as the slicing oracle
    # does when given the same core.
    split = DeletionSplit("aabbb", 3, 4)
    n = len(split.x)
    xx = split.x * 2
    p, s = core_lengths(split.x, xx[3 : 3 + n], xx[4 : 4 + n])
    assert p + s < n - 2

    def overstated(x, u, v):
        p, s = core_lengths(x, u, v)
        return p + 1, s

    def overstated_core(spec):
        p, s, _, start, end, junction = core_by_continuation(spec)
        return p + 1, s, build(spec)[start : end + 1], start, end + 1, junction

    core_by_continuation = oracles.core_by_continuation
    monkeypatch.setattr(repcore.verify, "core_lengths", overstated)
    monkeypatch.setattr(oracles, "core_by_continuation", overstated_core)
    ctx = _SplitContext(split.x, split.cut1, split.cut2)
    assert (ctx.p, ctx.s) == (p + 1, s)
    assert not ctx.in_phase
    spec = InterruptSpec(split, 1, 2)
    for claim, per_sum in [
        (ClaimId.DICHOTOMY, _dichotomy),
        (ClaimId.DISTINCT_COUNT, _distinct_count),
    ]:
        _, want = evaluate_naive(claim, spec)
        assert want, claim
        assert per_sum(ctx, 3) == [(w.factor, w.expected, w.actual) for w in want]
    # W0 = aabbb·aab·b·aabbbaabbb; the window W0[5:10] ends on W0[9], the
    # first symbol past the junction (8) out of phase with x^∞
    assert _dichotomy(ctx, 3) == [("aabba", 1, 0)]


# theorem1_deletion first fails on first-use spec 45 (split 9, x = aba, the
# third of the universe's ten first-use words) of this universe, so in a
# --jobs 3 run the part dealt words 0, 3, 6 and 9 holds none of its rows;
# note3_linear fails on every spec.
RETENTION_UNIVERSE = Universe(2, 2, 4, (3, 4), "both")


def first_use_splits(universe):
    """The first-use splits in canonical order, as _eval_chunk visits them."""
    return [
        DeletionSplit(x, cut1, cut2)
        for n in range(universe.min_x, universe.max_x + 1)
        for x in first_use_words(n, universe.alphabet_size)
        for cut1, cut2 in iter_splits(n, universe.forms)
    ]


def words_with_splits(universe):
    """The first-use words that have splits, in canonical order: the words
    _word_cuts deals out by index."""
    return list(dict.fromkeys(s.x for s in first_use_splits(universe)))


def dealt_splits(universe, part, parts):
    """The first-use splits of the words dealt to part `part` of `parts`."""
    words = set(words_with_splits(universe)[part::parts])
    return [s for s in first_use_splits(universe) if s.x in words]


def split_key(split):
    return len(split.x), split.x, split.cut1, split.cut2


def mirror_of(split):
    """The split read backwards, (x^R, |x|-cut2, |x|-cut1), with x^R renamed
    to the first-use word of its orbit."""
    n, back = len(split.x), split.x[::-1]
    used = "".join(dict.fromkeys(back))
    table = str.maketrans(used, "abcdefghijklmnopqrstuvwxyz"[: len(used)])
    return DeletionSplit(back.translate(table), n - split.cut2, n - split.cut1)


def in_forms(split, forms):
    return forms == "both" or split.is_prefix_form == (forms == "prefix")


def evaluated_splits(universe, splits):
    """(split, mirror or None) for each of splits that _eval_chunk builds a
    context for: all but those whose mirror is in the universe and sorts
    first.  The mirror is None when it is not in the universe or is the
    split itself."""
    for split in splits:
        mirror = mirror_of(split)
        if not in_forms(mirror, universe.forms) or mirror == split:
            yield split, None
        elif split_key(mirror) > split_key(split):
            yield split, mirror


def chunk_model(universe, part, parts, k):
    """What _eval_chunk((universe, part, parts, claims, k)) keeps, by check_claim.

    Per claim: (the splits whose per_sum the chunk calls, the first k of
    the identity rows of its evaluated splits and their mirrors, sorted,
    and how many evaluated splits have a spec the claim is stated for).  A
    claim calls per_sum for an evaluated split stated for it or for its
    mirror until k own rows are held: rows of the chunk's evaluated
    splits, not of their mirrors.
    """
    pairs = exponent_pairs(universe.e_sums)
    evaluated = list(evaluated_splits(universe, dealt_splits(universe, part, parts)))
    model = {}
    for c in ClaimId:
        own, rows, called, applicable = [], [], set(), 0
        for split, mirror in evaluated:
            stated = [
                t for t in (split, mirror) if t and applies(c, InterruptSpec(t, 1, 2))
            ]
            if not stated:
                continue
            applicable += 1
            if len(own) >= k:
                continue
            called.add(split)
            for t in stated:
                found = [
                    row(w)
                    for e1, e2 in pairs
                    for w in check_claim(c, InterruptSpec(t, e1, e2)).violations
                ]
                rows += found
                own += found if t is split else []
        assert own == sorted(own)
        model[c] = (called, sorted(rows)[:k], applicable)
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
    parts = [_eval_chunk((u, part, 3, list(ClaimId), 3)) for part in range(3)]
    # each chunk keeps the first rows of its own splits and their mirrors
    for p, part in enumerate(parts):
        model = chunk_model(u, p, 3, 3)
        for c in ClaimId:
            assert part[c][1] == model[c][1], (p, c)
    assert parts[0][ClaimId.THEOREM1_DELETION][1] == []
    assert parts[2][ClaimId.THEOREM1_DELETION][1][0] == row(first)


def orbit_of(split):
    """Which positions of x hold equal letters, and the cuts: the same for
    every split of one letter-renaming orbit."""
    return tuple(split.x.index(ch) for ch in split.x), split.cut1, split.cut2


def check_merges_at_every_cut(u, k):
    claims = list(ClaimId)
    every = spec_by_spec(u)
    words = words_with_splits(u)

    def expand(parts):
        return _merge_chunks(parts, k, u.alphabet_size)

    whole = expand([_eval_chunk((u, 0, 1, claims, k))])
    assert whole == merged([as_rows(every)], k)
    for n_parts in range(1, len(words) + 1):
        parts = [_eval_chunk((u, p, n_parts, claims, k)) for p in range(n_parts)]
        assert expand(parts) == whole, n_parts
    # the last dealing has one word per part.  Each such part expands to the
    # first k rows of its word's orbit and its evaluated splits' mirrors',
    # or, when every split's mirror sorts first and is in the universe, to
    # nothing at all
    reps = list(dict.fromkeys(s.split for s in representative_specs(u)))
    evaluated = dict(evaluated_splits(u, reps))
    splits = len(reps)
    assert len(evaluated) < splits if u.forms != "prefix" else len(evaluated) == splits
    orbits = [expand([part]) for part in parts]
    for x, orbit in zip(words, orbits):
        group = {
            orbit_of(t)
            for split, mirror in evaluated.items()
            if split.x == x
            for t in (split, mirror)
            if t
        }
        for c in claims:
            mine = [row(w) for w in every[c][1] if orbit_of(w.spec.split) in group]
            assert orbit[c][1] == mine[:k], (x, c)
            if not group:
                assert orbit[c] == (0, []), (x, c)
    if k > len(whole[ClaimId.NOTE3_LINEAR][1]):
        # concatenation would not: a renamed row of a later split sorts
        # before a row of an earlier one
        note3 = [r for o in orbits for r in o[ClaimId.NOTE3_LINEAR][1]]
        assert note3 != sorted(note3)
    return whole


def test_word_cuts_deals_words_by_canonical_index():
    # Part p of `parts` holds the first-use words whose canonical index is
    # p mod parts, each with all of its cuts.  The parts are disjoint and in
    # canonical order, and together they give the canonical (x, cuts) list
    # exactly, for every part count up to one more than the word count.
    # |x| = 1 has no split, so its word takes no index.
    for min_x in (1, 2):
        u = Universe(3, min_x, 4, (3,), "both")
        want = [
            (x, [(s.cut1, s.cut2) for s in group])
            for x, group in groupby(first_use_splits(u), key=lambda s: s.x)
        ]
        assert [x for x, _ in want] == words_with_splits(u)
        for parts in range(1, len(want) + 2):
            got = [list(_word_cuts(u, p, parts)) for p in range(parts)]
            for p, words in enumerate(got):
                assert words == [w for i, w in enumerate(want) if i % parts == p]
                assert words == sorted(words, key=lambda w: (len(w[0]), w[0]))
            xs = [x for words in got for x, _ in words]
            assert len(xs) == len(set(xs))
            assert sorted(w for words in got for w in words) == sorted(want)
            assert all(got) == (parts <= len(want))


def test_eval_chunk_merges_at_every_cut():
    # Nine (e1, e2) per split; a chunk is the first-use words dealt to one
    # part, so it holds every split of its words and every (e1, e2) of its
    # splits, and a part boundary falls between two words.  Renamed rows of
    # a later chunk can sort first, so the renamed streams merge in row
    # order, not by concatenation.
    u = Universe(2, 2, 3, (3, 4, 5), "both")
    assert len(exponent_pairs(u.e_sums)) == 9
    whole = check_merges_at_every_cut(u, 10**6)
    assert any(len(whole[c][1]) > 100 for c in ClaimId)


@pytest.mark.parametrize("k", [1, 3, 10**6])
def test_eval_chunk_merges_deletion_pairs_at_every_cut(k):
    # In a deletion universe only the splits with cut1 > 0 pair up: the
    # mirror of (x, 0, cut2) is a prefix split, outside the universe.
    u = Universe(2, 2, 4, (3, 4, 5), "deletion")
    splits = first_use_splits(u)
    evaluated = dict(evaluated_splits(u, splits))
    assert any(s.cut1 == 0 and not evaluated[s] for s in evaluated)
    assert any(s.cut1 > 0 and evaluated[s] for s in evaluated)
    assert any(s.cut1 > 0 and s not in evaluated for s in splits)
    check_merges_at_every_cut(u, k)


@pytest.mark.parametrize("k", [1, 3, 16, 10**6])
def test_eval_chunk_merges_ternary_orbits_at_every_cut(k):
    # Six renamings per orbit, and with k below the witness count each chunk
    # stops at its k-th identity row.  At k = 16 the note3_linear list of
    # the split (x = abcb, cut 1) ends inside the renamed spec x = acbc,
    # whose factors the renaming reorders.
    check_merges_at_every_cut(Universe(3, 2, 4, (3, 4), "prefix"), k)


@pytest.mark.parametrize("k", [1, 2, 5, 16, 10**6])
def test_eval_chunk_keeps_its_first_k_identity_rows(k, monkeypatch):
    # A chunk holds no orbit.  Per claim its rows are the first min(k, all)
    # identity rows (σ = id) of its evaluated splits and their mirrors, in
    # canonical order, and the claim's per_sum is not called for a split
    # once k rows of the chunk's own splits are held (chunk_model).  A split
    # has five (e1, e2) here, so k = 2 and 16 cut inside one.
    calls = []

    def counted(claim, count, per_sum):
        def per_sum_counted(ctx, s):
            calls.append((claim, DeletionSplit(ctx.x, ctx.cut1, ctx.cut2)))
            return per_sum(ctx, s)

        return count, per_sum_counted

    for c, (count, per_sum) in list(repcore.verify._CLAIMS.items()):
        monkeypatch.setitem(repcore.verify._CLAIMS, c, counted(c, count, per_sum))
    u = Universe(3, 1, 4, (3, 4), "both")
    assert words_with_splits(u)[1:4] == ["aab", "aba", "abb"]
    dealings = [(part, parts) for parts in (1, 2, 3) for part in range(parts)]
    cut_short, mirrored, past = set(), set(), set()
    for part, parts in dealings:
        calls.clear()
        chunk = _eval_chunk((u, part, parts, list(ClaimId), k))
        chunk_calls = list(calls)  # check_claim below calls per_sum too
        model = chunk_model(u, part, parts, k)
        dealt = dealt_splits(u, part, parts)
        own = {split_key(s) for s, _ in evaluated_splits(u, dealt)}
        for c in ClaimId:
            called, rows, applicable = model[c]
            assert chunk[c][1] == rows, (part, parts, c)
            assert {sp for cl, sp in chunk_calls if cl is c} == called, (part, c)
            if len(called) < applicable:
                cut_short.add(c)
            mirrored |= {(part, parts) for r in rows if r[:4] not in own}
            past |= {(part, parts) for r in rows if r[:4] > split_key(dealt[-1])}
    # a small k stops most claims early, and no claim has 10**6 rows
    assert len(cut_short) >= 6 if k < 10**6 else not cut_short
    # Up to k = 5 only the parts dealt aab as their first word keep a mirror
    # row: theorem1_deletion's first there is (abb, 0, 1), the mirror of
    # aab's prefix split (aab, 2, 3), since abb's splits are all left to
    # their mirrors.  Past k = 5 every part keeps mirror rows, and only part
    # 2 of 3, whose last word is not the universe's last, keeps rows of
    # splits past its own last split, since a mirror sorts after its split.
    assert mirrored == ({(1, 2), (1, 3)} if k <= 5 else set(dealings))
    assert past == ({(2, 3)} if k == 10**6 else set())


def test_eval_chunk_builds_no_per_split_objects(monkeypatch):
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
    part = _eval_chunk((u, 0, 1, list(ClaimId), DEFAULT_MAX_VIOLATIONS))
    assert any(rows for _, rows in part.values())
    assert calls == Counter()

    # A context slices W0's windows, and counts them, only for a claim that
    # reads occurrence counts while it has room for rows: never for the
    # claims the rotation test decides.
    contexts = []

    class Recorded(_SplitContext):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(self)

    def built(name):
        return sum(name in vars(ctx) for ctx in contexts)

    monkeypatch.setattr(repcore.verify, "_SplitContext", Recorded)
    window_free = [ClaimId.DFT_BOUND, ClaimId.DICHOTOMY, ClaimId.DISTINCT_COUNT]
    part = _eval_chunk((u, 0, 1, window_free, DEFAULT_MAX_VIOLATIONS))
    assert part[ClaimId.DISTINCT_COUNT][1]
    assert len(contexts) == splits
    assert built("windows") == built("hist") == 0
    contexts.clear()
    _eval_chunk((u, 0, 1, list(ClaimId), DEFAULT_MAX_VIOLATIONS))
    assert len(contexts) == splits
    assert 0 < built("hist") <= built("windows") < splits
    # A both universe builds one context per mirror orbit: {split, mirror}
    both = Universe(2, 2, 8, (3, 4), "both")
    every = first_use_splits(both)
    orbits = {frozenset({split_key(s), split_key(mirror_of(s))}) for s in every}
    assert (len(every), len(orbits)) == (6722, 3399)
    contexts.clear()
    _eval_chunk((both, 0, 1, list(ClaimId), DEFAULT_MAX_VIOLATIONS))
    assert len(contexts) == len(orbits)
    # dealt to two parts, the words build the same contexts between them
    contexts.clear()
    for part in range(2):
        _eval_chunk((both, part, 2, list(ClaimId), DEFAULT_MAX_VIOLATIONS))
    assert len(contexts) == len(orbits)
    # the counters see the names the module calls
    calls.clear()
    next(enumerate_specs(u))
    assert calls == Counter(DeletionSplit=1, InterruptSpec=1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_witnesses_share_their_spec(jobs, monkeypatch):
    # Witnesses of different claims for one spec hold the same InterruptSpec.
    # That holds for renamed specs too.
    # jobs=2 gets its 2 workers even on a single-CPU machine
    monkeypatch.setattr(repcore.verify.os, "cpu_count", lambda: 2)
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
    # A chunk over the whole universe evaluates one split per mirror orbit
    # and emits the mirror's identity rows too, so it holds every one.
    # At k = 10 the two differ (theorem1's sixth witness is renamed), so a
    # chunk that kept its splits' renamed rows would fail here.
    u = RETENTION_UNIVERSE
    part = _eval_chunk((u, 0, 1, list(ClaimId), k))
    assert set(part) == set(ClaimId)
    for c in ClaimId:
        checked, kept = part[c]
        identity = [row(w) for w in full[c][1] if is_first_use(w.spec.split.x)]
        assert len(kept) <= k
        assert (checked, kept) == (full[c][0], identity[:k]), c
    assert len(full[ClaimId.NOTE3_LINEAR][1]) > 100 * k


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_run_builds_only_the_witnesses_it_reports(jobs, k, monkeypatch):
    # A chunk keeps up to k identity rows per claim and returns rows; the
    # parent builds one Witness per reported row and none for a row the
    # merge drops.  Witnesses built in the workers would
    # not be counted here, and would leave the parent's count short.
    # jobs=2 gets its 2 workers even on a single-CPU machine
    monkeypatch.setattr(repcore.verify.os, "cpu_count", lambda: 2)
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
    whole = _eval_chunk((universe, 0, 1, list(ClaimId), 10**6))
    expanded = _merge_chunks([whole], 10**6, universe.alphabet_size)
    assert expanded == as_rows(spec_by_spec(universe))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 10**6])
def test_run_reports_first_k_of_full_list(full, jobs, k, monkeypatch):
    # jobs=2 gets its 2 workers even on a single-CPU machine
    monkeypatch.setattr(repcore.verify.os, "cpu_count", lambda: 2)
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
    """Stands in for multiprocessing.Process: records its task and, when
    started, runs its target in this process.  The target sends the chunk
    into the real pipe, and run() receives it as it would from a child."""

    def __init__(self, target, args, daemon):
        self.target, self.args = target, args
        self.task = args[-1]

    def start(self):
        self.target(*self.args)

    def join(self):
        pass

    def terminate(self):
        pass


@pytest.fixture
def fan_out(monkeypatch):
    """Every InlineProcess that run() starts (processes) and every task
    _eval_chunk runs in this process (evaluated): the caller's part 0 and
    the inline children's parts."""
    seen = SimpleNamespace(processes=[], evaluated=[])
    eval_chunk = repcore.verify._eval_chunk

    def inline_process(**kwargs):
        seen.processes.append(InlineProcess(**kwargs))
        return seen.processes[-1]

    def recorded(task):
        seen.evaluated.append(task)
        return eval_chunk(task)

    assert repcore.verify.Process is multiprocessing.Process
    monkeypatch.setattr(repcore.verify, "Process", inline_process)
    monkeypatch.setattr(repcore.verify, "_eval_chunk", recorded)
    return seen


def test_run_starts_at_most_one_worker_per_cpu(fan_out, monkeypatch):
    monkeypatch.setattr(repcore.verify.os, "cpu_count", lambda: 3)
    u = Universe(2, 2, 4, (3, 4), "both")
    n_specs = len(representative_specs(u))
    one = run(u, jobs=1)
    assert fan_out.processes == []  # one job evaluates in process
    assert [task[1:3] for task in fan_out.evaluated] == [(0, 1)]
    fan_out.evaluated.clear()
    assert run(u, jobs=10**6) == one
    # one chunk per worker, parts 0..2 of 3, not one per job asked for: the
    # caller runs part 0 and starts a process for each of the other two
    tasks = sorted(fan_out.evaluated, key=lambda task: task[1])
    assert [(part, parts) for _, part, parts, _, _ in tasks] == [
        (0, 3),
        (1, 3),
        (2, 3),
    ]
    assert [p.task for p in fan_out.processes] == tasks[1:]
    for task in tasks:
        assert task[0] == u and task[3:] == (list(ClaimId), 10)
    # between them the parts hold every first-use spec once
    n_pairs = len(exponent_pairs(u.e_sums))
    dealt = [
        (x, cut)
        for _, part, parts, _, _ in tasks
        for x, cuts in _word_cuts(u, part, parts)
        for cut in cuts
    ]
    assert len(set(dealt)) == len(dealt)
    assert len(dealt) * n_pairs == n_specs
    # with no CPU count the run stays in process
    monkeypatch.setattr(repcore.verify.os, "cpu_count", lambda: None)
    assert run(u, jobs=10**6) == one
    assert len(fan_out.processes) == 2


def test_run_ships_small_chunks_and_holds_no_specs(fan_out, monkeypatch):
    # Workers enumerate their own splits: each chunk is the universe, a split
    # range, the claims and the witness limit, whatever the universe's size.
    monkeypatch.setattr(repcore.verify.os, "cpu_count", lambda: 2)
    u = Universe(2, 2, 8, (3, 4), "both")
    one = run(u, jobs=1)

    def no_specs(*args, **kwargs):
        raise AssertionError("run() enumerated specs")

    monkeypatch.setattr(repcore.verify, "enumerate_specs", no_specs)
    assert run(u, jobs=1) == one
    assert fan_out.processes == []
    assert run(u, jobs=2) == one
    assert len(fan_out.processes) == 1
    assert len(fan_out.evaluated) > 1
    for task in fan_out.evaluated:
        assert len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL)) < 1000, task


@pytest.mark.parametrize(
    "universe, jobs, workers",
    [
        (Universe(2, 2, 2, (3, 4), "both"), 2, 1),
        (Universe(2, 1, 1, (3,), "both"), 2, 1),
        (Universe(3, 2, 3, (3,), "prefix"), 8, 5),
    ],
    ids=["one-word", "no-split", "ternary-x2-3"],
)
def test_run_starts_no_worker_that_gets_no_word(
    universe, jobs, workers, fan_out, monkeypatch
):
    # _word_cuts deals words, not splits, so run() starts at most one worker
    # per first-use word with splits: "ab" alone has several splits under
    # both forms, but a second part would be dealt nothing.
    monkeypatch.setattr(repcore.verify.os, "cpu_count", lambda: 8)
    assert _word_count(universe) == len(words_with_splits(universe))
    one = run(universe, jobs=1)
    assert run(universe, jobs=jobs) == one
    assert len(fan_out.processes) == workers - 1
    assert {task[2] for task in fan_out.evaluated} == {1, workers}


def test_word_count_counts_the_words_dealt():
    for universe in [
        Universe(2, 1, 8, (3,), forms) for forms in ("prefix", "deletion", "both")
    ] + [Universe(4, 1, 6, (3,), "deletion"), Universe(26, 2, 4, (3,), "prefix")]:
        dealt = [x for x, _ in _word_cuts(universe, 0, 1)]
        assert _word_count(universe) == len(dealt), universe


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a patched _eval_chunk reaches a worker only through fork",
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
    """Patch _eval_chunk so that part 1 calls fail(); the other parts run."""
    eval_chunk = repcore.verify._eval_chunk

    def patched(task):
        if task[1] == 1:
            fail()
        return eval_chunk(task)

    monkeypatch.setattr(repcore.verify.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(repcore.verify, "_eval_chunk", patched)


@needs_fork
def test_run_forks_workers_and_leaves_none_running(monkeypatch):
    monkeypatch.setattr(repcore.verify.os, "cpu_count", lambda: 2)
    u = Universe(2, 2, 6, (3, 4), "both")
    with deadline(30):
        assert run(u, jobs=2) == run(u, jobs=1)
    assert multiprocessing.active_children() == []


@needs_fork
def test_run_raises_a_workers_exception(monkeypatch):
    def fail():
        raise InternalBoundViolation("raised in part 1")

    failing_part(monkeypatch, fail)
    with deadline(30), pytest.raises(InternalBoundViolation, match="part 1"):
        run(Universe(2, 2, 6, (3, 4), "both"), jobs=2)
    assert multiprocessing.active_children() == []


@needs_fork
def test_run_reports_a_worker_that_dies(monkeypatch):
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


def test_run_deterministic_across_workers():
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
