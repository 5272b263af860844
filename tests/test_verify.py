import pickle
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from copy import copy
from dataclasses import replace

import pytest

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
    InvalidLimit,
    InvalidUniverse,
    NotApplicable,
    UniverseTooLarge,
)
from repcore.interrupts import iter_splits
from repcore.verify import (
    DEFAULT_MAX_VIOLATIONS,
    GATING_CLAIMS,
    REPORTED_CLAIMS,
    Witness,
    _eval_chunk,
    _merge_chunks,
    applies,
    enumerate_specs,
    estimated_checks,
    exponent_pairs,
    verdict,
)
from repcore.words import is_primitive, renamings

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
    with pytest.raises(InvalidUniverse):
        Universe(max_x=13)
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


# theorem1_deletion first fails on first-use spec 45 (split 9, x = aba) of
# this universe, after the first chunk of a --jobs 2 run (5 of its 71
# first-use splits, 25 specs); note3_linear fails on every spec.
RETENTION_UNIVERSE = Universe(2, 2, 4, (3, 4), "both")


def split_count(universe):
    """First-use splits: the index space of _eval_chunk's chunks."""
    return len({spec.split for spec in representative_specs(universe)})


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
    specs, splits = representative_specs(u), split_count(u)
    n_pairs = len(specs) // splits
    first_chunk = (splits + 15) // 16  # run()'s chunk size with 2 workers
    first = full[ClaimId.THEOREM1_DELETION][1][0]
    assert specs.index(first.spec) >= first_chunk * n_pairs
    head = _eval_chunk((u, 0, first_chunk, list(ClaimId), 3))
    tail = _eval_chunk((u, first_chunk, splits, list(ClaimId), 3))
    assert head[ClaimId.THEOREM1_DELETION][1] == []
    assert tail[ClaimId.THEOREM1_DELETION][1][0] == row(first)


def orbit_of(split):
    """Which positions of x hold equal letters, and the cuts: the same for
    every split of one letter-renaming orbit."""
    return tuple(split.x.index(ch) for ch in split.x), split.cut1, split.cut2


def check_merges_at_every_cut(u, k):
    splits = split_count(u)
    claims = list(ClaimId)
    every = spec_by_spec(u)

    def expand(parts):
        return _merge_chunks(parts, k, u.alphabet_size)

    whole = expand([_eval_chunk((u, 0, splits, claims, k))])
    assert whole == merged([as_rows(every)], k)
    for cut in range(splits + 1):
        head = _eval_chunk((u, 0, cut, claims, k))
        tail = _eval_chunk((u, cut, splits, claims, k))
        assert expand([head, tail]) == whole, cut
    # one chunk per split, expanded, gives the same, and each such chunk
    # expands to the first k rows of its split's orbit
    parts = [_eval_chunk((u, i, i + 1, claims, k)) for i in range(splits)]
    assert expand(parts) == whole
    reps = list(dict.fromkeys(s.split for s in representative_specs(u)))
    orbits = [expand([part]) for part in parts]
    for split, orbit in zip(reps, orbits):
        for c in claims:
            mine = [
                row(w) for w in every[c][1] if orbit_of(w.spec.split) == orbit_of(split)
            ]
            assert orbit[c][1] == mine[:k], (split, c)
    if k > len(whole[ClaimId.NOTE3_LINEAR][1]):
        # concatenation would not: a renamed row of a later split sorts
        # before a row of an earlier one
        note3 = [r for o in orbits for r in o[ClaimId.NOTE3_LINEAR][1]]
        assert note3 != sorted(note3)
    return whole


def test_eval_chunk_merges_at_every_cut():
    # Nine (e1, e2) per split; a chunk is a range of first-use split indices,
    # so it holds every (e1, e2) of its splits, and a cut falls between two
    # first-use splits.  Renamed rows of a later chunk can sort first, so the
    # renamed streams merge in row order, not by concatenation.
    u = Universe(2, 2, 3, (3, 4, 5), "both")
    assert len(exponent_pairs(u.e_sums)) == 9
    whole = check_merges_at_every_cut(u, 10**6)
    assert any(len(whole[c][1]) > 100 for c in ClaimId)


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
    # identity rows (σ = id) of its split range, in canonical order, and the
    # claim's per_sum is not called for a split once k rows are held.  A
    # split has five (e1, e2) here, so k = 2 and 16 cut inside one.
    calls = []

    def counted(claim, count, per_sum):
        def per_sum_counted(ctx, s):
            calls.append((claim, DeletionSplit(ctx.x, ctx.cut1, ctx.cut2)))
            return per_sum(ctx, s)

        return count, per_sum_counted

    for c, (count, per_sum) in list(repcore.verify._CLAIMS.items()):
        monkeypatch.setitem(repcore.verify._CLAIMS, c, counted(c, count, per_sum))
    u = Universe(3, 1, 4, (3, 4), "both")
    specs = representative_specs(u)
    splits = list(dict.fromkeys(spec.split for spec in specs))
    cut_short = set()
    for lo, hi in [(0, len(splits)), (7, 40), (len(splits) // 2, len(splits))]:
        calls.clear()
        part = _eval_chunk((u, lo, hi, list(ClaimId), k))
        chunk_calls = list(calls)  # check_claim below calls per_sum too
        for c in ClaimId:
            rows, called, applicable = [], set(), 0
            for split in splits[lo:hi]:
                mine = [spec for spec in specs if spec.split == split]
                if not applies(c, mine[0]):
                    continue
                applicable += 1
                if len(rows) < k:
                    called.add(split)
                rows += [row(w) for s in mine for w in check_claim(c, s).violations]
            assert rows == sorted(rows)
            assert part[c][1] == rows[:k], (lo, hi, c)
            assert {sp for cl, sp in chunk_calls if cl is c} == called, (lo, hi, c)
            if len(called) < applicable:
                cut_short.add(c)
    # a small k stops most claims early, and no claim has 10**6 rows
    assert len(cut_short) >= 6 if k < 10**6 else not cut_short


def test_eval_chunk_builds_no_per_split_objects(monkeypatch):
    # A split costs one _SplitContext built from (x, cut1, cut2): no
    # DeletionSplit, InterruptSpec or core report, and no anchor_windows.
    u = Universe()
    splits = split_count(u)
    calls = Counter()

    def counting(name):
        original = getattr(repcore.verify, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in ("DeletionSplit", "InterruptSpec", "core", "anchor_windows"):
        monkeypatch.setattr(repcore.verify, name, counting(name))
    part = _eval_chunk((u, 0, splits, list(ClaimId), DEFAULT_MAX_VIOLATIONS))
    assert any(rows for _, rows in part.values())
    assert calls == Counter()
    # the counters see the names the module calls
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
    # At k = 10 the two differ (theorem1's sixth witness is renamed), so a
    # chunk that kept its splits' renamed rows would fail here.
    u = RETENTION_UNIVERSE
    part = _eval_chunk((u, 0, split_count(u), list(ClaimId), k))
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
    whole = _eval_chunk((universe, 0, split_count(universe), list(ClaimId), 10**6))
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


class InlinePool:
    """Stands in for ProcessPoolExecutor: records the worker count and the
    chunks it is asked for, and maps them in this process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.chunks = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.chunks = list(tasks)
        return map(fn, self.chunks)


@pytest.fixture
def pools(monkeypatch):
    """Every InlinePool that run() starts, in order."""
    started = []

    def inline_pool(max_workers):
        started.append(InlinePool(max_workers))
        return started[-1]

    assert repcore.verify.ProcessPoolExecutor is ProcessPoolExecutor
    monkeypatch.setattr(repcore.verify, "ProcessPoolExecutor", inline_pool)
    return started


def test_run_starts_at_most_one_worker_per_cpu(pools, monkeypatch):
    monkeypatch.setattr(repcore.verify.os, "cpu_count", lambda: 3)
    u = Universe(2, 2, 4, (3, 4), "both")
    n_specs = len(representative_specs(u))
    one = run(u, jobs=1)
    assert pools == []  # one job evaluates in process
    assert run(u, jobs=10**6) == one
    [pool] = pools
    assert pool.max_workers == 3
    # the chunk size follows the 3 workers, not the 10**6 jobs asked for
    assert n_specs > 24 and len(pool.chunks) <= 3 * 8
    # the chunks are contiguous first-use split ranges that cover the universe
    ranges = [(lo, hi) for _, lo, hi, _, _ in pool.chunks]
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
    n_pairs = len(exponent_pairs(u.e_sums))
    assert sum((hi - lo) * n_pairs for lo, hi in ranges) == n_specs
    # with no CPU count the run stays in process
    monkeypatch.setattr(repcore.verify.os, "cpu_count", lambda: None)
    assert run(u, jobs=10**6) == one
    assert len(pools) == 1


def test_run_ships_small_chunks_and_holds_no_specs(pools, monkeypatch):
    # Workers enumerate their own splits: each chunk is the universe, a split
    # range, the claims and the witness limit, whatever the universe's size.
    monkeypatch.setattr(repcore.verify.os, "cpu_count", lambda: 2)
    u = Universe(2, 2, 8, (3, 4), "both")
    one = run(u, jobs=1)

    def no_specs(*args, **kwargs):
        raise AssertionError("run() enumerated specs")

    monkeypatch.setattr(repcore.verify, "enumerate_specs", no_specs)
    assert run(u, jobs=1) == one
    assert run(u, jobs=2) == one
    [pool] = pools
    assert len(pool.chunks) > 1
    for task in pool.chunks:
        assert len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL)) < 1000, task


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
