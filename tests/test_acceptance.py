"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.

The uniqueness claim for core-containing windows, and the distinct-count
and two-segment statements that would follow from it, are refuted by brute
force; the smallest witness is x="aab", cut1=2, e1=1, e2=2, where
W="aabaaaabaab" repeats every length-3 factor (see the README).  Criteria 1,
4 and 8 therefore assert what an exhaustive recount shows, each compared
with the independent oracles in `tests/oracles.py`:

1. theorem1 fails over the 14,380-spec prefix universe, its first witness
   is the README's, and its violations are exactly those of a slicing
   recount of the core-containing windows;
4. the dichotomy holds, the anchor-window count and the identity
   distinct = |x| + |anchored factors - rotations of x| hold on every spec,
   and distinct_count fails exactly where anchored factors repeat or
   include a rotation of x;
8. every parse rebuilds the word, and periodic_segments returns the
   brute-force maximal phase runs: the left run, the right run, any
   segments straddling the junction between them, and phase jumps whose
   deletions add up to cut2 - cut1 modulo |x|.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from repcore import (
    ClaimId,
    DeletionSplit,
    InterruptSpec,
    Universe,
    anchor_windows,
    build,
    check_claim,
    core,
    is_primitive,
    lcp,
    lcs,
    occurrences,
    parses,
    periodic_segments,
    run,
)
from repcore.verify import Witness, enumerate_specs
from repcore.words import words_of_length

from oracles import (
    anchored_windows_naive,
    core_by_continuation,
    count_naive,
    occurrences_naive,
    phase_segments_naive,
)

UNIVERSE_1 = Universe(alphabet_size=2, min_x=2, max_x=8, e_sums=(3, 4), forms="prefix")


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num} ({name}): FAIL", flush=True)
        raise
    print(f"\ncriterion {num} ({name}): PASS", flush=True)


def test_criterion_1_theorem1_exhaustive_prefix():
    with criterion(1, "theorem1 exhaustive, prefix form"):
        assert len(list(enumerate_specs(UNIVERSE_1))) == 14380
        t0 = time.perf_counter()
        rep = run(UNIVERSE_1, [ClaimId.THEOREM1], max_violations=10**6, jobs=1)[0]
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"took {elapsed:.1f}s"
        assert rep.checked > 0
        assert rep.status == "fails"
        # README: W = aabaaaabaab, both windows over the core [4,6) read aaa
        assert rep.counterexamples[0] == Witness(
            InterruptSpec(DeletionSplit("aab", 2, 3), 1, 2), "aaa", 1, 2
        ), str(rep.counterexamples[0])

        oracle = []
        oracle_checked = 0
        for spec in enumerate_specs(UNIVERSE_1):
            word = build(spec)
            factors = sorted({f for _, f in anchored_windows_naive(spec)})
            oracle_checked += len(factors)
            for f in factors:
                count = count_naive(f, word)
                if count != 1:
                    oracle.append(Witness(spec, f, 1, count))
        assert rep.checked == oracle_checked
        assert len({w.spec for w in oracle}) == 1410
        assert {w.spec for w in rep.counterexamples} == {w.spec for w in oracle}
        # equal witness lists also pin every actual count to count_naive
        assert list(rep.counterexamples) == oracle


def test_criterion_2_theorem1_deletion_with_fallback():
    with criterion(2, "generalized theorem, deletion form (fallback allowed)"):
        universe = Universe(2, 2, 6, (3,), "deletion")
        rep = run(universe, [ClaimId.THEOREM1_DELETION], jobs=1)[0]
        assert rep.checked > 0
        if rep.status == "holds":
            return
        # fallback: every counterexample must be independently re-checkable
        assert rep.status == "fails" and rep.counterexamples
        for w in rep.counterexamples:
            again = check_claim(ClaimId.THEOREM1_DELETION, w.spec)
            assert w in again.violations, f"witness does not re-check: {w}"
        print(
            f"\n  (deletion-form uniqueness fails too; {len(rep.counterexamples)} "
            f"re-checkable witnesses reported, first: {rep.counterexamples[0]})"
        )


def test_criterion_3_lcp_lcs_bound_exhaustive():
    with criterion(3, "lcp+lcs <= |x|-2 for all splits of primitive x"):
        violations = 0
        for sigma in (2, 3):
            for n in range(1, 11):
                bound = n - 2
                for x in words_of_length(n, sigma):
                    if not is_primitive(x):
                        continue
                    rots = [x[k:] + x[:k] for k in range(n)]
                    for j in range(n):
                        rj = rots[j]
                        for k in range(j + 1, n):
                            if lcp(rj, rots[k]) + lcs(rj, rots[k]) > bound:
                                violations += 1
        assert violations == 0


def test_criterion_4_dichotomy_and_distinct_count():
    with criterion(4, "dichotomy, anchor count, distinct-factor count"):
        reports = {
            r.claim: r
            for r in run(
                UNIVERSE_1,
                [ClaimId.DICHOTOMY, ClaimId.DISTINCT_COUNT],
                max_violations=10**6,
            )
        }
        assert reports[ClaimId.DICHOTOMY].status == "holds"
        distinct = reports[ClaimId.DISTINCT_COUNT]
        assert distinct.status == "fails"
        # README: aabaaaabaab has core "aa" (lcp = lcs = 0), so the formula
        # expects 2*3 - 0 - 0 - 1 = 5, but its length-3 factors are aab,
        # aba, baa and aaa
        assert distinct.counterexamples[0] == Witness(
            InterruptSpec(DeletionSplit("aab", 2, 3), 1, 2), "", 5, 4
        ), str(distinct.counterexamples[0])

        anchor_count_bad = []
        identity_bad = []
        repeated, rotation, formula_bad = set(), set(), set()
        for spec in enumerate_specs(UNIVERSE_1):
            rep = core(spec)
            x, word = spec.split.x, build(spec)
            n = len(x)
            windows = anchored_windows_naive(spec)
            if (
                len(windows) != n - rep.p_len - rep.s_len - 1
                or anchor_windows(spec, rep) != windows
            ):
                anchor_count_bad.append(spec)
            anchored = [f for _, f in windows]
            rotations = {x[k:] + x[:k] for k in range(n)}
            distinct_factors = len({word[j : j + n] for j in range(len(word) - n + 1)})
            # the dichotomy puts every other window among the rotations, and
            # x^2 is a factor of W (e1 + e2 >= 3), so all n rotations occur
            if distinct_factors != n + len(set(anchored) - rotations):
                identity_bad.append(spec)
            p_len, s_len, *_ = core_by_continuation(spec)
            if distinct_factors != 2 * n - p_len - s_len - 1:
                formula_bad.add(spec)
            if len(set(anchored)) < len(anchored):
                repeated.add(spec)
            if rotations & set(anchored):
                rotation.add(spec)
        assert not anchor_count_bad, anchor_count_bad[0]
        assert not identity_bad, identity_bad[0]
        assert (len(formula_bad), len(repeated), len(rotation)) == (1410, 1350, 350)
        assert repeated & rotation
        assert formula_bad == repeated | rotation
        assert {w.spec for w in distinct.counterexamples} == formula_bad


def test_criterion_5_note3_counterexample_discovery():
    with criterion(5, "note3_linear fails with the pinned first witness"):
        rep = run(UNIVERSE_1, [ClaimId.NOTE3_LINEAR], jobs=1)[0]
        assert rep.status == "fails"
        expected_first = Witness(
            InterruptSpec(DeletionSplit("ab", 1, 2), 1, 2), "ba", 3, 2
        )
        assert rep.counterexamples[0] == expected_first


def test_criterion_6_note2_counterexample_discovery():
    with criterion(6, "note2_linear fails with the pinned witness"):
        rep = run(UNIVERSE_1, [ClaimId.NOTE2_LINEAR], max_violations=20, jobs=1)[0]
        assert rep.status == "fails"
        target = Witness(InterruptSpec(DeletionSplit("aab", 1, 3), 1, 2), "aa", 3, 4)
        assert target in rep.counterexamples


def test_criterion_7_scanner_equals_naive_oracle():
    with criterion(7, "occurrence scanner equals the naive oracle, 10^4 cases"):
        rng = random.Random(97)
        for _ in range(10_000):
            sigma = rng.randint(2, 4)
            letters = "abcd"[:sigma]
            text = "".join(rng.choice(letters) for _ in range(rng.randint(0, 256)))
            pattern = "".join(
                rng.choice(letters) for _ in range(rng.randint(1, 8))
            )
            assert occurrences(pattern, text) == occurrences_naive(pattern, text)


def test_criterion_8_locator_roundtrip_and_segments():
    with criterion(8, "parse round-trip and phase-segment recovery"):
        t0 = time.perf_counter()
        parse_failures = []
        segment_failures = []
        for spec in enumerate_specs(Universe(2, 2, 6, (3,), "both")):
            x, word = spec.split.x, build(spec)
            n = len(x)
            found = parses(word, "both")
            if spec not in [p.spec for p in found] or any(
                build(p.spec) != word for p in found
            ):
                parse_failures.append(spec)
                continue
            p_len, s_len, *_, junction = core_by_continuation(spec)
            sr = periodic_segments(word, x)
            segments = [(s.start, s.end, s.phase) for s in sr.segments]
            # each deleted_mod is the change of alignment (phase - start) mod
            # |x| between neighbouring segments, so the sum telescopes from
            # the left run's alignment 0 to the right run's cut2 - junction
            ok = (
                segments == phase_segments_naive(word, x)
                and segments[0] == (0, junction + p_len, 0)
                and segments[-1][:2] == (junction - s_len, len(word))
                and all(start < junction < end for start, end, _ in segments[1:-1])
                and len(sr.jumps) == len(segments) - 1
                and sum(j.deleted_mod for j in sr.jumps) % n
                == (spec.split.cut2 - spec.split.cut1) % n
            )
            if not ok:
                segment_failures.append(spec)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"took {elapsed:.1f}s"
        assert not parse_failures, parse_failures[0]
        assert not segment_failures, segment_failures[0]
        # README: a rotation of x straddles the junction as a third segment
        third = build(InterruptSpec(DeletionSplit("aabab", 0, 1), 1, 2))
        segments = periodic_segments(third, "aabab").segments
        assert [(s.start, s.end) for s in segments] == [(0, 6), (3, 8), (5, 19)]


def test_criterion_9_verify_output_deterministic_across_jobs(child_env):
    # The default universe (1,438 first-use prefix splits) runs in one
    # process at any --jobs; binary --forms both --max-x 10 (7,909) forks
    # a second worker where two CPUs or more are usable, so its run crosses
    # a worker boundary.
    universes = [
        ["--alphabet", "2", "--min-x", "2", "--max-x", "8",
         "--e-sums", "3,4", "--forms", "prefix"],
        ["--forms", "both", "--max-x", "10"],
    ]
    with criterion(9, "verify --jobs 1 and --jobs 4 byte-identical"):
        for args in universes:
            argv = [sys.executable, "-m", "repcore", "verify", *args, "--json"]
            one = subprocess.run(
                argv + ["--jobs", "1"], capture_output=True, env=child_env
            )
            four = subprocess.run(
                argv + ["--jobs", "4"], capture_output=True, env=child_env
            )
            assert one.stdout and one.stdout == four.stdout, args
            assert one.returncode == four.returncode, args
            json.loads(one.stdout)
