import pytest

from repcore import (
    GATING_CLAIMS,
    REPORTED_CLAIMS,
    ClaimId,
    DeletionSplit,
    InterruptSpec,
    Universe,
    Witness,
    check_claim,
    enumerate_specs,
    run,
    verdict,
)
from repcore.errors import (
    InvalidLimit,
    InvalidUniverse,
    NotApplicable,
    UniverseTooLarge,
)
from repcore.verify import (
    _eval_chunk,
    applies,
    estimated_checks,
    exponent_pairs,
    splits_count,
)

from oracles import evaluate_naive


def prefix_spec(x, cut, e1, e2):
    return InterruptSpec(DeletionSplit.prefix(x, cut), e1, e2)


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


def test_splits_count():
    assert splits_count(3, "prefix") == 2
    assert splits_count(3, "deletion") == 3
    assert splits_count(3, "both") == 5


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
    "universe",
    [Universe(2, 1, 6, (3, 4, 5), "both"), Universe(3, 1, 4, (3, 4), "both")],
    ids=["binary-x6", "ternary-x4"],
)
def test_check_claim_equals_naive_oracle(universe):
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


# theorem1_deletion first fails on spec 55 of this universe, after the first
# chunk of a --jobs 2 run (45 specs); note3_linear fails on every spec.
RETENTION_UNIVERSE = Universe(2, 2, 4, (3, 4), "both")


@pytest.fixture(scope="module")
def full():
    """Per claim: (checked, every witness in canonical order), spec by spec."""
    checked = dict.fromkeys(ClaimId, 0)
    witnesses = {c: [] for c in ClaimId}
    for spec in enumerate_specs(RETENTION_UNIVERSE):
        for c in ClaimId:
            if applies(c, spec):
                sc = check_claim(c, spec)
                checked[c] += sc.checked
                witnesses[c].extend(sc.violations)
    return {c: (checked[c], witnesses[c]) for c in ClaimId}


def test_retention_universe_fails_late(full):
    specs = list(enumerate_specs(RETENTION_UNIVERSE))
    first_chunk = (len(specs) + 15) // 16  # run()'s chunk size at jobs=2
    first = full[ClaimId.THEOREM1_DELETION][1][0]
    assert specs.index(first.spec) >= first_chunk
    head = _eval_chunk((specs[:first_chunk], list(ClaimId), 3))
    tail = _eval_chunk((specs[first_chunk:], list(ClaimId), 3))
    assert head[ClaimId.THEOREM1_DELETION][1] == []
    assert tail[ClaimId.THEOREM1_DELETION][1][0] == first


@pytest.mark.parametrize("k", [1, 3])
def test_eval_chunk_keeps_first_k_witnesses(full, k):
    specs = list(enumerate_specs(RETENTION_UNIVERSE))
    part = _eval_chunk((specs, list(ClaimId), k))
    assert set(part) == set(ClaimId)
    for c in ClaimId:
        checked, kept = part[c]
        assert len(kept) <= k
        assert (checked, kept) == (full[c][0], full[c][1][:k]), c
    assert len(full[ClaimId.NOTE3_LINEAR][1]) > 100 * k


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 10**6])
def test_run_reports_first_k_of_full_list(full, jobs, k):
    reports = run(RETENTION_UNIVERSE, max_violations=k, jobs=jobs)
    assert [r.claim for r in reports] == list(ClaimId)
    for rep in reports:
        checked, witnesses = full[rep.claim]
        status = (
            "not_applicable" if checked == 0 else "fails" if witnesses else "holds"
        )
        assert (rep.checked, rep.status) == (checked, status), rep.claim
        assert rep.counterexamples == tuple(witnesses[:k]), rep.claim


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
