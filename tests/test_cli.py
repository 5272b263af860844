import hashlib
import json
import subprocess
import sys

import pytest

import repcore.cli
import repcore.verify
from repcore.cli import main

from oracles import run_full

# One successful invocation of each subcommand.
SUBCOMMANDS = {
    "build": ["build", "--x", "ab", "--cut", "1", "--e1", "1", "--e2", "2"],
    "core": ["core", "--x", "ab", "--cut", "1", "--e1", "1", "--e2", "2"],
    "occurrences": ["occurrences", "--pattern", "ab", "--text", "abaabab"],
    "verify": ["verify", "--max-x", "2", "--e-sums", "3", "--claims", "dft_bound"],
    "parse": ["parse", "--word", "abaabab"],
    "scan": ["scan", "--x", "ab", "--text", "abaabab"],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_core_json(capsys):
    code, out, _ = run_cli(
        capsys, "core", "--x", "ab", "--cut", "1", "--e1", "1", "--e2", "2", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "x": "ab",
        "cut1": 1,
        "cut2": 2,
        "e1": 1,
        "e2": 2,
        "word": "abaabab",
        "junction": 3,
        "lcp": 0,
        "lcs": 0,
        "p_tilde": "a",
        "s_tilde": "a",
        "core": "aa",
        "core_start": 2,
        "core_end": 4,
    }


def test_core_text(capsys):
    code, out, _ = run_cli(
        capsys, "core", "--x", "aabab", "--cut", "3", "--e1", "1", "--e2", "2"
    )
    assert code == 0
    assert out == (
        "x: aabab\n"
        "cut1: 3\n"
        "cut2: 5\n"
        "e1: 1\n"
        "e2: 2\n"
        "word: aababaabaababaabab\n"
        "junction: 8\n"
        "lcp: 1\n"
        "lcs: 2\n"
        "p_tilde: aa\n"
        "s_tilde: aab\n"
        "core: aabaa\n"
        "core_start: 5\n"
        "core_end: 10\n"
        "u: abaab\n"
        "v: aabab\n"
    )


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_every_subcommand_takes_json(capsys, name):
    code, out, err = run_cli(capsys, *SUBCOMMANDS[name], "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert isinstance(doc, dict)
    assert out == json.dumps(doc, sort_keys=True) + "\n"


def test_core_cut_pair_flags(capsys):
    code, out, _ = run_cli(
        capsys, "core", "--x", "aab", "--cut1", "1", "--cut2", "2",
        "--e1", "1", "--e2", "2", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["core"] == "bab" and doc["word"] == "aababaabaab"


def test_build_text(capsys):
    code, out, _ = run_cli(
        capsys, "build", "--x", "ab", "--cut", "1", "--e1", "1", "--e2", "2"
    )
    assert code == 0 and out == "abaabab\n"


def test_occurrences_text_lines(capsys):
    code, out, _ = run_cli(
        capsys, "occurrences", "--pattern", "aa", "--text", "abaabab"
    )
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli(
        capsys, "occurrences", "--pattern", "ab", "--text", "abaabab"
    )
    assert out == "0\n3\n5\n"


def test_occurrences_cyclic_json(capsys):
    code, out, _ = run_cli(
        capsys, "occurrences", "--pattern", "ba", "--text", "abaabab",
        "--cyclic", "--json",
    )
    assert code == 0
    assert json.loads(out) == {"pattern": "ba", "cyclic": True, "positions": [1, 4, 6]}


def test_occurrences_text_file(tmp_path, capsys):
    path = tmp_path / "text.txt"
    path.write_text("abaabab\n")
    code, out, _ = run_cli(
        capsys, "occurrences", "--pattern", "aa", "--text-file", str(path)
    )
    assert code == 0 and out == "2\n"


def test_parse_json(capsys):
    code, out, _ = run_cli(
        capsys, "parse", "--word", "abaabab", "--forms", "prefix", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == "abaabab"
    assert len(doc["parses"]) == 1
    assert doc["parses"][0]["x"] == "ab"
    assert doc["parses"][0]["core"] == "aa"


def test_parse_without_parse_exits_1(capsys):
    # abababa is (ab)^3 a: no x, split and exponents rebuild it
    code, out, err = run_cli(capsys, "parse", "--word", "abababa")
    assert (code, out, err) == (1, "", "")
    code, out, err = run_cli(capsys, "parse", "--word", "abababa", "--json")
    assert code == 1 and err == ""
    assert json.loads(out) == {"word": "abababa", "parses": []}


def test_scan_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "scan", "--x", "ab", "--text", "abaabab")
    assert code == 0
    assert out == "segment 0 3 phase=0\nsegment 3 7 phase=0\njump left_end=3 right_start=3 deleted_mod=1\n"
    code, out, _ = run_cli(capsys, "scan", "--x", "ab", "--text", "abbabab", "--json")
    assert json.loads(out) == {
        "x": "ab",
        "segments": [
            {"start": 0, "end": 2, "phase": 0},
            {"start": 2, "end": 7, "phase": 1},
        ],
        "jumps": [{"left_end": 2, "right_start": 2, "deleted_mod": 1}],
    }


def test_verify_small_json_and_exit_codes(capsys):
    args = [
        "verify", "--alphabet", "2", "--min-x", "2", "--max-x", "2",
        "--e-sums", "3", "--forms", "prefix",
    ]
    code, out, _ = run_cli(capsys, *args, "--claims", "dft_bound,dichotomy", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["universe"] == {
        "alphabet_size": 2, "min_x": 2, "max_x": 2, "e_sums": [3], "forms": "prefix",
    }
    assert [c["id"] for c in doc["claims"]] == ["dft_bound", "dichotomy"]
    assert all(c["status"] == "holds" for c in doc["claims"])

    # reported claims failing do not flip the exit code without --strict-notes
    code, out, _ = run_cli(capsys, *args, "--claims", "note3_linear", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["claims"][0]["status"] == "fails"
    assert doc["claims"][0]["counterexamples"][0] == {
        "x": "ab", "cut1": 1, "cut2": 2, "e1": 1, "e2": 2,
        "factor": "ba", "expected": 3, "actual": 2,
    }
    code, _, _ = run_cli(capsys, *args, "--claims", "note3_linear", "--strict-notes")
    assert code == 1

    # gating claim genuinely failing -> exit 1 (|x|=3 includes the
    # degenerate-run counterexample to the uniqueness claim)
    code, out, _ = run_cli(
        capsys, "verify", "--alphabet", "2", "--min-x", "2", "--max-x", "3",
        "--e-sums", "3", "--forms", "prefix", "--claims", "theorem1", "--json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["claims"][0]["status"] == "fails"
    assert doc["claims"][0]["counterexamples"][0] == {
        "x": "aab", "cut1": 2, "cut2": 3, "e1": 1, "e2": 2,
        "factor": "aaa", "expected": 1, "actual": 2,
    }


def test_verify_text_verdict(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-x", "2", "--e-sums", "3",
        "--claims", "dft_bound",
    )
    assert code == 0
    assert "dft_bound: holds (checked 4)" in out
    assert out.strip().endswith("verdict: PASS")


def test_verify_jobs_identical_output(capsys):
    args = [
        "verify", "--alphabet", "2", "--min-x", "2", "--max-x", "4",
        "--e-sums", "3", "--forms", "both", "--json",
    ]
    _, out1, _ = run_cli(capsys, *args, "--jobs", "1")
    _, out4, _ = run_cli(capsys, *args, "--jobs", "4")
    assert out1 == out4


# stdout SHA-256 of verify runs whose witnesses interleave several exponent
# sums within each split, pinning the canonical (e1, e2) order across sums.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "verify --forms both --max-x 7 --e-sums 3,4,5,7 --max-violations 50",
            "e1146d164c89d6fddce105c39b95860d447823c4b6acdedeadf7bed40b31278e",
        ),
        (
            "verify --alphabet 3 --max-x 5 --forms both --e-sums 3,6"
            " --max-violations 30 --json",
            "b176f6324c936f3a9e66814726520d01be3733e523f0ffed4c38b7366533bd72",
        ),
    ],
    ids=["binary-x7-e3457", "ternary-x5-e36-json"],
)
def test_verify_multi_sum_stdout_digest(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_reserialization_is_stable(capsys):
    args = [
        "verify", "--max-x", "3", "--e-sums", "3", "--claims", "note2_linear",
        "--json",
    ]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert json.dumps(json.loads(out1), sort_keys=True) == out1.strip()


def test_usage_errors_exit_2():
    for argv in (
        ["core", "--x", "ab", "--e1", "1", "--e2", "2"],  # no cut flags
        ["core", "--x", "ab", "--cut", "1", "--cut1", "0", "--cut2", "2",
         "--e1", "1", "--e2", "2"],  # conflicting cut flags
        ["occurrences", "--pattern", "a"],  # no text source
        ["verify", "--claims", "bogus_claim"],
        ["verify", "--e-sums", "three"],
        ["verify", "--forms", "sideways"],
        ["parse", "--word", "abaabab", "--min-e-sum", "0"],  # the bound is fixed
        ["bogus"],
        ["core", "--x", "ab", "--cut", "1", "--e1", "1", "--e2", "2", "--bogus"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_text_file_errors_exit_2(tmp_path, capsys):
    non_ascii = tmp_path / "non_ascii.txt"
    non_ascii.write_text("aba\u00e4bab\n", encoding="utf-8")
    cases = (
        (tmp_path / "missing.txt", "No such file or directory"),
        (non_ascii, "'ascii' codec can't decode"),
    )
    for argv in (["occurrences", "--pattern", "aa"], ["scan", "--x", "ab"]):
        for path, reason in cases:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--text-file", str(path)])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            last = captured.err.splitlines()[-1]
            assert last.startswith(f"repcore: error: --text-file {str(path)!r}: ")
            assert reason in last


def test_bad_symbol_in_a_large_text_file_is_one_short_line(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("ab" * 500_000 + "C" + "ab" * 20 + "\n")
    code, out, err = run_cli(capsys, "scan", "--x", "ab", "--text-file", str(path))
    assert code == 2 and out == ""
    assert err == "InvalidWord: invalid symbol 'C' at position 1000000\n"
    assert len(err.encode()) < 200


def test_domain_errors_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "core", "--x", "ab", "--cut", "0", "--e1", "1", "--e2", "2"
    )
    assert code == 2 and err.startswith("InvalidSplit:")
    code, _, err = run_cli(
        capsys, "core", "--x", "abab", "--cut", "1", "--e1", "1", "--e2", "2"
    )
    assert code == 2 and err.startswith("InvalidSplit:")
    code, _, err = run_cli(capsys, "occurrences", "--pattern", "", "--text", "ab")
    assert code == 2 and err.startswith("EmptyPattern:")
    code, _, err = run_cli(capsys, "occurrences", "--pattern", "A!", "--text", "ab")
    assert code == 2 and err.startswith("InvalidWord:")
    code, _, err = run_cli(capsys, "scan", "--x", "abab", "--text", "ababab")
    assert code == 2 and err.startswith("NonPrimitivePeriod:")
    code, _, err = run_cli(capsys, "parse", "--word", "ab")
    assert code == 2 and err.startswith("WordTooShort:")
    code, _, err = run_cli(capsys, "verify", "--alphabet", "1")
    assert code == 2 and err.startswith("InvalidUniverse:")
    code, _, err = run_cli(capsys, "verify", "--max-x", "8", "--max-checks", "10")
    assert code == 2 and err.startswith("UniverseTooLarge:")


def test_verify_cap_rejects_before_any_work(capsys, monkeypatch):
    # 5 letters, --forms both --max-x 12 exceeds the default --max-checks:
    # the run ends in one diagnostic line before a chunk is evaluated, a
    # process started or a word enumerated.
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a rejected universe")

    monkeypatch.setattr(repcore.verify, "Process", no_work)
    monkeypatch.setattr(repcore.verify, "_eval_chunk", no_work)
    monkeypatch.setattr(repcore.verify, "first_use_words", no_work)
    for fmt in ([], ["--json"]):
        code, out, err = run_cli(
            capsys, "verify", "--alphabet", "5", "--forms", "both",
            "--max-x", "12", "--jobs", "2", *fmt,
        )
        assert (code, out) == (2, "")
        assert err == (
            "UniverseTooLarge: 965768275 specs to evaluate (one per"
            " letter-renaming orbit) exceed the cap 10000000\n"
        )


# `repcore verify` evaluates one x per letter-renaming orbit and merges the
# renamed witnesses by key; tests/oracles.py's run_full enumerates every x.
ORBIT_UNIVERSES = {
    "binary-x7-e3457": ["--forms", "both", "--max-x", "7", "--e-sums", "3,4,5,7",
                        "--max-violations", "50"],
    "ternary-x1-4": ["--alphabet", "3", "--min-x", "1", "--max-x", "4",
                     "--max-violations", "1000"],
    "ternary-x5-e36": ["--alphabet", "3", "--max-x", "5", "--e-sums", "3,6"],
    "4-letter-x5": ["--alphabet", "4", "--max-x", "5", "--max-violations", "200"],
    # A split has five (e1, e2) here.  At k = 1, 2, 3 and 16 the k-th
    # identity row (σ = id) of most claims falls inside a split, and at
    # k = 5 it is the last row of a split for every claim.
    **{
        f"ternary-both-x4-k{k}": ["--alphabet", "3", "--forms", "both", "--max-x",
                                  "4", "--max-violations", str(k)]
        for k in (1, 2, 3, 5, 16, 10**6)
    },
    # verify evaluates one split per mirror orbit (x read backwards).  In a
    # deletion universe only the splits with cut1 > 0 pair up; |x| 4-6
    # holds self-mirror words such as abba and aabb (bbaa renamed).
    **{
        f"binary-deletion-x6-k{k}": ["--forms", "deletion", "--max-x", "6",
                                     "--e-sums", "3,4,5", "--max-violations", str(k)]
        for k in (1, 3, 10**6)
    },
    **{
        f"binary-both-x4-6-k{k}": ["--forms", "both", "--min-x", "4", "--max-x",
                                   "6", "--max-violations", str(k)]
        for k in (1, 3, 10**6)
    },
}


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("argv", ORBIT_UNIVERSES.values(), ids=ORBIT_UNIVERSES)
def test_verify_stdout_equals_full_enumeration(capsys, monkeypatch, argv, jobs, fmt):
    # jobs=2 gets its 2 workers even on a single-CPU machine
    monkeypatch.setattr(repcore.verify.os, "cpu_count", lambda: 2)
    argv = ["verify", *argv, "--jobs", jobs, *fmt]
    got = run_cli(capsys, *argv)
    monkeypatch.setattr(repcore.cli, "run", run_full)
    assert got == run_cli(capsys, *argv)
    code, out, err = got
    assert code == 1 and err == "" and "expected" in out


def test_verify_max_violations_below_one_exits_2(capsys):
    for value in ("0", "-1"):
        code, out, err = run_cli(capsys, "verify", "--max-violations", value)
        assert code == 2 and out == ""
        assert err == f"InvalidLimit: max_violations must be >= 1, got {value}\n"
    # the limit is checked before the universe is enumerated or sized
    code, _, err = run_cli(
        capsys, "verify", "--max-violations", "0", "--max-checks", "10"
    )
    assert code == 2 and err.startswith("InvalidLimit:")


def test_verify_max_checks_below_zero_exits_2(capsys):
    # a universe with no split (0 specs) and the default one alike
    for argv in (["--min-x", "1", "--max-x", "1"], []):
        for value in ("-1", "-7"):
            for fmt in ([], ["--json"]):
                code, out, err = run_cli(
                    capsys, "verify", *argv, "--max-checks", value, *fmt
                )
                assert (code, out) == (2, "")
                assert err == f"InvalidLimit: max_checks must be >= 0, got {value}\n"


def test_verify_jobs_below_one_exits_2(capsys):
    for value in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "--jobs", value)
        assert code == 2 and out == ""
        assert err == f"InvalidLimit: jobs must be >= 1, got {value}\n"


def test_console_entry_subprocess(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "repcore", "build", "--x", "ab", "--cut", "1",
         "--e1", "1", "--e2", "2"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0 and proc.stdout == "abaabab\n"
