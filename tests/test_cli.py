import json
import subprocess
import sys

import pytest

from repcore.cli import main


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


def test_scan_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "scan", "--x", "ab", "--text", "abaabab")
    assert code == 0
    assert out == "segment 0 3 phase=0\nsegment 3 7 phase=0\njump left_end=3 right_start=3 deleted_mod=1\n"
    code, out, _ = run_cli(capsys, "scan", "--x", "ab", "--text", "abbabab", "--json")
    doc = json.loads(out)
    assert doc["segments"] == [
        {"start": 0, "end": 2, "phase": 0},
        {"start": 2, "end": 7, "phase": 1},
    ]
    assert doc["jumps"] == [{"left_end": 2, "right_start": 2, "deleted_mod": 1}]


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
        ["bogus"],
        ["core", "--x", "ab", "--cut", "1", "--e1", "1", "--e2", "2", "--bogus"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


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


def test_console_entry_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "repcore", "build", "--x", "ab", "--cut", "1",
         "--e1", "1", "--e2", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "abaabab\n"
