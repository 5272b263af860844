import subprocess
import sys
from pathlib import Path

import pytest

from repcore import ClaimId, Universe, check_claim
from repcore.verify import applies, enumerate_specs

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_anchor_collisions_counts_the_uniqueness_failures(child_env):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "anchor_collisions.py"), "--max-x", "3"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    # the script's defaults: alphabet 2, e1 + e2 = 3, both forms
    specs = list(enumerate_specs(Universe(2, 2, 3, (3,), "both")))
    uniqueness = (ClaimId.THEOREM1, ClaimId.THEOREM1_DELETION)
    offending = [
        spec for spec in specs
        if any(
            not check_claim(claim, spec).ok
            for claim in uniqueness
            if applies(claim, spec)
        )
    ]
    assert (len(offending), len(specs)) == (12, 68)
    assert proc.stdout.splitlines()[-1] == "12 offending specs out of 68"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--e-sums", "2"], "InvalidUniverse: every e1+e2 must be >= 3, got (2,)"),
        (["--max-x", "13"], "InvalidUniverse: max_x is capped at 12"),
        (
            ["--e-sums", "3,x"],
            "--e-sums expects a comma-separated integer list, got '3,x'",
        ),
        (
            ["--alphabet", "26", "--max-x", "12"],
            "UniverseTooLarge: 15188942967210923300 specs exceed the cap 10000000",
        ),
    ],
    ids=["e-sum-below-3", "max-x-13", "e-sums-not-integers", "over-the-cap"],
)
def test_anchor_collisions_rejects_bad_universe_in_one_line(child_env, argv, message):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "anchor_collisions.py"), *argv],
        capture_output=True, text=True, env=child_env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message + "\n")
