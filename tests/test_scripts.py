import subprocess
import sys
from pathlib import Path

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
