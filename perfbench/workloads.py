"""Benchmark workloads: seeded inputs, the operations run on them, and checks.

Every operation has a `run()` that calls one public repcore entry point and
a `check(output)` that returns a list of problems (empty when the output is
right).  The checks use the small independent oracles below, never
repcore's own words/interrupts code, so a wrong fast path cannot vouch for
itself.

Workloads:

* verify-prefix      `repcore verify --jobs 1` on the default universe.
* verify-both-jobs2  `repcore verify --forms both --max-x 8 --jobs 2`.
* locate-parse       120 `parses` calls on words generated from the seed.
* locate-scan        5 `periodic_segments` scans on texts generated from the
                     seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import string

import repcore.cli
import repcore.locate

LETTERS = string.ascii_lowercase
MIN_E_SUM = 3  # repcore's smallest exponent sum e1 + e2

# --------------------------------------------------------------------------
# Independent oracles (plain slicing; no repcore code)


def naive_primitive(x: str) -> bool:
    """x is primitive iff it occurs in x+x only at 0 and |x|."""
    return (x + x).find(x, 1) == len(x)


def naive_build(x: str, cut1: int, cut2: int, e1: int, e2: int) -> str:
    return x * e1 + x[:cut1] + x[cut2:] + x * e2


def naive_count(factor: str, word: str, cyclic: bool = False) -> int:
    m = len(factor)
    text = word + word[: m - 1] if cyclic else word
    last = len(word) if cyclic else len(word) - m + 1
    return sum(1 for j in range(last) if text[j : j + m] == factor)


def rotation(x: str, k: int) -> str:
    k %= len(x)
    return x[k:] + x[:k]


def periodic(x: str, phase: int, length: int) -> str:
    r = rotation(x, phase)
    return (r * (length // len(r) + 1))[:length]


def naive_parses(word: str) -> list[tuple]:
    """Every (x, cut1, cut2, e1, e2) with naive_build(...) == word, canonical order.

    For a candidate |x| = n with x = word[:n], the prefix x^e1 x1 must lie in
    the longest prefix of word that follows x^inf (length a), and the suffix
    x3 x^e2 in the longest suffix that ends like x^inf (length b).  The two
    parts tile the word, so a + b >= |word| is needed and the parse is valid
    exactly when both parts fit.
    """
    total = len(word)
    found = []
    for n in range(1, total // MIN_E_SUM + 1):
        x = word[:n]
        a = n
        while a < total and word[a] == word[a - n]:
            a += 1
        b = 0
        while b < total and word[total - 1 - b] == x[(n - 1 - b) % n]:
            b += 1
        if a + b < total or not naive_primitive(x):
            continue
        for cut1 in range(n):
            for cut2 in range(cut1 + 1, n + 1):
                if cut1 == 0 and cut2 == n:
                    continue
                body = total - cut1 - (n - cut2)
                if body % n or body // n < MIN_E_SUM:
                    continue
                e_sum = body // n
                for e1 in range(1, e_sum):
                    e2 = e_sum - e1
                    if e1 * n + cut1 <= a and (n - cut2) + e2 * n <= b:
                        found.append((x, cut1, cut2, e1, e2))
    return found


# --------------------------------------------------------------------------
# verify workloads

# Universe sizes are properties of the exhaustive universes, not of the
# implementation, so a faster enumeration cannot change the unit of work.
# The digests were recorded once from the initial code with `--jobs 1`;
# verify-both-jobs2 runs with `--jobs 2` and must match the `--jobs 1`
# digest, which is the jobs-invariance check.
VERIFY = {
    "verify-prefix": {
        "argv": ["verify", "--jobs", "1"],
        "universe": {"forms": "prefix", "max_x": 8},
        "specs": 14_380,
        "exit_code": 1,
        "stdout_sha256": "b502ebdac3ae5a2c29ebe38f9e61d1725ac67ef23442b28445de6ae6cf81465e",
    },
    "verify-both-jobs2": {
        "argv": ["verify", "--forms", "both", "--max-x", "8", "--jobs", "2"],
        "universe": {"forms": "both", "max_x": 8},
        "specs": 67_220,
        "exit_code": 1,
        "stdout_sha256": "f60cf3687f9ed64d59a67859e35bf07b410e4cb53db96e58c5b6f64b892de1cc",
    },
}

_CLAIM_LINE = re.compile(r"^(\w+): (holds|fails|not_applicable) \(checked (\d+)\)$")
_WITNESS_LINE = re.compile(
    r"^  x=([a-z]+) cut1=(\d+) cut2=(\d+) e1=(\d+) e2=(\d+)"
    r" factor='([a-z]*)' expected=(\d+) actual=(\d+)$"
)
# Claims whose witnesses count occurrences of a factor: (cyclic?, expected).
_COUNT_CLAIMS = {
    "theorem1": (False, "one"),
    "theorem1_deletion": (False, "one"),
    "core_cyclic_unique": (True, "one"),
    "note2_linear": (False, "e_sum"),
    "note3_linear": (False, "e_sum"),
    "note3_cyclic": (True, "e_sum"),
}


def naive_lcp(a: str, b: str) -> int:
    i = 0
    while i < min(len(a), len(b)) and a[i] == b[i]:
        i += 1
    return i


def recount_witness(claim: str, x, cut1, cut2, e1, e2, factor) -> tuple[int, int]:
    """(expected, actual) for one printed witness, recomputed from scratch."""
    word = naive_build(x, cut1, cut2, e1, e2)
    n = len(x)
    if claim in _COUNT_CLAIMS:
        cyclic, kind = _COUNT_CLAIMS[claim]
        expected = 1 if kind == "one" else e1 + e2
        return expected, naive_count(factor, word, cyclic)
    u, v = rotation(x, cut1), rotation(x, cut2)
    p, s = naive_lcp(v, u), naive_lcp(u[::-1], v[::-1])
    if claim == "dft_bound":
        return n - 2, p + s
    if claim == "distinct_count":
        windows = {word[j : j + n] for j in range(len(word) - n + 1)}
        return 2 * n - p - s - 1, len(windows)
    if claim == "dichotomy":
        return 1, sum(1 for k in range(n) if rotation(x, k) == factor)
    raise ValueError(f"unknown claim {claim!r}")


def parse_verify_output(text: str) -> tuple[dict, list[tuple]]:
    """Claim lines {id: (status, checked)} and witnesses [(claim, fields...)]."""
    claims, witnesses, current = {}, [], None
    for line in text.splitlines():
        m = _CLAIM_LINE.match(line)
        if m:
            current = m.group(1)
            claims[current] = (m.group(2), int(m.group(3)))
            continue
        m = _WITNESS_LINE.match(line)
        if m and current is not None:
            x, c1, c2, e1, e2, factor, exp, act = m.groups()
            witnesses.append(
                (current, x, int(c1), int(c2), int(e1), int(e2), factor,
                 int(exp), int(act))
            )
    return claims, witnesses


class VerifyOp:
    """One `repcore verify` run through repcore.cli.main with stdout captured."""

    kind = "verify"

    def __init__(self, workload: str):
        self.cfg = VERIFY[workload]
        self.argv = self.cfg["argv"]
        self.units = self.cfg["specs"]

    def run(self) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = repcore.cli.main(self.argv)
        return code, buf.getvalue()

    def check(self, output: tuple[int, str]) -> list[str]:
        code, text = output
        problems = []
        if code != self.cfg["exit_code"]:
            problems.append(f"exit code {code}, expected {self.cfg['exit_code']}")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != self.cfg["stdout_sha256"]:
            problems.append(f"stdout digest {digest} differs from the recorded one")
        claims, witnesses = parse_verify_output(text)
        if not claims:
            problems.append("no claim lines in verify output")
        for claim, x, c1, c2, e1, e2, factor, exp, act in witnesses:
            want = recount_witness(claim, x, c1, c2, e1, e2, factor)
            if want != (exp, act) or exp == act:
                problems.append(
                    f"{claim} witness x={x} cut1={c1} cut2={c2} e1={e1} e2={e2}"
                    f" factor={factor!r}: printed {exp}/{act}, recount {want}"
                )
        return problems


# --------------------------------------------------------------------------
# locate-parse and locate-scan workloads

PARSE_WORDS = 120
PARSE_MIN_LEN, PARSE_MAX_LEN = 60, 500
X_LENGTHS = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48)
# (|x|, alphabet size, text length) per scan; cost grows with |x|·|text|.
SCAN_PLAN = (
    (4, 2, 128_000),
    (8, 3, 112_000),
    (16, 2, 96_000),
    (32, 3, 80_000),
    (64, 2, 64_000),
)
SCAN_DELETIONS = 4


def random_primitive(rng: random.Random, n: int, k: int) -> str:
    while True:
        x = "".join(rng.choice(LETTERS[:k]) for _ in range(n))
        if naive_primitive(x):
            return x


def planted_word(rng: random.Random, i: int) -> tuple:
    """The i-th parse input: (x, cut1, cut2, e1, e2).

    Length, |x|, alphabet and form are set by i, so every seed draws the same
    mix of sizes and parse cost stays comparable across seeds; the seed picks
    the letters, the cuts and how the exponent sum splits.  Every sixth word
    is a degenerate run: x starts with a run of a's and the deleted factor
    sits inside it, so the deletion can slide and the word has several parses.
    """
    target = PARSE_MIN_LEN + (PARSE_MAX_LEN - PARSE_MIN_LEN) * i // (PARSE_WORDS - 1)
    k = 2 + i % 2
    n = min(X_LENGTHS[i % len(X_LENGTHS)], target // 3)
    form = i % 6
    if form == 5:
        n = max(n, 3)
        run = max(2, n // 2)
        tail = rng.choice(LETTERS[1:k]) + "".join(
            rng.choice(LETTERS[:k]) for _ in range(n - run - 1)
        )
        x = "a" * run + tail
        d = rng.randrange(1, run)
        cut1 = rng.randrange(0, run - d + 1)
        cut2 = cut1 + d
    else:
        x = random_primitive(rng, n, k)
        if form < 3:  # prefix form
            cut1, cut2 = rng.randrange(1, n), n
        else:  # deletion form
            cut1 = rng.randrange(0, n - 1)
            cut2 = rng.randrange(cut1 + 1, n)
    e_sum = max(3, round((target - cut1 - (n - cut2)) / n))
    e1 = rng.randrange(1, e_sum)
    return x, cut1, cut2, e1, e_sum - e1


def planted_text(rng: random.Random, x: str, total: int) -> tuple[str, list[int]]:
    """A period-x text of the given length with SCAN_DELETIONS planted deletions.

    Returns the text and the junctions: position j where the text switches
    from one phase of x to another after deleting 1..|x|-1 symbols.
    """
    n = len(x)
    pieces = SCAN_DELETIONS + 1
    junctions = [
        k * total // pieces + rng.randrange(-total // (4 * pieces), total // (4 * pieces))
        for k in range(1, pieces)
    ]
    phase, pos, parts = rng.randrange(n), 0, []
    for end in junctions + [total]:
        parts.append(periodic(x, phase, end - pos))
        phase = (phase + (end - pos) + rng.randrange(1, n)) % n
        pos = end
    return "".join(parts), junctions


class ParseOp:
    kind = "parse"

    def __init__(self, planted: tuple):
        self.planted = planted
        self.word = naive_build(*planted)
        self.units = len(self.word)
        self.expected = naive_parses(self.word)

    def run(self):
        return repcore.locate.parses(self.word)

    def check(self, output) -> list[str]:
        got = [
            (p.spec.split.x, p.spec.split.cut1, p.spec.split.cut2, p.spec.e1, p.spec.e2)
            for p in output
        ]
        problems = []
        for parse, p in zip(got, output):
            if naive_build(*parse) != self.word or p.core.word != self.word:
                problems.append(f"parse {parse} does not rebuild |word|={self.units}")
        if self.planted not in got:
            problems.append(f"planted {self.planted} missing from the parses")
        if got != self.expected:
            problems.append(
                f"{len(got)} parses of |word|={self.units},"
                f" expected {len(self.expected)} in canonical order"
            )
        return problems


class ScanOp:
    kind = "scan"

    def __init__(self, x: str, text: str, junctions: list[int]):
        self.x, self.text, self.junctions = x, text, junctions
        self.units = len(text)

    def run(self):
        return repcore.locate.periodic_segments(self.text, self.x)

    def check(self, output) -> list[str]:
        x, text, n, total = self.x, self.text, len(self.x), len(self.text)
        segs = [(s.start, s.end, s.phase) for s in output.segments]
        problems = []
        for start, end, phase in segs:
            if end - start < n or text[start:end] != periodic(x, phase, end - start):
                problems.append(f"segment {start}-{end} phase {phase} is not periodic")
            elif start > 0 and text[start - 1] == x[(phase - 1) % n]:
                problems.append(f"segment {start}-{end} extends to the left")
            elif end < total and text[end] == x[(phase + end - start) % n]:
                problems.append(f"segment {start}-{end} extends to the right")
        if segs != sorted(segs, key=lambda s: s[0]):
            problems.append("segments not sorted by start")
        covered = 0
        for start, end, _ in sorted(segs):
            if start > covered:
                break
            covered = max(covered, end)
        if covered < total:
            problems.append(f"segments leave position {covered} uncovered")
        for j in self.junctions:
            if any(s <= j - n and e >= j + n for s, e, _ in segs):
                problems.append(f"a segment runs through the deletion at {j}")
            if not any(s < j and j <= e < j + n for s, e, _ in segs):
                problems.append(f"no segment ends at the deletion at {j}")
            if not any(j - n < s <= j < e for s, e, _ in segs):
                problems.append(f"no segment starts at the deletion at {j}")
        jumps = [(p.left_end, p.right_start, p.deleted_mod) for p in output.jumps]
        want = [
            (a[1], b[0], (b[2] - a[2] - (b[0] - a[0])) % n)
            for a, b in zip(segs, segs[1:])
        ]
        if jumps != want:
            problems.append("phase jumps do not match consecutive segments")
        return problems


def parse_inputs(seed: int) -> list[tuple]:
    """The planted parse specs of locate-parse, from the seed only."""
    rng = random.Random(seed)
    return [planted_word(rng, i) for i in range(PARSE_WORDS)]


def scan_inputs(seed: int) -> list[tuple]:
    """The scans (x, text, junctions) of locate-scan, from the seed only."""
    rng = random.Random(seed)
    scans = []
    for n, k, total in SCAN_PLAN:
        x = random_primitive(rng, n, k)
        text, junctions = planted_text(rng, x, total)
        scans.append((x, text, junctions))
    return scans


def inputs_sha256(inputs) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()


def make_ops(workload: str, seed: int) -> tuple[list, str]:
    """(one round of operations, input digest) for the workload."""
    if workload in VERIFY:
        argv = VERIFY[workload]["argv"]
        return [VerifyOp(workload)], inputs_sha256(argv)
    if workload == "locate-parse":
        words = parse_inputs(seed)
        ops = [ParseOp(w) for w in words]
        random.Random(seed + 1).shuffle(ops)  # mix sizes between reference timings
        return ops, inputs_sha256(words)
    if workload == "locate-scan":
        scans = scan_inputs(seed)
        return [ScanOp(*scan) for scan in scans], inputs_sha256(scans)
    raise ValueError(f"unknown workload {workload!r}")
