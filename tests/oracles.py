"""Independent brute-force oracles used to cross-check the library.

Everything here recomputes results from first principles (plain slicing and
full enumeration), deliberately ignoring the library's shortcuts.
"""

from collections import Counter
from itertools import product

from repcore import ClaimId, DeletionSplit, InterruptSpec, build
from repcore.errors import EmptyPattern, EmptyWord, InvalidSpec, InvalidSplit
from repcore.interrupts import iter_splits
from repcore.verify import (
    _CLAIMS,
    ClaimReport,
    Witness,
    _SplitContext,
    _Stats,
    applies,
    exponent_pairs,
)
from repcore.words import primitive_words


def lcp_naive(a, b):
    i = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        i += 1
    return i


def lcs_naive(a, b):
    return lcp_naive(a[::-1], b[::-1])


def period_breaks_naive(text, n):
    """Every k < |text| - n with text[k] != text[k + n], one symbol at a time."""
    return [k for k in range(len(text) - n) if text[k] != text[k + n]]


def is_primitive_naive(w):
    n = len(w)
    return not any(n % p == 0 and w[:p] * (n // p) == w for p in range(1, n))


def occurrences_naive(pattern, text):
    """Quadratic slice-comparison oracle for occurrences; used to cross-check."""
    m = len(pattern)
    if m == 0:
        raise EmptyPattern("occurrences of empty pattern")
    return [j for j in range(len(text) - m + 1) if text[j : j + m] == pattern]


def is_primitive_by_square(w):
    """Primitivity via the square test: w occurs in w+w only at 0 and |w|.

    Independent of is_primitive; the two must agree on every word.
    """
    if not w:
        raise EmptyWord("is_primitive_by_square of empty word")
    return occurrences_naive(w, w + w) == [0, len(w)]


def core_by_definition(x, cut, e1, e2):
    """Prefix-form core evaluated verbatim: p-tilde from x1x2, s-tilde from x2x1.

    Returns (p_len, s_len, p_tilde, s_tilde, core).
    """
    x1, x2 = x[:cut], x[cut:]
    a, b = x1 + x2, x2 + x1
    p = lcp_naive(a, b)
    s = lcs_naive(a, b)
    return p, s, a[: p + 1], b[len(b) - s - 1 :], b[len(b) - s - 1 :] + a[: p + 1]


def core_by_continuation(spec):
    """General-form core recovered from the built word itself.

    Scans W forward from the junction against the expected continuation
    (the periodic extension of the left part) and backward against the
    actual continuation's phase, then cuts the core out of W.

    Returns (p_len, s_len, core, core_start, core_end, junction).
    """
    split = spec.split
    x, n = split.x, len(split.x)
    w = build(spec)
    junction = spec.e1 * n + split.cut1

    p = 0
    while w[junction + p] == x[(junction + p) % n]:
        p += 1

    v = x[split.cut2 :] + x[: split.cut2]
    s = 0
    while w[junction - 1 - s] == v[(n - 1 - s) % n]:
        s += 1

    return p, s, w[junction - s - 1 : junction + p + 1], junction - s - 1, junction + p + 1, junction


def parses_bruteforce(word, forms="both"):
    """All spec tuples rebuilding the word, by dumb enumeration.

    Since W = x^e1 x1 x3 x^e2 with e1 >= 1, x must be a prefix of the word;
    beyond that, every (cut1, cut2, e1) combination is tried and checked by
    rebuilding the full string.  Exponent sums below the model's minimum are
    left to InterruptSpec to reject.
    """
    total = len(word)
    out = []
    for n in range(1, total + 1):
        x = word[:n]
        for cut1 in range(n + 1):
            for cut2 in range(cut1 + 1, n + 1):
                if forms == "prefix" and cut2 != n:
                    continue
                if forms == "deletion" and cut2 == n:
                    continue
                body = total - cut1 - (n - cut2)
                if body < 0 or body % n:
                    continue
                e_sum = body // n
                for e1 in range(1, e_sum):
                    try:
                        spec = InterruptSpec(
                            DeletionSplit(x, cut1, cut2), e1, e_sum - e1
                        )
                    except (InvalidSplit, InvalidSpec):
                        continue
                    if build(spec) == word:
                        out.append(spec)
    return out


def anchored_windows_naive(spec):
    """Length-|x| windows of W containing the core interval, as (position, factor).

    The core interval comes from core_by_continuation; the windows are cut
    from W by slicing and clipped to the positions W actually has.
    """
    n = len(spec.split.x)
    _, _, _, start, end, _ = core_by_continuation(spec)
    w = build(spec)
    return [
        (j, w[j : j + n]) for j in range(len(w) - n + 1) if j <= start and j + n >= end
    ]


def count_naive(factor, word):
    """Occurrences of factor in word, counted by comparing every slice."""
    m = len(factor)
    return sum(word[j : j + m] == factor for j in range(len(word) - m + 1))


def evaluate_naive(claim, spec):
    """(assertions evaluated, violations) for one claim on one spec, from scratch.

    The claim statements read verbatim: the core comes from
    core_by_continuation, every count compares slices of W (cyclic ones
    slice a rotation of W), and a window is a rotation of x when it equals
    one of the |x| rotations.  Violations are in factor-lexicographic order.
    The form check (theorem1 vs theorem1_deletion) is left to the caller.
    """
    x = spec.split.x
    n = len(x)
    p, s, core, start, end, _ = core_by_continuation(spec)
    w = build(spec)
    e_total = spec.e1 + spec.e2

    def mismatches(factors, pool, expected):
        counts = [(f, pool.count(f)) for f in factors]
        return [Witness(spec, f, expected, c) for f, c in counts if c != expected]

    if claim is ClaimId.DFT_BOUND:
        return 1, [Witness(spec, "", n - 2, p + s)] if p + s > n - 2 else []
    if claim is ClaimId.NOTE2_LINEAR:
        if p + s != n - 2:
            return 0, []
        short = [w[j : j + n - 1] for j in range(len(w) - n + 2)]
        # The core minus its two outer symbols: s_tilde[1:] + p_tilde[:-1].
        factors = [f for f in sorted(set(short)) if core[1:-1] in f]
        return len(factors), mismatches(factors, short, e_total)

    windows = [w[j : j + n] for j in range(len(w) - n + 1)]
    if claim is ClaimId.DISTINCT_COUNT:
        distinct, expected = len(set(windows)), 2 * n - p - s - 1
        bad = distinct != expected
        return 1, [Witness(spec, "", expected, distinct)] if bad else []
    # The windows containing the core interval, as in anchored_windows_naive.
    anchored = sorted(
        {f for j, f in enumerate(windows) if j <= start and j + n >= end}
    )
    others = sorted(
        {f for j, f in enumerate(windows) if not (j <= start and j + n >= end)}
    )
    if claim in (ClaimId.THEOREM1, ClaimId.THEOREM1_DELETION):
        return len(anchored), mismatches(anchored, windows, 1)
    if claim is ClaimId.DICHOTOMY:
        rotations = {x[k:] + x[:k] for k in range(n)}
        return len(windows), [
            Witness(spec, f, 1, 0) for f in others if f not in rotations
        ]
    if claim is ClaimId.NOTE3_LINEAR:
        return len(others), mismatches(others, windows, e_total)

    cyclic = [(w[j:] + w[:j])[:n] for j in range(len(w))]
    if claim is ClaimId.CORE_CYCLIC_UNIQUE:
        return len(anchored), mismatches(anchored, cyclic, 1)
    if claim is ClaimId.NOTE3_CYCLIC:
        return len(others), mismatches(others, cyclic, e_total)
    raise AssertionError(f"unhandled claim {claim}")


class WindowScan:
    """A split's stats, dichotomy and distinct count read from all of W0's windows.

    The slow twin of repcore.verify._SplitContext: the same attributes and
    count the claims' per_sums read, built with no record and no guard.
    p and s come from lcp_naive and lcs_naive, W0 = x·x1·x3·x·x (word) is
    built and sliced into every window, the non-anchored windows are all of
    those outside lo..hi-1, and dichotomy and distinct_count read them as
    the claims state them.
    """

    def __init__(self, x, cut1, cut2):
        self.x, self.cut1, self.cut2 = x, cut1, cut2
        self.n = n = len(x)
        self.xx = xx = x + x
        u, v = xx[cut1 : cut1 + n], xx[cut2 : cut2 + n]
        self.p, self.s = p, s = lcp_naive(v, u), lcs_naive(u, v)
        self.word = word = x + x[:cut1] + x[cut2:] + xx
        self.lo, self.hi = lo, hi = cut1 + p + 1, n + cut1 - s
        self.windows = [word[j : j + n] for j in range(len(word) - n + 1)]
        self.anchored = set(self.windows[lo:hi])
        self.non_anchored = set(self.windows[:lo]) | set(self.windows[hi:])
        self.hist = Counter(self.windows)
        self.short = [word[j : j + n - 1] for j in range(len(word) - n + 2)]
        # the core without its two outer symbols, in the boundary case only
        inner = word[n + cut1 - s : n + cut1 + p]
        self.note2 = {f for f in self.short if inner in f} if p + s == n - 2 else set()
        self.stats = _Stats(1, len(self.anchored), n, cut2 - cut1, len(self.note2))

    def count(self, f):
        """Occurrences of f in W0, read from hist or short by its length."""
        return self.hist[f] if len(f) == self.n else self.short.count(f)

    def dichotomy(self, s):
        """Non-anchored windows that are no rotation of x."""
        rotations = {self.xx[k : k + self.n] for k in range(self.n)}
        return [(f, 1, 0) for f in sorted(self.non_anchored - rotations)]

    def distinct_count(self, s):
        distinct = len(set(self.windows))
        expected = 2 * self.n - self.p - self.s - 1
        return [("", expected, distinct)] if distinct != expected else []


def phase_segments_naive(text, x):
    """Maximal phase runs of length >= |x|, as (start, end, phase) sorted by start.

    A run with phase f starting at i reads x[f], x[f+1], ... (indices mod |x|)
    until the text disagrees; it is kept when it is at least |x| long and the
    symbol before i (if any) does not continue the same phase backwards.
    """
    n = len(x)
    out = []
    for i in range(len(text)):
        for f in range(n):
            if i > 0 and text[i - 1] == x[(f - 1) % n]:
                continue
            k = i
            while k < len(text) and text[k] == x[(f + k - i) % n]:
                k += 1
            if k - i >= n:
                out.append((i, k, f))
    return out


def classes_naive(universe, part=0, parts=1):
    """repcore.verify._classes by brute force: (x, g, pairs) per class.

    Every word of each length with splits, in lexicographic order, that is
    first-use and a Lyndon word (smaller than each of its other rotations)
    gets the next index; the part keeps those whose index i has
    i % parts == part.  Every rotation of x, and every rotation of x^R, is
    renamed to first-use letters, none skipped: x represents its class when
    no renamed rotation sorts before it, g is the smallest rotation that
    renames to x (|x| if none does), and the class is kept when no renamed
    rotation of x^R sorts before x, with pairs 2 when all sort after it.
    """

    alphabet = "abcdefghijklmnopqrstuvwxyz"

    def first_use(w):
        used = "".join(dict.fromkeys(w))
        return w.translate(str.maketrans(used, alphabet[: len(used)]))

    index = -1
    for n in range(universe.min_x, universe.max_x + 1):
        if not any(iter_splits(n, universe.forms)):
            continue
        for letters in product(alphabet[: universe.alphabet_size], repeat=n):
            x = "".join(letters)
            turns = [x[r:] + x[:r] for r in range(n)]
            if first_use(x) != x or any(t <= x for t in turns[1:]):
                continue
            index += 1
            if index % parts != part:
                continue
            named = [first_use(t) for t in turns]
            back = min(first_use(t[::-1]) for t in turns)
            if min(named) == x and back >= x:
                g = named.index(x, 1) if x in named[1:] else n
                yield x, g, 1 + (back > x)


def run_full(universe, claims=None, max_violations=10, jobs=1, max_checks=None):
    """repcore.verify.run by full enumeration: every primitive x, no orbits.

    The splits of every primitive word, in canonical order, are cut into
    contiguous chunks; each chunk keeps its first max_violations witnesses
    per claim in spec-then-factor order, and the chunks' lists are
    concatenated.  Claims are evaluated by
    repcore.verify's claim table on each word itself, its count asked for
    one split at a time, so this checks the orbit reduction, the per-form
    sums of the split stats, the renamed witnesses and the key merge;
    evaluate_naive checks the claims.  max_checks is ignored.
    """
    wanted = set(ClaimId if claims is None else claims)
    claim_list = [c for c in ClaimId if c in wanted]
    pairs = exponent_pairs(universe.e_sums)
    splits = [
        DeletionSplit(x, cut1, cut2)
        for n in range(universe.min_x, universe.max_x + 1)
        for x in primitive_words(n, universe.alphabet_size)
        for cut1, cut2 in iter_splits(n, universe.forms)
    ]
    size = max(1, -(-len(splits) // (jobs * 8)))
    checked = dict.fromkeys(claim_list, 0)
    witnesses = {c: [] for c in claim_list}
    for lo in range(0, len(splits), size):
        kept = {c: [] for c in claim_list}
        for split in splits[lo : lo + size]:
            ctx = _SplitContext(split.x, split.cut1, split.cut2)
            specs = [InterruptSpec(split, e1, e2) for e1, e2 in pairs]
            for c in claim_list:
                if not applies(c, specs[0]):
                    continue
                count, per_sum, _ = _CLAIMS[c]
                checked[c] += sum(count(ctx.stats, e1 + e2) for e1, e2 in pairs)
                for spec in specs:
                    # a claim with no per_sum (dft_bound) lists nothing
                    if per_sum is None or len(kept[c]) >= max_violations:
                        break
                    kept[c].extend(
                        Witness(spec, f, want, actual)
                        for f, want, actual in per_sum(ctx, spec.e1 + spec.e2)
                    )
                del kept[c][max_violations:]
        for c in claim_list:
            witnesses[c].extend(kept[c])
    reports = []
    for c in claim_list:
        found = witnesses[c]
        status = "not_applicable" if not checked[c] else "fails" if found else "holds"
        reports.append(
            ClaimReport(c, checked[c], status, tuple(found[:max_violations]))
        )
    return reports
