"""Span tracing for the traced benchmark run.

The tracer never edits repcore's source.  `install` swaps the names each
repcore module imports (for example `repcore.verify.occurrences` or
`repcore.locate.build`) for timing wrappers, and `uninstall` puts the
originals back.  Each wrapper records a span (id, parent, root, name, start,
end) and a call count.  A span's self time is its duration minus the
durations of its direct child spans; spans on one thread nest, so that is
the time the children cover.

Spans stay in memory (up to MAX_SPANS per tracer; the rest are only aggregated and
counted as dropped) and are written out from `Tracer.to_json` at the end.

Pool workers are forked with the wrappers already in place.  The traced
pool runs each chunk through `_pool_task`, which resets the worker's copy of
the tracer, runs the chunk and returns the worker's aggregates with the
result, so worker time and counts are merged into the parent's totals.
Individual worker spans are not shipped back.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import time
from array import array
from concurrent.futures import ProcessPoolExecutor

_clock = time.perf_counter
MAX_SPANS = 100_000


class Tracer:
    """Span recorder with per-name call counts, self time and free counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts: dict[str, float] = {}
        self.stack: list[list] = []
        self.next_id = 0
        self.dropped = 0
        # One entry per kept span: id, parent id (0 for a root), root id,
        # name index, start, end.
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_root = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")

    def key(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def push(self, key: int) -> list:
        self.next_id += 1
        stack = self.stack
        if stack:
            top = stack[-1]
            frame = [self.next_id, top[0], top[2], 0.0, key]
        else:
            frame = [self.next_id, 0, self.next_id, 0.0, key]
        stack.append(frame)
        return frame

    def pop(self, frame: list, start: float, end: float) -> None:
        stack = self.stack
        stack.pop()
        duration = end - start
        key = frame[4]
        self.calls[key] += 1
        self.self_s[key] += duration - frame[3]
        if stack:
            stack[-1][3] += duration
        if len(self.span_id) < MAX_SPANS:
            self.span_id.append(frame[0])
            self.span_parent.append(frame[1])
            self.span_root.append(frame[2])
            self.span_name.append(key)
            self.span_start.append(start)
            self.span_end.append(end)
        else:
            self.dropped += 1

    def snapshot(self) -> dict:
        """Aggregates only, small enough to send back from a pool worker."""
        return {
            "layers": {
                name: (self.calls[k], self.self_s[k])
                for name, k in self._ids.items()
                if self.calls[k]
            },
            "counts": dict(self.counts),
        }

    def merge(self, snap: dict) -> None:
        for name, (calls, self_s) in snap["layers"].items():
            k = self.key(name)
            self.calls[k] += calls
            self.self_s[k] += self_s
        for counter, value in snap["counts"].items():
            self.add(counter, value)

    def layer(self, name: str) -> tuple[int, float]:
        k = self._ids.get(name)
        return (0, 0.0) if k is None else (self.calls[k], self.self_s[k])

    def to_json(self) -> dict:
        """Every kept span plus the aggregates, for writing out at the end."""
        return {
            "names": self.names,
            "columns": ["id", "parent", "root", "name", "start", "end"],
            "spans": [
                list(row)
                for row in zip(
                    self.span_id,
                    self.span_parent,
                    self.span_root,
                    self.span_name,
                    self.span_start,
                    self.span_end,
                )
            ],
            "dropped_spans": self.dropped,
            "aggregates": self.snapshot(),
        }


def wrap_call(tracer: Tracer, name: str, fn, hook=None):
    """fn with a span named `name` around every call; hook(tracer, result) after."""
    key = tracer.key(name)
    push, pop = tracer.push, tracer.pop

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = push(key)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            pop(frame, start, _clock())
        if hook is not None:
            hook(tracer, result)
        return result

    wrapper.tracer = tracer
    return wrapper


def wrap_generator(tracer: Tracer, name: str, fn, item_counter: str):
    """Generator function fn with a span around every resume; counts items."""
    key = tracer.key(name)
    push, pop = tracer.push, tracer.pop

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            frame = push(key)
            start = _clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                pop(frame, start, _clock())
            tracer.add(item_counter, 1)
            yield item

    wrapper.tracer = tracer
    return wrapper


def _pool_task(module: str, name: str, arg):
    """Worker side of TracedPool: run one chunk and report the worker's trace."""
    fn = getattr(importlib.import_module(module), name)
    tracer = getattr(fn, "tracer", None)
    if tracer is not None:
        tracer.reset()
    result = fn(arg)
    nbytes = len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
    return result, (tracer.snapshot() if tracer is not None else None), nbytes


class TracedPool(ProcessPoolExecutor):
    """ProcessPoolExecutor whose map counts chunks, result bytes and wait time."""

    def __init__(self, tracer: Tracer, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tracer = tracer

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        futures = [
            self.submit(_pool_task, fn.__module__, fn.__name__, *args)
            for args in zip(*iterables)
        ]
        self._tracer.add("verify.pool.chunks", len(futures))
        return self._results(futures)

    def _results(self, futures):
        tracer = self._tracer
        key = tracer.key("verify.pool.wait")
        for fut in futures:
            frame = tracer.push(key)
            start = _clock()
            try:
                result, snap, nbytes = fut.result()
            finally:
                end = _clock()
                tracer.pop(frame, start, end)
            tracer.add("verify.pool.wait_s", end - start)
            tracer.add("verify.pool.result_bytes", nbytes)
            if snap is not None:
                tracer.merge(snap)
            yield result


def _count_symbols(tracer, result):
    tracer.add("words.power_prefix.symbols", len(result))


def _count_locate_build(tracer, result):
    tracer.add("locate.build_calls", 1)


def _count_parses(tracer, result):
    tracer.add("locate.parses.found", len(result))


def _count_segments(tracer, result):
    tracer.add("locate.periodic_segments.segments", len(result.segments))


def _count_violations(tracer, result):
    tracer.add("verify.violations_built", sum(len(v) for _, v in result.values()))


def _count_reported(tracer, result):
    tracer.add("verify.witnesses_reported", sum(len(r.counterexamples) for r in result))


# (module, imported name, span name, hook).  Each row swaps one module-level
# name, so a function imported into several modules gets one wrapper per
# importing module, all recording under the same span name.
CALL_PATCHES = [
    ("repcore.words", "occurrences", "words.occurrences", None),
    ("repcore.verify", "occurrences", "words.occurrences", None),
    ("repcore.locate", "occurrences", "words.occurrences", None),
    ("repcore.verify", "cyclic_occurrences", "words.cyclic_occurrences", None),
    ("repcore.words", "is_primitive", "words.is_primitive", None),
    ("repcore.interrupts", "is_primitive", "words.is_primitive", None),
    ("repcore.locate", "is_primitive", "words.is_primitive", None),
    ("repcore.locate", "power_prefix", "words.power_prefix", _count_symbols),
    ("repcore.verify", "core", "interrupts.core", None),
    ("repcore.locate", "core", "interrupts.core", None),
    ("repcore.verify", "anchor_windows", "interrupts.anchor_windows", None),
    ("repcore.verify", "classify_window", "interrupts.classify_window", None),
    ("repcore.interrupts", "build", "interrupts.build", None),
    ("repcore.locate", "build", "interrupts.build", _count_locate_build),
    ("repcore.verify", "_eval_chunk", "verify.eval_chunk", _count_violations),
    ("repcore.cli", "run", "verify.run", _count_reported),
    ("repcore.locate", "parses", "locate.parses", _count_parses),
    ("repcore.locate", "periodic_segments", "locate.periodic_segments",
     _count_segments),
    ("repcore.cli", "main", "cli.main", None),
]
GENERATOR_PATCHES = [
    ("repcore.verify", "enumerate_specs", "verify.enumerate_specs", "verify.specs"),
]


def install(tracer: Tracer) -> list:
    """Swap every patched name for its wrapper; returns what uninstall needs.

    A name the program no longer has is skipped and listed in
    tracer.missing, so a later refactor leaves its metrics at 0 instead of
    breaking the traced run.
    """
    swaps = [(m, a, lambda f, n=n, h=h: wrap_call(tracer, n, f, h))
             for m, a, n, h in CALL_PATCHES]
    swaps += [(m, a, lambda f, n=n, c=c: wrap_generator(tracer, n, f, c))
              for m, a, n, c in GENERATOR_PATCHES]
    swaps.append(("repcore.verify", "ProcessPoolExecutor",
                  lambda f: functools.partial(TracedPool, tracer)))
    undo = []
    for module, attr, make in swaps:
        mod = importlib.import_module(module)
        original = getattr(mod, attr, None)
        if original is None:
            tracer.missing.append(f"{module}.{attr}")
            continue
        undo.append((mod, attr, original))
        setattr(mod, attr, make(original))
    return undo


def uninstall(undo: list) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)
