"""Interrupted repetitions in words.

Build W = x^e1 · x1 · x3 · x^e2 from a primitive period x with one deleted
factor, compute the core of the interrupt around the junction, verify the
uniqueness claim and its side claims exhaustively over small universes, and
locate interrupts in raw words.

The names below are the whole top-level API (the README's quick reference);
everything else lives in the submodules words, interrupts, verify, locate,
errors and cli.
"""

from . import errors
from .interrupts import DeletionSplit, InterruptSpec, anchor_windows, build, core
from .locate import locate_anchor, parses, periodic_segments
from .verify import ClaimId, Universe, check_claim, run
from .words import cyclic_occurrences, is_primitive, lcp, lcs, occurrences

__version__ = "0.1.0"

__all__ = [
    "errors",
    "DeletionSplit",
    "InterruptSpec",
    "build",
    "core",
    "anchor_windows",
    "Universe",
    "ClaimId",
    "run",
    "check_claim",
    "parses",
    "locate_anchor",
    "periodic_segments",
    "lcp",
    "lcs",
    "occurrences",
    "cyclic_occurrences",
    "is_primitive",
]
