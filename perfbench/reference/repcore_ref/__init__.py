"""A frozen copy of repcore's words, interrupts, verify, locate and errors
modules as they were when the benchmark was defined.

The benchmark times this copy between operations as its reference load, so
it must not follow later changes to src/repcore.  See perfbench/README.md.
"""
