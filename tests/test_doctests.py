import doctest

import repcore.interrupts
import repcore.locate
import repcore.verify
import repcore.words


def test_docstring_examples():
    for module in (repcore.words, repcore.interrupts, repcore.locate, repcore.verify):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0 or module is repcore.locate
