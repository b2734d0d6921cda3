import doctest
import os

import frobcirc

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def test_readme_examples_run():
    result = doctest.testfile(README, module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_public_names_resolve_once():
    assert len(set(frobcirc.__all__)) == len(frobcirc.__all__)
    for name in frobcirc.__all__:
        assert hasattr(frobcirc, name), name
