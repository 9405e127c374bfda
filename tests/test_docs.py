"""The README's Python examples and the package's module doctests run."""

import doctest
from pathlib import Path

import pytest

import forestry
from forestry import permutations

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize("module", [forestry, permutations], ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
