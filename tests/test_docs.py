"""The README example and the package docstring, run as doctests."""

import doctest
import re
from pathlib import Path

import heatkernel

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)


def test_readme_example():
    # pins the printed values, kernel_eval(formula, 1.0) among them
    blocks = python_blocks(README.read_text())
    assert len(blocks) == 1
    test = doctest.DocTestParser().get_doctest(blocks[0], {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.attempted > 0 and result.failed == 0


def test_package_docstring():
    result = doctest.testmod(heatkernel)
    assert result.attempted > 0 and result.failed == 0
