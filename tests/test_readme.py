"""The Python example in README.md runs as a doctest, so the documented
calls and outputs (``cert.reduced.entries`` among them) stay true."""

import doctest
from pathlib import Path


def test_readme_example():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
