"""tools/loc.py counts wc -l lines and code lines: lines holding a token
other than a comment, a docstring or a newline."""

import importlib.util
from pathlib import Path

LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

SOURCE = '''"""Module docstring,
on two lines."""
import os  # a comment on a code line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        x = """not a docstring,
        but a value"""
        "a later string statement counts too"
        return (x +
                os.sep)
'''


def test_counts_lines_and_code_lines():
    spec = importlib.util.spec_from_file_location("loc", LOC)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    # code: import, class, def, the two lines of x, the string statement,
    # and the two lines of the return
    assert loc.count(SOURCE) == (17, 8)
