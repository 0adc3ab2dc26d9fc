"""tools/loc.py counts wc -l lines and code lines: lines holding a token
other than a comment, a docstring or a newline."""

import importlib.util
import os
import subprocess
import sys
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


def _loc():
    spec = importlib.util.spec_from_file_location("loc", LOC)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    return loc


def test_counts_lines_and_code_lines():
    loc = _loc()
    # code: import, class, def, the two lines of x, the string statement,
    # and the two lines of the return
    assert loc.count(SOURCE) == (17, 8)


def test_the_module_column_fits_the_longest_name(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "a_module_name_of_thirty_six_chars.py").write_text("x = 1\n\ny = 2\n")
    assert _loc().main(["loc.py", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split() for row in rows] == [
        ["module", "lines", "code"],
        ["a.py", "1", "1"],
        ["a_module_name_of_thirty_six_chars.py", "3", "2"],
        ["total", "4", "3"],
    ]
    assert {len(row) for row in rows} == {len("a_module_name_of_thirty_six_chars.py") + 16}


def test_a_closed_stdout_stops_quietly(tmp_path):
    # the read end is closed before the child starts, so its write fails
    # with EPIPE for certain
    (tmp_path / "a.py").write_text("x = 1\n")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, str(LOC), str(tmp_path)],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")
