"""tools/code_lines.py on a small source with a known count."""

import importlib.util
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# code lines: 4, 8, 10, 11, 12, 15, 17, 18, 19 and 21; the module,
# function and class docstrings, the comments and the blank lines do
# not count, while the multi-line string statement on 17-19, not a
# docstring, does
SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment

# a comment line

def area(r):
    """Function docstring."""
    return (math.pi
            * r
            * r)


class Shape:
    """Class docstring."""
    note = """a class attribute
    over three lines
    """

    x = 1
'''


def test_counts_a_known_source():
    assert code_lines.count(SOURCE) == (10, 21)


def test_prints_rows_and_a_total(tmp_path):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text(SOURCE)
    two.write_text("x = 1\n\n")
    proc = subprocess.run([sys.executable, str(_PATH), str(one), str(two)],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows == [["10", "21", str(one)], ["1", "2", str(two)],
                    ["11", "23", "total"]]
