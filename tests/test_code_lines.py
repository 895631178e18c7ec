import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code

# a comment line


def f(x):
    """A function docstring,
    two lines."""
    text = """a string
that is code"""
    return (x +
            1)


class C:
    """A class docstring."""
    y = "one line"
'''


def test_comments_docstrings_and_blank_lines_are_no_code():
    # code: import, def, both lines of text, return and its continuation,
    # class, y
    assert code_lines.count(SOURCE) == (20, 8)


def test_the_table_lists_each_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "20", "8"],
                    ["b.py", "2", "1"], ["total", "22", "9"]]
