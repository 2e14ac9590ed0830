"""tools/code_lines.py: the code-line count quoted for src/oulab."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = b'''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment line
x = """a string
that is code"""


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return (1,
                2)
'''


def test_blanks_comments_and_docstrings_do_not_count():
    # import, the two lines of x, class, def and the two lines of return
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_bytes(SOURCE)
    (tmp_path / "pkg" / "b.py").write_bytes(b"y = 1\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["7", "1", "8"]
    assert lines[-1].split()[1] == "total"
