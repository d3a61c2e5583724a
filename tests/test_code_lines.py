"""The code-line counter of ``tools/code_lines.py`` on a small fixture package."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

MODULE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment does not hide the code

# a comment line


class Box:
    """Class docstring."""

    def area(self, side):
        """Function docstring,

        with a blank line inside."""
        text = """a string that is
not a docstring"""
        return math.pow(side, 2), text
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_blank_comment_and_docstring_lines(tmp_path):
    path = tmp_path / "box.py"
    path.write_text(MODULE)
    # import, class, def, the two lines of the string, return
    assert _tool().code_lines(path) == 6


def test_code_lines_totals_a_package(tmp_path, monkeypatch, capsys):
    (tmp_path / "box.py").write_text(MODULE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    (tmp_path / "two.py").write_text("x = 1\ny = (x,\n     2)\n")
    tool = _tool()
    monkeypatch.setattr(tool, "PACKAGE", tmp_path)
    assert tool.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["6", "box.py"], ["0", "empty.py"], ["3", "two.py"], ["9", "total"],
    ]
