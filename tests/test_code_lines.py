import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment counts its line

# A comment line.


class Unit:
    """Class docstring."""

    size = (
        1,
        2,
    )

    def area(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return math.pi * self.size[0] ** 2, text
'''


def test_counts_code_lines_only():
    # import, class, size = (, 1, 2, ), def, text = """, its second line
    # and return: the docstrings, the comment line and blank lines drop out.
    assert code_lines.code_lines(SNIPPET) == 10


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["10", "2", "12"]
    assert out[-1].split()[1] == "total"
