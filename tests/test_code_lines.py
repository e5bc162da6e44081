import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Plate:
    """Class docstring."""

    def area(self, r):
        """Function docstring
        over two lines.
        """
        text = """a string that is
        not a docstring"""
        return (math.pi
                * r * r)
'''


def test_counts_tokens_without_docstrings_comments_or_blanks():
    # import, class, def, the two-line string, the two-line return
    assert code_lines.code_lines(SOURCE) == 7


def test_counts_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[-1] for row in rows] == ["7", "1", "8"]
