"""tools/code_lines.py counts the lines that hold a code token."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""
# a comment line

import math  # a trailing comment


def f(x):
    """Function docstring."""
    text = """a multi-line string
    that is not a docstring
    """
    return math.sqrt(x) + len(text)


class C:
    """Class docstring,

    with a blank line inside."""

    y = (1 +
         2)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_comments_docstrings_and_blank_lines():
    # import, def, the string's three lines, return, class, and the two
    # lines of y
    assert _tool().code_lines(SOURCE) == 9


def test_code_lines_main_prints_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["10", "total"]
