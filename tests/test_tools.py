"""The repository's helper scripts under ``tools/``."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = '''"""Module docstring,
over two lines."""

# a comment
X = """a string that is not a docstring,
over two lines"""


class A:
    """Class docstring."""

    def f(self):  # a trailing comment
        """Function
        docstring."""
        return [
            1,  # inside brackets
        ]
'''
    # X's two lines, class, def, return, 1 and the closing bracket
    assert load("code_lines").code_lines(source) == 7
