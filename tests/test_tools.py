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


def test_point_stages_times_every_stage_and_restores_the_library(capsys):
    stages = load("point_stages")

    def looked_up(owner, attr):  # what a call finds: a class's own entry, or a module's name
        return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)

    originals = [(owner, attr, looked_up(owner, attr)) for _, owner, attr in stages.STAGES]
    assert stages.main(["--n", "4", "--user", "3.3", "-2", "--calls", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# N = 4, user (3.3, -2), median of 3 points"
    medians = {line[:22].strip(): float(line[22:]) for line in lines[1:]}
    assert list(medians) == [
        "params", "layout", "refine_all", "_fixed_columns", "of which snr_bounds",
        "amplitudes", "_snrs", "reports", "point", "render_sweep_csv",
    ]
    assert all(value > 0.0 for value in medians.values())
    assert medians["of which snr_bounds"] < medians["_fixed_columns"] < medians["point"]
    for owner, attr, original in originals:
        assert looked_up(owner, attr) is original
