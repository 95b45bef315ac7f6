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


def looked_up(owner, attr):  # what a call finds: a class's own entry, or a module's name
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def stage_medians(stages, capsys, argv):
    """The header line and {label: median} of one run of ``point_stages`` with ``argv``,
    checking that every stage of either user model is restored afterwards."""
    originals = [
        (owner, attr, looked_up(owner, attr))
        for model in stages.STAGES.values() for _, owner, attr in model
    ]
    assert stages.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    for owner, attr, original in originals:
        assert looked_up(owner, attr) is original
    return lines[0], {line[:22].strip(): float(line[22:]) for line in lines[1:]}


def test_point_stages_times_every_stage_and_restores_the_library(capsys):
    stages = load("point_stages")
    argv = ["--n", "4", "--user", "3.3", "-2", "--calls", "3"]
    header, medians = stage_medians(stages, capsys, argv)
    assert header == "# N = 4, user (3.3, -2), median of 3 points"
    assert list(medians) == [
        "params", "layout", "refine_all", "_fixed_columns", "of which snr_bounds",
        "amplitudes", "_snrs", "reports", "point", "render_sweep_csv",
    ]
    assert all(value > 0.0 for value in medians.values())
    assert medians["of which snr_bounds"] < medians["_fixed_columns"] < medians["point"]


def test_point_stages_times_the_monte_carlo_point(capsys):
    stages = load("point_stages")
    config = TOOLS.parent / "configs" / "capacity_vs_region_width.cfg"
    argv = ["--config", str(config), "--n", "4", "--calls", "3"]
    header, medians = stage_medians(stages, capsys, argv)
    assert header == "# N = 4, 10000 uniform users, seed 424242, median of 3 points"
    assert list(medians) == [
        "uniform_pairs", "params", "layout", "refine_batch", "of which amplitudes", "_snrs",
        "reports", "point", "render_sweep_csv",
    ]
    assert all(value > 0.0 for value in medians.values())
    assert medians["of which amplitudes"] < medians["refine_batch"] < medians["point"]
