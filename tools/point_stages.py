"""Per-stage median time of one sweep point, fixed user or Monte Carlo.

    python3 tools/point_stages.py [--config CFG] [--n N] [--user X Y] [--calls K]

Times K ``run_sweep`` calls of one sweep point, N PAs per waveguide (default
2), each followed by ``render_sweep_csv``, and prints the median
microseconds of each stage of the point.  A fixed-user config
(``configs/snr_vs_pa_count.cfg`` by default) is timed at its user, or at X Y:

- ``params``: ``ExperimentConfig.params_for_case``;
- ``layout``: ``WaveguideLayout.from_params``;
- ``refine_all``: ``placement.refine_all``;
- ``_fixed_columns``: ``experiments._fixed_columns``, and of it ``snr_bounds``;
- ``amplitudes``: the amplitude kernel ``pa_amplitudes`` as ``experiments`` calls it;
- ``_snrs``: ``experiments._snrs``;
- ``reports``: the rest of ``run_sweep``, the reports and their glue.

A uniform-user config (``perfbench/configs/mc_dense.cfg``, say) is timed
over its draws at its seed:

- ``uniform_pairs``: ``sampler.uniform_pairs``;
- ``params`` and ``layout`` as above;
- ``refine_batch``: ``placement.refine_batch``, the engine's walk with its
  fold, and of it ``amplitudes``, the kernel's calls from the fold;
- ``_snrs`` and ``reports`` as above.

Then come the whole point and ``render_sweep_csv``.  Each stage is timed
by replacing the name the library looks up at call time with a timing
wrapper, so every stage carries a wrapper's overhead, well under a
microsecond per call.  A name the library does not have is reported as
absent.  The library is imported from ``PYTHONPATH`` if it is there, else
from this checkout's ``src/``, so ``PYTHONPATH=../other/src python3
tools/point_stages.py`` times another checkout with the same stages.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, which wins

from pass_trihybrid import analysis, experiments, placement, sampler  # noqa: E402
from pass_trihybrid.config import ExperimentConfig, load_config  # noqa: E402
from pass_trihybrid.model import WaveguideLayout  # noqa: E402

PARAMS = ("params", ExperimentConfig, "params_for_case")
LAYOUT = ("layout", WaveguideLayout, "from_params")
AMPLITUDES = ("amplitudes", experiments, "pa_amplitudes")
SNRS = ("_snrs", experiments, "_snrs")
# Per user model, (stage, owner, attribute) in table order; a nested stage
# runs inside the stage above it, and ``reports`` is what is left.
STAGES = {
    "fixed": (
        PARAMS, LAYOUT, ("refine_all", placement, "refine_all"),
        ("_fixed_columns", experiments, "_fixed_columns"), ("snr_bounds", analysis, "snr_bounds"),
        AMPLITUDES, SNRS,
    ),
    "uniform": (
        ("uniform_pairs", sampler, "uniform_pairs"), PARAMS, LAYOUT,
        ("refine_batch", placement, "refine_batch"), AMPLITUDES, SNRS,
    ),
}
NESTED = {"fixed": {"snr_bounds"}, "uniform": {"amplitudes"}}


def time_point(doc: ExperimentConfig, calls: int) -> tuple[dict[str, float], set[str]]:
    """Median microseconds per stage over ``calls`` points; and the absent stages."""
    spent: dict[str, float] = {}
    saved, absent = [], set()

    def wrap(stage, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] = spent.get(stage, 0.0) + time.perf_counter() - start

        return timed

    for stage, owner, attr in STAGES[doc.user]:
        if not hasattr(owner, attr):
            absent.add(stage)
            continue
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):  # stays bound to its class as a staticmethod
            setattr(owner, attr, staticmethod(wrap(stage, getattr(owner, attr))))
        else:  # a module's function, or a method that binds its instance
            setattr(owner, attr, wrap(stage, raw))
    samples: dict[str, list[float]] = {}
    try:
        experiments.render_sweep_csv(doc, experiments.run_sweep(doc))  # warm-up
        for _ in range(calls):
            spent.clear()
            start = time.perf_counter()
            reports = experiments.run_sweep(doc)
            point = time.perf_counter() - start
            experiments.render_sweep_csv(doc, reports)
            render = time.perf_counter() - start - point
            spent["reports"] = point - sum(v for k, v in spent.items() if k not in NESTED[doc.user])
            spent.update(point=point, render_sweep_csv=render)
            for stage, value in spent.items():
                samples.setdefault(stage, []).append(value)
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
    return {stage: statistics.median(v) * 1e6 for stage, v in samples.items()}, absent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=str(ROOT / "configs" / "snr_vs_pa_count.cfg"))
    parser.add_argument("--n", type=int, default=2, help="PAs per waveguide")
    parser.add_argument("--user", type=float, nargs=2, metavar=("X", "Y"))
    parser.add_argument("--calls", type=int, default=500)
    args = parser.parse_args(argv)
    doc = load_config(args.config).replace(sweep="N", sweep_values=(args.n,))
    if args.user:
        if doc.user != "fixed":
            parser.error("--user needs a fixed-user config")
        doc = doc.replace(user_x=args.user[0], user_y=args.user[1])
    medians, absent = time_point(doc, args.calls)
    if doc.user == "fixed":
        users = f"user ({doc.user_x:g}, {doc.user_y:g})"
    else:
        users = f"{doc.draws} uniform users, seed {doc.seed}"
    print(f"# N = {args.n}, {users}, median of {args.calls} points")
    order = [stage for stage, _, _ in STAGES[doc.user]] + ["reports", "point", "render_sweep_csv"]
    for stage in order:
        label = f"  of which {stage}" if stage in NESTED[doc.user] else stage
        value = "absent" if stage in absent else f"{medians.get(stage, 0.0):8.1f}"
        print(f"{label:<22} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
