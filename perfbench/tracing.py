"""Per-layer spans recorded from outside the library.

The tracer replaces module attributes that the sweep runner looks up at call
time with timing wrappers, and puts the originals back on exit, also when
the traced code raises.  A span's self time is its duration minus the time
of the spans it caused.  A name that no longer exists in the library is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """``owner.attr`` is the name the runner looks up; ``layer`` is how it is
    reported: the module that defines it, then the function."""

    owner: str
    attr: str
    layer: str


PACKAGE = "pass_trihybrid"

# The draw path, in the order a draw visits it.
DRAW_PATH = (
    Target("placement", "refine_all", "placement.refine_all"),
    Target("placement", "PinchingConfig", "model.PinchingConfig"),
    Target("experiments", "effective_channel", "model.effective_channel"),
    Target("beamforming", "single_rf_solution", "beamforming.single_rf_solution"),
    Target("beamforming", "multi_rf_solution", "beamforming.multi_rf_solution"),
    Target("baseline", "baseline_capacity", "baseline.baseline_capacity"),
    Target("analysis", "snr_bounds", "analysis.snr_bounds"),
    Target("experiments", "render_sweep_csv", "experiments.render_sweep_csv"),
)
RUN_SWEEP = Target("experiments", "run_sweep", "experiments.run_sweep")
LOAD_CONFIG = Target("config", "load_config", "config.load_config")
REFINE_ALL = DRAW_PATH[0].layer


class Tracer:
    """Context manager that wraps ``targets`` for the duration of a block.

    ``self_s[layer]`` and ``calls[layer]`` accumulate over every block the
    tracer is entered for; ``raised[layer]`` counts calls that ended in an
    exception.  ``redistributed`` counts refinement calls in which some
    waveguide placed a different number of PAs left and right of the user.
    """

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.self_s = {t.layer: 0.0 for t in self.targets}
        self.calls = {t.layer: 0 for t in self.targets}
        self.raised = {t.layer: 0 for t in self.targets}
        self.redistributed = 0
        self.absent: set[str] = set()
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                owner = importlib.import_module(f"{PACKAGE}.{target.owner}")
                original = getattr(owner, target.attr, None)
                if original is None:
                    self.absent.add(target.layer)
                    continue
                self._saved.append((owner, target.attr, original))
                setattr(owner, target.attr, self._wrap(target.layer, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, fn):
        stack = self._stack
        check_split = layer == REFINE_ALL

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised[layer] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[layer] += elapsed - stack.pop()
                self.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if check_split and any(r.n_left != r.n_right for r in out[1]):
                self.redistributed += 1
            return out

        return span
