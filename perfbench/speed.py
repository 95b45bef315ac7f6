"""Machine-speed calibration.

On a shared 2-core Xeon VM the core speed changes by up to 2x over
stretches of seconds, and CPU time rises with wall time, so the slowdown is
the core running slower, not the process waiting.  The harness therefore
times a fixed loop next to every group of slices and divides the slice time
by it.  The loop imitates a draw: a short refinement chain in Python floats,
4-element numpy arrays, a frozen dataclass per waveguide and one number
formatted, so that it slows down with the library.  It is part of the
benchmark and never changes with the library.

Times are reported at the *reference speed*: the speed at which one
calibration loop takes ``REFERENCE_S`` seconds, about what it takes on an
idle core of such a VM.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 500e-6
_WAVELENGTH = 0.0107
_N_EFF = 1.4


@dataclass(frozen=True)
class _Row:
    positions: np.ndarray
    gain: float


def _chain(h: float, start: float, count: int) -> list[float]:
    out = []
    d = start
    s = _N_EFF * _N_EFF - 1.0
    for _ in range(count):
        target = _WAVELENGTH * math.ceil((math.hypot(h, d) + _N_EFF * d) / _WAVELENGTH)
        d += max((target * _N_EFF - math.sqrt(target * target + h * h * s)) / s - d, 0.0)
        out.append(d)
        d += _WAVELENGTH / 2
    return out


def _loop() -> float:
    acc = 0.0
    for i in range(8):
        rows = []
        for m in range(4):
            pos = np.array(_chain(3.0 + m, _WAVELENGTH / 4, 4))
            r = np.sqrt((pos - 0.1 * i) ** 2 + 9.0 + m)
            g = np.exp(-2j * np.pi * r / _WAVELENGTH) / r
            rows.append(_Row(pos, float(np.abs(g.sum()))))
        stacked = np.stack([row.positions for row in rows])
        gains = np.array([row.gain for row in rows])
        acc += float(np.sum(gains**2)) + float(np.max(np.diff(stacked, axis=1)))
        acc += len(format(acc, ".12g"))
    return acc


def probe() -> float:
    """Seconds one calibration loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def steady_probe() -> float:
    """Median of three probes, for a single measurement that has no rounds."""
    return statistics.median(probe() for _ in range(3))
