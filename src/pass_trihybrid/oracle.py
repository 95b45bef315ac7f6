"""Independent brute-force verifiers.

Nothing here shares a code path with the closed forms it checks: the grid
search enumerates every feasible position tuple on a uniform grid and takes
a literal maximum, and the phase-chain check redoes the alignment arithmetic
in high-precision (50-digit) floating point.  Exponential enumeration cost
is accepted; the search is scoped to 2 or 4 antennas on a single waveguide.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from .model import (
    FeasibilityError,
    SystemParams,
    UserPosition,
    Waveguide,
    los_coefficient,
    waveguide_vector,
)


def _grid_values(
    params: SystemParams, waveguide: Waveguide, user: UserPosition, n: int, resolution: float
) -> tuple[np.ndarray, np.ndarray]:
    """Search grid and the per-position complex summand h(x) g(x)."""
    lo = max(user.x - 2 * n * params.min_spacing_m, waveguide.feed_x)
    hi = min(user.x + 2 * n * params.min_spacing_m, waveguide.max_x)
    if hi - lo < (n - 1) * params.min_spacing_m:
        raise FeasibilityError("search window too narrow for the requested antenna count")
    count = int(math.floor((hi - lo) / resolution + 1e-9)) + 1
    xs = lo + resolution * np.arange(count)
    pa_xyz = np.stack(
        [xs, np.full_like(xs, waveguide.y), np.full_like(xs, waveguide.height)], axis=-1
    )
    h = los_coefficient(params, pa_xyz, user)
    # waveguide_vector splits the feed power over the row it is given; the
    # grid holds len(xs) candidates for an n-antenna placement, so rescale
    # each candidate's entry back to the 1/sqrt(n) split.
    g = waveguide_vector(params, waveguide, xs) * math.sqrt(len(xs) / n)
    return xs, h * g


def grid_search_gain(
    params: SystemParams,
    waveguide: Waveguide,
    user: UserPosition,
    n: int,
    resolution: float,
) -> tuple[float, np.ndarray]:
    """Exhaustive maximum of the coherent gain over an n-antenna grid.

    Enumerates all sorted position tuples with pairwise spacing at least the
    minimum, within the window of 2n minimum spacings around the user
    (clipped to the deployment range).  Returns the best gain and positions,
    the first maximum in ascending tuple order.

    One table holds every feasible pair (a, b), b >= a + gap, in ascending
    (a, b) order, with its summand sum.  n = 2 is its argmax; n = 4 adds each
    inner pair's sum to the suffix of the table whose pairs start at least
    one gap past the inner pair's end.
    """
    if n not in (2, 4):
        raise ValueError("grid search is scoped to 2 or 4 antennas")
    if resolution > params.wavelength_m / 32 + 1e-15:
        raise ValueError("resolution must be at most 1/32 wavelength")
    xs, summand = _grid_values(params, waveguide, user, n, resolution)
    gap = int(math.ceil(params.min_spacing_m / resolution - 1e-9))
    g = len(xs)
    if g <= (n - 1) * gap:
        raise FeasibilityError("grid too small for the spacing constraint")

    first, second = np.nonzero((np.arange(g)[None, :] - np.arange(g)[:, None]) >= gap)
    re = summand.real[first] + summand.real[second]
    im = summand.imag[first] + summand.imag[second]
    if n == 2:
        mag = re * re + im * im
        k = int(mag.argmax())
        return math.sqrt(mag[k]), xs[[first[k], second[k]]]

    # suffix[p]: the first pair that starts at least one gap past pair p's end
    suffix = np.searchsorted(first, second + gap)
    best, best_tuple = -1.0, None
    for p in np.flatnonzero(suffix < first.size):
        k = suffix[p]
        ar, ai = re[k:] + re[p], im[k:] + im[p]
        mag = ar * ar + ai * ai
        j = int(mag.argmax())
        if mag[j] > best:
            best, best_tuple = float(mag[j]), (first[p], second[p], first[k + j], second[k + j])
    return math.sqrt(best), xs[list(best_tuple)]


def direct_phase_chain(
    positions: np.ndarray,
    user: UserPosition,
    waveguide: Waveguide,
    params: SystemParams,
) -> float:
    """Recompute the alignment residual with 50-digit arithmetic.

    Returns the maximum circular deviation (meters) of
    (r + n_eff x) mod lambda across the antennas, relative to the first.
    """
    with mpmath.workdps(50):
        lam = mpmath.mpf(params.wavelength_m)
        n_eff = mpmath.mpf(params.n_eff)
        h2 = (mpmath.mpf(waveguide.y) - mpmath.mpf(user.y)) ** 2 + mpmath.mpf(
            waveguide.height
        ) ** 2
        residues = []
        for x in positions:
            xm = mpmath.mpf(float(x))
            r = mpmath.sqrt((xm - mpmath.mpf(user.x)) ** 2 + h2)
            total = r + n_eff * xm
            residues.append(total - lam * mpmath.floor(total / lam))
        worst = mpmath.mpf(0)
        for res in residues[1:]:
            dev = abs(res - residues[0])
            dev = min(dev, lam - dev)
            worst = max(worst, dev)
        return float(worst)
