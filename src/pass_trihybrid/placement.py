"""Pinching beamforming: iterative PA position refinement.

Every PA contributes a total propagation path of r + n_eff * (x - x_0)
meters (free space plus the slower in-waveguide leg).  Signals combine
constructively at the user when those paths agree modulo the free-space
wavelength.  The refinement walks outward from the user's x-coordinate on
each side, placing antennas at the minimum spacing and then nudging each one
further out by the smallest shift that lands its path on an exact wavelength
multiple measured from the user.  Right of the user the path grows with the
offset; left of the user the free-space leg grows but the in-waveguide leg
shrinks, so the path decreases.  Either way the wavelength grid is reached
with a sub-wavelength-scale shift and both sides end up on one common phase
chain.

The objective separates across waveguides, so each waveguide is refined
independently of the others.  One driver, :func:`_place`, holds the
placement policy over rows that are (user, waveguide) pairs: both sides'
bounds, the start offset, N/2 PAs per side, the overflow redistribution
across sides and the fit verdict.  The shift formulas exist once, in the
numpy kernel :func:`_shift_batch`.  The driver's two side solvers compute
the same chains and differ only in what they keep of a chain:
:func:`refine_all` solves one user's chains as whole arrays
(:func:`_solve`) and keeps every offset and shift; :func:`refine_batch`
walks many users' chains one step at a time and keeps nothing, handing each
step to the caller's ``fold``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .model import (
    FeasibilityError,
    PinchingConfig,
    SystemParams,
    UserPosition,
    Waveguide,
    WaveguideLayout,
    check_user_in_region,
)

# Tolerance (in wavelength units) under which a path already on the grid is
# treated as exact, so v = 0 instead of a full extra wavelength of shift.
_GRID_EPS = 1e-12
_UNREACHABLE = "no reachable alignment point on the feed side"


def _grid_index(h_eff, delta, n_eff: float, wavelength: float, outward: bool) -> np.ndarray:
    """Grid index I = ceil((sign r + n_eff delta) / lambda - eps) of a PA at offset ``delta``.

    sign = +1 right of the user and -1 left of it, so the target t = lambda I
    is the right side's path rounded up, and minus the left side's path
    rounded down.  The sign enters through the operand order, not a product.
    """
    hyp, ndelta = np.hypot(h_eff, delta), n_eff * delta
    return np.ceil(((ndelta - hyp) if outward else (ndelta + hyp)) / wavelength - _GRID_EPS)


def _aligned_offset(h_eff, t, n_eff: float, outward: bool) -> np.ndarray:
    """Offset (t n_eff - sign sqrt(t^2 + h^2 s)) / s, s = n_eff^2 - 1, on target ``t``.

    (t^2 - h^2) / (2 t) for n_eff = 1, and NaN on the feed side where t >= 0:
    that path only decays asymptotically to zero, so a non-positive grid
    line is never reached.
    """
    if n_eff == 1.0:
        if outward:
            t = np.where(t < 0.0, t, np.nan)
        return (t * t - h_eff * h_eff) / (2.0 * t)
    s = n_eff * n_eff - 1.0
    root = np.sqrt(t * t + h_eff * h_eff * s)
    return ((t * n_eff + root) if outward else (t * n_eff - root)) / s


def _shift_batch(h_eff, delta, n_eff: float, wavelength: float, outward: bool) -> np.ndarray:
    """Smallest shift v >= 0 aligning a PA at offset ``delta`` (NaN: unreachable)."""
    t = wavelength * _grid_index(h_eff, delta, n_eff, wavelength, outward)
    return np.maximum(_aligned_offset(h_eff, t, n_eff, outward) - delta, 0.0)


def _one_shift(h_eff: float, delta: float, n_eff: float, wavelength: float, outward: bool) -> float:
    if h_eff <= 0:
        raise ValueError("effective elevation must be positive")
    if delta < 0:
        raise ValueError("offset must be nonnegative")
    # Right of the user at n_eff = 1, an elevation and offset below about
    # 1e-12 lambda round to grid line 0, where the offset root divides by 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        v = float(_shift_batch(h_eff, delta, n_eff, wavelength, outward))
    if not math.isfinite(v):
        message = _UNREACHABLE if outward else "no reachable alignment point right of the user"
        raise FeasibilityError(message)
    return v


def refine_shift(h_eff: float, delta: float, n_eff: float, wavelength: float) -> float:
    """Smallest shift v >= 0 aligning an antenna right of the user (away from the feed).

    Solves sqrt(h_eff^2 + (delta+v)^2) + n_eff (delta+v) = target, where
    target is the current path length rounded up to the next wavelength
    multiple.  ``delta`` is the antenna's offset from the user along x.
    A validated one-element call of :func:`_shift_batch`.
    """
    return _one_shift(h_eff, delta, n_eff, wavelength, outward=False)


def refine_shift_outward(h_eff: float, delta: float, n_eff: float, wavelength: float) -> float:
    """Left-of-user (feed-side) counterpart of :func:`refine_shift`.

    Here the total path sqrt(h_eff^2 + e^2) - n_eff e decreases as the
    antenna moves away from the user (toward the feed), so the target is the
    path rounded *down* to the previous wavelength multiple.  Raises
    :class:`FeasibilityError` for n_eff = 1 when that target is not positive.
    """
    return _one_shift(h_eff, delta, n_eff, wavelength, outward=True)


@dataclass(frozen=True)
class RefinementResult:
    """Refined placement for one waveguide.

    ``positions`` are sorted ascending and ``shifts`` holds each antenna's
    refinement offset in the same order.  ``n_left`` / ``n_right`` record the
    split about the user (asymmetric when a deployment-range limit forced
    antennas onto one side).
    """

    positions: np.ndarray
    shifts: np.ndarray
    max_spacing_m: float
    alignment_residual_m: float
    n_left: int
    n_right: int
    h_eff_m: float


def _solve(
    h_eff: np.ndarray, start: np.ndarray, quota: np.ndarray, bounds: tuple[np.ndarray, np.ndarray],
    n_eff: float, wavelength: float, min_spacing: float, outward: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The chains :func:`refine_batch` walks, for R rows of one side, as whole arrays.

    Row r starts at offset ``start[r]`` and places ``quota[r]`` PAs or stops
    before the first outside ``bounds`` (lo, hi).  Returns (offsets, shifts,
    placed, failed): (R, max quota) arrays whose first ``placed[r]`` entries
    are row r's chain, and where it stopped at a feed-side NaN step.

    A fixed-point iteration: guess grid indices I_k = I_0 + k and their
    offsets f_k, then run one step pass over delta_k = f_{k-1} + min_spacing.
    The pass is exact up to and including the first index it changes; that
    prefix is kept and the indices past it are re-extrapolated by the steps
    the pass took.  A pass that changes nothing before a chain's end is a
    fixed point of the walk's recurrence, hence the walk's bits; the kept
    prefix grows every pass, so at most quota + 1 passes run.
    """
    h, lo, hi = h_eff[:, None], bounds[0][:, None], bounds[1][:, None]
    width = int(quota.max()) + 1  # one column more, where every chain has ended
    cols = np.arange(width)
    in_quota = cols < quota[:, None]
    row_starts = np.arange(h_eff.size) * width  # in the flattened (R, width) arrays
    index = _grid_index(h_eff, start, n_eff, wavelength, outward)[:, None] + cols
    f = _aligned_offset(h, wavelength * index, n_eff, outward)
    f[:, 0] = start + np.maximum(f[:, 0] - start, 0.0)  # not f_0 itself when d_0 - start rounds
    delta = np.empty_like(f)
    delta[:, 0] = start
    steps = np.empty_like(f)
    while True:
        np.add(f[:, :-1], min_spacing, out=delta[:, 1:])
        new_index = _grid_index(h, delta, n_eff, wavelength, outward)
        d = _aligned_offset(h, wavelength * new_index, n_eff, outward)
        shifts = np.maximum(d - delta, 0.0)
        new_f = delta + shifts
        placing = (lo <= new_f) & (new_f <= hi) & in_quota  # False at NaN
        # The first index where the pass changed the guess or the chain ended;
        # every chain that ended there (unchanged before it) is solved.
        first = (~placing | (new_f != f)).argmax(axis=1)
        if not placing.ravel()[row_starts + first].any():
            break
        # Keep the pass up to ``first``; extrapolate the indices past it by
        # the increments the pass just took (NaN, unreachable, counts as 1).
        later = cols > first[:, None]
        steps[:, 0] = new_index[:, 0]
        steps[:, 1:] = np.where(
            later[:, 1:], np.fmax(new_index[:, 1:] - index[:, :-1], 1.0), np.diff(new_index)
        )
        index = np.cumsum(steps, axis=1)
        f = np.where(later, _aligned_offset(h, wavelength * index, n_eff, outward), new_f)
    failed = (first < quota) & np.isnan(new_f.ravel()[row_starts + first])
    return new_f[:, :-1], shifts[:, :-1], first, failed


def _place(solve: Callable, n: int, spacing: float, user_x, feed_x: np.ndarray, max_x: np.ndarray):
    """The placement policy over R rows, each one (user, waveguide) pair.

    N/2 PAs right of the user and N/2 left of it, each chain starting at
    half the minimum spacing and bounded by its waveguide's [feed_x, max_x];
    then the left chain takes what the right one could not place, and a full
    right chain continues where the left one fell short.  ``solve(outward,
    rows, col, start, quota, bounds)`` continues side ``outward``'s chains
    ``rows`` from their PA ``col``: from offsets ``start``, at most ``quota``
    more PAs each, within the offset ``bounds`` (lo, hi); it returns
    (placed, next start, failed).  Returns (n_left, n_right, failed, fits)
    per row: ``failed`` marks rows that reached a feed-side step with no
    alignment point (n_eff = 1), and ``fits`` rows whose N PAs all fit,
    which a failed row never does (its left chain stops short and nothing
    continues it).
    """
    half, every = n // 2, slice(None)
    bounds = {False: (feed_x - user_x, max_x - user_x), True: (user_x - max_x, user_x - feed_x)}
    start = np.full(feed_x.shape, spacing / 2.0)
    n_right, right_next, _ = solve(False, every, 0, start, half, bounds[False])
    n_left, left_next, failed = solve(True, every, 0, start, half, bounds[True])

    def more(outward, rows, next_start, quota):
        lo, hi = bounds[outward]
        return solve(outward, rows, half, next_start[rows], quota, (lo[rows], hi[rows]))

    # Redistribution: the left chain takes what the right one could not place ...
    rows = np.flatnonzero((n_right < half) & (n_left == half))
    if rows.size:
        placed, _, bad = more(True, rows, left_next, half - n_right[rows])
        n_left[rows] += placed
        failed[rows] |= bad
    # ... and a full right chain continues where the left one fell short.
    rows = np.flatnonzero((n_right == half) & (n_left < half) & ~failed)
    if rows.size:
        n_right[rows] += more(False, rows, right_next, half - n_left[rows])[0]
    return n_left, n_right, failed, n_left + n_right == n


def _refine(
    params: SystemParams, layout: WaveguideLayout, user: UserPosition, num_pas: int | None
) -> tuple[np.ndarray, list[RefinementResult]]:
    """(M, N) positions and one :class:`RefinementResult` per waveguide.

    :func:`_place` over the M waveguides, each side's chains one
    :func:`_solve` call whose offsets and shifts are kept.  The first
    waveguide in layout order whose PAs do not all fit raises
    :class:`FeasibilityError`.  Gaps, largest spacings and alignment
    residuals are computed over the whole array at once.
    """
    n = params.num_pas if num_pas is None else num_pas
    if n < 2 or n % 2 != 0:
        raise ValueError("number of PAs must be a positive even integer")
    m, spacing = len(layout), params.min_spacing_m
    h_effs = [wg.effective_elevation(user) for wg in layout.waveguides]
    h_eff = np.array(h_effs)
    # Row m of a side holds its offsets from the user, innermost first.
    offsets = {side: np.zeros((m, n)) for side in (False, True)}
    shifts = {side: np.zeros((m, n)) for side in (False, True)}

    def solve(outward: bool, rows, col: int, start, quota, bounds):
        quota = np.full(start.shape, quota)
        f, v, placed, failed = _solve(
            h_eff[rows], start, quota, bounds, params.n_eff, params.wavelength_m, spacing, outward
        )
        offsets[outward][rows, col : col + f.shape[1]] = f
        shifts[outward][rows, col : col + f.shape[1]] = v
        return placed, f[:, -1] + spacing, failed

    n_left, n_right, failed, fits = _place(
        solve, n, spacing, user.x, layout.field("feed_x"), layout.field("max_x")
    )
    if not fits.all():
        i = int(fits.argmin())
        wg = layout[i]
        if failed[i]:
            raise FeasibilityError(_UNREACHABLE)
        raise FeasibilityError(
            f"waveguide at y={wg.y:+.3g}: only {n_left[i] + n_right[i]} of {n} PAs fit in "
            f"[{wg.feed_x:.6g}, {wg.max_x:.6g}] around x_u={user.x:.6g}"
        )

    # Ascending positions: the left chain reversed, then the right one.
    take = ((2 * np.arange(m) + 1) * n - n_left)[:, None] + np.arange(n)
    positions = np.hstack([user.x - offsets[True][:, ::-1], user.x + offsets[False]]).ravel()[take]
    row_shifts = np.hstack([shifts[True][:, ::-1], shifts[False]]).ravel()[take]
    max_spacing = np.diff(positions, axis=1).max(axis=1)

    # Max circular deviation of (r + n_eff x) mod lambda across each row;
    # h_eff**2 stays a Python float power, as in the one-waveguide form.
    lam = params.wavelength_m
    h2 = np.array([h**2 for h in h_effs])[:, None]
    res = np.mod(np.sqrt((positions - user.x) ** 2 + h2) + params.n_eff * positions, lam)
    dev = np.abs(res - res[:, :1])
    residual = np.max(np.minimum(dev, lam - dev), axis=1)

    results = [
        RefinementResult(x, v, float(gap), float(res), int(left), int(right), h)
        for x, v, gap, res, left, right, h in zip(
            positions, row_shifts, max_spacing, residual, n_left, n_right, h_effs
        )
    ]
    return positions, results


def refine_waveguide(
    params: SystemParams,
    waveguide: Waveguide,
    user: UserPosition,
    num_pas: int | None = None,
) -> RefinementResult:
    """Phase-aligned feasible placement of one waveguide's PAs around the user.

    Half the antennas go on each side of the user's x-coordinate, starting at
    half the minimum spacing and refined outward.  When one side's block
    would leave the deployment range, the excess antennas continue the other
    side's recursion instead; only if both sides run out of room is the
    geometry infeasible.
    """
    return _refine(params, WaveguideLayout((waveguide,)), user, num_pas)[1][0]


def refine_all(
    params: SystemParams,
    layout: WaveguideLayout,
    user: UserPosition,
    num_pas: int | None = None,
) -> tuple[PinchingConfig, list[RefinementResult]]:
    """Refine every waveguide independently and assemble the pinching matrix."""
    check_user_in_region(params, user)
    positions, results = _refine(params, layout, user, num_pas)
    config = PinchingConfig(
        positions=positions,
        min_spacing_m=params.min_spacing_m,
        feed_x=layout.field("feed_x"),
        max_x=layout.field("max_x"),
    )
    return config, results


def refine_batch(
    params: SystemParams,
    h_eff: np.ndarray,
    user_x: np.ndarray,
    feed_x: np.ndarray,
    max_x: np.ndarray,
    fold: Callable[[slice | np.ndarray, np.ndarray, np.ndarray], None],
) -> np.ndarray:
    """:func:`refine_all` for R (user, waveguide) rows at once; returns where the N PAs fit.

    ``h_eff``, ``user_x``, ``feed_x`` and ``max_x`` hold one value per row.
    :func:`_place` over the rows, each side's chains walked one
    :func:`_shift_batch` step per PA, keeping nothing: every step is handed
    to ``fold(rows, xs, placed)``, so a caller can fold each PA into its
    channel and drop it.  ``rows`` selects rows, ``xs`` holds one PA position
    per selected row and ``placed`` marks where that PA is part of its
    chain, i.e. the chain has not yet hit its quota or left its bounds.  The
    first N/2 steps per side run on every row, the rest only on the rows that
    need them.  The result is False where :func:`refine_all` raises
    :class:`FeasibilityError`.
    """

    def walk(outward: bool, rows, col: int, delta, quota, bounds):
        h, ux, (lo, hi) = h_eff[rows], user_x[rows], bounds
        placed = np.zeros(h.shape, dtype=int)
        failed = np.zeros(h.shape, dtype=bool)
        alive = np.ones(h.shape, dtype=bool)
        for step in range(int(np.max(quota, initial=0))):
            final = delta + _shift_batch(h, delta, params.n_eff, params.wavelength_m, outward)
            alive = alive & (step < quota)
            if outward and params.n_eff == 1.0:
                unreachable = np.isnan(final)
                failed |= alive & unreachable
                alive &= ~unreachable
                final[unreachable] = 0.0  # a finite position for the PA not placed
            alive &= (lo <= final) & (final <= hi)
            placed += alive
            fold(rows, ux - final if outward else ux + final, alive)
            delta = final + params.min_spacing_m
        return placed, delta, failed

    return _place(walk, params.num_pas, params.min_spacing_m, user_x, feed_x, max_x)[-1]
