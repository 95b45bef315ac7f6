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
independently of the others.  :func:`refine_all` refines one user's
waveguides with the scalar ``math`` solvers; :func:`refine_batch` walks the
same chains for many users at once as numpy array steps, with the same
overflow redistribution across sides and the same infeasibility verdicts.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Iterator
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


def refine_shift(h_eff: float, delta: float, n_eff: float, wavelength: float) -> float:
    """Smallest shift v >= 0 aligning an antenna on the feed side of the user.

    Solves sqrt(h_eff^2 + (delta+v)^2) + n_eff (delta+v) = target, where
    target is the current path length rounded up to the next wavelength
    multiple.  ``delta`` is the antenna's offset from the user along x.
    """
    if h_eff <= 0:
        raise ValueError("effective elevation must be positive")
    if delta < 0:
        raise ValueError("offset must be nonnegative")
    path = math.hypot(h_eff, delta) + n_eff * delta
    target = wavelength * math.ceil(path / wavelength - _GRID_EPS)
    if n_eff == 1.0:
        d = (target * target - h_eff * h_eff) / (2.0 * target)
    else:
        s = n_eff * n_eff - 1.0
        d = (target * n_eff - math.sqrt(target * target + h_eff * h_eff * s)) / s
    return max(d - delta, 0.0)


def refine_shift_outward(h_eff: float, delta: float, n_eff: float, wavelength: float) -> float:
    """Left-of-user counterpart of :func:`refine_shift`.

    Here the total path sqrt(h_eff^2 + e^2) - n_eff e decreases as the
    antenna moves away from the user (toward the feed), so the target is the
    path rounded *down* to the previous wavelength multiple.
    """
    if h_eff <= 0:
        raise ValueError("effective elevation must be positive")
    if delta < 0:
        raise ValueError("offset must be nonnegative")
    path = math.hypot(h_eff, delta) - n_eff * delta
    target = wavelength * math.floor(path / wavelength + _GRID_EPS)
    if n_eff == 1.0:
        if target <= 0:
            # The path only decays asymptotically to zero for n_eff = 1, so a
            # non-positive grid line can never be reached by shifting outward.
            raise FeasibilityError("no reachable alignment point on the feed side")
        e = (h_eff * h_eff - target * target) / (2.0 * target)
    else:
        s = n_eff * n_eff - 1.0
        e = (math.sqrt(target * target + h_eff * h_eff * s) - target * n_eff) / s
    return max(e - delta, 0.0)


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

    @property
    def min_spacing_realized_m(self) -> float:
        gaps = np.diff(self.positions)
        return float(gaps.min()) if len(gaps) else math.inf


def _chain(
    h_eff: float,
    n_eff: float,
    wavelength: float,
    min_spacing: float,
    start_delta: float,
    quota: int,
    bounds: tuple[float, float],
    outward: bool,
) -> tuple[list[float], list[float]]:
    """Walk one side's recursion, stopping early when the range limit is hit.

    Returns (offsets from the user, shifts), with at most ``quota`` antennas
    whose final offsets stay within ``bounds`` (the waveguide's deployment
    range, as offsets from the user on this side).
    """
    lo, hi = bounds
    offsets: list[float] = []
    shifts: list[float] = []
    delta = start_delta
    solve = refine_shift_outward if outward else refine_shift
    for _ in range(quota):
        v = solve(h_eff, delta, n_eff, wavelength)
        final = delta + v
        if not lo <= final <= hi:
            break
        offsets.append(final)
        shifts.append(v)
        delta = final + min_spacing
    return offsets, shifts


def _alignment_residual(
    positions: np.ndarray, h_eff: float, n_eff: float, wavelength: float, user_x: float
) -> float:
    """Max circular deviation of (r + n_eff x) mod lambda across the antennas."""
    r = np.sqrt((positions - user_x) ** 2 + h_eff**2)
    res = np.mod(r + n_eff * positions, wavelength)
    dev = np.abs(res - res[0])
    return float(np.max(np.minimum(dev, wavelength - dev)))


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
    n = params.num_pas if num_pas is None else num_pas
    if n < 2 or n % 2 != 0:
        raise ValueError("number of PAs must be a positive even integer")
    h_eff = waveguide.effective_elevation(user)
    lam = params.wavelength_m
    half = params.min_spacing_m / 2.0

    # Both chains stay inside this waveguide's [feed_x, max_x].
    right_bounds = (waveguide.feed_x - user.x, waveguide.max_x - user.x)
    left_bounds = (user.x - waveguide.max_x, user.x - waveguide.feed_x)

    right, v_right = _chain(
        h_eff, params.n_eff, lam, params.min_spacing_m, half, n // 2, right_bounds, outward=False
    )
    short = n // 2 - len(right)
    left, v_left = _chain(
        h_eff, params.n_eff, lam, params.min_spacing_m, half, n // 2 + short, left_bounds,
        outward=True,
    )
    short = n - len(right) - len(left)
    if short > 0 and len(right) == n // 2:
        # Left side hit the feed; push the remainder onto the right chain.
        delta = right[-1] + params.min_spacing_m
        extra, v_extra = _chain(
            h_eff, params.n_eff, lam, params.min_spacing_m, delta, short, right_bounds,
            outward=False,
        )
        right += extra
        v_right += v_extra
        short = n - len(right) - len(left)
    if short > 0:
        raise FeasibilityError(
            f"waveguide at y={waveguide.y:+.3g}: only {n - short} of {n} PAs fit in "
            f"[{waveguide.feed_x:.6g}, {waveguide.max_x:.6g}] around x_u={user.x:.6g}"
        )

    # Ascending positions: left offsets flip sign, outermost first.
    positions = np.array([user.x - e for e in reversed(left)] + [user.x + d for d in right])
    shifts = np.array(list(reversed(v_left)) + v_right)
    gaps = np.diff(positions)
    return RefinementResult(
        positions=positions,
        shifts=shifts,
        max_spacing_m=float(gaps.max()) if len(gaps) else params.min_spacing_m,
        alignment_residual_m=_alignment_residual(positions, h_eff, params.n_eff, lam, user.x),
        n_left=len(left),
        n_right=len(right),
        h_eff_m=h_eff,
    )


def refine_all(
    params: SystemParams,
    layout: WaveguideLayout,
    user: UserPosition,
    num_pas: int | None = None,
) -> tuple[PinchingConfig, list[RefinementResult]]:
    """Refine every waveguide independently and assemble the pinching matrix."""
    check_user_in_region(params, user)
    results = [refine_waveguide(params, wg, user, num_pas) for wg in layout.waveguides]
    positions = np.stack([r.positions for r in results])
    config = PinchingConfig(
        positions=positions,
        min_spacing_m=params.min_spacing_m,
        feed_x=layout.field("feed_x"),
        max_x=layout.field("max_x"),
    )
    return config, results


def _shift_batch(
    h_eff: np.ndarray, delta: np.ndarray, n_eff: float, wavelength: float, outward: bool
) -> np.ndarray:
    """Array form of :func:`refine_shift` / :func:`refine_shift_outward`.

    Same formulas in the same order, with numpy in place of ``math``; NaN
    where the feed side has no reachable alignment point (n_eff = 1).
    """
    if outward:
        path = np.hypot(h_eff, delta) - n_eff * delta
        target = wavelength * np.floor(path / wavelength + _GRID_EPS)
    else:
        path = np.hypot(h_eff, delta) + n_eff * delta
        target = wavelength * np.ceil(path / wavelength - _GRID_EPS)
    if n_eff == 1.0:
        if outward:
            target = np.where(target > 0, target, np.nan)
            d = (h_eff * h_eff - target * target) / (2.0 * target)
        else:
            d = (target * target - h_eff * h_eff) / (2.0 * target)
    else:
        s = n_eff * n_eff - 1.0
        root = np.sqrt(target * target + h_eff * h_eff * s)
        d = (root - target * n_eff) / s if outward else (target * n_eff - root) / s
    return np.maximum(d - delta, 0.0)


def _walk(
    params: SystemParams,
    h_eff: np.ndarray,
    user_x: np.ndarray,
    bounds: tuple[np.ndarray, np.ndarray],
    delta: np.ndarray,
    quota: int | np.ndarray,
    outward: bool,
    rows: slice | np.ndarray,
) -> Generator[tuple[slice | np.ndarray, np.ndarray, np.ndarray], None, tuple]:
    """One side's chain steps for the chains ``rows``, as :func:`_chain` does them.

    ``h_eff``, ``user_x``, the offset ``bounds`` (lo, hi) and the starting
    offsets ``delta`` hold one value per chain of the whole batch; ``quota``
    is an int or one value per chain in ``rows``.  Yields ``(rows, xs,
    placed)`` per step: the step's PA positions and where the PA is part of
    its chain, i.e. the chain has not yet hit its quota or left [lo, hi].
    Returns (PAs placed, next offset, failed) for the chains in ``rows``,
    ``failed`` marking chains that reached a feed-side step with no
    alignment point (n_eff = 1), where :func:`refine_shift_outward` raises
    :class:`FeasibilityError`.
    """
    h_eff, user_x, delta = h_eff[rows], user_x[rows], delta[rows]
    lo, hi = bounds[0][rows], bounds[1][rows]
    placed = np.zeros(h_eff.shape, dtype=int)
    failed = np.zeros(h_eff.shape, dtype=bool)
    alive = np.ones(h_eff.shape, dtype=bool)
    for step in range(int(np.max(quota, initial=0))):
        final = delta + _shift_batch(h_eff, delta, params.n_eff, params.wavelength_m, outward)
        alive = alive & (step < quota)
        if outward and params.n_eff == 1.0:
            unreachable = np.isnan(final)
            failed |= alive & unreachable
            alive &= ~unreachable
            final[unreachable] = 0.0  # a finite position for the PA not placed
        alive &= (lo <= final) & (final <= hi)
        placed += alive
        yield rows, user_x - final if outward else user_x + final, alive
        delta = final + params.min_spacing_m
    return placed, delta, failed


def refine_batch(
    params: SystemParams,
    layout: WaveguideLayout,
    user_x: np.ndarray,
    user_y: np.ndarray,
    fits: np.ndarray,
) -> Iterator[tuple[slice | np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`refine_all` for D users at once, overflow redistribution included.

    ``user_x`` / ``user_y`` have shape (D,).  The D·M chains (draw d,
    waveguide m) are flattened to index d·M + m.  Yields ``(rows, xs,
    placed)`` one chain step at a time, so a caller can fold each PA into its
    channel and drop it: ``rows`` selects chains of the flattened (D·M,)
    arrays, ``xs`` holds one PA position per selected chain and ``placed``
    marks where that PA is part of the placement.  The steps follow
    :func:`refine_waveguide`: N/2 right of the user, then left of it up to
    what the right chain did not place, then, where the right chain was full
    and the left one fell short, the right chain again.  The first N/2 steps
    per side run on every chain; the rest only on the chains that need them.
    ``fits`` (shape (D·M,)) is cleared where the waveguide's N PAs do not all
    fit, where :func:`refine_all` raises :class:`FeasibilityError`.
    """
    m, n = len(layout), params.num_pas
    half = n // 2
    ux, uy = np.repeat(user_x, m), np.repeat(user_y, m)
    wg_y, height, feed_x, max_x = (
        np.tile(layout.field(k), user_x.size) for k in ("y", "height", "feed_x", "max_x")
    )
    h_eff = np.hypot(wg_y - uy, height)
    right = (feed_x - ux, max_x - ux)
    left = (ux - max_x, ux - feed_x)
    start = np.full_like(h_eff, params.min_spacing_m / 2.0)
    every = slice(None)
    n_right, right_next, _ = yield from _walk(params, h_eff, ux, right, start, half, False, every)
    n_left, left_next, failed = yield from _walk(params, h_eff, ux, left, start, half, True, every)

    # Redistribution: the left chain takes what the right one could not place ...
    rows = np.flatnonzero((n_right < half) & (n_left == half))
    if rows.size:
        more, _, bad = yield from _walk(
            params, h_eff, ux, left, left_next, half - n_right[rows], True, rows
        )
        n_left[rows] += more
        failed[rows] |= bad
    # ... and a full right chain continues where the left one fell short.
    rows = np.flatnonzero((n_right == half) & (n_left < half) & ~failed)
    if rows.size:
        more, _, _ = yield from _walk(
            params, h_eff, ux, right, right_next, half - n_left[rows], False, rows
        )
        n_right[rows] += more
    fits &= (n_right + n_left == n) & ~failed
