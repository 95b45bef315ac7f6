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
waveguides with the scalar chain :func:`_chain`; :func:`refine_batch` walks the
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
# Offset bounds of a single step, which never stops a chain.
_ANYWHERE = (-math.inf, math.inf)


def _check_step(h_eff: float, delta: float) -> None:
    if h_eff <= 0:
        raise ValueError("effective elevation must be positive")
    if delta < 0:
        raise ValueError("offset must be nonnegative")


def refine_shift(h_eff: float, delta: float, n_eff: float, wavelength: float) -> float:
    """Smallest shift v >= 0 aligning an antenna right of the user (away from the feed).

    Solves sqrt(h_eff^2 + (delta+v)^2) + n_eff (delta+v) = target, where
    target is the current path length rounded up to the next wavelength
    multiple.  ``delta`` is the antenna's offset from the user along x.
    One validated step of :func:`_chain`, which holds the formulas.
    """
    _check_step(h_eff, delta)
    return _chain(h_eff, n_eff, wavelength, 0.0, delta, 1, _ANYWHERE, outward=False)[1][0]


def refine_shift_outward(h_eff: float, delta: float, n_eff: float, wavelength: float) -> float:
    """Left-of-user (feed-side) counterpart of :func:`refine_shift`.

    Here the total path sqrt(h_eff^2 + e^2) - n_eff e decreases as the
    antenna moves away from the user (toward the feed), so the target is the
    path rounded *down* to the previous wavelength multiple.  Raises
    :class:`FeasibilityError` for n_eff = 1 when that target is not positive.
    """
    _check_step(h_eff, delta)
    return _chain(h_eff, n_eff, wavelength, 0.0, delta, 1, _ANYWHERE, outward=True)[1][0]


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
    range, as offsets from the user on this side).  Each step places the
    antenna at ``delta`` plus the smallest shift that lands its path on the
    wavelength grid (:func:`refine_shift`, :func:`refine_shift_outward`),
    then moves ``min_spacing`` further out.

    The only scalar copy of the shift formulas.  Both sides share one form:
    with sign = +1 right of the user and -1 left of it, the target is
    t = lambda * ceil((sign r + n_eff delta) / lambda - eps), which is the
    right side's path rounded up and minus the left side's path rounded
    down, and the aligned offset is (t n_eff - sign sqrt(t^2 + h^2 s)) / s
    with s = n_eff^2 - 1, or (t^2 - h^2) / (2 t) for n_eff = 1.  These are
    exact rewrites of the one-sided forms (negation and commutation only),
    so both sides get the bits of the separate solvers.
    """
    lo, hi = bounds
    sign = -1.0 if outward else 1.0
    unit = n_eff == 1.0
    h2 = h_eff * h_eff
    s = n_eff * n_eff - 1.0
    h2s = h2 * s
    hypot, ceil, sqrt = math.hypot, math.ceil, math.sqrt
    offsets: list[float] = []
    shifts: list[float] = []
    delta = start_delta
    for _ in range(quota):
        t = wavelength * ceil((sign * hypot(h_eff, delta) + n_eff * delta) / wavelength - _GRID_EPS)
        if unit:
            if outward and t >= 0.0:
                # The left side's target -t is not positive.  The path only decays
                # asymptotically to zero for n_eff = 1, so a non-positive grid
                # line can never be reached by shifting outward.
                raise FeasibilityError("no reachable alignment point on the feed side")
            v = (t * t - h2) / (2.0 * t) - delta
        else:
            v = (t * n_eff - sign * sqrt(t * t + h2s)) / s - delta
        if v < 0.0:
            v = 0.0
        final = delta + v
        if not lo <= final <= hi:
            break
        offsets.append(final)
        shifts.append(v)
        delta = final + min_spacing
    return offsets, shifts


def _check_count(params: SystemParams, num_pas: int | None) -> int:
    n = params.num_pas if num_pas is None else num_pas
    if n < 2 or n % 2 != 0:
        raise ValueError("number of PAs must be a positive even integer")
    return n


def _split(
    params: SystemParams, waveguide: Waveguide, user: UserPosition, n: int, h_eff: float
) -> tuple[list[float], list[float], list[float], list[float]]:
    """One waveguide's chains, as :func:`refine_waveguide` describes them:
    (left offsets, left shifts, right offsets, right shifts), each innermost first."""
    lam, spacing, half = params.wavelength_m, params.min_spacing_m, params.min_spacing_m / 2.0
    # Both chains stay inside this waveguide's [feed_x, max_x].
    right_bounds = (waveguide.feed_x - user.x, waveguide.max_x - user.x)
    left_bounds = (user.x - waveguide.max_x, user.x - waveguide.feed_x)

    right, v_right = _chain(h_eff, params.n_eff, lam, spacing, half, n // 2, right_bounds, False)
    short = n // 2 - len(right)
    left, v_left = _chain(
        h_eff, params.n_eff, lam, spacing, half, n // 2 + short, left_bounds, True
    )
    short = n - len(right) - len(left)
    if short > 0 and len(right) == n // 2:
        # Left side hit the feed; push the remainder onto the right chain.
        extra, v_extra = _chain(
            h_eff, params.n_eff, lam, spacing, right[-1] + spacing, short, right_bounds, False
        )
        right += extra
        v_right += v_extra
        short = n - len(right) - len(left)
    if short > 0:
        raise FeasibilityError(
            f"waveguide at y={waveguide.y:+.3g}: only {n - short} of {n} PAs fit in "
            f"[{waveguide.feed_x:.6g}, {waveguide.max_x:.6g}] around x_u={user.x:.6g}"
        )
    return left, v_left, right, v_right


def _assemble(
    params: SystemParams, user: UserPosition, h_effs: list[float], chains: list[tuple]
) -> tuple[np.ndarray, list[RefinementResult]]:
    """(M, N) positions and one :class:`RefinementResult` per waveguide.

    Gaps, largest spacings and alignment residuals are computed over the
    whole array at once; each result holds its row of the positions.
    """
    offsets, shifts = [], []
    for left, v_left, right, v_right in chains:
        offsets += left[::-1] + right
        shifts += v_left[::-1] + v_right
    m = len(chains)
    offsets = np.array(offsets).reshape(m, -1)
    shifts = np.array(shifts).reshape(m, -1)
    n_left = [len(c[0]) for c in chains]
    # Ascending positions: left offsets flip sign, outermost first.
    feed_side = np.arange(offsets.shape[1]) < np.array(n_left)[:, None]
    positions = np.where(feed_side, user.x - offsets, user.x + offsets)
    max_spacing = np.diff(positions, axis=1).max(axis=1)

    # Max circular deviation of (r + n_eff x) mod lambda across each row;
    # h_eff**2 stays a Python float power, as in the one-waveguide form.
    lam = params.wavelength_m
    h2 = np.array([h**2 for h in h_effs])[:, None]
    res = np.mod(np.sqrt((positions - user.x) ** 2 + h2) + params.n_eff * positions, lam)
    dev = np.abs(res - res[:, :1])
    residual = np.max(np.minimum(dev, lam - dev), axis=1)

    results = [
        RefinementResult(
            positions=positions[i],
            shifts=shifts[i],
            max_spacing_m=float(max_spacing[i]),
            alignment_residual_m=float(residual[i]),
            n_left=n_left[i],
            n_right=len(chains[i][2]),
            h_eff_m=h_effs[i],
        )
        for i in range(m)
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
    n = _check_count(params, num_pas)
    h_eff = waveguide.effective_elevation(user)
    _, results = _assemble(params, user, [h_eff], [_split(params, waveguide, user, n, h_eff)])
    return results[0]


def refine_all(
    params: SystemParams,
    layout: WaveguideLayout,
    user: UserPosition,
    num_pas: int | None = None,
) -> tuple[PinchingConfig, list[RefinementResult]]:
    """Refine every waveguide independently and assemble the pinching matrix."""
    check_user_in_region(params, user)
    n = _check_count(params, num_pas)
    h_effs = [wg.effective_elevation(user) for wg in layout.waveguides]
    chains = [_split(params, wg, user, n, h) for wg, h in zip(layout.waveguides, h_effs)]
    positions, results = _assemble(params, user, h_effs, chains)
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
    """Array form of one :func:`_chain` step, with numpy in place of ``math``.

    Same side-signed target t and offset as :func:`_chain`; the side sign
    enters through the operand order (n_eff delta - r on the feed side,
    + root in the offset) instead of one more multiplication per step.  NaN
    where the feed side has no reachable alignment point (n_eff = 1, t >= 0).
    """
    hyp, ndelta = np.hypot(h_eff, delta), n_eff * delta
    t = wavelength * np.ceil(
        ((ndelta - hyp) if outward else (ndelta + hyp)) / wavelength - _GRID_EPS
    )
    if n_eff == 1.0:
        if outward:
            t = np.where(t < 0.0, t, np.nan)
        d = (t * t - h_eff * h_eff) / (2.0 * t)
    else:
        s = n_eff * n_eff - 1.0
        root = np.sqrt(t * t + h_eff * h_eff * s)
        d = ((t * n_eff + root) if outward else (t * n_eff - root)) / s
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
