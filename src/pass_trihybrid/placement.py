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
independently of the others.  A row is one (user, waveguide) pair and has
two chains, one on each side of the user.  One driver, :func:`_place`,
holds the placement policy over the chains: their bounds, the start offset,
N/2 PAs per chain, the overflow redistribution across sides and the fit
verdict.  The shift formulas exist once, in :func:`_grid_index` and
:func:`_aligned_offset`, which take the side through per-chain signed
constants that only :func:`_chains` builds, so chains of both sides can
share one call; :func:`_one_shift` composes them for the one-PA solvers.

A chain's k-th PA lands on grid line I_0 + k wherever :func:`_on_lines`
guarantees it, and :func:`_steps` turns that closed form into the walk's
bits: the one chain kernel of both chain solvers, which otherwise walk.
:func:`_chains` builds every chain's signed constants once per call, and
:func:`_closed_form` sets up the closed form of a phase's chains for both
solvers, with one guarantee per chain.  :func:`refine_all` solves one user's
chains as whole arrays (:func:`_solve`, one call per phase over the chains
of both sides): each chain the closed form guarantees takes it, and only
the others take the verify passes; it keeps every offset and shift.
:func:`refine_batch` solves many users' chains in blocks, in closed form
where a phase's chains are all guaranteed, and keeps nothing, handing each
block of steps to the caller's ``fold``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .model import (
    FeasibilityError,
    PinchingConfig,
    SystemParams,
    UserPosition,
    Waveguide,
    WaveguideLayout,
    _trusted_pinching,
    check_user_in_region,
)

# Tolerance (in wavelength units) under which a path already on the grid is
# treated as exact, so v = 0 instead of a full extra wavelength of shift.
_GRID_EPS = 1e-12
_EPS = float(np.finfo(float).eps)  # looked up once, not per call
_SIDES = np.array([1.0, -1.0])  # right of the user, left of it
_UNREACHABLE = "no reachable alignment point on the feed side"
# Entries per block of :func:`refine_batch`'s walk, large enough that a fold's
# per-call overhead is shared by many steps, small enough that its per-entry
# cost stays near its minimum: steps x rows in the first phase, whose block is
# one fold call over both sides (twice the entries), live chains later.
_BLOCK_ENTRIES = 4096
# :func:`refine_batch` walks phases of at most this many steps: the closed
# form's set-up costs about what so short a walk would save.
_WALKED_STEPS = 8


def _chains(h_eff: np.ndarray, n_eff: float, wavelength: float) -> tuple[np.ndarray, tuple]:
    """(side, constants) of R rows' 2R chains: chain r right of row r's user, chain R + r left of it.

    ``constants`` is the per-chain (h_eff, h^2 s, side n_eff, side lambda,
    side s), the chain solvers' whole view of a chain and its side, so one
    call can take chains of both sides.  side = +1 right of the user and -1
    left of it; s = n_eff^2 - 1, and for n_eff = 1 the elevation term is h^2
    and s is 2.  Negation is exact, so a left chain gets the bits of the
    one-sided forms, whether it is solved alone or among right chains.  This
    is the only code that builds these constants.
    """
    side = _SIDES.repeat(h_eff.size)
    h = np.concatenate([h_eff, h_eff])
    s = 2.0 if n_eff == 1.0 else n_eff * n_eff - 1.0
    hh = h * h if n_eff == 1.0 else h * h * s
    return side, (h, hh, side * n_eff, side * wavelength, side * s)


def _grid_index(h_eff, delta, sn, sl) -> np.ndarray:
    """Grid index I = ceil((side n_eff delta + r) / (side lambda) - eps) of a PA at ``delta``.

    r = hypot(h_eff, delta); ``sn`` and ``sl`` are the chains' side n_eff and
    side lambda from :func:`_chains`.
    The signed target st = side lambda I is the right side's path r + n_eff
    delta rounded up, and minus the left side's path r - n_eff delta rounded
    down.
    """
    return np.ceil((sn * delta + np.hypot(h_eff, delta)) / sl - _GRID_EPS)


def _aligned_offset(h2s, st, n_eff: float, ss, out=None) -> np.ndarray:
    """Offset (st n_eff - sqrt(st^2 + h^2 s)) / ss on the signed target ``st`` = side lambda I.

    ``h2s`` and ``ss`` are the chains' h^2 s and side s from :func:`_chains`;
    the sign of ``ss`` is a chain's side.  For n_eff = 1 the offset is
    (st^2 - h^2) / (ss st), and NaN on the feed side (ss < 0) where st <= 0:
    that path only decays asymptotically to zero, so a non-positive grid
    line is never reached.  Given ``out``, an array of the shape of ``st``
    (which must then be the broadcast shape), each operation is one pass
    into ``out`` or into ``st``, which is overwritten; the offsets are
    returned in ``out``.
    """
    if n_eff == 1.0:
        st = np.where((ss < 0.0) & (st <= 0.0), np.nan, st)
        return np.divide(st * st - h2s, ss * st, out=out)
    root = np.multiply(st, st, out=out)
    root = np.sqrt(np.add(root, h2s, out=out), out=out)
    t = np.multiply(st, n_eff, out=None if out is None else st)
    return np.divide(np.subtract(t, root, out=out), ss, out=out)


def _one_shift(h_eff: float, delta: float, n_eff: float, wavelength: float, outward: bool) -> float:
    """Smallest shift v >= 0 aligning one PA at offset ``delta``: one step of the walk.

    The PA's chain is chain 0 (right of the user) or chain 1 (left of it,
    ``outward``) of :func:`_chains`; the shift is max(d - delta, 0) for the
    :func:`_aligned_offset` d on its :func:`_grid_index` line.
    """
    if h_eff <= 0:
        raise ValueError("effective elevation must be positive")
    if delta < 0:
        raise ValueError("offset must be nonnegative")
    # Right of the user at n_eff = 1, an elevation and offset below about
    # 1e-12 lambda round to grid line 0, where the offset root divides by 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        chain = _chains(np.array([h_eff], dtype=float), n_eff, wavelength)[1]
        h, hh, sn, sl, ss = (a[int(outward)] for a in chain)
        d = _aligned_offset(hh, sl * _grid_index(h, delta, sn, sl), n_eff, ss)
        v = float(np.maximum(d - delta, 0.0))
    if not math.isfinite(v):
        message = _UNREACHABLE if outward else "no reachable alignment point right of the user"
        raise FeasibilityError(message)
    return v


def refine_shift(h_eff: float, delta: float, n_eff: float, wavelength: float) -> float:
    """Smallest shift v >= 0 aligning an antenna right of the user (away from the feed).

    Solves sqrt(h_eff^2 + (delta+v)^2) + n_eff (delta+v) = target, where
    target is the current path length rounded up to the next wavelength
    multiple.  ``delta`` is the antenna's offset from the user along x.
    A validated step of the walk (:func:`_one_shift`).
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


_RESULT_FIELDS = tuple(f.name for f in fields(RefinementResult))


def _on_lines(h_eff, reach, right, largest: float, n_eff: float, wavelength: float, spacing: float):
    """Chains whose every step up to offset ``reach`` lands on the next grid line, I + 1.

    A step moves the path by ``spacing`` times its slope, n_eff + e/r right
    of the user (``right``) and n_eff - e/r left of it; e/r grows with the
    offset e.  The move must stay inside (tol, 1 - tol) wavelengths, tol
    above the grid tolerance and the rounding of the path and of the root,
    which grows with ``largest``, the largest |I|, and n_eff / (n_eff - 1).
    """
    if n_eff == 1.0:
        return np.zeros(np.shape(h_eff), dtype=bool)
    tol = 1e-9 + 32.0 * _EPS * n_eff / (n_eff - 1.0) * largest
    per_step = wavelength / spacing  # wavelengths in one spacing
    # the largest e/r on each side; -1 where the slope n_eff alone breaks a limit
    steep = (1.0 - tol) * per_step - n_eff if n_eff >= tol * per_step else -1.0
    flat = n_eff - tol * per_step if n_eff <= (1.0 - tol) * per_step else -1.0
    return reach / np.hypot(h_eff, reach) <= np.where(right, steep, flat)


def _closed_form(chains: tuple, start, quota, hi, n_eff: float, wavelength: float, spacing: float):
    """(I_0, guaranteed): the closed-form set-up of chains from offsets ``start``.

    I_0 is the first step's :func:`_grid_index`; ``guaranteed`` says, per
    chain, whether :func:`_on_lines` guarantees it up to one spacing past
    ``hi`` or past the aligned offset on the quota's last line,
    I_0 + quota - 1, whichever is nearer.  So the step that crosses hi is
    exact, and the steps after it, computed on the assumed lines, stay past
    hi, where the caller masks them.  The rounding tolerance is the call's,
    set by its largest |I|, so a chain's verdict can depend on the other
    chains of the call.  ``chains`` are :func:`_chains`' constants.
    """
    h, hh, sn, sl, ss = chains
    index = _grid_index(h, start, sn, sl)
    last = _aligned_offset(hh, sl * (index + quota - 1), n_eff, ss)
    reach = np.minimum(last, hi) + spacing
    largest = float(np.abs(index).max(initial=0.0) + quota.max(initial=0))
    return index, _on_lines(h, reach, sl > 0, largest, n_eff, wavelength, spacing)


def _steps(d: np.ndarray, start, spacing: float, out=None) -> tuple[np.ndarray, np.ndarray]:
    """The walk's (offsets, shifts) of (steps, chains) aligned offsets ``d`` on known lines.

    The walk stores f_k = delta_k + max(d_k - delta_k, 0), delta_0 = ``start``,
    delta_k = f_{k-1} + ``spacing``.  A pass of that recurrence over the guess
    f = d is exact one step past its first wrong entry, so repeating it until
    it changes nothing gives the walk's bits, with no square root.  ``out``,
    if given, is three arrays of the shape of ``d``: two take the guesses in
    turn, each pass writing its delta and then its f over the one that does
    not hold the current guess, and the third takes the shifts.  Each
    operation is one pass into them, ``d`` is left as it is, and the offsets
    and shifts are returned in two of them.
    """
    if out is None:
        out = np.empty_like(d), np.empty_like(d), np.empty_like(d)
    spare, delta, shifts = out
    f = d
    while True:
        delta[0] = start
        np.add(f[:-1], spacing, out=delta[1:])
        np.maximum(np.subtract(d, delta, out=shifts), 0.0, out=shifts)
        new_f = np.add(delta, shifts, out=delta)
        if not (new_f != f).any():
            return new_f, shifts
        f, delta = new_f, f if f is not d else spare


def _solve(
    chains: tuple, start: np.ndarray, quota: np.ndarray, bounds: tuple[np.ndarray, np.ndarray],
    n_eff: float, wavelength: float, min_spacing: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The chains :func:`refine_batch` places, for R chains of either side, as whole arrays.

    ``chains`` are the R chains' constants from :func:`_chains`.  Chain r starts
    at offset ``start[r]`` and places ``quota[r]`` PAs or stops before the
    first outside ``bounds`` (lo, hi).  Returns (offsets, shifts, placed,
    failed): (R, max quota) arrays whose first ``placed[r]`` entries are chain
    r's PAs, and where it stopped at a feed-side NaN step.

    The guess puts step k on grid line I_0 + k (:func:`_closed_form`).  Each
    chain it guarantees takes :func:`_solve_closed`, and only the others take
    the verify passes of :func:`_solve_verified`, each group as whole arrays;
    a call whose chains all fall in one group passes them to that kernel
    unsplit.  The chains are independent columns, so each gets the walk's
    bits in either group; the two groups' rows are joined in chain order.
    """
    lo, hi = bounds
    index, closed = _closed_form(chains, start, quota, hi, n_eff, wavelength, min_spacing)
    cols = np.arange(int(quota.max()) + 1)[:, None]  # one step more, where every chain has ended
    if closed.all() or not closed.any():  # one group: no split
        kernel = _solve_closed if closed.all() else _solve_verified
        return kernel(chains, index, start, quota, lo, hi, cols, n_eff, min_spacing)
    rows, steps = quota.size, cols.size - 1
    out = np.empty((rows, steps)), np.empty((rows, steps)), np.empty(rows, dtype=int), np.empty(rows, dtype=bool)
    for group, kernel in ((closed, _solve_closed), (~closed, _solve_verified)):
        part = (a[group] for a in (index, start, quota, lo, hi))
        result = kernel(tuple(a[group] for a in chains), *part, cols, n_eff, min_spacing)
        for whole, value in zip(out, result):
            whole[group] = value
    return out


def _solve_closed(chains, index, start, quota, lo, hi, cols, n_eff: float, min_spacing: float):
    """:func:`_solve` for chains :func:`_closed_form` guarantees: :func:`_steps` on lines I_0 + k."""
    h2s, sl, ss = chains[1], chains[3], chains[4]
    f, shifts = _steps(_aligned_offset(h2s, sl * (index + cols), n_eff, ss), start, min_spacing)
    first = (~((lo <= f) & (f <= hi) & (cols < quota))).argmax(axis=0)  # offsets only grow
    return f[:-1].T, shifts[:-1].T, first, np.zeros(quota.shape, dtype=bool)


def _solve_verified(chains, index, start, quota, lo, hi, cols, n_eff: float, min_spacing: float):
    """:func:`_solve` for any chains: the guess I_0 + k, verified by a fixed-point iteration.

    One step pass over delta_k = f_{k-1} + min_spacing is exact up to and
    including the first index it changes; that prefix is kept and the
    indices past it are re-extrapolated by the steps the pass took.  A pass
    that changes nothing before a chain's end is a fixed point of the walk's
    recurrence, hence the walk's bits; the kept prefix grows every pass, so
    at most quota + 1 passes run.
    """
    h_eff, h2s, sn, sl, ss = chains
    in_quota = cols < quota
    index = index + cols
    f = _aligned_offset(h2s, sl * index, n_eff, ss)  # (steps, chains), as in the walk
    chain_starts = np.arange(h_eff.size)  # in the flattened (steps, chains) arrays
    f[0] = start + np.maximum(f[0] - start, 0.0)  # not f_0 itself when d_0 - start rounds
    delta = np.empty_like(f)
    delta[0] = start
    steps = np.empty_like(f)
    while True:
        np.add(f[:-1], min_spacing, out=delta[1:])
        new_index = _grid_index(h_eff, delta, sn, sl)
        d = _aligned_offset(h2s, sl * new_index, n_eff, ss)
        shifts = np.maximum(d - delta, 0.0)
        new_f = delta + shifts
        placing = (lo <= new_f) & (new_f <= hi) & in_quota  # False at NaN
        # The first index where the pass changed the guess or the chain ended;
        # every chain that ended there (unchanged before it) is solved.
        first = (~placing | (new_f != f)).argmax(axis=0)
        if not placing.ravel()[first * h_eff.size + chain_starts].any():
            break
        # Keep the pass up to ``first``; extrapolate the indices past it by
        # the increments the pass just took (NaN, unreachable, counts as 1).
        later = cols > first
        steps[0] = new_index[0]
        steps[1:] = np.where(later[1:], np.fmax(new_index[1:] - index[:-1], 1.0), new_index[1:] - new_index[:-1])
        index = steps.cumsum(axis=0)
        f = np.where(later, _aligned_offset(h2s, sl * index, n_eff, ss), new_f)
    failed = (first < quota) & np.isnan(new_f.ravel()[first * h_eff.size + chain_starts])
    return new_f[:-1].T, shifts[:-1].T, first, failed


def _place(solve: Callable, n: int, spacing: float, user_x, feed_x: np.ndarray, max_x: np.ndarray):
    """The placement policy over R rows, each one (user, waveguide) pair, as 2R chains.

    Chain r is row r's chain right of the user and chain R + r its chain
    left of it (:func:`_chains`' order).  Every chain starts half the minimum
    spacing from the user and stays inside its waveguide's [feed_x, max_x].
    Two phases, each one call ``solve(chains, col, start, quota, lo, hi)``
    over chains of both sides: first every chain (``chains`` a slice) takes
    N/2 PAs, then every full chain whose partner fell short, and did not
    fail, takes the shortfall.  The continuation lists its chains longest
    quota first, ties in chain order, so the chains whose quota reaches any
    step are a prefix of them.  The call continues the chains from their PA
    ``col``: from offsets ``start``, at most ``quota`` more PAs each, within
    the offsets [``lo``, ``hi``].  It returns (placed, next start, failed)
    per chain, in the order of ``chains``.  Next start is the offset at
    which a chain of the phase's longest quota continues, read only from
    the first phase.  Failed marks a chain that reached a feed-side step
    with no alignment point (n_eff = 1), which only a left chain does.
    Returns (n_left, n_right, failed, fits) per row: ``fits`` marks rows
    whose N PAs all fit, which a failed row never does (its left chain
    stops short and nothing continues it).
    """
    half, rows = n // 2, feed_x.size
    lo = np.concatenate([feed_x - user_x, user_x - max_x])
    hi = np.concatenate([max_x - user_x, user_x - feed_x])
    placed, next_start, failed = solve(
        slice(None), 0, np.full(2 * rows, spacing / 2.0), np.full(2 * rows, half), lo, hi
    )
    by_side = placed.reshape(2, rows)  # (side, row); [::-1] pairs each chain with its partner
    # Only where a chain fell short (failed or not) can its partner continue.
    if placed.min(initial=half) < half:
        partner_failed = failed.reshape(2, rows)[::-1]
        chains = ((by_side == half) & (by_side[::-1] < half) & ~partner_failed).ravel().nonzero()[0]
        if chains.size:
            quota = half - by_side[::-1].ravel()[chains]
            order = np.argsort(-quota, kind="stable")  # longest quota first, ties in chain order
            chains, quota = chains[order], quota[order]
            more, _, bad = solve(chains, half, next_start[chains], quota, lo[chains], hi[chains])
            placed[chains] += more
            failed[chains] |= bad
    n_right, n_left = by_side
    return n_left, n_right, failed[rows:], n_left + n_right == n


def _refine(
    params: SystemParams, layout: WaveguideLayout, user: UserPosition
) -> tuple[PinchingConfig, list[RefinementResult]]:
    """The pinching matrix and one :class:`RefinementResult` per waveguide, N = ``params.num_pas``.

    :func:`_place` over the M waveguides' 2M chains, one :func:`_solve` call
    per phase over the chains of both sides, whose offsets and shifts are
    kept.  The first waveguide in layout order whose PAs do not all fit
    raises :class:`FeasibilityError`.  A waveguide's ascending row is one
    slice copy per chain, its left chain reversed and then its right one;
    gaps, largest spacings and alignment residuals are computed over the
    whole (M, N) array at once.  The positions are ascending, spaced and in
    range by construction, so the matrix is not validated again
    (:func:`model._trusted_pinching`), and the records, whose values have
    their fields' types, are set past the frozen constructor in the same way.
    """
    n, m, spacing = params.num_pas, len(layout), params.min_spacing_m
    n_eff, lam = params.n_eff, params.wavelength_m
    feed_x, max_x = layout.field("feed_x"), layout.field("max_x")
    h_eff = layout.elevations(user)
    per_chain = _chains(h_eff, n_eff, lam)[1]
    # Each chain's offsets (kept[0]) and shifts (kept[1]) from the user,
    # innermost first, in :func:`_chains`' order.
    kept = np.zeros((2, 2 * m, n))

    def solve(chains, col, start, quota, lo, hi):
        f, v, placed, failed = _solve(
            tuple(a[chains] for a in per_chain), start, quota, (lo, hi), n_eff, lam, spacing
        )
        kept[0, chains, col : col + f.shape[1]] = f
        kept[1, chains, col : col + f.shape[1]] = v
        return placed, f[:, -1] + spacing, failed

    n_left, n_right, failed, fits = _place(solve, n, spacing, user.x, feed_x, max_x)
    if not fits.all():
        i = int(fits.argmin())
        wg = layout[i]
        if failed[i]:
            raise FeasibilityError(_UNREACHABLE)
        raise FeasibilityError(
            f"waveguide at y={wg.y:+.3g}: only {n_left[i] + n_right[i]} of {n} PAs fit in "
            f"[{wg.feed_x:.6g}, {wg.max_x:.6g}] around x_u={user.x:.6g}"
        )

    # Ascending rows of offsets and shifts, one slice copy per chain: the left
    # chain reversed (its PAs are the last n_left columns of the reversed
    # view, outermost first), then the right one; x_u + (-f) is x_u - f bit
    # for bit.
    np.negative(kept[0, m:], out=kept[0, m:])
    reversed_left, rows = kept[:, m:, ::-1], np.empty((2, m, n))
    lefts, rights = n_left.tolist(), n_right.tolist()
    for i, (left, right) in enumerate(zip(lefts, rights)):
        rows[:, i, :left] = reversed_left[:, i, n - left :]
        rows[:, i, left:] = kept[:, i, :right]
    positions, row_shifts = rows
    positions += user.x
    max_spacing = (positions[:, 1:] - positions[:, :-1]).max(axis=1)

    # Max circular deviation of (r + n_eff x) mod lambda across each row;
    # h_eff**2 stays a Python float power, as in the one-waveguide form.
    h_effs = h_eff.tolist()
    h2 = np.array([h**2 for h in h_effs])[:, None]
    res = np.mod(np.sqrt((positions - user.x) ** 2 + h2) + n_eff * positions, lam)
    dev = np.abs(res - res[:, :1])
    residual = np.minimum(dev, lam - dev).max(axis=1)

    results = []
    for row in zip(
        positions, row_shifts, max_spacing.tolist(), residual.tolist(), lefts, rights, h_effs
    ):
        result = object.__new__(RefinementResult)  # frozen: set the fields past __setattr__
        result.__dict__.update(zip(_RESULT_FIELDS, row))
        results.append(result)
    return _trusted_pinching(positions, spacing, feed_x, max_x), results


def refine_waveguide(
    params: SystemParams, waveguide: Waveguide, user: UserPosition
) -> RefinementResult:
    """Phase-aligned feasible placement of one waveguide's PAs around the user.

    Half the antennas go on each side of the user's x-coordinate, starting at
    half the minimum spacing and refined outward.  When one side's block
    would leave the deployment range, the excess antennas continue the other
    side's recursion instead; only if both sides run out of room is the
    geometry infeasible.
    """
    return _refine(params, WaveguideLayout((waveguide,)), user)[1][0]


def refine_all(
    params: SystemParams, layout: WaveguideLayout, user: UserPosition
) -> tuple[PinchingConfig, list[RefinementResult]]:
    """Refine every waveguide independently and assemble the pinching matrix.

    Each waveguide gets ``params.num_pas`` PAs.
    """
    check_user_in_region(params, user)
    return _refine(params, layout, user)


def refine_batch(
    params: SystemParams,
    h_eff: np.ndarray,
    user_x: np.ndarray,
    feed_x: np.ndarray,
    max_x: np.ndarray,
    fold: Callable[[tuple, np.ndarray, np.ndarray], None],
) -> np.ndarray:
    """:func:`refine_all` for R (user, waveguide) rows at once; returns where the N PAs fit.

    ``h_eff``, ``user_x``, ``feed_x`` and ``max_x`` hold one value per row.
    :func:`_place` over the rows' 2R chains, each phase over a flat axis of
    its chains, the side given by each chain's signed constants
    (:func:`_chains`, built once per call).  A phase longer than
    :data:`_WALKED_STEPS` steps whose chains :func:`_closed_form` all
    guarantees is solved in closed form, block by block, every chain to its
    quota: its steps past hi are computed on the assumed lines, I_0 + k, and
    masked like any other.  Any other phase walks one step per PA
    (:func:`_grid_index`, then :func:`_aligned_offset`).  Both kernels
    compute offsets only; one pass over each block then marks the steps
    that are PAs, the only end rule of either kernel, and at n_eff = 1 the
    chains that fail at a feed-side step with no alignment point (NaN):
    those that enter the block with every step placed and whose first
    unplaced step is their first NaN one, within their quota.  The
    continuation's chains arrive longest quota first (:func:`_place`), so
    the chains whose steps reach a block are a prefix of them, and the
    block solves only that prefix.

    Nothing is kept: the steps are handed in blocks to ``fold(chains,
    xs, placed)``, so a caller can fold the PAs into its effective rows and
    drop them (the Monte Carlo engine sums their real amplitudes and checks
    that they sit on the wavelength grid).  ``chains`` indexes the (2, R)
    grid of chains, side first (0 right of the user, 1 left of it): every
    chain of both sides, (slice(None), slice(None)), in the first phase,
    and a pair of (side, row) index arrays in the continuation.  ``xs`` and
    ``placed`` are (steps, 2, R) arrays in the first phase and (steps,
    chains) arrays in the continuation: step k of a block holds one PA
    position x_u + side offset per chain, and whether that PA is part of
    its chain, i.e. the chain has not yet hit its quota or left its bounds.
    The offset of a step that is not placed may be NaN or lie past the
    bounds, so a fold must mask it with ``placed``, as
    :func:`experiments.draw_snrs`' fold does.  Both phases cut their blocks
    by one schedule: a block is as many steps (at least one) as make about
    a budget of entries over the chains whose steps reach it, so blocks
    grow as chains end; the last block is what is left.  The budget is
    :data:`_BLOCK_ENTRIES` in the continuation and twice that in the first
    phase, whose 2R chains share one quota, so a first-phase block is
    :data:`_BLOCK_ENTRIES` // R steps, one fold call over both sides.  So
    the fold sees each chain's PAs in chain order, outward from the user,
    its continuation last.

    Each phase allocates its block arrays once, and every block is a view
    of their first entries: ``xs`` and ``placed``, which the fold owns until
    it returns and may overwrite (nothing reads them after it), and in
    closed form the signed targets, aligned offsets and shifts, which
    :func:`_aligned_offset` and :func:`_steps` write one pass per operation.
    The next block overwrites them all, so a fold keeps neither array.
    The result is False where :func:`refine_all` raises :class:`FeasibilityError`.
    """
    n_eff, wavelength, spacing = params.n_eff, params.wavelength_m, params.min_spacing_m
    rows = h_eff.size
    side, per_chain = _chains(h_eff, n_eff, wavelength)

    def walk(chains, col, delta, quota, lo, hi):
        size = delta.size
        h, hh, sn, sl, ss = chain = tuple(a[chains] for a in per_chain)
        steps = int(quota.max(initial=0))
        index, closed = None, steps > _WALKED_STEPS
        if closed:
            index, closed = _closed_form(chain, delta, quota, hi, n_eff, wavelength, spacing)
            closed = closed.all()
        # The quota test matters only where a quota is shorter than the walk,
        # the lower bound only where a chain starts below it (offsets only grow).
        if quota.min(initial=steps) == steps:
            quota = None
        if (lo <= delta).all():
            lo = None
        # (first step, end step, chains walked) of each block.  The chains whose
        # steps reach a block are a prefix (longest quota first), all of them
        # where no quota is shorter; a block takes about ``budget`` entries over
        # them, so blocks grow as chains end.  A first-phase block is one fold
        # call over both sides' equal quotas: _BLOCK_ENTRIES // R steps.
        budget = _BLOCK_ENTRIES if col else 2 * _BLOCK_ENTRIES
        blocks, first = [], 0
        while first < steps:
            n = size if quota is None else int(np.count_nonzero(quota > first))
            blocks.append((first, min(first + max(1, budget // n), steps), n))
            first = blocks[-1][1]
        if col == 0:  # every chain, as (steps, 2, R) blocks
            key, sign, ux = (slice(None), slice(None)), side.reshape(2, rows), user_x
        else:
            key = divmod(chains, rows)
            sign, ux = side[chains], user_x[key[1]]
        # Each block's (steps, chains) positions and placed flags, and in closed
        # form its signed targets, aligned offsets and shifts: one array each
        # per call, sized by the first block, every block a view of its first entries.
        entries = max(blocks[0][1] * size if blocks else 0, _BLOCK_ENTRIES)
        xs, live = np.empty(entries), np.empty(entries, dtype=bool)
        work = np.empty((3, entries)) if closed else ()
        placed = np.zeros(size, dtype=int)
        failed = np.zeros(size, dtype=bool)
        n = size  # the chains walked
        for first, stop, walked in blocks:
            if walked < n:  # drop the chains whose steps ended in an earlier block
                n = walked
                key = tuple(k[:n] for k in key)
                h, hh, sn, sl, ss, sign, ux, hi, quota, delta, index, lo = (
                    a[:n] if isinstance(a, np.ndarray) else a
                    for a in (h, hh, sn, sl, ss, sign, ux, hi, quota, delta, index, lo)
                )
            count = stop - first
            pa_x, pa_live = (a[: count * n].reshape(count, n) for a in (xs, live))
            if closed:  # every step on its known line, I_0 + k
                st, d, shifts = (a[: count * n].reshape(count, n) for a in work)
                np.add(index, np.arange(first, stop, dtype=float)[:, None], out=st)  # I_0 + k
                _aligned_offset(hh, np.multiply(st, sl, out=st), n_eff, ss, out=d)
                # the targets are spent: their array and the positions' take the guesses
                f, _ = _steps(d, delta, spacing, out=(st, pa_x, shifts))
                delta = f[-1] + spacing
            else:
                # One step per PA.  A feed-side step with no alignment point
                # (n_eff = 1) is NaN, and so is every step after it.
                for k in range(count):
                    d = _aligned_offset(hh, sl * _grid_index(h, delta, sn, sl), n_eff, ss)
                    delta = np.add(delta, np.maximum(d - delta, 0.0), out=pa_x[k]) + spacing
                f = pa_x
            # The block pass.  Offsets only grow (or stay NaN), so a chain's
            # PAs are a prefix of its steps: those up to hi (NaN is not),
            # within the quota, of a chain whose first PA is not below lo
            # (else it places none).
            np.less_equal(f, hi, out=pa_live)
            if lo is not None:
                if first == 0:
                    lo = lo <= f[0]
                pa_live &= lo
            if quota is not None:
                pa_live &= np.arange(first, stop)[:, None] < quota
            ends = pa_live.sum(axis=0)
            if n_eff == 1.0:
                # A chain that entered the block live fails where its first
                # unplaced step is its first NaN step, within its quota.
                nan = np.count_nonzero(np.isnan(f), axis=0)
                fail = (placed[:n] == first) & (nan > 0) & (ends == count - nan)
                failed[:n] |= fail if quota is None else fail & (first + ends < quota)
            placed[:n] += ends
            # Offsets to positions x_u + side offset: x_u + (-f) is x_u - f bit for bit
            f, pa_x, pa_live = (a.reshape((count,) + sign.shape) for a in (f, pa_x, pa_live))
            np.add(np.multiply(f, sign, out=pa_x), ux, out=pa_x)
            fold(key, pa_x, pa_live)
        return placed, delta, failed

    return _place(walk, params.num_pas, spacing, user_x, feed_x, max_x)[-1]
