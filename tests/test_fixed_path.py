"""Fixed-user path against verbatim copies of its earlier per-PA / per-waveguide code.

``placement._solve`` solves whole chains as arrays on the one shift kernel,
and ``refine_all`` refines and assembles all waveguides at once;
``analysis.snr_bounds`` evaluates its gain sums over all waveguides at once.
The results are meant to be unchanged to the last bit, so every comparison
here is exact: ``np.array_equal`` and ``==``, no tolerance, and the same
``FeasibilityError`` message.
"""

import dataclasses
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pass_trihybrid import (
    ApproximationWarning,
    FeasibilityError,
    PinchingConfig,
    SystemParams,
    UserPosition,
    Waveguide,
    WaveguideLayout,
    refine_all,
    refine_shift,
    refine_shift_outward,
    refine_waveguide,
    snr_bounds,
    snr_linear,
)
from pass_trihybrid import analysis, experiments, placement
from pass_trihybrid.analysis import BoundsReport, surrogate_max_spacing
from pass_trihybrid.model import check_user_in_region
from pass_trihybrid.placement import (
    RefinementResult,
    _aligned_offset,
    _grid_index,
    _on_lines,
    _steps,
)

# --- Reference: the per-PA solvers and chain, copied verbatim --------------

_GRID_EPS = 1e-12


def ref_refine_shift(h_eff: float, delta: float, n_eff: float, wavelength: float) -> float:
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


def ref_refine_shift_outward(h_eff: float, delta: float, n_eff: float, wavelength: float) -> float:
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


def ref_chain(h_eff, n_eff, wavelength, min_spacing, start_delta, quota, bounds, outward):
    lo, hi = bounds
    offsets: list[float] = []
    shifts: list[float] = []
    delta = start_delta
    solve = ref_refine_shift_outward if outward else ref_refine_shift
    for _ in range(quota):
        v = solve(h_eff, delta, n_eff, wavelength)
        final = delta + v
        if not lo <= final <= hi:
            break
        offsets.append(final)
        shifts.append(v)
        delta = final + min_spacing
    return offsets, shifts


def ref_alignment_residual(positions, h_eff, n_eff, wavelength, user_x):
    r = np.sqrt((positions - user_x) ** 2 + h_eff**2)
    res = np.mod(r + n_eff * positions, wavelength)
    dev = np.abs(res - res[0])
    return float(np.max(np.minimum(dev, wavelength - dev)))


def ref_refine_waveguide(params, waveguide, user, num_pas=None):
    n = params.num_pas if num_pas is None else num_pas
    if n < 2 or n % 2 != 0:
        raise ValueError("number of PAs must be a positive even integer")
    h_eff = waveguide.effective_elevation(user)
    lam = params.wavelength_m
    half = params.min_spacing_m / 2.0

    right_bounds = (waveguide.feed_x - user.x, waveguide.max_x - user.x)
    left_bounds = (user.x - waveguide.max_x, user.x - waveguide.feed_x)

    right, v_right = ref_chain(
        h_eff, params.n_eff, lam, params.min_spacing_m, half, n // 2, right_bounds, outward=False
    )
    short = n // 2 - len(right)
    left, v_left = ref_chain(
        h_eff, params.n_eff, lam, params.min_spacing_m, half, n // 2 + short, left_bounds,
        outward=True,
    )
    short = n - len(right) - len(left)
    if short > 0 and len(right) == n // 2:
        delta = right[-1] + params.min_spacing_m
        extra, v_extra = ref_chain(
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

    positions = np.array([user.x - e for e in reversed(left)] + [user.x + d for d in right])
    shifts = np.array(list(reversed(v_left)) + v_right)
    gaps = np.diff(positions)
    return RefinementResult(
        positions=positions,
        shifts=shifts,
        max_spacing_m=float(gaps.max()) if len(gaps) else params.min_spacing_m,
        alignment_residual_m=ref_alignment_residual(positions, h_eff, params.n_eff, lam, user.x),
        n_left=len(left),
        n_right=len(right),
        h_eff_m=h_eff,
    )


def ref_refine_all(params, layout, user, num_pas=None):
    check_user_in_region(params, user)
    results = [ref_refine_waveguide(params, wg, user, num_pas) for wg in layout.waveguides]
    positions = np.stack([r.positions for r in results])
    config = PinchingConfig(
        positions=positions,
        min_spacing_m=params.min_spacing_m,
        feed_x=layout.field("feed_x"),
        max_x=layout.field("max_x"),
    )
    return config, results


# --- Reference: _solve before it split a call's chains by guarantee, copied verbatim --
# It verified every chain of a call unless the closed form guaranteed all of them.


def ref_closed_form(chains: tuple, start, quota, hi, n_eff: float, wavelength: float, spacing: float):
    h, hh, sn, sl, ss = chains
    index = _grid_index(h, start, sn, sl)
    last = _aligned_offset(hh, sl * (index + quota - 1), n_eff, ss)
    reach = np.minimum(last, hi) + spacing
    largest = float(np.abs(index).max(initial=0.0) + quota.max(initial=0))
    return index, _on_lines(h, reach, sl > 0, largest, n_eff, wavelength, spacing).all()


def ref_solve(
    chains: tuple, start: np.ndarray, quota: np.ndarray, bounds: tuple[np.ndarray, np.ndarray],
    n_eff: float, wavelength: float, min_spacing: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    lo, hi = bounds
    h_eff, h2s, sn, sl, ss = chains
    first_index, closed = ref_closed_form(chains, start, quota, hi, n_eff, wavelength, min_spacing)
    cols = np.arange(int(quota.max()) + 1)[:, None]  # one step more, where every chain has ended
    in_quota = cols < quota
    index = first_index + cols
    f = _aligned_offset(h2s, sl * index, n_eff, ss)  # (steps, chains), as in the walk
    if closed:
        f, shifts = _steps(f, start, min_spacing)
        first = (~((lo <= f) & (f <= hi) & in_quota)).argmax(axis=0)  # offsets only grow
        return f[:-1].T, shifts[:-1].T, first, np.zeros(quota.shape, dtype=bool)
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
        steps[1:] = np.where(later[1:], np.fmax(new_index[1:] - index[:-1], 1.0), np.diff(new_index, axis=0))
        index = np.cumsum(steps, axis=0)
        f = np.where(later, _aligned_offset(h2s, sl * index, n_eff, ss), new_f)
    failed = (first < quota) & np.isnan(new_f.ravel()[first * h_eff.size + chain_starts])
    return new_f[:-1].T, shifts[:-1].T, first, failed



# --- Reference: refine_all's row assembly before one slice copy per chain, copied verbatim --
# Its rows came from one fancy-index gather over both chains of every waveguide,
# and its records through the frozen constructor.


def ref_gather_refine(params, layout, user):
    n, m, spacing = params.num_pas, len(layout), params.min_spacing_m
    feed_x, max_x = layout.field("feed_x"), layout.field("max_x")
    h_eff = layout.elevations(user)
    per_chain = placement._chains(h_eff, params.n_eff, params.wavelength_m)[1]
    kept = np.zeros((2, 2 * m, n))

    def solve(chains, col, start, quota, lo, hi):
        f, v, placed, failed = placement._solve(
            tuple(a[chains] for a in per_chain), start, quota, (lo, hi),
            params.n_eff, params.wavelength_m, spacing,
        )
        kept[0, chains, col : col + f.shape[1]] = f
        kept[1, chains, col : col + f.shape[1]] = v
        return placed, f[:, -1] + spacing, failed

    n_left, n_right, failed, fits = placement._place(solve, n, spacing, user.x, feed_x, max_x)
    assert fits.all()

    np.negative(kept[0, m:], out=kept[0, m:])
    take = ((2 * np.arange(m) + 1) * n - n_left)[:, None] + np.arange(n)
    offsets, row_shifts = np.concatenate([kept[:, m:, ::-1], kept[:, :m]], axis=2).reshape(2, -1)[:, take]
    positions = user.x + offsets
    max_spacing = (positions[:, 1:] - positions[:, :-1]).max(axis=1)

    lam, h_effs = params.wavelength_m, h_eff.tolist()
    h2 = np.array([h**2 for h in h_effs])[:, None]
    res = np.mod(np.sqrt((positions - user.x) ** 2 + h2) + params.n_eff * positions, lam)
    dev = np.abs(res - res[:, :1])
    residual = np.minimum(dev, lam - dev).max(axis=1)

    results = [
        RefinementResult(*row)
        for row in zip(
            positions, row_shifts, max_spacing.tolist(), residual.tolist(), n_left.tolist(),
            n_right.tolist(), h_effs,
        )
    ]
    return PinchingConfig(positions, spacing, feed_x, max_x), results


# --- Reference: the per-waveguide gain loops of snr_bounds, copied verbatim --


def ref_gain_upper(params, h_eff, n, spacing=None):
    s = params.min_spacing_m if spacing is None else spacing
    k = np.arange(1, n // 2 + 1)
    terms = 2.0 * math.sqrt(params.eta_m2) / (
        math.sqrt(n) * np.sqrt((k - 0.5) ** 2 * s * s + h_eff * h_eff)
    )
    return float(np.sum(terms))


def ref_gain_approx(params, h_eff, n, spacing=None):
    s = params.min_spacing_m if spacing is None else spacing
    return float(
        2.0 * math.sqrt(params.eta_m2) / (math.sqrt(n) * s)
        * analysis.gain_kernel(n * s / (2.0 * h_eff))
    )


def ref_snr_bounds(params, layout, user, n, max_spacing=None):
    m = len(layout)
    surrogate = max_spacing is None
    if surrogate:
        max_spacing = surrogate_max_spacing(params)
    dmax = np.broadcast_to(np.asarray(max_spacing, dtype=float), (m,)).copy()

    h = layout.elevations(user)
    ub = np.array([ref_gain_approx(params, h[i], n, params.min_spacing_m) for i in range(m)])
    lb = np.array([ref_gain_approx(params, h[i], n, dmax[i]) for i in range(m)])

    p, s2 = params.power_w, params.noise_w
    report = {
        "n": n,
        "min_spacing_m": params.min_spacing_m,
        "max_spacing_m": dmax,
        "max_spacing_is_surrogate": surrogate,
    }
    with warnings.catch_warnings():  # snr_linear's validity warning; snr_bounds never warns
        warnings.simplefilter("ignore", ApproximationWarning)
        up = p / (m * s2) * float(np.sum(ub)) ** 2
        lo = p / (m * s2) * float(np.sum(lb)) ** 2
        report.update(
            snr1_upper=up,
            snr1_lower=lo,
            snr1_linear=snr_linear(params, layout, user, n, mode="single"),
            capacity1_upper=math.log2(1.0 + up),
            capacity1_lower=math.log2(1.0 + lo),
        )
        up = p / s2 * float(np.sum(ub**2))
        lo = p / s2 * float(np.sum(lb**2))
        report.update(
            snr2_upper=up,
            snr2_lower=lo,
            snr2_linear=snr_linear(params, layout, user, n, mode="multi"),
            capacity2_upper=math.log2(1.0 + up),
            capacity2_lower=math.log2(1.0 + lo),
        )
    return BoundsReport(**report)


# --- Comparisons -----------------------------------------------------------

N_EFFS = (1.0, 1.0 + 1e-6, 1.4, 2.0)


def call(fn, *args):
    """``fn(*args)``, or the FeasibilityError it raised."""
    try:
        return fn(*args)
    except FeasibilityError as err:
        return err


def same_error(a, b):
    return type(a) is type(b) and str(a) == str(b)


def assert_same_result(a: RefinementResult, b: RefinementResult) -> None:
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.shifts, b.shifts)
    assert (a.n_left, a.n_right) == (b.n_left, b.n_right)
    assert a.max_spacing_m == b.max_spacing_m
    assert a.alignment_residual_m == b.alignment_residual_m
    assert a.h_eff_m == b.h_eff_m


def assert_same_placement(params, layout, user) -> bool:
    """refine_all and refine_waveguide equal the reference; True if feasible."""
    ref = call(ref_refine_all, params, layout, user)
    if isinstance(ref, FeasibilityError):
        with pytest.raises(FeasibilityError, match=re.escape(str(ref))):
            refine_all(params, layout, user)
    else:
        pin, results = refine_all(params, layout, user)
        assert np.array_equal(pin.positions, ref[0].positions)
        assert len(results) == len(ref[1])
        for a, b in zip(results, ref[1]):
            assert_same_result(a, b)
    for wg in layout.waveguides:
        a, b = call(refine_waveguide, params, wg, user), call(ref_refine_waveguide, params, wg, user)
        if isinstance(b, FeasibilityError):
            assert same_error(a, b)
        else:
            assert_same_result(a, b)
    return not isinstance(ref, FeasibilityError)


def chain_constants(h_eff, outward, n_eff, wavelength):
    """``placement._chains``' constants of one chain per row, left of the user where ``outward``."""
    rows = len(h_eff)
    constants = placement._chains(np.array(h_eff, dtype=float), n_eff, wavelength)[1]
    chains = np.arange(rows) + rows * np.array(outward, dtype=int)
    return tuple(a[chains] for a in constants)


def solve_chain(h_eff, n_eff, wavelength, min_spacing, start_delta, quota, bounds, outward):
    """``placement._solve`` on one row, in :func:`ref_chain`'s form."""
    f, v, placed, failed = placement._solve(
        chain_constants([h_eff], [outward], n_eff, wavelength), np.array([start_delta]),
        np.array([quota]), (np.array([bounds[0]]), np.array([bounds[1]])), n_eff, wavelength,
        min_spacing,
    )
    if failed[0]:
        raise FeasibilityError(placement._UNREACHABLE)
    return f[0, : placed[0]].tolist(), v[0, : placed[0]].tolist()


MODE_FIELDS = {"single": "1", "multi": "2", "both": "12"}  # digit in snrK_* / capacityK_*


def assert_same_bounds(params, layout, user, n, dmax, mode="both") -> None:
    """``snr_bounds`` and the per-waveguide gain sums equal the reference loops.

    ``mode`` names the RF modes whose fields are compared, with the fields
    common to both; ``"both"`` compares every field.
    """
    a = snr_bounds(params, layout, user, n, dmax)
    b = ref_snr_bounds(params, layout, user, n, dmax)
    for f in dataclasses.fields(BoundsReport):
        digit = re.search(r"\d", f.name)
        if digit and digit.group() not in MODE_FIELDS[mode]:
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(y, np.ndarray):
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name
    for h, d in zip(layout.elevations(user), b.max_spacing_m):
        assert analysis.gain_upper(params, h, n) == ref_gain_upper(params, h, n)
        assert analysis.gain_lower(params, h, n, d) == ref_gain_upper(params, h, n, d)


class TestChain:
    def test_random_chains(self):
        """The array solver against the per-PA solver loop, 2400 chains."""
        rng = np.random.default_rng(2024)
        raised = stopped = 0
        for i in range(2400):
            n_eff = N_EFFS[i % 4] if i % 5 else rng.uniform(1.0, 3.0)
            lam = float(rng.choice([0.0107, 0.003, 0.1]))
            spacing = lam / 2 * float(rng.choice([1.0, 0.1, 3.0]))
            reach = rng.uniform(0.0, 3.0)
            args = (
                rng.uniform(0.01, 0.2) if i % 3 == 0 else rng.uniform(0.2, 30.0), n_eff, lam,
                spacing, spacing / 2, int(rng.integers(1, 600)), (-reach, reach),
                bool(rng.integers(2)),
            )
            a, b = call(solve_chain, *args), call(ref_chain, *args)
            if isinstance(b, FeasibilityError):
                raised += 1
                assert same_error(a, b)
            else:
                stopped += len(b[0]) < args[5]
                assert a == b
        assert raised > 50 and stopped > 500  # both early exits are exercised

    @pytest.mark.parametrize("n_eff", N_EFFS)
    def test_one_step_wrappers(self, n_eff):
        rng = np.random.default_rng(7)
        for _ in range(500):
            h, delta = rng.uniform(0.01, 50.0), rng.uniform(0.0, 5.0)
            for new, ref in ((refine_shift, ref_refine_shift),
                             (refine_shift_outward, ref_refine_shift_outward)):
                a, b = call(new, h, delta, n_eff, 0.0107), call(ref, h, delta, n_eff, 0.0107)
                assert same_error(a, b) if isinstance(b, FeasibilityError) else a == b
        for fn in (refine_shift, refine_shift_outward):
            with pytest.raises(ValueError, match="elevation"):
                fn(0.0, 0.1, n_eff, 0.0107)
            with pytest.raises(ValueError, match="offset"):
                fn(3.0, -0.1, n_eff, 0.0107)

    def test_unit_index_feed_side_unreachable(self):
        # h_eff of a few cm: the feed-side path falls below one wavelength
        args = (0.05, 1.0, 0.0107, 0.00535, 0.002675, 64, (-1.0, 1.0), True)
        with pytest.raises(FeasibilityError, match="feed side"):
            ref_chain(*args)
        with pytest.raises(FeasibilityError, match="feed side"):
            solve_chain(*args)


    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_eff=st.sampled_from(N_EFFS + (3.5,)),
        lam=st.sampled_from([0.0107, 0.003, 0.1]),
        spacing=st.floats(0.05, 1.5),
        rows=st.lists(
            st.tuples(
                st.one_of(st.floats(0.01, 0.2), st.floats(0.2, 30.0)),  # h_eff
                st.floats(0.0, 4.0),  # start offset, in spacings
                st.integers(1, 300),  # quota
                st.floats(-1.0, 0.05),  # lowest offset
                st.floats(0.0, 4.0),  # highest offset
                st.booleans(),  # left of the user (toward the feed)
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_rows_match_the_loop(self, n_eff, lam, spacing, rows):
        """Several chains of either side in one solve, each with its own quota, start and bounds."""
        spacing *= lam
        rows = [(h, start * spacing, quota, lo, hi, out) for h, start, quota, lo, hi, out in rows]
        h, start, quota, lo, hi, outward = (np.array(column) for column in zip(*rows))
        f, v, placed, failed = placement._solve(
            chain_constants(h, outward, n_eff, lam), start, quota, (lo, hi), n_eff, lam, spacing
        )
        for r, (h_r, start_r, quota_r, lo_r, hi_r, out_r) in enumerate(rows):
            ref = call(ref_chain, h_r, n_eff, lam, spacing, start_r, quota_r, (lo_r, hi_r), out_r)
            assert failed[r] == isinstance(ref, FeasibilityError)
            if failed[r]:
                assert same_error(FeasibilityError(placement._UNREACHABLE), ref)
            else:
                assert (f[r, : placed[r]].tolist(), v[r, : placed[r]].tolist()) == ref


class TestClosedFormChains:
    """``_solve`` evaluates ``_grid_index`` once for chains on known grid lines."""

    @staticmethod
    def counted(monkeypatch, params, user):
        counts = {"_grid_index": 0, "_solve": 0}
        for name in counts:
            original = getattr(placement, name)

            def counting(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(placement, name, counting)
        assert assert_same_placement(params, WaveguideLayout.from_params(params), user)
        return counts

    @pytest.mark.parametrize("n", [2, 64, 1024])
    def test_one_grid_index_per_solve(self, monkeypatch, n):
        """The centre user on the default geometry: each call's I_0 and no verify pass."""
        counts = self.counted(monkeypatch, SystemParams(num_pas=n), UserPosition(0.0, 0.0))
        assert counts["_grid_index"] == counts["_solve"] > 0

    @pytest.mark.parametrize("n_eff, spacing", [(1.4, 1.0), (1.0, 0.5)])
    def test_fallback_chains_verify_by_the_fixed_point(self, monkeypatch, n_eff, spacing):
        """A step of one wavelength's spacing moves the path by more than a wavelength,
        and n_eff = 1 has no guarantee: those chains take verify passes, and the
        placement is still the per-PA loop's."""
        params = SystemParams(n_eff=n_eff, num_pas=64)
        params = params.replace(min_spacing_m=spacing * params.wavelength_m)
        counts = self.counted(monkeypatch, params, UserPosition(0.0, 0.0))
        assert counts["_grid_index"] > counts["_solve"] > 0


class TestOneSolvePerPhase:
    """``refine_all`` solves the chains of both sides of each ``_place`` phase in one ``_solve`` call."""

    @staticmethod
    def solve_calls(monkeypatch, params, user):
        """The number of chains of each ``_solve`` call, and ``refine_all``'s results."""
        calls = []
        original = placement._solve

        def counting(*args):
            calls.append(args[1].size)  # the chains' starts
            return original(*args)

        monkeypatch.setattr(placement, "_solve", counting)
        return calls, refine_all(params, WaveguideLayout.from_params(params), user)[1]

    def test_centre_user_takes_one_call(self, monkeypatch):
        params = SystemParams(num_pas=64)
        calls, _ = self.solve_calls(monkeypatch, params, UserPosition(0.0, 0.0))
        assert calls == [2 * params.num_waveguides]

    def test_edge_user_takes_one_call_per_phase(self, monkeypatch):
        """15 PAs left of the user and 1 right: the left chains continue in a second call."""
        params = SystemParams(num_pas=16)
        calls, results = self.solve_calls(monkeypatch, params, UserPosition(24.99, 3.0))
        assert [(r.n_left, r.n_right) for r in results] == [(15, 1)] * params.num_waveguides
        assert calls == [2 * params.num_waveguides, params.num_waveguides]


class TestSolveByGuarantee:
    """``_solve`` against :func:`ref_solve`, its form that verified all of a call's chains
    unless every one was guaranteed.

    Compared exactly: ``placed``, ``failed``, and each chain's offsets and
    shifts up to its end, all that a caller reads.  The entries past a
    chain's end are not PAs; there the closed form continues on its assumed
    lines and the verify passes extrapolate, so they may differ.
    """

    @staticmethod
    def assert_same(solve, chains, start, quota, bounds, n_eff, lam, spacing) -> bool:
        """``solve``, the current ``_solve``, equals ``ref_solve`` on these chains;
        True if the call mixes guarantees."""
        args = (chains, start, quota, bounds, n_eff, lam, spacing)
        new, ref = solve(*args), ref_solve(*args)
        assert np.array_equal(new[2], ref[2]) and np.array_equal(new[3], ref[3])
        for r, end in enumerate(ref[2]):
            for a, b in zip(new[:2], ref[:2]):
                assert np.array_equal(a[r, :end], b[r, :end])
        closed = placement._closed_form(chains, start, quota, bounds[1], n_eff, lam, spacing)[1]
        return bool(closed.any() and not closed.all())

    def test_random_calls(self):
        """600 calls of 1 to 8 chains of either side, each with its own quota, start and
        bounds; 57 of them mix guaranteed and unguaranteed chains."""
        rng = np.random.default_rng(30)
        mixed = 0
        for _ in range(600):
            n_eff = float(rng.choice(N_EFFS + (3.5,)))
            lam = float(rng.choice([0.0107, 0.003, 0.1]))
            spacing = lam * rng.uniform(0.05, 1.5)
            rows = int(rng.integers(1, 9))
            h = np.where(rng.random(rows) < 0.3, rng.uniform(0.01, 0.2, rows), rng.uniform(0.2, 30.0, rows))
            mixed += self.assert_same(
                placement._solve, chain_constants(h, rng.random(rows) < 0.5, n_eff, lam),
                rng.uniform(0.0, 4.0, rows) * spacing, rng.integers(1, 400, rows),
                (rng.uniform(-1.0, 0.05, rows), rng.uniform(0.0, 6.0, rows)), n_eff, lam, spacing,
            )
        assert mixed >= 30  # calls with guaranteed and unguaranteed chains

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_eff=st.sampled_from(N_EFFS),
        half_n=st.integers(1, 512),
        m=st.integers(1, 4),
        dx=st.sampled_from([2.0, 5.0, 50.0]),
        height=st.floats(0.5, 8.0),
        spacing=st.sampled_from([None, 0.004, 0.02]),
        x_frac=st.floats(-0.5, 0.5),
        y_frac=st.floats(-0.5, 0.5),
    )
    # Users whose first phase at N = 1024 mixes guarantees, and (the second) also its continuation
    @example(n_eff=1.4, half_n=512, m=4, dx=50.0, height=3.0, spacing=None, x_frac=0.066, y_frac=-0.1)
    @example(n_eff=1.4, half_n=512, m=4, dx=50.0, height=3.0, spacing=None, x_frac=-0.478, y_frac=0.05)
    def test_refine_all_calls_over_system_params(
        self, n_eff, half_n, m, dx, height, spacing, x_frac, y_frac
    ):
        """Every ``_solve`` call of ``refine_all``, both phases, at users anywhere in the region."""
        params = SystemParams(
            kappa_db_per_m=0.0, n_eff=n_eff, num_pas=2 * half_n, num_waveguides=m, dx_m=dx,
            height_m=height, min_spacing_m=spacing,
        )
        solve = placement._solve

        def checking(*args):
            self.assert_same(solve, *args)
            return solve(*args)

        user = UserPosition(x_frac * params.dx_m, y_frac * params.dy_m)
        with mock.patch.object(placement, "_solve", checking):
            call(refine_all, params, WaveguideLayout.from_params(params), user)


class TestVerifyPassesTakeUnguaranteedChains:
    """``_solve``'s verify passes see only the chains the closed form does not guarantee."""

    def test_one_chain_verified(self, monkeypatch):
        """User (3.3, -2) at N = 1024 (``tests/golden/one_chain_verified.cfg``): one
        phase, whose chain 1, right of the user on the second waveguide, is the one
        chain not guaranteed; every verify pass takes it alone."""
        params = SystemParams(kappa_db_per_m=0.0, num_pas=1024)
        layout, user = WaveguideLayout.from_params(params), UserPosition(3.3, -2.0)
        assert assert_same_placement(params, layout, user)
        grid_index, closed_form = placement._grid_index, placement._closed_form
        verdicts, passes, inside = [], [], []

        def recording_closed_form(chains, *args):
            inside.append(True)
            index, closed = closed_form(chains, *args)
            inside.pop()
            verdicts.append(chains[0][~closed])  # the chains' h_eff, unguaranteed ones
            assert closed.tolist() == [True, False] + [True] * 6
            return index, closed

        def recording_grid_index(h_eff, *args):
            if not inside:
                passes.append(h_eff.copy())
            return grid_index(h_eff, *args)

        monkeypatch.setattr(placement, "_closed_form", recording_closed_form)
        monkeypatch.setattr(placement, "_grid_index", recording_grid_index)
        refine_all(params, layout, user)
        assert len(verdicts) == 1 and np.array_equal(verdicts[0], layout.elevations(user)[[1]])
        assert passes and all(np.array_equal(h, verdicts[0]) for h in passes)


class TestRefineAll:
    def test_uneven_split_near_the_region_edge(self):
        params = SystemParams(kappa_db_per_m=0.0, num_pas=512)
        layout = WaveguideLayout.from_params(params)
        user = UserPosition(24.775, 5.853)
        assert assert_same_placement(params, layout, user)
        _, results = refine_all(params, layout, user)
        assert any(r.n_left != r.n_right for r in results)

    @pytest.mark.parametrize("n_eff", [1.4, 2.0])
    @pytest.mark.parametrize("n", [2, 16, 64])
    @pytest.mark.parametrize("x", [-25.0, -24.99, 0.0, 3.3, 24.99, 25.0])
    def test_rows_equal_the_one_gather(self, x, n, n_eff):
        """One slice copy per chain gives the rows of the one gather it replaced,
        also where a side is empty: every split is (0, N) at x = -25 and (N, 0)
        at x = 25."""
        params = SystemParams(kappa_db_per_m=0.0, n_eff=n_eff, num_pas=n)
        layout = WaveguideLayout.from_params(params)
        user = UserPosition(x, 3.0)
        pin, results = refine_all(params, layout, user)
        ref_pin, ref_results = ref_gather_refine(params, layout, user)
        assert np.array_equal(pin.positions, ref_pin.positions)
        for a, b in zip(results, ref_results, strict=True):
            assert_same_result(a, b)
        if abs(x) == 25.0:
            split = (0, n) if x < 0 else (n, 0)
            assert [(r.n_left, r.n_right) for r in results] == [split] * len(layout)

    def test_records_are_the_constructors(self):
        """``refine_all``'s records hold what the constructor would build from
        their fields, with the fields' types, and stay frozen."""
        params = SystemParams(kappa_db_per_m=0.0, num_pas=16)
        layout = WaveguideLayout.from_params(params)
        names = [f.name for f in dataclasses.fields(RefinementResult)]
        for user in (UserPosition(0.0, 0.0), UserPosition(24.99, 3.0), UserPosition(-25.0, -1.0)):
            for res in refine_all(params, layout, user)[1]:
                built = RefinementResult(*(getattr(res, name) for name in names))
                assert list(vars(res)) == list(vars(built)) == names
                assert repr(res) == repr(built)
                for name in ("positions", "shifts"):
                    value = getattr(res, name)
                    assert type(value) is np.ndarray and value.dtype == np.float64
                    assert value.shape == (params.num_pas,)
                for name in ("max_spacing_m", "alignment_residual_m", "h_eff_m"):
                    assert type(getattr(res, name)) is float
                assert type(res.n_left) is int and type(res.n_right) is int
                copy = dataclasses.replace(res, n_left=res.n_left)
                assert type(copy) is RefinementResult and repr(copy) == repr(res)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    res.n_left = 0
                with pytest.raises(dataclasses.FrozenInstanceError):
                    del res.h_eff_m

    @pytest.mark.parametrize("x", [0.0, 3.7, -11.2])
    def test_residual_keeps_the_python_float_square(self, x):
        # At this height h**2 and h * h differ in the last bit, and so do the
        # alignment residuals computed from them.
        h = 7.505919004359997
        assert h**2 != h * h
        params = SystemParams(kappa_db_per_m=0.0, num_pas=16, num_waveguides=1, height_m=h)
        assert assert_same_placement(params, WaveguideLayout.from_params(params), UserPosition(x, 0.0))

    def test_elevation_is_the_engines(self, monkeypatch):
        # For waveguide 0 (y = -10 m, H = 3 m) np.hypot and math.hypot differ
        # in the last bit at this user y.  Both paths take model.elevation,
        # so the PAs the batched engine folds in are refine_all's, bit for bit.
        params = SystemParams(kappa_db_per_m=0.0, num_pas=16)
        layout = WaveguideLayout.from_params(params)
        user = UserPosition(2.0, -8.183)
        dy = layout[0].y - user.y
        assert np.hypot(dy, layout[0].height) != math.hypot(dy, layout[0].height)
        assert assert_same_placement(params, layout, user)
        rows, folded = len(layout), []
        walk = placement.refine_batch

        def recording(params, h_eff, user_x, feed_x, max_x, fold):
            def record(chains, xs, placed):
                row = np.broadcast_to(np.arange(2 * rows).reshape(2, -1)[chains] % rows, xs.shape)
                folded.append((row[placed], xs[placed]))
                fold(chains, xs, placed)

            return walk(params, h_eff, user_x, feed_x, max_x, record)

        monkeypatch.setattr(placement, "refine_batch", recording)
        experiments.draw_snrs(params, layout, np.array([user.x]), np.array([user.y]), ("single",))
        row, xs = (np.concatenate(column) for column in zip(*folded))
        pin, _ = refine_all(params, layout, user)
        for m in range(rows):
            assert np.array_equal(np.sort(xs[row == m]), pin.positions[m])

    @pytest.mark.parametrize("x", [4.999, 0.0, -4.999, 20.0])
    def test_ragged_layout(self, x):
        params = SystemParams(kappa_db_per_m=0.0, num_pas=16)
        layout = WaveguideLayout(
            (
                Waveguide(params.feed_x_m, -10.0, params.height_m, params.max_x_m),
                Waveguide(-5.0, 5.0, params.height_m, 5.0),
                Waveguide(-20.0, 3.0, 2.5, 24.0),
            )
        )
        assert assert_same_placement(params, layout, UserPosition(x, 1.0)) == (x != 20.0)

    @pytest.mark.parametrize("cramped_first", [True, False])
    def test_first_failing_waveguide_sets_the_error(self, cramped_first):
        # n_eff = 1: the low waveguide's feed-side path falls below one
        # wavelength after a few PAs; the cramped one has room for a few PAs.
        params = SystemParams(kappa_db_per_m=0.0, n_eff=1.0, num_pas=32)
        low = Waveguide(params.feed_x_m, 1.0, 0.05, params.max_x_m)
        cramped = Waveguide(-0.02, -5.0, params.height_m, 0.02)
        layout = WaveguideLayout((cramped, low) if cramped_first else (low, cramped))
        assert not assert_same_placement(params, layout, UserPosition(0.0, 1.0))
        with pytest.raises(FeasibilityError, match="fit in" if cramped_first else "feed side"):
            refine_all(params, layout, UserPosition(0.0, 1.0))

    @pytest.mark.parametrize("n_eff", N_EFFS)
    @pytest.mark.parametrize("x", [-24.99, -24.6, 0.0, 24.6, 24.99])
    def test_edges_dense_and_unit_index(self, n_eff, x):
        params = SystemParams(kappa_db_per_m=0.0, n_eff=n_eff, num_pas=128)
        assert_same_placement(params, WaveguideLayout.from_params(params), UserPosition(x, 3.3))

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_eff=st.sampled_from(N_EFFS),
        half_n=st.integers(1, 512),
        m=st.integers(1, 4),
        dx=st.sampled_from([2.0, 5.0, 50.0]),
        height=st.floats(0.5, 8.0),
        spacing=st.sampled_from([None, 0.004, 0.02]),
        edge=st.one_of(st.floats(0.0, 0.3), st.floats(0.0, 1.0)),
        side=st.sampled_from([-1.0, 1.0]),
        y_frac=st.floats(-0.5, 0.5),
        ragged=st.booleans(),
    )
    def test_matches_reference_over_system_params(
        self, n_eff, half_n, m, dx, height, spacing, edge, side, y_frac, ragged
    ):
        params = SystemParams(
            kappa_db_per_m=0.0, n_eff=n_eff, num_pas=2 * half_n, num_waveguides=m, dx_m=dx,
            height_m=height, min_spacing_m=spacing,
        )
        layout = WaveguideLayout.from_params(params)
        if ragged:  # waveguide i ends i/4 of the region short of the far edge
            layout = WaveguideLayout(
                tuple(
                    dataclasses.replace(wg, max_x=wg.max_x - i * dx / 4)
                    for i, wg in enumerate(layout.waveguides)
                )
            )
        x = side * max(dx / 2 - edge * dx / 2, 0.0)
        assert_same_placement(params, layout, UserPosition(x, y_frac * params.dy_m))


class TestSnrBounds:
    USERS = (UserPosition(0.0, 0.0), UserPosition(24.775, 5.853), UserPosition(-11.0, -9.9))

    @pytest.mark.parametrize("mode", ["single", "multi", "both"])
    @pytest.mark.parametrize("spacing", ["surrogate", "scalar", "per_waveguide"])
    def test_matches_per_waveguide_loops(self, mode, spacing):
        # M >= 8: numpy's pairwise sum of the M gains takes its 8-way unrolled path
        for params in (SystemParams(), SystemParams(num_waveguides=1, n_eff=1.0, height_m=1.0),
                       SystemParams(num_waveguides=3, min_spacing_m=0.05),
                       SystemParams(num_waveguides=12),
                       SystemParams(num_waveguides=8, kappa_db_per_m=0.08)):
            layout = WaveguideLayout.from_params(params)
            m = len(layout)
            dmax = {
                "surrogate": None,
                "scalar": params.min_spacing_m * 1.37,
                "per_waveguide": params.min_spacing_m * (1.0 + np.arange(m) / 3.0),
            }[spacing]
            for user in self.USERS:
                for n in (2, 4, 16, 64, 1024, 4096):
                    assert_same_bounds(params, layout, user, n, dmax, mode)

    def test_matches_on_refined_spacings(self):
        params = SystemParams(kappa_db_per_m=0.0)
        layout = WaveguideLayout.from_params(params)
        rng = np.random.default_rng(11)
        for n in (2, 8, 128, 512):
            for _ in range(5):
                user = UserPosition(rng.uniform(-25, 25), rng.uniform(-10, 10))
                _, results = refine_all(params.replace(num_pas=n), layout, user)
                dmax = np.array([r.max_spacing_m for r in results])
                assert_same_bounds(params, layout, user, n, dmax)

    def test_out_of_range_warns_only_in_gain_approx(self):
        params = SystemParams()
        layout = WaveguideLayout.from_params(params)
        user = UserPosition(0.0, 0.0)
        spacing = 1.5  # spacing / elevation above 0.1 on every waveguide
        assert spacing / layout.elevations(user).max() >= 0.1
        with pytest.warns(ApproximationWarning, match="spacing/elevation"):
            analysis.gain_approx(params, layout[0].effective_elevation(user), 4, spacing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            snr_bounds(params, layout, user, 4, max_spacing=spacing)
