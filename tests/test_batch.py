"""Batched Monte Carlo engine against the per-draw scalar path.

The references here are the per-draw loops the engine replaced: one
``default_rng((seed, i))`` per draw, then refine_all -> effective_channel ->
beamformer and ``baseline_capacity`` for each user
(``invariants.reference_snrs``), means summed with ``+=``; and the engine's
earlier walk, which handed its fold one chain step per call.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pass_trihybrid import (
    CapacityReport,
    ExperimentConfig,
    FeasibilityError,
    SystemParams,
    UserPosition,
    Waveguide,
    WaveguideLayout,
    refine_all,
    render_sweep_csv,
    run_sweep,
)
from pass_trihybrid import beamforming, experiments, invariants, model, placement
from pass_trihybrid.sampler import uniform_pairs

ALL_MODES = ("single", "multi", "baseline")
# Waveguides with their own ranges; waveguide 1 covers only [-5, 5] m.
RAGGED = WaveguideLayout(
    (
        Waveguide(-25.0, -10.0, 3.0, 25.0),
        Waveguide(-5.0, -2.0, 2.5, 5.0),
        Waveguide(-25.0, 4.0, 4.0, 10.0),
    )
)


def reference_units(seed, draws):
    return np.array([np.random.default_rng((seed, i)).random(2) for i in range(draws)])


def users(params, seed, draws):
    units = uniform_pairs(seed, draws)
    return (units[:, 0] - 0.5) * params.dx_m, (units[:, 1] - 0.5) * params.dy_m


def assert_engine_matches_scalar(
    params, layout=None, modes=ALL_MODES, draws=120, seed=3, at=None, **kw
):
    """Compare every draw with the scalar path, which the engine must not call.

    ``at`` gives the users' (x, y) arrays instead of seeded uniform ones.
    Returns (feasible draws, draws whose scalar placement puts more PAs left
    of the user than right on some waveguide, draws with more right than
    left): the draws that need overflow redistribution, by direction.
    """
    layout = WaveguideLayout.from_params(params) if layout is None else layout
    ux, uy = users(params, seed, draws) if at is None else at
    original, placement.refine_all = placement.refine_all, None  # the engine must not call it
    try:
        snrs, feasible = experiments.draw_snrs(params, layout, ux, uy, modes, **kw)
    finally:
        placement.refine_all = original
    assert set(snrs) == set(modes)
    assert invariants.draw_mismatches(params, layout, ux, uy, modes, **kw) == []
    to_left = to_right = 0
    for d in np.flatnonzero(feasible):
        _, results = refine_all(params, layout, UserPosition(ux[d], uy[d]))
        to_left += any(r.n_left > r.n_right for r in results)
        to_right += any(r.n_right > r.n_left for r in results)
    return int(feasible.sum()), to_left, to_right


class TestSampler:
    @pytest.mark.parametrize("seed", [0, 1, 424242, 2**32 - 1, 2**32, 2**64 - 1])
    def test_rows_equal_default_rng(self, seed):
        draws = 10_000 if seed == 424242 else 1_000
        assert np.array_equal(uniform_pairs(seed, draws), reference_units(seed, draws))

    def test_prefix_is_independent_of_count(self):
        assert np.array_equal(uniform_pairs(7, 5), uniform_pairs(7, 50)[:5])
        assert uniform_pairs(7, 0).shape == (0, 2)

    def test_out_of_range_seed(self):
        with pytest.raises(ValueError):
            uniform_pairs(2**64, 3)
        with pytest.raises(ValueError):
            uniform_pairs(-1, 3)

    def test_out_of_range_count(self):
        # rejected before the (count,) words are allocated
        with pytest.raises(ValueError, match="draw indices must fit in 32 bits"):
            uniform_pairs(1, 2**32 + 1)


class TestEngineAgainstScalar:
    def test_default_geometry(self):
        feasible, _, _ = assert_engine_matches_scalar(SystemParams())
        assert feasible == 120

    def test_overflow_redistribution(self):
        # a 4 m region with 64 PAs: many chains run out of room on one side
        params = SystemParams(dx_m=4.0, num_pas=64)
        feasible, to_left, to_right = assert_engine_matches_scalar(params, draws=60)
        assert feasible == 60
        assert to_left > 0 and to_right > 0

    @pytest.mark.parametrize("edge", [1.0, -1.0], ids=["near-max_x", "near-feed_x"])
    def test_overflow_to_the_other_side(self, edge):
        # users within 0.2 m of one end of [-2, 2]: that side's chain runs out
        # of room and every draw continues the other side's chain
        params = SystemParams(dx_m=4.0, num_pas=64)
        ux, uy = users(params, 5, 40)
        at = (edge * (1.9 + ux / 20.0), uy)
        feasible, to_left, to_right = assert_engine_matches_scalar(params, at=at)
        assert feasible == 40
        assert (to_left, to_right) == ((40, 0) if edge > 0 else (0, 40))

    def test_unit_refractive_index_unreachable_feed_side(self):
        # n_eff = 1 and h_eff ~ 5 cm: the feed-side path decays below one
        # wavelength within 16 PAs, where the scalar solver raises.  The right
        # chain has room for all of them, yet every draw is infeasible.
        params = SystemParams(
            n_eff=1.0, height_m=0.05, num_waveguides=1, dx_m=4.0, dy_m=0.02, num_pas=16
        )
        ux, uy = users(params, 7, 30)
        feasible, _, _ = assert_engine_matches_scalar(params, at=(ux / 4.0, uy))
        assert feasible == 0

    def test_unreachable_feed_side_past_the_bound_is_no_failure(self):
        # The same geometry 2 cm from the feed: the left chain places 1 PA,
        # steps past its bound at step 2 and turns unreachable at step 5,
        # within its quota of 8.  It stopped at the bound, not at the
        # unreachable step, so the right chain takes the shortfall.
        params = SystemParams(
            n_eff=1.0, height_m=0.05, num_waveguides=1, dx_m=4.0, dy_m=0.02, num_pas=16
        )
        layout = WaveguideLayout.from_params(params)
        user = UserPosition(layout[0].feed_x + 0.02, 0.0)
        lam, offsets, delta = params.wavelength_m, [], params.min_spacing_m / 2.0
        for _ in range(4):  # the left chain's walk
            offsets.append(delta + placement.refine_shift_outward(0.05, delta, 1.0, lam))
            delta = offsets[-1] + params.min_spacing_m
        assert offsets[0] <= 0.02 < offsets[1]
        with pytest.raises(FeasibilityError):
            placement.refine_shift_outward(0.05, delta, 1.0, lam)
        _, (result,) = refine_all(params, layout, user)
        assert (result.n_left, result.n_right) == (1, 15)
        # One row walks its 8 steps in one block; 3000 rows walk one step per block.
        for rows, block in ((1, 8), (3000, 1)):
            ux, uy = np.full(rows, user.x), np.full(rows, user.y)
            assert min(max(1, placement._BLOCK_ENTRIES // rows), 8) == block
            assert invariants.draw_mismatches(params, layout, ux, uy, ALL_MODES) == []

    def test_all_infeasible(self):
        params = SystemParams(dx_m=0.2, dy_m=2.0, num_pas=64)
        feasible, _, _ = assert_engine_matches_scalar(params, draws=25)
        assert feasible == 0

    def test_single_waveguide(self):
        assert_engine_matches_scalar(SystemParams(num_waveguides=1))

    def test_one_rf_chain(self):
        assert_engine_matches_scalar(SystemParams(num_rf_chains=1), modes=("single", "baseline"))

    def test_nine_baseline_elements(self):
        assert_engine_matches_scalar(SystemParams(), baseline_elements=9)

    @pytest.mark.parametrize("spacing", [0.002, 0.02])
    def test_min_spacing_values(self, spacing):
        assert_engine_matches_scalar(SystemParams(min_spacing_m=spacing, num_pas=8))

    @pytest.mark.parametrize("m", [2, 6, 8])
    def test_waveguide_counts(self, m):
        assert_engine_matches_scalar(SystemParams(num_waveguides=m))

    def test_unit_refractive_index(self):
        assert_engine_matches_scalar(SystemParams(n_eff=1.0, num_pas=16))

    def test_ragged_layout(self):
        feasible, _, _ = assert_engine_matches_scalar(
            SystemParams(kappa_db_per_m=0.0), layout=RAGGED, draws=200
        )
        assert 0 < feasible < 200  # users beyond waveguide 1's range are infeasible

    def test_ragged_layout_dense(self):
        # 64 PAs and users on [-5.2, 5.2] m: near waveguide 1's ends [-5, 5] m
        # its chains need redistribution, beyond them the draw is infeasible
        params = SystemParams(kappa_db_per_m=0.0, num_pas=64)
        ux, uy = users(params, 11, 100)
        feasible, to_left, to_right = assert_engine_matches_scalar(
            params, layout=RAGGED, at=(ux * 5.2 / 25.0, uy)
        )
        assert 0 < feasible < 100
        assert to_left > 0 and to_right > 0

    def test_no_draws(self):
        params = SystemParams()
        empty = np.zeros(0)
        snrs, feasible = experiments.draw_snrs(
            params, WaveguideLayout.from_params(params), empty, empty, ALL_MODES
        )
        assert feasible.shape == (0,) and all(snr.shape == (0,) for snr in snrs.values())

    def test_multi_snr_needs_two_chains(self):
        with pytest.raises(ValueError, match="2 RF chains"):
            beamforming.multi_rf_snr(np.ones((3, 4), dtype=complex), SystemParams(num_rf_chains=1))


DENSE = SystemParams(dx_m=4.0, num_pas=64)


def edge_users(params):
    # users within 0.2 m of either end of [-2, 2] m: one side runs out of room
    ux, uy = users(params, 5, 40)
    return np.concatenate([1.9 + ux / 20.0, -1.9 + ux / 20.0]), np.concatenate([uy, uy])


def ragged_dense_users(params):
    ux, uy = users(params, 11, 100)
    return ux * 5.2 / 25.0, uy


def folded_pas(monkeypatch, params, layout, ux, uy):
    """(feasible, chain ids, positions) of the placed PAs the engine folds, in fold order.

    Chain r is row r's chain right of the user, chain R + r its left chain.
    """
    calls = []
    original = placement.refine_batch

    def recording(params, h_eff, user_x, feed_x, max_x, fold):
        def record(chains, xs, placed):
            # a (steps, chains) block: the chain ids repeat along the step axis
            ids = np.broadcast_to(np.arange(2 * user_x.size).reshape(2, -1)[chains], xs.shape)
            calls.append((ids.ravel(), xs.flatten(), placed.flatten()))
            fold(chains, xs, placed)

        return original(params, h_eff, user_x, feed_x, max_x, record)

    monkeypatch.setattr(placement, "refine_batch", recording)
    _, feasible = experiments.draw_snrs(params, layout, ux, uy, ("single",))
    chains, xs, placed = (np.concatenate(column) for column in zip(*calls))
    return feasible, chains[placed], xs[placed]


@pytest.mark.parametrize(
    "params, layout, at",
    [
        (DENSE, None, None),
        (DENSE, None, edge_users(DENSE)),
        (SystemParams(kappa_db_per_m=0.0, num_pas=64), RAGGED,
         ragged_dense_users(SystemParams(kappa_db_per_m=0.0))),
        (SystemParams(n_eff=1.0, num_pas=16), None, None),
    ],
    ids=["dense", "edge-overflow", "ragged-dense", "unit-index"],
)
def test_folded_steps_are_the_refine_all_placement(monkeypatch, params, layout, at):
    """The PAs the engine folds in are ``refine_all``'s, bit for bit, and so is each split."""
    layout = WaveguideLayout.from_params(params) if layout is None else layout
    ux, uy = users(params, 3, 60) if at is None else at
    feasible, chains, xs = folded_pas(monkeypatch, params, layout, ux, uy)
    m, uneven = len(layout), 0
    row = chains % (ux.size * m)  # both chains of a row
    for d in np.flatnonzero(feasible):
        _, results = refine_all(params, layout, UserPosition(ux[d], uy[d]))
        for w, result in enumerate(results):
            got = np.sort(xs[row == d * m + w])
            assert np.array_equal(got, result.positions), (d, w)
            n_left = int(np.count_nonzero(got < ux[d]))
            assert (n_left, got.size - n_left) == (result.n_left, result.n_right), (d, w)
            uneven += result.n_left != result.n_right
    assert feasible.any()
    if params.num_pas == 64:
        assert uneven > 0  # redistributed rows are among those compared


@settings(max_examples=40, deadline=None)
@given(
    dx=st.floats(0.3, 60.0),
    half=st.integers(1, 32),
    m=st.integers(1, 6),
    n_eff=st.sampled_from([1.0, 1.0 + 1e-6, 1.4, 2.0]),
    spacing=st.floats(1e-3, 0.05),
    height=st.floats(0.05, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_folded_steps_are_the_refine_all_placement_on_any_geometry(
    dx, half, m, n_eff, spacing, height, seed
):
    """Per chain, the PAs the engine folds are ``refine_all``'s, bit for bit, outward
    from the user; per row, so is the (n_left, n_right) split."""
    params = SystemParams(
        dx_m=dx, num_pas=2 * half, num_waveguides=m, n_eff=n_eff, min_spacing_m=spacing,
        height_m=height,
    )
    layout = WaveguideLayout.from_params(params)
    ux, uy = users(params, seed, 12)
    # and 8 edge users, within N/2 spacings of either end: their chains continue
    reach = min(dx, spacing * half) * uniform_pairs(seed, 4)
    ux = np.concatenate([ux, dx / 2.0 - reach[:, 0], reach[:, 1] - dx / 2.0])
    uy = np.concatenate([uy, uy[:8]])
    rows = ux.size * m
    with pytest.MonkeyPatch.context() as monkeypatch:
        feasible, chains, xs = folded_pas(monkeypatch, params, layout, ux, uy)
        for d in range(ux.size):
            try:
                _, results = refine_all(params, layout, UserPosition(ux[d], uy[d]))
            except FeasibilityError:
                assert not feasible[d], d
                continue
            assert feasible[d], d
            for w, result in enumerate(results):
                right, left = xs[chains == d * m + w], xs[chains == rows + d * m + w]
                assert np.array_equal(right, result.positions[result.n_left :]), (d, w)
                assert np.array_equal(left, result.positions[: result.n_left][::-1]), (d, w)
                assert (left.size, right.size) == (result.n_left, result.n_right), (d, w)


def reference_folded_pas(params, layout, ux, uy):
    """(feasible, chain ids, positions) of the PAs :func:`reference_refine_batch` places,
    one walk step per fold call, in fold order."""
    m = len(layout)
    rows = ux.size * m
    row_ux, row_uy = np.repeat(ux, m), np.repeat(uy, m)
    wg_y, height, feed_x, max_x = (
        np.tile(layout.field(k), ux.size) for k in ("y", "height", "feed_x", "max_x")
    )
    calls = []

    def record(chains, xs, placed):
        side, row = chains
        calls.append(((side * rows + np.arange(rows)[row])[placed], xs[placed]))

    h_eff = np.hypot(wg_y - row_uy, height)
    fits = reference_refine_batch(params, h_eff, row_ux, feed_x, max_x, record)
    chains, xs = (np.concatenate(column) for column in zip(*calls))
    return fits.reshape(-1, m).all(axis=1), chains, xs


@settings(max_examples=40, deadline=None)
@given(
    n_eff=st.one_of(st.sampled_from([1.0, 1.0 + 1e-9]), st.floats(1.05, 3.0)),
    spacing=st.floats(0.05, 2.0),  # in wavelengths
    height=st.floats(0.05, 5.0),
    dy=st.floats(0.02, 20.0),
    dx=st.floats(0.3, 20.0),
    half=st.integers(1, 48),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_chains_are_the_one_step_walk(n_eff, spacing, height, dy, dx, half, m, seed):
    """Per chain, the PAs the engine folds are the one-step walk's and ``refine_all``'s,
    bit for bit, wherever the closed form may or may not apply: n_eff at and just
    above 1, spacings up to two wavelengths, elevations of a few centimetres under
    chains many times longer, and edge users whose chains continue."""
    params = SystemParams(
        n_eff=n_eff, height_m=height, dx_m=dx, dy_m=dy, num_pas=2 * half, num_waveguides=m,
        min_spacing_m=spacing * SystemParams().wavelength_m,
    )
    layout = WaveguideLayout.from_params(params)
    ux, uy = users(params, seed, 12)
    reach = min(dx, params.min_spacing_m * half) * uniform_pairs(seed, 4)
    ux = np.concatenate([ux, dx / 2.0 - reach[:, 0], reach[:, 1] - dx / 2.0])
    uy = np.concatenate([uy, uy[:8]])
    want_feasible, want_chains, want_xs = reference_folded_pas(params, layout, ux, uy)
    with pytest.MonkeyPatch.context() as monkeypatch:
        feasible, chains, xs = folded_pas(monkeypatch, params, layout, ux, uy)
        assert np.array_equal(feasible, want_feasible)
        for chain in np.unique(np.concatenate([chains, want_chains])):
            assert np.array_equal(xs[chains == chain], want_xs[want_chains == chain]), chain
        rows = ux.size * m
        for d in np.flatnonzero(feasible)[:4]:
            _, results = refine_all(params, layout, UserPosition(ux[d], uy[d]))
            for w, result in enumerate(results):
                right, left = xs[chains == d * m + w], xs[chains == rows + d * m + w]
                assert np.array_equal(np.concatenate([left[::-1], right]), result.positions)


def chain_kinds(monkeypatch, params, draws=60):
    """(closed-form chains, walked chains, guarantees) over the engine's placement phases.

    A phase's chains take the closed form when :func:`placement._on_lines`
    guarantees all of them; every other phase walks its chains.  ``guarantees``
    holds (guaranteed chains, chains) of each phase that set up the closed form.
    """
    phases, guarantees = [], {}
    original_place, original_lines = placement._place, placement._on_lines

    def place(solve, *args):
        def solve_recorded(chains, col, start, *rest):
            phases.append(start.size)
            return solve(chains, col, start, *rest)

        return original_place(solve_recorded, *args)

    def lines(*args):
        guarantees[len(phases) - 1] = guaranteed = original_lines(*args)
        return guaranteed

    monkeypatch.setattr(placement, "_place", place)
    monkeypatch.setattr(placement, "_on_lines", lines)
    ux, uy = users(params, 424242, draws)
    experiments.draw_snrs(params, WaveguideLayout.from_params(params), ux, uy, ("single",))
    closed = sum(size for i, size in enumerate(phases) if i in guarantees and guarantees[i].all())
    counts = [(int(g.sum()), g.size) for _, g in sorted(guarantees.items())]
    return closed, sum(phases) - closed, counts


@pytest.mark.parametrize(
    "params, closed_form, expected_guarantees",
    [
        (SystemParams(dx_m=4.0, num_pas=256), True, None),
        (DENSE, True, None),
        (SystemParams(dx_m=4.0, num_pas=64, min_spacing_m=SystemParams().wavelength_m), False, None),
        (SystemParams(dx_m=4.0, num_pas=64, n_eff=1.0), False, None),
        (SystemParams(num_pas=1024), False, [(430, 480), (46, 59)]),
    ],
    ids=["mc_dense", "dense", "one-wavelength-spacing", "unit-index", "default-n1024"],
)
def test_closed_form_and_walked_chain_counts(monkeypatch, params, closed_form, expected_guarantees):
    """Every chain of the ``mc_dense`` geometry takes the closed form; at a spacing of
    one wavelength (a step moves the path by more than one) and at n_eff = 1 every
    chain is walked.  In the default geometry at N = 1024 most chains of each phase
    are guaranteed but not all (a right chain reaching past e/r = 0.6 may step two
    grid lines), so both phases walk.  Each case continues some chains, so both
    phases count.  Where given, each phase's (guaranteed, chains) is pinned."""
    closed, walked, guarantees = chain_kinds(monkeypatch, params)
    assert closed + walked > 2 * 60 * params.num_waveguides  # a continuation phase ran
    assert (closed, walked) == ((closed + walked, 0) if closed_form else (0, closed + walked))
    if expected_guarantees is not None:
        assert guarantees == expected_guarantees


@pytest.mark.parametrize("dense", [False, True], ids=["default", "dense"])
def test_near_unit_index_draws_match_the_scalar_path(dense):
    """selftest's two geometries at n_eff = 1 + 1e-7: PAs about 1e-6 wavelengths off
    the grid are not summed as co-phased, so every draw matches the scalar path."""
    config = ExperimentConfig(n_eff=1.0 + 1e-7)
    params, draws = config.params_for_case(), 200
    if dense:
        params, draws = params.replace(dx_m=4.0, num_pas=64), 60
    units = uniform_pairs(config.seed, draws)
    ux, uy = (units[:, 0] - 0.5) * params.dx_m, (units[:, 1] - 0.5) * params.dy_m
    layout = WaveguideLayout.from_params(params)
    assert invariants.draw_mismatches(params, layout, ux, uy, ALL_MODES) == []


@pytest.mark.parametrize(
    "params, layout, at",
    [
        (DENSE, None, None),
        (DENSE, None, edge_users(DENSE)),
        (SystemParams(kappa_db_per_m=0.0, num_pas=64), RAGGED,
         ragged_dense_users(SystemParams(kappa_db_per_m=0.0))),
    ],
    ids=["dense", "edge-overflow", "ragged-dense"],
)
def test_fold_sees_each_row_in_chain_order(monkeypatch, params, layout, at):
    """Each chain's PAs reach the fold outward from the user, its continuation last.

    The order in which a chain's PAs reach the fold is the order in which the
    Monte Carlo engine sums them, so it fixes the bits of every SNR.
    """
    layout = WaveguideLayout.from_params(params) if layout is None else layout
    ux, uy = users(params, 3, 60) if at is None else at
    feasible, chains, xs = folded_pas(monkeypatch, params, layout, ux, uy)
    m, half, continued = len(layout), params.num_pas // 2, set()
    for d in np.flatnonzero(feasible):
        _, results = refine_all(params, layout, UserPosition(ux[d], uy[d]))
        for w, result in enumerate(results):
            left = result.positions[: result.n_left][::-1]  # outward from the user
            right = result.positions[result.n_left :]
            assert np.array_equal(xs[chains == d * m + w], right), (d, w)
            assert np.array_equal(xs[chains == (ux.size + d) * m + w], left), (d, w)
            continued |= {side for side, n in (("left", result.n_left), ("right", result.n_right))
                          if n > half}
    if params is DENSE:
        assert continued == {"left", "right"}
    else:
        assert continued


def recorded_place(monkeypatch):
    """Each ``placement._place`` call as (its phases' solver arguments, its result)."""
    calls = []
    original = placement._place

    def recording(solve, *args):
        phases = []

        def solve_recorded(*request):
            phases.append(request)
            return solve(*request)

        calls.append((phases, original(solve_recorded, *args)))
        return calls[-1][1]

    monkeypatch.setattr(placement, "_place", recording)
    return calls


# One 4 m span at four heights.  At n_eff = 1 the feed-side path decays
# below a wavelength within a few PAs of h = 8 cm, within the continuation
# at 10 and 15 cm (at 15 cm also a step or two past some chains' quotas),
# and nowhere at 3 m.
MIXED = WaveguideLayout(tuple(Waveguide(-2.0, 0.0, h, 2.0) for h in (0.08, 0.1, 0.15, 3.0)))


@pytest.mark.parametrize("n_eff", [1.0, 1.0 + 1e-6, 1.4])
def test_mixed_continuation_request_matches_refine_all(monkeypatch, n_eff):
    """One continuation call with both sides and unequal quotas: per row, refine_all's split."""
    params = SystemParams(n_eff=n_eff, dx_m=4.0, dy_m=0.02, num_pas=16)
    units = uniform_pairs(9, 150)
    # users within 4 cm of either end: one side has room for fewer than N/2 PAs
    ux = np.concatenate([1.999 - 0.04 * units[:, 0], -1.999 + 0.04 * units[:, 0]])
    uy = np.concatenate([units[:, 1] - 0.5] * 2) * params.dy_m
    calls = recorded_place(monkeypatch)
    experiments.draw_snrs(params, MIXED, ux, uy, ("single",))
    (_, request), engine = calls.pop()
    chains, _, _, quota, _, _ = request
    outward = chains >= ux.size * len(MIXED)  # the left chains
    assert outward.any() and not outward.all()
    assert np.unique(quota[outward]).size > 1 and np.unique(quota[~outward]).size > 1
    assert max(1, placement._BLOCK_ENTRIES // chains.size) < quota.max()  # the prefix shrinks
    for x, y in zip(ux, uy):
        try:
            refine_all(params, MIXED, UserPosition(x, y))
        except FeasibilityError:
            pass
    want = [np.concatenate(column) for column in zip(*(result for _, result in calls))]
    for name, got, expected in zip(("n_left", "n_right", "failed", "fits"), engine, want):
        assert np.array_equal(got, expected), name
    # The engine's and every refine_all continuation list their chains longest
    # quota first, ties in ascending chain index.
    requests = [request] + [phases[1] for phases, _ in calls if len(phases) == 2]
    assert len(requests) > 1
    for continued, _, _, quotas, _, _ in requests:
        assert np.array_equal(np.lexsort((continued, -quotas)), np.arange(continued.size))
    _, _, failed, fits = engine
    assert fits.any()
    if n_eff == 1.0:  # the NaN rule stops left chains in both phases
        continued_left = np.zeros(failed.shape, dtype=bool)
        continued_left[chains[outward] - ux.size * len(MIXED)] = True
        assert (failed & continued_left).any() and (failed & ~continued_left).any()
    else:
        assert not failed.any()


def test_continuation_walk_hands_the_fold_only_live_rows(monkeypatch):
    """Each continuation block walks only the chains whose quota reaches it.

    On the ``mc_dense`` perfbench geometry at N = 256: each fold call gets
    the continuation request's first chains in request order, no chain goes
    to the fold once it has had as many steps as its quota, each fold call
    but the last gets between half and all of :data:`placement._BLOCK_ENTRIES`
    entries, and every chain's steps are on known grid lines: the placement
    evaluates :func:`placement._grid_index` once per phase (the first lines),
    where a walk of one step per PA evaluated it N times.  Every first-phase
    block but the last is :data:`placement._BLOCK_ENTRIES` // R steps.
    """
    params = SystemParams(dx_m=4.0, num_pas=256)
    ux, uy = users(params, 424242, 200)
    calls = recorded_place(monkeypatch)
    blocks, grid, first_phase = [], [], []
    original_batch, original_grid = placement.refine_batch, placement._grid_index

    def counting_grid(*args):
        grid.append(None)
        return original_grid(*args)

    def recording(params, h_eff, user_x, feed_x, max_x, fold):
        def record(chains, xs, placed):
            sides, rows = chains
            if isinstance(rows, np.ndarray):  # the continuation phase's chains
                blocks.append((sides * user_x.size + rows, xs.shape[0]))
            else:
                first_phase.append(xs.shape)
            fold(chains, xs, placed)

        return original_batch(params, h_eff, user_x, feed_x, max_x, record)

    monkeypatch.setattr(placement, "_grid_index", counting_grid)
    monkeypatch.setattr(placement, "refine_batch", recording)
    experiments.draw_snrs(params, WaveguideLayout.from_params(params), ux, uy, ("single",))
    ((phases, _),) = calls
    chains, _, _, quota, _, _ = phases[1]
    quota_of, walked = np.zeros(ux.size * 8, dtype=int), np.zeros(ux.size * 8, dtype=int)
    quota_of[chains] = quota
    for i, (block_chains, steps) in enumerate(blocks):
        assert np.array_equal(block_chains, chains[: block_chains.size])  # a prefix, in order
        assert (walked[block_chains] < quota_of[block_chains]).all()
        entries = block_chains.size * steps
        assert entries <= max(placement._BLOCK_ENTRIES, block_chains.size)
        assert i == len(blocks) - 1 or entries >= placement._BLOCK_ENTRIES // 2
        walked[block_chains] += steps
    assert (walked[chains] >= quota).all()
    entries = sum(block_chains.size * steps for block_chains, steps in blocks)
    assert entries <= 31_000  # every chain walked to the longest quota: 49 094
    assert len(grid) == 2
    # The first phase's 128 steps of R = 800 rows: every block _BLOCK_ENTRIES // R steps
    # of both sides' chains (5 at 4096 entries), the last one the steps left (3).
    steps = placement._BLOCK_ENTRIES // 800
    assert first_phase == [(steps, 2, 800)] * (128 // steps) + [(128 % steps, 2, 800)]


# --- Reference: the one-step-per-call walk and the real-amplitude fold -------


def reference_place(solve, n, spacing, user_x, feed_x, max_x):
    """The placement driver as it stood with one solver call per side and phase, copied verbatim."""
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


def reference_refine_batch(params, h_eff, user_x, feed_x, max_x, fold, continued=None):
    """One side per walk and one step per fold call, on the two-branch shift step.

    ``continued``, if given, collects the side (outward) and row count of
    every continuation walk.
    """
    def walk(outward: bool, rows, col: int, delta, quota, bounds):
        h, ux, (lo, hi) = h_eff[rows], user_x[rows], bounds
        if col and continued is not None:
            continued.append((outward, h.size))
        placed = np.zeros(h.shape, dtype=int)
        failed = np.zeros(h.shape, dtype=bool)
        alive = np.ones(h.shape, dtype=bool)
        for step in range(int(np.max(quota, initial=0))):
            v = reference_shift_batch(h, delta, params.n_eff, params.wavelength_m, outward)
            final = delta + v
            alive = alive & (step < quota)
            if outward and params.n_eff == 1.0:
                unreachable = np.isnan(final)
                failed |= alive & unreachable
                alive &= ~unreachable
                final[unreachable] = 0.0  # a finite position for the PA not placed
            alive &= (lo <= final) & (final <= hi)
            placed += alive
            fold((int(outward), rows), ux - final if outward else ux + final, alive)
            delta = final + params.min_spacing_m
        return placed, delta, failed

    return reference_place(walk, params.num_pas, params.min_spacing_m, user_x, feed_x, max_x)[-1]


def reference_pa_amplitudes(params, xs, wg_y, wg_height, feed_x, user_x, user_y):
    """The amplitude kernel as it stood with its distance r, copied verbatim (with the distance)."""
    dx, dy, dz = xs - user_x, wg_y - user_y, wg_height
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    amplitude = math.sqrt(params.eta_m2 / params.num_pas) / r
    if params.kappa_db_per_m == 0.0:
        return amplitude, r
    # sqrt(10^(-kappa run / 10)) = e^(-kappa ln(10) run / 20), run the PA's distance from the feed
    return amplitude * np.exp(-params.kappa_db_per_m * math.log(10.0) / 20.0 * (xs - feed_x)), r


def reference_off_grid(params, r, xs, x_u):
    """Each PA's distance from the wavelength grid as it was measured apart, copied verbatim."""
    cycles = (r + params.n_eff * (xs - x_u)) / params.wavelength_m
    return np.abs(cycles - np.rint(cycles))


def reference_draw_snrs(
    params, layout, user_x, user_y, modes, baseline_elements=None, continued=None
):
    feasible = np.ones(user_x.size, dtype=bool)
    inner = None
    if any(mode != "baseline" for mode in modes):
        m = len(layout)
        ux, uy = np.repeat(user_x, m), np.repeat(user_y, m)
        wg_y, height, feed_x, max_x = (
            np.tile(layout.field(k), user_x.size) for k in ("y", "height", "feed_x", "max_x")
        )
        inner = np.zeros((2, ux.size))  # per chain: right of the user, left of it

        def fold(chains, xs, placed):
            rows = chains[1]
            amplitude, _ = reference_pa_amplitudes(
                params, xs, wg_y[rows], height[rows], feed_x[rows], ux[rows], uy[rows],
            )
            inner[chains] += np.where(placed, amplitude, 0.0)

        h_eff = np.hypot(wg_y - uy, height)
        fits = reference_refine_batch(params, h_eff, ux, feed_x, max_x, fold, continued)
        feasible = fits.reshape(-1, m).all(axis=1)
        inner = (inner[0] + inner[1]).reshape(-1, m)
    return experiments._snrs(params, inner, user_x, user_y, modes, baseline_elements), feasible


MC_REGION_EDGE = SystemParams(dx_m=10.0, num_pas=4)
MC_DENSE = SystemParams(dx_m=4.0, num_pas=256)


def near_edge_users(params, draws=60):
    # users within two spacings of either x edge: one side has room for fewer than N/2 PAs
    units = uniform_pairs(17, draws)
    reach = 2.0 * params.min_spacing_m * units[:, 0]
    ux = np.concatenate([params.dx_m / 2 - reach, reach - params.dx_m / 2])
    uy = (units[:, 1] - 0.5) * params.dy_m
    return ux, np.concatenate([uy, uy])


@pytest.mark.parametrize(
    "params, layout, at, block",
    [
        (DENSE, None, None, None),
        (DENSE, None, edge_users(DENSE), None),
        (SystemParams(kappa_db_per_m=0.0, num_pas=64), RAGGED,
         ragged_dense_users(SystemParams(kappa_db_per_m=0.0)), None),
        (SystemParams(n_eff=1.0, num_pas=16), None, None, None),
        # 4 x 1025 rows: one step per block; 4 x 300 rows: 3-step blocks, 8 steps a side
        (SystemParams(num_pas=8), None, users(SystemParams(), 13, 1025), 1),
        (SystemParams(num_pas=16), None, users(SystemParams(), 13, 300), 3),
        # the mc_region shape: every continuation (quotas of at most 2) fits in one block
        (MC_REGION_EDGE, None, near_edge_users(MC_REGION_EDGE), None),
        # the mc_dense shape: 17-step closed-form blocks, which take more than one pass of
        # placement._steps, and a closed-form continuation
        (MC_DENSE, None, None, None),
    ],
    ids=["dense", "edge-overflow", "ragged-dense", "unit-index", "block-of-one", "ragged-block",
         "mc-region-edge", "mc-dense"],
)
def test_blocked_fold_is_bit_identical_to_one_step_per_call(monkeypatch, params, layout, at, block):
    """Every chain is summed in the same order as one step per fold call would sum it.

    On every block the fold gets, the amplitude kernel gives the bits of the
    verbatim amplitude and off-grid references.
    """
    layout = WaveguideLayout.from_params(params) if layout is None else layout
    ux, uy = users(params, 3, 60) if at is None else at
    rows = ux.size * len(layout)
    if block is not None:  # the block size the case is about, and a partial last block
        assert max(1, placement._BLOCK_ENTRIES // rows) == block
        assert block == 1 or (params.num_pas // 2) % block != 0
    shapes = []
    original = placement.refine_batch
    wg_y, height = (np.tile(layout.field(k), ux.size) for k in ("y", "height"))
    row_y = np.repeat(uy, len(layout))

    def recording(params, h_eff, user_x, feed_x, max_x, fold):
        def record(chains, xs, placed):
            assert xs.shape == placed.shape
            shapes.append(xs.shape)
            r = chains[1]
            at_feed = np.where(placed, xs, feed_x[r])
            dy = wg_y[r] - row_y[r]
            amplitude, off_grid = model.pa_amplitudes(
                params, at_feed, user_x[r], feed_x[r], dy * dy, height[r] * height[r]
            )
            want, distance = reference_pa_amplitudes(
                params, at_feed, wg_y[r], height[r], feed_x[r], user_x[r], row_y[r]
            )
            assert np.array_equal(amplitude, want)
            assert np.array_equal(off_grid, reference_off_grid(params, distance, at_feed, user_x[r]))
            fold(chains, xs, placed)

        return original(params, h_eff, user_x, feed_x, max_x, record)

    monkeypatch.setattr(placement, "refine_batch", recording)
    snrs, feasible = experiments.draw_snrs(params, layout, ux, uy, ALL_MODES)
    continued = []
    want, want_feasible = reference_draw_snrs(
        params, layout, ux, uy, ALL_MODES, continued=continued
    )
    assert np.array_equal(feasible, want_feasible)
    if params is DENSE:  # chains of both sides in the continuation
        assert sorted(side for side, _ in continued) == [False, True]
    if params is MC_REGION_EDGE:  # both sides continue, in one fold call
        assert sorted(side for side, _ in continued) == [False, True]
        assert [shape[0] for shape in shapes if len(shape) == 2] == [2]
    assert feasible.any()
    for mode in ALL_MODES:
        assert np.array_equal(snrs[mode], want[mode]), mode
    # The first phase: one fold call per block of _BLOCK_ENTRIES // rows steps (at least
    # one), each over every chain of both sides, and the last block what is left.
    steps, half = max(1, placement._BLOCK_ENTRIES // rows), params.num_pas // 2
    first_phase = [shape for shape in shapes if len(shape) == 3]
    assert shapes[: len(first_phase)] == first_phase
    assert len(first_phase) == -(-half // steps)
    assert first_phase == [(min(steps, half - k), 2, rows) for k in range(0, half, steps)]
    # A call of more than one step never takes more than 2 x _BLOCK_ENTRIES entries.
    assert all(shape[0] == 1 or math.prod(shape) <= 2 * placement._BLOCK_ENTRIES
               for shape in shapes)


# The traced peak of one draw_snrs call at the mc_region shape, in KiB above its start:
# it read 926.5 to 926.7 (the Python objects alive around the call vary), and 1003.2
# before the amplitude kernel and the fold wrote in place.
MC_REGION_PEAK_KIB = 927.0


def test_draw_snrs_transient_peak_at_the_mc_region_shape():
    """One call's traced allocations peak at most MC_REGION_PEAK_KIB above its start.

    500 draws, N = 4, M = 4, case 2, every mode; after a first call, so that
    nothing it sets up once is counted.
    """
    params = SystemParams(dx_m=10.0, num_pas=4)
    layout = WaveguideLayout.from_params(params)
    ux, uy = users(params, 424242, 500)
    experiments.draw_snrs(params, layout, ux, uy, ALL_MODES)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        experiments.draw_snrs(params, layout, ux, uy, ALL_MODES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / 1024 <= MC_REGION_PEAK_KIB


@pytest.fixture
def refine_all_users(monkeypatch):
    """The users ``placement.refine_all`` is called for, as (x, y) pairs."""
    calls = []
    original = placement.refine_all

    def counting(params, layout, user, *args, **kwargs):
        calls.append((user.x, user.y))
        return original(params, layout, user, *args, **kwargs)

    monkeypatch.setattr(placement, "refine_all", counting)
    return calls


def shift_one_pa_off_the_grid(monkeypatch, row, user=None):
    """Moves the first PA right of the user on row ``row`` a quarter wavelength before the
    engine folds it; given the row's ``user`` (x, y), also in ``refine_all``'s placement of
    that user, the same bits."""
    original = placement.refine_batch
    if user is not None:
        original_all = placement.refine_all

        def shifted_all(params, layout, at):
            pin, results = original_all(params, layout, at)
            if (at.x, at.y) == user:
                w = row % len(layout)
                pin.positions[w, results[w].n_left] += params.wavelength_m / 4.0
            return pin, results

        monkeypatch.setattr(placement, "refine_all", shifted_all)

    def shifting(params, h_eff, user_x, feed_x, max_x, fold):
        first = []

        def shift_once(chains, xs, placed):
            if not first:  # the first block holds every chain's first PA, right ones at side 0
                first.append(True)
                assert placed[0, 0, row]
                xs = xs.copy()
                xs[0, 0, row] += params.wavelength_m / 4.0
            fold(chains, xs, placed)

        return original(params, h_eff, user_x, feed_x, max_x, shift_once)

    monkeypatch.setattr(placement, "refine_batch", shifting)


class TestCophasedGuard:
    """A draw is summed as co-phased only while its PAs sit on the wavelength grid."""

    def test_off_grid_pa_is_evaluated_through_the_complex_path(
        self, monkeypatch, refine_all_users
    ):
        params = SystemParams()
        layout = WaveguideLayout.from_params(params)
        ux, uy = users(params, 3, 30)
        # draw 1, waveguide 1, off the grid in the engine and in the per-user placement
        shift_one_pa_off_the_grid(monkeypatch, row=5, user=(ux[1], uy[1]))
        channel_users = []
        original = experiments.effective_channel

        def counting(params, layout, pin, user):
            channel_users.append((user.x, user.y))
            return original(params, layout, pin, user)

        monkeypatch.setattr(experiments, "effective_channel", counting)
        _, feasible = experiments.draw_snrs(params, layout, ux, uy, ALL_MODES)
        assert refine_all_users == channel_users == [(ux[1], uy[1])]
        assert feasible.all()
        assert invariants.draw_mismatches(params, layout, ux, uy, ALL_MODES) == []

    def test_fallback_that_does_not_fit_is_infeasible(self, monkeypatch):
        params = SystemParams()
        ux, uy = users(params, 3, 30)
        shift_one_pa_off_the_grid(monkeypatch, row=5)

        def no_fit(*args, **kwargs):
            raise FeasibilityError("does not fit")

        monkeypatch.setattr(placement, "refine_all", no_fit)
        _, feasible = experiments.draw_snrs(
            params, WaveguideLayout.from_params(params), ux, uy, ALL_MODES
        )
        assert np.flatnonzero(~feasible).tolist() == [1]

    @pytest.mark.parametrize("kappa", [0.0, 0.08])
    def test_default_geometry_takes_no_fallback(self, refine_all_users, kappa):
        params = SystemParams(kappa_db_per_m=kappa)
        ux, uy = users(params, 424242, 2000)
        _, feasible = experiments.draw_snrs(
            params, WaveguideLayout.from_params(params), ux, uy, ALL_MODES
        )
        assert feasible.all()
        assert refine_all_users == []

    def test_near_unit_index_takes_the_complex_path(self, refine_all_users):
        # n_eff = 1 + 1e-10: the shift root cancels and leaves every chain
        # about 1e-5 wavelengths off the grid
        params = SystemParams(n_eff=1.0 + 1e-10)
        layout = WaveguideLayout.from_params(params)
        ux, uy = users(params, 3, 40)
        _, feasible = experiments.draw_snrs(params, layout, ux, uy, ALL_MODES)
        assert feasible.all()
        assert refine_all_users == list(zip(ux, uy))
        assert invariants.draw_mismatches(params, layout, ux, uy, ALL_MODES) == []


@settings(max_examples=40, deadline=None)
@given(
    dx=st.floats(0.3, 60.0),
    half=st.integers(1, 32),
    m=st.integers(1, 6),
    n_eff=st.sampled_from([1.0, 1.0 + 1e-6, 1.4, 2.0]),
    spacing=st.floats(1e-3, 0.05),
    height=st.floats(0.05, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_engine_matches_scalar_over_system_params(dx, half, m, n_eff, spacing, height, seed):
    params = SystemParams(
        dx_m=dx, num_pas=2 * half, num_waveguides=m, n_eff=n_eff, min_spacing_m=spacing,
        height_m=height,
    )
    assert_engine_matches_scalar(params, draws=12, seed=seed)


def reference_sweep_csv(config):
    """The per-draw Monte Carlo loop the batched engine replaced."""
    units = reference_units(config.seed, config.draws)
    reports = []
    for value in config.sweep_values:
        params = config.params_for_case(value)
        layout = WaveguideLayout.from_params(params)
        base_mode = "multi" if params.num_rf_chains >= 2 else "single"
        sums = {mode: np.zeros(2) for mode in config.modes}
        counted = infeasible = 0
        for ux, uy in units:
            user = UserPosition((ux - 0.5) * params.dx_m, (uy - 0.5) * params.dy_m)
            snrs = invariants.reference_snrs(
                params, layout, user, config.modes, config.baseline_elements
            )
            if snrs is None:
                infeasible += 1
                continue
            counted += 1
            for mode, snr in snrs.items():
                sums[mode] += (snr, beamforming.capacity(snr))
        for mode in config.modes:
            snr, cap = (sums[mode] / counted) if counted else (math.nan, math.nan)
            reports.append(
                CapacityReport(
                    scenario=f"{config.sweep}={value:g}",
                    mode=f"baseline_{base_mode}" if mode == "baseline" else mode,
                    case=config.case,
                    snr=float(snr),
                    capacity_bits=float(cap),
                    draws=config.draws,
                    infeasible_draws=infeasible,
                )
            )
    return render_sweep_csv(config, reports)


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(sweep="Dx", sweep_values=(2.0, 10.0, 50.0), user="uniform", draws=80,
                         case=2, modes=ALL_MODES, num_pas=16),
        ExperimentConfig(sweep="M", sweep_values=(1, 3), user="uniform", draws=60,
                         num_rf_chains=1, modes=("single", "baseline"), baseline_elements=9),
        ExperimentConfig(sweep="N", sweep_values=(64,), user="uniform", draws=20, dx_m=0.2,
                         dy_m=2.0, modes=ALL_MODES),
    ],
    ids=["Dx", "M-one-chain", "infeasible"],
)
def test_sweep_csv_bytes_match_per_draw_reference(config):
    assert render_sweep_csv(config, run_sweep(config)) == reference_sweep_csv(config)


def reference_shift_batch(h_eff, delta, n_eff, wavelength, outward):
    """The two-branch array shift step, copied verbatim."""
    if outward:
        path = np.hypot(h_eff, delta) - n_eff * delta
        target = wavelength * np.floor(path / wavelength + 1e-12)
    else:
        path = np.hypot(h_eff, delta) + n_eff * delta
        target = wavelength * np.ceil(path / wavelength - 1e-12)
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


@pytest.mark.parametrize("outward", [False, True])
@pytest.mark.parametrize("n_eff", [1.0, 1.0 + 1e-6, 1.4, 2.0])
def test_side_signed_shift_step_is_bit_identical(n_eff, outward):
    rng = np.random.default_rng(11)
    # Elevations from a few centimetres (n_eff = 1 feed side unreachable) to metres,
    # offsets from zero to beyond a waveguide, and a few exact grid hits.
    h_eff = np.concatenate([rng.uniform(0.03, 0.1, 2000), rng.uniform(1.0, 12.0, 8000)])
    delta = np.concatenate([rng.uniform(0.0, 0.05, 3000), rng.uniform(0.0, 60.0, 7000)])
    delta[:50] = 0.0
    # the walk's step on the constants of the rows' right (or left) chains
    chains = placement._chains(h_eff, n_eff, 0.0107)[1]
    h, h2s, sn, sl, ss = (a[h_eff.size :] if outward else a[: h_eff.size] for a in chains)
    st = sl * placement._grid_index(h, delta, sn, sl)
    got = np.maximum(placement._aligned_offset(h2s, st, n_eff, ss) - delta, 0.0)
    want = reference_shift_batch(h_eff, delta, n_eff, 0.0107, outward)
    assert np.array_equal(got, want, equal_nan=True)
    if n_eff == 1.0 and outward:
        assert np.isnan(got).any() and not np.isnan(got).all()


def one_sided_grid_index(h_eff, delta, n_eff, wavelength, outward):
    """The grid index with the side as a branch, copied verbatim."""
    hyp, ndelta = np.hypot(h_eff, delta), n_eff * delta
    return np.ceil(((ndelta - hyp) if outward else (ndelta + hyp)) / wavelength - 1e-12)


def one_sided_aligned_offset(h2s, t, n_eff, outward):
    """The aligned offset with the side as a branch, copied verbatim."""
    if n_eff == 1.0:
        if outward:
            t = np.where(t < 0.0, t, np.nan)
        return (t * t - h2s) / (2.0 * t)
    root = np.sqrt(t * t + h2s)
    return ((t * n_eff + root) if outward else (t * n_eff - root)) / (n_eff * n_eff - 1.0)


@pytest.mark.parametrize("n_eff", [1.0, 1.0 + 1e-6, 1.4])
def test_signed_constant_kernels_match_the_one_sided_forms(n_eff):
    """Rows of both sides in one call get the bits of their own side's one-sided call."""
    rng = np.random.default_rng(29)
    # Elevations from a few centimetres (n_eff = 1 feed side unreachable) to metres,
    # offsets from zero to beyond a waveguide, the sides mixed row by row.
    h_eff = np.concatenate([rng.uniform(0.03, 0.1, 2000), rng.uniform(1.0, 12.0, 8000)])
    delta = np.concatenate([rng.uniform(0.0, 0.05, 3000), rng.uniform(0.0, 60.0, 7000)])
    delta[:50] = 0.0
    left = rng.random(h_eff.size) < 0.5
    lam = 0.0107
    # row i's left chain where ``left[i]``, its right chain elsewhere
    pick = np.arange(h_eff.size) + h_eff.size * left
    h, h2s, sn, sl, ss = (a[pick] for a in placement._chains(h_eff, n_eff, lam)[1])
    assert np.array_equal(h, h_eff)
    index = placement._grid_index(h, delta, sn, sl)
    offset = placement._aligned_offset(h2s, sl * index, n_eff, ss)
    for outward in (False, True):
        rows = left == outward
        want = one_sided_grid_index(h_eff[rows], delta[rows], n_eff, lam, outward)
        assert np.array_equal(index[rows], want)
        want = one_sided_aligned_offset(h2s[rows], lam * want, n_eff, outward)
        assert np.array_equal(offset[rows], want, equal_nan=True)
    # the n_eff = 1 NaN rule: some feed-side rows have no grid line left, no right-side row
    unreachable = np.isnan(offset)
    assert not unreachable[~left].any()
    assert unreachable[left].any() == (n_eff == 1.0) and not unreachable[left].all()
