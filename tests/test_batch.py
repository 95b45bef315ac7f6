"""Batched Monte Carlo engine against the per-draw scalar path.

The references here are the per-draw loops the engine replaced: one
``default_rng((seed, i))`` per draw, then refine_all -> effective_channel ->
beamformer and ``baseline_capacity`` for each user, means summed with ``+=``.
"""

import math

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
    baseline_capacity,
    effective_channel,
    multi_rf_solution,
    refine_all,
    render_sweep_csv,
    run_sweep,
    single_rf_solution,
)
from pass_trihybrid import beamforming, experiments, placement
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


def reference_snrs(params, layout, user, modes, baseline_elements=None):
    """Per-mode SNR of one draw through the scalar path; None if infeasible."""
    out = {}
    if any(mode != "baseline" for mode in modes):
        try:
            pin, _ = refine_all(params, layout, user)
        except FeasibilityError:
            return None
        eff = effective_channel(params, layout, pin, user)
    for mode in modes:
        if mode == "single":
            out[mode] = single_rf_solution(eff, params).snr
        elif mode == "multi":
            out[mode] = multi_rf_solution(eff, params).snr
        else:
            base_mode = "multi" if params.num_rf_chains >= 2 else "single"
            out[mode] = baseline_capacity(params, user, base_mode, baseline_elements).snr
    return out


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
    calls = []
    original = placement.refine_all

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    placement.refine_all = counting
    try:
        snrs, feasible = experiments.draw_snrs(params, layout, ux, uy, modes, **kw)
    finally:
        placement.refine_all = original
    assert len(calls) == 0
    assert set(snrs) == set(modes)
    to_left = to_right = 0
    for d in range(len(ux)):
        user = UserPosition(ux[d], uy[d])
        ref = reference_snrs(params, layout, user, modes, **kw)
        assert feasible[d] == (ref is not None), d
        if ref is None:
            continue
        for mode, snr in ref.items():
            assert abs(snrs[mode][d] - snr) <= 1e-12 * snr, (d, mode)
        _, results = refine_all(params, layout, user)
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
    """The PAs the engine folds in are ``refine_all``'s, bit for bit, and so is each split.

    The engine takes each row's elevation from ``np.hypot``, ``refine_all``
    from ``math.hypot``; the two differ in the last bit on about 0.6% of
    rows, so ``refine_all`` is given the engine's elevation here.
    """
    layout = WaveguideLayout.from_params(params) if layout is None else layout
    ux, uy = users(params, 3, 60) if at is None else at
    calls = []
    original = placement.refine_batch
    monkeypatch.setattr(
        Waveguide, "effective_elevation", lambda wg, user: float(np.hypot(wg.y - user.y, wg.height))
    )

    def recording(params, h_eff, user_x, feed_x, max_x, fold):
        def record(rows, xs, placed):
            calls.append((np.arange(user_x.size)[rows], xs.copy(), placed.copy()))
            fold(rows, xs, placed)

        return original(params, h_eff, user_x, feed_x, max_x, record)

    monkeypatch.setattr(placement, "refine_batch", recording)
    _, feasible = experiments.draw_snrs(params, layout, ux, uy, ("single",))
    rows, xs, placed = (np.concatenate(column) for column in zip(*calls))
    rows, xs = rows[placed], xs[placed]
    m, uneven = len(layout), 0
    for d in np.flatnonzero(feasible):
        _, results = refine_all(params, layout, UserPosition(ux[d], uy[d]))
        for w, result in enumerate(results):
            got = np.sort(xs[rows == d * m + w])
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
            snrs = reference_snrs(params, layout, user, config.modes, config.baseline_elements)
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
    got = placement._shift_batch(h_eff, delta, n_eff, 0.0107, outward)
    want = reference_shift_batch(h_eff, delta, n_eff, 0.0107, outward)
    assert np.array_equal(got, want, equal_nan=True)
    if n_eff == 1.0 and outward:
        assert np.isnan(got).any() and not np.isnan(got).all()
