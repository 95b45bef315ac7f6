"""Brute-force verifiers: exhaustive grid search, high-precision phase chain."""

import math

import numpy as np
import pytest

from pass_trihybrid import (
    FeasibilityError,
    SystemParams,
    UserPosition,
    Waveguide,
    WaveguideLayout,
    direct_phase_chain,
    effective_channel,
    grid_search_gain,
    refine_all,
    refine_waveguide,
)
from pass_trihybrid.oracle import _grid_values

PARAMS = SystemParams(kappa_db_per_m=0.0, num_waveguides=1)
LAM = PARAMS.wavelength_m
WG = Waveguide(PARAMS.feed_x_m, 0.0, PARAMS.height_m, PARAMS.max_x_m)
USER = UserPosition(0.0, 0.0)


class TestGridSearch:
    def test_matches_plain_double_loop(self):
        res = LAM / 32
        xs, c = _grid_values(PARAMS, WG, USER, 2, res)
        gap = int(math.ceil(PARAMS.min_spacing_m / res - 1e-9))
        brute = 0.0
        for i in range(len(xs)):
            for j in range(i + gap, len(xs)):
                brute = max(brute, abs(c[i] + c[j]))
        gain, _ = grid_search_gain(PARAMS, WG, USER, 2, res)
        assert gain == pytest.approx(brute, rel=1e-12)

    def test_four_antennas_match_plain_quadruple_loop(self):
        # A window of 80 grid points, 16 per minimum spacing.  The loop adds
        # the outer pair's sum to the inner pair's, as the search does, so the
        # first maximum in ascending tuple order must match to the bit.
        res = LAM / 32
        half = 39.5 * res
        cramped = Waveguide(-half, 0.0, PARAMS.height_m, half)
        xs, c = _grid_values(PARAMS, cramped, USER, 4, res)
        gap = int(math.ceil(PARAMS.min_spacing_m / res - 1e-9))
        assert (len(xs), gap) == (80, 16)
        re, im, g = c.real.tolist(), c.imag.tolist(), len(xs)
        best, best_tuple = -1.0, None
        for a in range(g):
            for b in range(a + gap, g):
                for i in range(b + gap, g):
                    for j in range(i + gap, g):
                        sr = (re[i] + re[j]) + (re[a] + re[b])
                        si = (im[i] + im[j]) + (im[a] + im[b])
                        if sr * sr + si * si > best:
                            best, best_tuple = sr * sr + si * si, (a, b, i, j)
        gain, pos = grid_search_gain(PARAMS, cramped, USER, 4, res)
        assert gain == math.sqrt(best)
        assert np.array_equal(pos, xs[list(best_tuple)])

    def test_optimum_sits_near_user_with_aligned_phases(self):
        gain, pos = grid_search_gain(PARAMS, WG, USER, 2, LAM / 32)
        xs, c = _grid_values(PARAMS, WG, USER, 2, LAM / 32)
        peak = np.max(np.abs(c))
        chosen = np.abs(
            c[[int(np.argmin(np.abs(xs - p))) for p in pos]]
        )
        assert np.all(chosen >= 0.999 * peak)
        summands = c[[int(np.argmin(np.abs(xs - p))) for p in pos]]
        rel_phase = abs(np.angle(summands[1] / summands[0]))
        assert rel_phase < 0.2

    def test_finer_grid_never_worse_on_nested_grids(self):
        coarse, _ = grid_search_gain(PARAMS, WG, USER, 2, LAM / 32)
        fine, _ = grid_search_gain(PARAMS, WG, USER, 2, LAM / 64)
        assert fine >= coarse

    def test_positions_feasible(self):
        for n in (2, 4):
            _, pos = grid_search_gain(PARAMS, WG, USER, n, LAM / 32)
            assert len(pos) == n
            assert np.diff(np.sort(pos)).min() >= PARAMS.min_spacing_m - 1e-12
            assert np.all(np.abs(pos - USER.x) <= 2 * n * PARAMS.min_spacing_m + 1e-12)

    def test_refined_placement_near_optimal_quick(self):
        layout = WaveguideLayout((WG,))
        p2 = PARAMS.replace(num_pas=2)
        pin, _ = refine_all(p2, layout, USER)
        eff = effective_channel(p2, layout, pin, USER)
        best, _ = grid_search_gain(PARAMS, WG, USER, 2, LAM / 32)
        assert abs(eff.inner[0]) >= 0.999 * best

    def test_scope_and_resolution_guards(self):
        with pytest.raises(ValueError):
            grid_search_gain(PARAMS, WG, USER, 6, LAM / 32)
        with pytest.raises(ValueError):
            grid_search_gain(PARAMS, WG, USER, 2, LAM / 8)

    def test_window_infeasible(self):
        cramped = Waveguide(-0.001, 0.0, 3.0, 0.001)
        with pytest.raises(FeasibilityError):
            grid_search_gain(PARAMS, cramped, USER, 4, LAM / 32)


class TestDirectPhaseChain:
    def test_refined_chain_is_tight(self):
        for n in (2, 8, 32):
            res = refine_waveguide(PARAMS.replace(num_pas=n), WG, USER)
            assert direct_phase_chain(res.positions, USER, WG, PARAMS) < 1e-6 * LAM

    def test_quarter_wavelength_perturbation_detected(self):
        res = refine_waveguide(PARAMS.replace(num_pas=8), WG, USER)
        bumped = res.positions.copy()
        bumped[res.n_left] += LAM / 4  # innermost antenna right of the user
        assert direct_phase_chain(bumped, USER, WG, PARAMS) >= LAM / 8

    def test_zero_perturbation_unchanged(self):
        res = refine_waveguide(PARAMS.replace(num_pas=8), WG, USER)
        a = direct_phase_chain(res.positions, USER, WG, PARAMS)
        b = direct_phase_chain(res.positions + 0.0, USER, WG, PARAMS)
        assert a == b

    def test_agrees_with_float_residual(self):
        res = refine_waveguide(PARAMS.replace(num_pas=16), WG, USER)
        assert direct_phase_chain(res.positions, USER, WG, PARAMS) == pytest.approx(
            res.alignment_residual_m, abs=1e-9 * LAM
        )
