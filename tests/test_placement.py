"""Position-refinement algorithm: shifts, alignment, spacing, feasibility."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from pass_trihybrid import (
    FeasibilityError,
    SystemParams,
    UserPosition,
    Waveguide,
    WaveguideLayout,
    effective_channel,
    gain_lower,
    gain_upper,
    refine_all,
    refine_shift,
    refine_shift_outward,
    refine_waveguide,
)

LOSSLESS = SystemParams(kappa_db_per_m=0.0)
LAM = LOSSLESS.wavelength_m


def toward_path(h, d, n_eff):
    return math.hypot(h, d) + n_eff * d


def away_path(h, e, n_eff):
    return math.hypot(h, e) - n_eff * e


class TestRefineShift:
    def test_documented_example(self):
        # H = 3 m, quarter-wavelength start, glass-free guide (n_eff = 1)
        lam = 0.0107069
        h, delta = 3.0, lam / 4
        target = lam * math.ceil(toward_path(h, delta, 1.0) / lam)
        v = refine_shift(h, delta, 1.0, lam)
        assert v == pytest.approx(5.9498e-3, abs=1e-6)
        # independent root solve of the alignment equation
        v_oracle = brentq(
            lambda t: toward_path(h, delta + t, 1.0) - target, 0.0, 2 * lam, xtol=1e-15
        )
        assert v == pytest.approx(v_oracle, abs=1e-12)
        assert abs(toward_path(h, delta + v, 1.0) - target) < 1e-12 * target

    def test_exact_multiple_is_fixed_point(self):
        h, delta, n_eff = 3.0, 0.012, 1.4
        lam = toward_path(h, delta, n_eff) / 300  # path is exactly 300 wavelengths
        assert refine_shift(h, delta, n_eff, lam) == 0.0

    @pytest.mark.parametrize("n_eff", [1.0, 1.4, 1.7])
    def test_substitution_residual_random(self, n_eff):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            h = rng.uniform(1.0, 50.0)
            delta = rng.uniform(0.0, 1.0)
            v = refine_shift(h, delta, n_eff, LAM)
            assert v >= 0.0
            path = toward_path(h, delta + v, n_eff)
            target = LAM * round(path / LAM)
            assert abs(path - target) < 1e-12 * path

    @pytest.mark.parametrize("n_eff", [1.0, 1.4, 1.7])
    def test_outward_substitution_residual_random(self, n_eff):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            h = rng.uniform(1.0, 50.0)
            delta = rng.uniform(0.0, 1.0)
            v = refine_shift_outward(h, delta, n_eff, LAM)
            assert v >= 0.0
            path = away_path(h, delta + v, n_eff)
            target = LAM * round(path / LAM)
            assert abs(path - target) < 1e-12 * max(abs(path), h)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            refine_shift(0.0, 0.1, 1.4, LAM)
        with pytest.raises(ValueError):
            refine_shift(3.0, -0.1, 1.4, LAM)

    @pytest.mark.parametrize("h", [1e-16, 1e-170])
    def test_path_on_grid_line_zero_is_unreachable(self, h):
        # n_eff = 1, elevation and offset far below 1e-12 lambda: the path
        # rounds to grid line 0, where the aligned offset divides by zero
        # (1e-170 also underflows h^2 to 0/0); raise, and warn nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FeasibilityError, match="right of the user"):
                refine_shift(h, 0.0, 1.0, LAM)
            with pytest.raises(FeasibilityError, match="feed side"):
                refine_shift_outward(h, 0.0, 1.0, LAM)
            assert refine_shift(h, 0.0, 1.4, LAM) == 0.0


def one_waveguide(params):
    return Waveguide(params.feed_x_m, 0.0, params.height_m, params.max_x_m)


class TestRefineWaveguide:
    def test_two_antennas_combine_coherently(self):
        p = LOSSLESS.replace(num_pas=2, num_waveguides=1)
        wg = one_waveguide(p)
        user = UserPosition(0.0, 0.0)
        res = refine_waveguide(p, wg, user)
        assert res.n_left == res.n_right == 1
        # both sides start half a spacing out, then shift outward
        assert res.positions[1] == pytest.approx(p.min_spacing_m / 2 + res.shifts[1], rel=1e-12)
        assert res.positions[0] == pytest.approx(-(p.min_spacing_m / 2 + res.shifts[0]), rel=1e-12)

        layout = WaveguideLayout((wg,))
        pin, _ = refine_all(p, layout, user)
        eff = effective_channel(p, layout, pin, user)
        coherent = np.sum(np.abs(eff.channel[0] * eff.guide[0]))
        assert_allclose(abs(eff.inner[0]), coherent, rtol=1e-6)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_alignment_residual(self, n):
        res = refine_waveguide(LOSSLESS, one_waveguide(LOSSLESS), UserPosition(0, 0), num_pas=n)
        assert res.alignment_residual_m < 1e-6 * LAM

    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_spacing_bounds(self, n):
        res = refine_waveguide(LOSSLESS, one_waveguide(LOSSLESS), UserPosition(0, 0), num_pas=n)
        gaps = np.diff(res.positions)
        assert gaps.min() >= LOSSLESS.min_spacing_m - 1e-12
        # the straddling gap accumulates one shift from each side
        assert gaps.min() <= LOSSLESS.min_spacing_m + 2 * res.shifts.max()
        assert res.max_spacing_m == pytest.approx(gaps.max())
        assert res.max_spacing_m >= LOSSLESS.min_spacing_m

    def test_shift_ranges(self):
        # within one wavelength-multiple of path adjustment per antenna
        bound = LAM / (LOSSLESS.n_eff - 1.0)
        rng = np.random.default_rng(5)
        for _ in range(25):
            user = UserPosition(rng.uniform(-20, 20), rng.uniform(-10, 10))
            res = refine_waveguide(LOSSLESS, one_waveguide(LOSSLESS), user, num_pas=16)
            assert np.all(res.shifts >= 0.0)
            assert np.all(res.shifts < bound)

    def test_shift_range_unit_index(self):
        p = LOSSLESS.replace(n_eff=1.0)
        res = refine_waveguide(p, one_waveguide(p), UserPosition(0, 0), num_pas=8)
        assert np.all(res.shifts >= 0.0)
        assert np.all(res.shifts < 2 * p.wavelength_m)
        assert res.alignment_residual_m < 1e-6 * p.wavelength_m

    @pytest.mark.parametrize("n", [2, 4, 8, 32])
    def test_gain_sandwich(self, n):
        p = LOSSLESS.replace(num_waveguides=1, num_pas=n)
        wg = one_waveguide(p)
        layout = WaveguideLayout((wg,))
        user = UserPosition(0.0, 0.0)
        pin, results = refine_all(p, layout, user)
        eff = effective_channel(p, layout, pin, user)
        gain = abs(eff.inner[0])
        upper = gain_upper(p, results[0].h_eff_m, n)
        lower = gain_lower(p, results[0].h_eff_m, n, results[0].max_spacing_m)
        assert gain <= upper * (1 + 1e-12)
        # The uniform-max-spacing surrogate places the innermost antennas at
        # half the largest gap; the realized innermost offsets differ between
        # the two sides, which can push the surrogate above the true gain by
        # O((max_spacing / h_eff)^2).  Allow that much slack.
        assert lower <= gain * (1 + 1e-6)

    def test_off_center_overflow_redistributes(self):
        p = LOSSLESS.replace(num_pas=16)
        wg = one_waveguide(p)
        user = UserPosition(24.99, 0.0)  # almost no room on the right
        res = refine_waveguide(p, wg, user)
        assert len(res.positions) == 16
        assert res.n_right < 8
        assert res.n_left == 16 - res.n_right
        assert res.positions.max() <= p.max_x_m
        assert res.positions.min() >= p.feed_x_m
        assert np.diff(res.positions).min() >= p.min_spacing_m - 1e-12
        assert res.alignment_residual_m < 1e-6 * LAM

    def test_left_edge_pushes_right(self):
        p = LOSSLESS.replace(num_pas=8)
        wg = one_waveguide(p)
        res = refine_waveguide(p, wg, UserPosition(-24.99, 0.0))
        assert res.n_left < 4
        assert res.n_left + res.n_right == 8
        assert res.alignment_residual_m < 1e-6 * LAM

    def test_infeasible_geometry(self):
        p = LOSSLESS.replace(dx_m=0.05, num_pas=16)
        wg = one_waveguide(p)
        with pytest.raises(FeasibilityError, match="y="):
            refine_waveguide(p, wg, UserPosition(0.0, 0.0))

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            refine_waveguide(LOSSLESS, one_waveguide(LOSSLESS), UserPosition(0, 0), num_pas=3)


class TestRefineAll:
    def test_default_layout(self):
        layout = WaveguideLayout.from_params(LOSSLESS)
        pin, results = refine_all(LOSSLESS, layout, UserPosition(0, 0))
        assert pin.positions.shape == (4, 4)
        assert len(results) == 4
        for res in results:
            assert res.alignment_residual_m < 1e-6 * LAM

    def test_permutation_equivariance(self):
        layout = WaveguideLayout.from_params(LOSSLESS)
        flipped = WaveguideLayout(tuple(reversed(layout.waveguides)))
        user = UserPosition(3.0, 2.5)  # asymmetric so every waveguide differs
        _, results = refine_all(LOSSLESS, layout, user)
        _, results_flipped = refine_all(LOSSLESS, flipped, user)
        for a, b in zip(results, reversed(results_flipped)):
            assert_allclose(a.positions, b.positions, rtol=0, atol=0)

    def test_closest_waveguide_wins(self):
        layout = WaveguideLayout.from_params(LOSSLESS)
        user = UserPosition(0.0, layout[1].y)  # sit under waveguide index 1
        pin, results = refine_all(LOSSLESS, layout, user)
        eff = effective_channel(LOSSLESS, layout, pin, user)
        elevations = [r.h_eff_m for r in results]
        assert np.argmin(elevations) == 1
        assert np.argmax(eff.gains) == 1

    def test_ragged_layout_enforces_each_waveguide_range(self):
        # waveguide 1 spans [-5, 5] m; a user at x = 20 m is beyond its reach
        layout = WaveguideLayout(
            (one_waveguide(LOSSLESS), Waveguide(-5.0, 5.0, LOSSLESS.height_m, 5.0))
        )
        with pytest.raises(FeasibilityError, match="only 0 of 4"):
            refine_all(LOSSLESS, layout, UserPosition(20.0, 0.0))
        pin, results = refine_all(LOSSLESS, layout, UserPosition(4.999, 0.0))
        assert pin.positions[1].max() <= 5.0
        assert results[1].n_left > results[1].n_right

    def test_user_outside_region(self):
        layout = WaveguideLayout.from_params(LOSSLESS)
        with pytest.raises(ValueError):
            refine_all(LOSSLESS, layout, UserPosition(26.0, 0.0))
