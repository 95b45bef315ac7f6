"""Closed-form bounds, approximations, scaling laws, and their quality."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pass_trihybrid import (
    ApproximationWarning,
    BoundsReport,
    SystemParams,
    UserPosition,
    WaveguideLayout,
    analysis,
    asymptotic_envelope,
    effective_channel,
    gain_approx,
    gain_kernel,
    gain_lower,
    gain_upper,
    invariants,
    refine_all,
    single_rf_solution,
    snr_bounds,
    snr_linear,
    surrogate_max_spacing,
)

LOSSLESS = SystemParams(kappa_db_per_m=0.0)
LAM = LOSSLESS.wavelength_m
USER = UserPosition(0.0, 0.0)


class TestGainKernel:
    def test_anchor_values(self):
        assert gain_kernel(0.0) == 0.0
        assert gain_kernel(1.0) == pytest.approx(math.log(1 + math.sqrt(2)), rel=1e-15)
        assert gain_kernel(1.0) == pytest.approx(0.881373587019543, rel=1e-12)

    def test_small_argument_ratio(self):
        for x in np.linspace(1e-6, 0.05, 50):
            ratio = gain_kernel(x) / x
            assert 0.999 < ratio <= 1.0
            # cubic-term agreement
            assert gain_kernel(x) == pytest.approx(x - x**3 / 6, abs=x**5)

    def test_concave_increasing_below_identity(self):
        xs = np.linspace(0.0, 20.0, 400)
        ys = gain_kernel(xs)
        assert np.all(np.diff(ys) > 0)
        assert np.all(np.diff(np.diff(ys)) < 1e-12)
        assert np.all(ys <= xs + 1e-15)


class TestGainBounds:
    def test_two_antenna_closed_form(self):
        p = LOSSLESS
        h = 3.0
        expected = 2 * math.sqrt(p.eta_m2) / (
            math.sqrt(2) * math.sqrt(p.min_spacing_m**2 / 4 + h * h)
        )
        assert gain_upper(p, h, 2) == pytest.approx(expected, rel=1e-15)

    def test_monotone_in_height_and_spacing(self):
        p = LOSSLESS
        assert gain_upper(p, 3.0, 8) > gain_upper(p, 4.0, 8)
        assert gain_upper(p, 3.0, 8, spacing=LAM / 2) > gain_upper(p, 3.0, 8, spacing=LAM)

    def test_against_term_by_term_sum(self):
        p = LOSSLESS
        h, n, s = 3.0, 8, LAM / 2
        total = 0.0
        for k in range(1, n // 2 + 1):
            total += 2 * math.sqrt(p.eta_m2) / (
                math.sqrt(n) * math.sqrt((k - 0.5) ** 2 * s * s + h * h)
            )
        assert gain_upper(p, h, n, s) == pytest.approx(total, rel=1e-15)

    def test_lower_equals_upper_at_min_spacing(self):
        p = LOSSLESS
        assert gain_lower(p, 3.0, 8, p.min_spacing_m) == gain_upper(p, 3.0, 8)

    def test_lower_strictly_below_for_wider_spacing(self):
        p = LOSSLESS
        assert gain_lower(p, 3.0, 2, 2 * p.min_spacing_m) < gain_upper(p, 3.0, 2)

    def test_lower_rejects_sub_minimum_spacing(self):
        with pytest.raises(ValueError):
            gain_lower(LOSSLESS, 3.0, 8, LOSSLESS.min_spacing_m / 2)

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            gain_upper(LOSSLESS, 3.0, 7)

    @pytest.mark.parametrize("h_eff, spacing", [(3.0, 0.0), (3.0, -0.01), (0.0, None), (-3.0, 0.01)])
    def test_non_positive_geometry_rejected(self, h_eff, spacing):
        for gain in (gain_upper, gain_approx):
            with pytest.raises(ValueError, match="spacing and effective elevation must be positive"):
                gain(LOSSLESS, h_eff, 4, spacing)


class TestGainApprox:
    def test_close_to_sum_form(self):
        p = LOSSLESS
        approx = gain_approx(p, 3.0, 16)
        exact = gain_upper(p, 3.0, 16)
        assert abs(approx - exact) / exact < 0.01

    def test_small_argument_limit(self):
        p = LOSSLESS
        h, n = 3.0, 4
        s = 1e-4  # n*s/(2h) ~ 7e-5
        limit = math.sqrt(n) * math.sqrt(p.eta_m2) / h
        assert gain_approx(p, h, n, s) == pytest.approx(limit, rel=1e-6)

    def test_increasing_in_antenna_count(self):
        p = LOSSLESS
        values = [gain_approx(p, 3.0, n) for n in range(2, 34, 2)]
        assert np.all(np.diff(values) > 0)

    def test_quality_warning(self):
        with pytest.warns(ApproximationWarning):
            gain_approx(LOSSLESS, 3.0, 4, spacing=0.5)


class TestSnrBounds:
    def test_equal_spacings_collapse(self):
        layout = WaveguideLayout.from_params(LOSSLESS)
        rep = snr_bounds(LOSSLESS, layout, USER, 8, LOSSLESS.min_spacing_m)
        assert rep.snr1_lower == pytest.approx(rep.snr1_upper, rel=1e-14)
        assert rep.snr2_lower == pytest.approx(rep.snr2_upper, rel=1e-14)
        assert not rep.max_spacing_is_surrogate

    def test_single_waveguide_modes_coincide(self):
        p = LOSSLESS.replace(num_waveguides=1)
        layout = WaveguideLayout.from_params(p)
        rep = snr_bounds(p, layout, USER, 8, p.min_spacing_m * 1.5)
        assert rep.snr1_upper == pytest.approx(rep.snr2_upper, rel=1e-14)
        assert rep.snr1_lower == pytest.approx(rep.snr2_lower, rel=1e-14)

    def test_surrogate_spacing_flagged(self):
        layout = WaveguideLayout.from_params(LOSSLESS)
        rep = snr_bounds(LOSSLESS, layout, USER, 8)
        assert rep.max_spacing_is_surrogate
        assert_allclose(rep.max_spacing_m, surrogate_max_spacing(LOSSLESS))
        assert surrogate_max_spacing(LOSSLESS) == pytest.approx(
            LOSSLESS.min_spacing_m + LAM / 0.4, rel=1e-12
        )

    def test_per_waveguide_spacing_vector(self):
        layout = WaveguideLayout.from_params(LOSSLESS)
        dmax = LOSSLESS.min_spacing_m * np.array([1.0, 1.5, 1.5, 1.0])
        rep = snr_bounds(LOSSLESS, layout, USER, 8, dmax)
        assert np.array_equal(rep.max_spacing_m, dmax)
        assert rep.snr1_lower < rep.snr1_upper

    def test_sub_minimum_spacing_rejected(self):
        layout = WaveguideLayout.from_params(LOSSLESS)
        with pytest.raises(ValueError):
            snr_bounds(LOSSLESS, layout, USER, 8, LOSSLESS.min_spacing_m / 2)

    def test_mode_fields_name_every_certificate_once(self):
        certificates = [
            f.name for f in dataclasses.fields(BoundsReport) if f.name.startswith(("snr", "cap"))
        ]
        table = analysis.MODE_FIELDS["single"] + analysis.MODE_FIELDS["multi"]
        assert sorted(table) == sorted(certificates)
        rep = snr_bounds(LOSSLESS, WaveguideLayout.from_params(LOSSLESS), USER, 8)
        assert rep.of_mode("single") == (
            rep.snr1_lower, rep.snr1_upper, rep.snr1_linear, rep.capacity1_lower,
            rep.capacity1_upper,
        )
        assert rep.of_mode("multi") == (
            rep.snr2_lower, rep.snr2_upper, rep.snr2_linear, rep.capacity2_lower,
            rep.capacity2_upper,
        )

    def test_one_gain_evaluation_per_call(self, monkeypatch):
        """Both gain bounds of every waveguide come from one ``_approx`` call."""
        approx, calls = analysis._approx, []

        def counted(*args):
            calls.append(args)
            return approx(*args)

        monkeypatch.setattr(analysis, "_approx", counted)
        layout = WaveguideLayout.from_params(LOSSLESS)
        for dmax in (None, 0.02, np.full(len(layout), 0.02)):
            calls.clear()
            snr_bounds(LOSSLESS, layout, USER, 64, dmax)
            assert len(calls) == 1
            assert np.shape(calls[0][-1]) == (2, len(layout))

    def test_sandwich_against_simulation(self):
        layout = WaveguideLayout.from_params(LOSSLESS)
        assert invariants.sandwich_violations(LOSSLESS, layout, USER, (16,)) == []

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known defect: the bounds assume N/2 PAs a side (ROADMAP 'Bounds that bound', a)",
    )
    def test_sandwich_at_an_uneven_split(self):
        # Near the x edge 483 PAs go left and 29 right; snr_lower exceeds the SNR.
        layout = WaveguideLayout.from_params(LOSSLESS)
        user = UserPosition(24.775, 5.853)
        assert invariants.sandwich_violations(LOSSLESS, layout, user, (512,)) == []

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known defect: the bounds ignore waveguide loss (ROADMAP 'Bounds that bound', b)",
    )
    def test_sandwich_under_waveguide_loss(self):
        params = SystemParams()
        assert params.kappa_db_per_m > 0.0
        layout = WaveguideLayout.from_params(params)
        assert invariants.sandwich_violations(params, layout, USER, (2, 1024)) == []


class TestSnrLinear:
    def test_linear_in_antenna_count(self):
        layout = WaveguideLayout.from_params(LOSSLESS)
        v4 = snr_linear(LOSSLESS, layout, USER, 4)
        v8 = snr_linear(LOSSLESS, layout, USER, 8)
        assert v8 == pytest.approx(2 * v4, rel=1e-14)

    def test_independent_of_spacing(self):
        narrow = LOSSLESS.replace(min_spacing_m=LAM / 2)
        wide = LOSSLESS.replace(min_spacing_m=LAM)
        layout = WaveguideLayout.from_params(LOSSLESS)
        assert snr_linear(narrow, layout, USER, 4) == snr_linear(wide, layout, USER, 4)

    def test_unknown_mode_rejected(self):
        layout = WaveguideLayout.from_params(LOSSLESS)
        with pytest.raises(ValueError, match="mode must be 'single' or 'multi'"):
            snr_linear(LOSSLESS, layout, USER, 4, "baseline")

    def test_hand_computed_forms(self):
        p = LOSSLESS.replace(num_waveguides=2, dy_m=8.0)
        layout = WaveguideLayout.from_params(p)
        h = [math.hypot(-4.0, 3.0), math.hypot(4.0, 3.0)]  # both 5 m
        scale = p.power_w * 4 * p.eta_m2 / p.noise_w
        assert snr_linear(p, layout, USER, 4, "single") == pytest.approx(
            scale / 2 * (1 / 5 + 1 / 5) ** 2, rel=1e-12
        )
        assert snr_linear(p, layout, USER, 4, "multi") == pytest.approx(
            scale * (1 / 25 + 1 / 25), rel=1e-12
        )

    def test_agrees_with_simulation_in_linear_regime(self):
        layout = WaveguideLayout.from_params(LOSSLESS)
        pin, _ = refine_all(LOSSLESS.replace(num_pas=4), layout, USER)
        eff = effective_channel(LOSSLESS, layout, pin, USER)
        snr = single_rf_solution(eff, LOSSLESS).snr
        law = snr_linear(LOSSLESS, layout, USER, 4)
        assert abs(snr - law) / law < 0.10

    def test_validity_warning(self):
        layout = WaveguideLayout.from_params(LOSSLESS)
        with pytest.warns(ApproximationWarning):
            snr_linear(LOSSLESS, layout, USER, 512)


class TestEnvelope:
    def test_peak_and_decay(self):
        layout = WaveguideLayout.from_params(LOSSLESS)
        ns = [2**k for k in range(1, 15)]
        for mode in ("single", "multi"):
            env = asymptotic_envelope(LOSSLESS, layout, USER, ns, mode=mode)
            assert env.decays
            assert env.argmax_n_upper not in (ns[0], ns[-1])
            # strictly shrinking past the peak
            past = env.upper[list(ns).index(env.argmax_n_upper) :]
            assert np.all(np.diff(past) < 0)

    def test_vanishing_limit(self):
        layout = WaveguideLayout.from_params(LOSSLESS)
        env = asymptotic_envelope(LOSSLESS, layout, USER, [2**k for k in range(1, 22, 4)])
        assert env.upper[-1] < 1e-1 * env.upper.max()

    @pytest.mark.parametrize("mode", ["both", "bogus"])
    def test_rejects_modes_other_than_single_and_multi(self, mode):
        layout = WaveguideLayout.from_params(LOSSLESS)
        with pytest.raises(ValueError, match="mode"):
            asymptotic_envelope(LOSSLESS, layout, USER, [2, 8, 32], mode=mode)


class TestMidpointIntegralQuality:
    @pytest.mark.parametrize("ratio", [0.001, 0.005, 0.01])
    @pytest.mark.parametrize("n", [2, 8, 64, 512, 2048])
    def test_quadratic_error_bound(self, ratio, n):
        # midpoint Riemann sum of 1/sqrt(1+x^2), computed from scratch
        k = np.arange(1, n // 2 + 1)
        sample = (k - 0.5) * ratio
        riemann = float(np.sum(ratio / np.sqrt(sample**2 + 1.0)))
        gap = abs(riemann - float(gain_kernel(n * ratio / 2.0)))
        assert gap <= ratio**2 * n / 8.0
