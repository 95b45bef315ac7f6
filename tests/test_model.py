"""Channel and geometry layer: coefficients, in-waveguide vectors, stacking."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pass_trihybrid import (
    ExperimentConfig,
    FeasibilityError,
    PinchingConfig,
    SystemParams,
    UserPosition,
    Waveguide,
    WaveguideLayout,
    effective_channel,
    los_coefficient,
    run_sweep,
    waveguide_vector,
)
from pass_trihybrid.model import MAX_PATH_M, elevation

C = 2.99792458e8


def default_params(**kw):
    return SystemParams(**kw)


class TestSystemParams:
    def test_derived_constants(self):
        p = default_params()
        # independent evaluation of the gain constant and wavelengths
        assert_allclose(p.eta_m2, C**2 / (16 * math.pi**2 * (28e9) ** 2), rtol=1e-15)
        assert_allclose(p.eta_m2, 7.259481705540116e-07, rtol=1e-12)
        assert_allclose(p.wavelength_m, C / 28e9, rtol=1e-15)
        assert_allclose(p.guided_wavelength_m, p.wavelength_m / 1.4, rtol=1e-15)
        assert_allclose(p.min_spacing_m, p.wavelength_m / 2, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_params(num_pas=3)
        with pytest.raises(ValueError):
            default_params(num_pas=0)
        with pytest.raises(ValueError):
            default_params(n_eff=0.9)
        with pytest.raises(ValueError):
            default_params(kappa_db_per_m=-0.1)
        with pytest.raises(ValueError):
            default_params(noise_w=0.0)
        # wavelength must stay below the deployment height
        with pytest.raises(ValueError):
            default_params(fc_hz=50e6)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"fc_hz": 0.0}, "carrier frequency must be positive"),
            ({"fc_hz": -28e9}, "carrier frequency must be positive"),
            ({"dx_m": 0.0}, "region dimensions and height must be positive"),
            ({"dy_m": -1.0}, "region dimensions and height must be positive"),
            ({"height_m": 0.0}, "region dimensions and height must be positive"),
            ({"num_waveguides": 0}, "at least one waveguide"),
            ({"num_rf_chains": 0}, "at least one RF chain"),
            ({"min_spacing_m": 0.0}, "minimum PA spacing must be positive"),
            ({"min_spacing_m": -1e-3}, "minimum PA spacing must be positive"),
        ],
    )
    def test_out_of_domain_rejected(self, changes, message):
        with pytest.raises(ValueError, match=message):
            default_params(**changes)

    @pytest.mark.parametrize(
        "field", ["fc_hz", "n_eff", "kappa_db_per_m", "power_w", "noise_w", "min_spacing_m",
                  "dx_m", "dy_m", "height_m"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            default_params(**{field: value})

    def test_region_edges(self):
        p = default_params()
        assert p.feed_x_m == -25.0
        assert p.max_x_m == 25.0

    @pytest.mark.parametrize("field", ["height_m", "dy_m", "dx_m", "n_eff"])
    def test_longest_path_bound(self, field):
        """Just above the bound is rejected; just below, both user models run warning-free."""
        p = default_params()
        lengths = p.dx_m + p.dy_m + p.height_m + p.num_pas * (p.min_spacing_m + p.wavelength_m)
        if field == "n_eff":
            at_bound = MAX_PATH_M / lengths
        else:
            at_bound = MAX_PATH_M / p.n_eff - lengths + getattr(p, field)
        with pytest.raises(ValueError, match="longest path"):
            default_params(**{field: at_bound * (1 + 1e-9)})
        below = {field: at_bound * (1 - 1e-9)}
        default_params(**below)
        for user in ("fixed", "uniform"):  # the suite turns RuntimeWarnings into errors
            config = ExperimentConfig(sweep_values=(p.num_pas,), user=user, draws=1, **below)
            reports = run_sweep(config)
            assert reports and all(r.draws == 1 for r in reports)


class TestLayout:
    def test_uniform_span(self):
        p = default_params(num_waveguides=4)
        layout = WaveguideLayout.from_params(p)
        assert_allclose([w.y for w in layout.waveguides], [-10, -10 / 3, 10 / 3, 10])
        assert all(w.feed_x == -25.0 and w.max_x == 25.0 for w in layout.waveguides)

    def test_single_waveguide_on_axis(self):
        p = default_params(num_waveguides=1)
        layout = WaveguideLayout.from_params(p)
        assert layout[0].y == 0.0

    def test_waveguide_checks(self):
        with pytest.raises(ValueError, match="deployment range must extend beyond the feed"):
            Waveguide(1.0, 0.0, 3.0, 1.0)
        with pytest.raises(ValueError, match="deployment range must extend beyond the feed"):
            Waveguide(1.0, 0.0, 3.0, -1.0)
        with pytest.raises(ValueError, match="waveguide height must be positive"):
            Waveguide(-1.0, 0.0, 0.0, 1.0)

    def test_effective_elevation(self):
        wg = Waveguide(-25.0, 5.0, 3.0, 25.0)
        assert_allclose(wg.effective_elevation(UserPosition(0.0, 1.0)), 5.0, rtol=1e-15)
        assert wg.effective_elevation(UserPosition(7.0, 5.0)) == 3.0

    @pytest.mark.parametrize("ragged", [False, True])
    def test_field_arrays_are_the_waveguides_and_read_only(self, ragged):
        layout = WaveguideLayout.from_params(default_params())
        if ragged:
            layout = WaveguideLayout(
                (Waveguide(-25.0, -10.0, 3.0, 25.0), Waveguide(-5.0, 5.0, 2.5, 5.0))
            )
        for name in ("feed_x", "y", "height", "max_x"):
            array = layout.field(name)
            fresh = np.array([getattr(w, name) for w in layout.waveguides], dtype=float)
            assert array.dtype == fresh.dtype and np.array_equal(array, fresh)
            assert layout.field(name) is array  # built once, at construction
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        user = UserPosition(1.0, -2.5)
        fresh_y, fresh_h = ([getattr(w, k) for w in layout.waveguides] for k in ("y", "height"))
        assert np.array_equal(layout.elevations(user), elevation(np.array(fresh_y), user.y, np.array(fresh_h)))

    def test_field_arrays_are_not_dataclass_fields(self):
        layout = WaveguideLayout.from_params(default_params())
        same = WaveguideLayout(layout.waveguides)
        assert [f.name for f in dataclasses.fields(WaveguideLayout)] == ["waveguides"]
        assert layout == same and hash(layout) == hash(same)
        assert repr(layout) == f"WaveguideLayout(waveguides={layout.waveguides!r})"
        assert layout != WaveguideLayout(layout.waveguides[:-1])


class TestLosCoefficient:
    def test_magnitude_above_user(self):
        p = default_params()
        h = los_coefficient(p, np.array([0.0, 0.0, 3.0]), UserPosition(0.0, 0.0))
        assert_allclose(abs(h), math.sqrt(p.eta_m2) / 3.0, rtol=1e-12)

    def test_unit_distance(self):
        p = default_params()
        h = los_coefficient(p, np.array([0.0, 0.0, 1.0]), UserPosition(0.0, 0.0))
        assert_allclose(abs(h), math.sqrt(p.eta_m2), rtol=1e-12)
        expected_phase = np.exp(-2j * np.pi / p.wavelength_m)
        assert_allclose(h / abs(h), expected_phase, rtol=1e-9)

    def test_inverse_distance_law(self):
        p = default_params()
        user = UserPosition(0.0, 0.0)
        h1 = los_coefficient(p, np.array([0.0, 0.0, 2.0]), user)
        h2 = los_coefficient(p, np.array([0.0, 0.0, 4.0]), user)
        assert_allclose(abs(h1) / abs(h2), 2.0, rtol=1e-12)

    def test_magnitude_law_random(self):
        p = default_params()
        rng = np.random.default_rng(7)
        for _ in range(200):
            pa = rng.uniform([-25, -10, 1], [25, 10, 6])
            user = UserPosition(*rng.uniform([-25, -10], [25, 10]))
            r = np.linalg.norm(pa - np.array([user.x, user.y, 0.0]))
            h = los_coefficient(p, pa, user)
            assert abs(abs(h) * r - math.sqrt(p.eta_m2)) <= 1e-12 * math.sqrt(p.eta_m2)

    def test_zero_distance_guarded(self):
        p = default_params()
        with pytest.raises(ValueError):
            los_coefficient(p, np.array([1.0, 2.0, 0.0]), UserPosition(1.0, 2.0))


class TestWaveguideVector:
    def test_lossless_magnitudes(self):
        p = default_params(kappa_db_per_m=0.0, num_pas=8)
        wg = Waveguide(-25.0, 0.0, 3.0, 25.0)
        g = waveguide_vector(p, wg, np.linspace(-20, 20, 8))
        assert_allclose(np.abs(g), 1 / math.sqrt(8), rtol=1e-12)
        assert_allclose(np.sum(np.abs(g) ** 2), 1.0, rtol=1e-12)

    def test_feed_point_entry_is_real(self):
        p = default_params(kappa_db_per_m=0.0, num_pas=4)
        wg = Waveguide(-25.0, 0.0, 3.0, 25.0)
        g = waveguide_vector(p, wg, np.array([-25.0, -20.0, 0.0, 20.0]))
        assert g[0] == pytest.approx(0.5)
        assert g[0].imag == 0.0

    def test_lossy_attenuation_value(self):
        # 25 m run at 0.08 dB/m with a 4-way split: |g|^2 = 10^(-0.2)/4
        p = default_params(kappa_db_per_m=0.08, num_pas=4)
        wg = Waveguide(0.0, 0.0, 3.0, 100.0)
        g = waveguide_vector(p, wg, np.array([25.0, 0.0, 1.0, 2.0]))
        assert_allclose(abs(g[0]) ** 2, 0.25 * 10 ** (-0.2), rtol=1e-12)
        assert_allclose(abs(g[0]) ** 2, 0.15773933612004818, rtol=1e-12)

    def test_lossy_power_decreases_with_shift(self):
        p = default_params(kappa_db_per_m=0.08, num_pas=4)
        wg = Waveguide(-25.0, 0.0, 3.0, 25.0)
        xs = np.array([-20.0, -10.0, 0.0, 10.0])
        totals = [
            np.sum(np.abs(waveguide_vector(p, wg, xs + shift)) ** 2) for shift in (0.0, 5.0, 10.0)
        ]
        assert totals[0] <= 1.0
        assert totals[0] > totals[1] > totals[2]

    def test_position_before_feed_rejected(self):
        p = default_params()
        wg = Waveguide(-25.0, 0.0, 3.0, 25.0)
        with pytest.raises(FeasibilityError):
            waveguide_vector(p, wg, np.array([-26.0, 0.0, 1.0, 2.0]))


def _metric(x, h_eff, n_eff, feed_x):
    """Total path used for in-test alignment construction."""
    return math.hypot(h_eff, x) + n_eff * (x - feed_x)


def _solve_metric(target, lo, hi, h_eff, n_eff, feed_x):
    """Bisection on the (monotone) total path; independent of package code."""
    for _ in range(200):
        mid = (lo + hi) / 2
        if _metric(mid, h_eff, n_eff, feed_x) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestEffectiveChannel:
    def _one_wg(self, p):
        return WaveguideLayout((Waveguide(p.feed_x_m, 0.0, p.height_m, p.max_x_m),))

    def test_coherent_and_destructive_pairs(self):
        p = default_params(kappa_db_per_m=0.0, num_pas=2, num_waveguides=1)
        layout = self._one_wg(p)
        user = UserPosition(0.0, 0.0)
        lam = p.wavelength_m
        x1 = 0.01
        base = _metric(x1, p.height_m, p.n_eff, p.feed_x_m)
        for extra, combine in ((5 * lam, np.add), (5.5 * lam, np.subtract)):
            x2 = _solve_metric(base + extra, x1 + p.min_spacing_m, x1 + 0.1, p.height_m, p.n_eff, p.feed_x_m)
            pin = PinchingConfig(np.array([[x1, x2]]), p.min_spacing_m, p.feed_x_m, p.max_x_m)
            eff = effective_channel(p, layout, pin, user)
            mags = np.abs(eff.channel[0] * eff.guide[0])
            expected = abs(combine(mags[0], mags[1]))
            assert_allclose(abs(eff.inner[0]), expected, rtol=1e-6)

    def test_block_diagonal_identity(self):
        p = default_params(kappa_db_per_m=0.08, num_pas=4, num_waveguides=2, dy_m=10.0)
        layout = WaveguideLayout.from_params(p)
        rng = np.random.default_rng(11)
        positions = np.sort(rng.uniform(-20, 20, (2, 4)), axis=1)
        positions += np.arange(4) * p.min_spacing_m * 2  # enforce spacing
        pin = PinchingConfig(positions, p.min_spacing_m, p.feed_x_m, p.max_x_m)
        user = UserPosition(1.0, -2.0)
        eff = effective_channel(p, layout, pin, user)

        # dense block-diagonal assembly, computed from scratch
        m, n = positions.shape
        dense = np.zeros((m * n, m), dtype=complex)
        h_flat = np.empty(m * n, dtype=complex)
        for i, wg in enumerate(layout.waveguides):
            dense[i * n : (i + 1) * n, i] = waveguide_vector(p, wg, positions[i])
            pa = np.stack(
                [positions[i], np.full(n, wg.y), np.full(n, wg.height)], axis=-1
            )
            h_flat[i * n : (i + 1) * n] = los_coefficient(p, pa, user)
        stacked = h_flat @ dense
        assert_allclose(stacked, eff.inner, rtol=1e-13)
        for w in (np.ones(m), rng.standard_normal(m) + 1j * rng.standard_normal(m)):
            assert_allclose(stacked @ w, eff.inner @ w, rtol=1e-13)

    def test_matches_per_row_norm_assembly(self):
        # the per-row np.linalg.norm / waveguide_vector assembly, bit for bit
        rng = np.random.default_rng(5)
        for m, n, kappa in ((1, 2, 0.0), (4, 4, 0.08), (3, 64, 0.08), (8, 10, 0.0)):
            p = default_params(num_waveguides=m, num_pas=n, kappa_db_per_m=kappa)
            layout = WaveguideLayout.from_params(p)
            positions = np.sort(rng.uniform(-25, 25, (m, n)), axis=1)
            pin = PinchingConfig(positions, 1e-12, p.feed_x_m, p.max_x_m)
            user = UserPosition(rng.uniform(-25, 25), rng.uniform(-10, 10))
            eff = effective_channel(p, layout, pin, user)
            for i, wg in enumerate(layout.waveguides):
                xs = positions[i]
                pa = np.stack([xs, np.full_like(xs, wg.y), np.full_like(xs, wg.height)], axis=-1)
                assert np.array_equal(eff.channel[i], los_coefficient(p, pa, user))
                assert np.array_equal(eff.guide[i], waveguide_vector(p, wg, xs))
            assert np.array_equal(eff.inner, np.sum(eff.channel * eff.guide, axis=1))

    def test_position_before_feed_rejected(self):
        # the placement's own range is wider than the layout's waveguide
        p = default_params(num_waveguides=1)
        layout = WaveguideLayout((Waveguide(-1.0, 0.0, 3.0, 1.0),))
        pin = PinchingConfig(np.array([[-2.0, 0.0]]), p.min_spacing_m, -5.0, 5.0)
        with pytest.raises(FeasibilityError, match="must not precede the waveguide feed"):
            effective_channel(p, layout, pin, UserPosition(0, 0))

    def test_row_count_mismatch(self):
        p = default_params(num_waveguides=2)
        layout = WaveguideLayout.from_params(p)
        pin = PinchingConfig(np.array([[0.0, 1.0]]), p.min_spacing_m, p.feed_x_m, p.max_x_m)
        with pytest.raises(ValueError):
            effective_channel(p, layout, pin, UserPosition(0, 0))


class TestPinchingConfig:
    def test_spacing_violation(self):
        with pytest.raises(FeasibilityError):
            PinchingConfig(np.array([[0.0, 1e-4]]), 5e-3, -25.0, 25.0)

    def test_range_violation(self):
        with pytest.raises(FeasibilityError):
            PinchingConfig(np.array([[0.0, 26.0]]), 5e-3, -25.0, 25.0)

    def test_range_checked_per_row(self):
        feed, top = np.array([-25.0, -5.0]), np.array([25.0, 5.0])
        PinchingConfig(np.array([[10.0, 20.0], [-4.0, 4.0]]), 0.5, feed, top)
        with pytest.raises(FeasibilityError, match="waveguide 1"):
            PinchingConfig(np.array([[-4.0, 4.0], [10.0, 20.0]]), 0.5, feed, top)

    def test_one_dimensional_positions_rejected(self):
        with pytest.raises(ValueError, match="M x N matrix"):
            PinchingConfig(np.array([0.0, 1.0]), 0.5, -25.0, 25.0)

    def test_valid_config(self):
        pin = PinchingConfig(np.array([[0.0, 1.0], [-1.0, 2.0]]), 0.5, -25.0, 25.0)
        assert pin.num_waveguides == 2
        assert pin.num_pas == 2
