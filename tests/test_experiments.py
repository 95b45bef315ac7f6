"""Config parsing, sweep runner, CSV contracts, Monte Carlo accounting."""

import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from pass_trihybrid import (
    ConfigError,
    ExperimentConfig,
    UserPosition,
    WaveguideLayout,
    analysis,
    bounds_table,
    dump_placement,
    parse_config_text,
    render_sweep_csv,
    run_sweep,
    sampler,
    selftest,
)
from pass_trihybrid.config import dbm_to_watts, load_config
from pass_trihybrid.experiments import _csv_table, _fixed_user
from pass_trihybrid.sampler import uniform_pairs


# every ExperimentConfig field at a valid value other than its default
NON_DEFAULT = {
    "fc_ghz": 30.0,
    "n_eff": 1.5,
    "kappa_db_per_m": 0.1,
    "power_dbm": 13.0,
    "noise_dbm": -80.0,
    "min_spacing_m": 0.006,
    "dx_m": 40.0,
    "dy_m": 10.0,
    "height_m": 4.0,
    "num_waveguides": 3,
    "num_pas": 6,
    "num_rf_chains": 1,
    "baseline_elements": 5,
    "sweep": "Dx",
    "sweep_values": (10.0, 20.0),
    "user": "uniform",
    "user_x": 1.5,
    "user_y": -2.5,
    "draws": 50,
    "seed": 7,
    "case": 2,
    "modes": ("single", "baseline"),
}
INT_KEYS = ("num_waveguides", "num_pas", "num_rf_chains", "baseline_elements", "draws", "seed", "case")
# the SystemParams fields that a config sets unchanged
PASS_THROUGH = (
    "n_eff", "kappa_db_per_m", "min_spacing_m", "dx_m", "dy_m", "height_m",
    "num_waveguides", "num_pas", "num_rf_chains",
)


def config_line(key: str, value) -> str:
    if isinstance(value, tuple):
        value = ",".join(str(v) for v in value)
    return f"{key} = {value}\n"


def ref_bounds_table(config: ExperimentConfig) -> str:
    """``bounds_table`` with its hand-written header and row, copied verbatim."""
    rows = []
    for value in config.sweep_values:
        params = config.system_params(value)
        layout = WaveguideLayout.from_params(params)
        user = _fixed_user(config, params)
        rep = analysis.snr_bounds(params, layout, user, params.num_pas)
        rows.append(
            (
                config.sweep, f"{value:g}", params.num_pas, float(rep.max_spacing_m[0]),
                rep.snr1_lower, rep.snr1_upper, rep.snr1_linear,
                rep.capacity1_lower, rep.capacity1_upper,
                rep.snr2_lower, rep.snr2_upper, rep.snr2_linear,
                rep.capacity2_lower, rep.capacity2_upper,
            )
        )
    return _csv_table(
        config,
        "sweep,value,n,max_spacing_surrogate_m,snr1_lower,snr1_upper,snr1_linear,"
        "capacity1_lower,capacity1_upper,snr2_lower,snr2_upper,snr2_linear,"
        "capacity2_lower,capacity2_upper",
        rows,
    )


class TestConfig:
    def test_defaults_match_reference_setup(self):
        cfg = ExperimentConfig()
        p = cfg.system_params()
        assert p.fc_hz == 28e9
        assert p.n_eff == 1.4
        assert p.kappa_db_per_m == 0.08
        assert p.power_w == pytest.approx(0.01, rel=1e-12)
        assert p.noise_w == pytest.approx(1e-12, rel=1e-12)
        assert p.dx_m == 50.0 and p.dy_m == 20.0 and p.height_m == 3.0
        assert cfg.seed == 424242 and cfg.draws == 10_000

    def test_unit_conversions(self):
        assert dbm_to_watts(10.0) == pytest.approx(0.01, rel=1e-12)
        assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-12)

    def test_parse_roundtrip(self):
        text = """
        # comment line
        fc_ghz = 28
        power_dbm = 13    # trailing comment
        min_spacing_wavelengths = 1.0
        sweep = N
        sweep_values = 2, 4, 8
        user = uniform
        draws = 100
        seed = 7
        case = 2
        modes = single, baseline
        """
        cfg = parse_config_text(text)
        assert cfg.power_dbm == 13
        assert cfg.sweep_values == (2.0, 4.0, 8.0)
        assert cfg.user == "uniform"
        assert cfg.case == 2
        assert cfg.modes == ("single", "baseline")
        p = cfg.system_params()
        assert p.min_spacing_m == pytest.approx(p.wavelength_m, rel=1e-12)

    @pytest.mark.parametrize("user", ["fixed", "uniform"])
    def test_draw_count_fits_the_sampler_index(self, user):
        # the sampler's draw index is 32-bit: 2**32 draws are the most it can number
        assert ExperimentConfig(user=user, draws=2**32).draws == 2**32
        for draws in (0, 2**32 + 1, 5_000_000_000):
            with pytest.raises(ConfigError, match="draws must be between 1 and 2"):
                ExperimentConfig(user=user, draws=draws)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"^unknown config keys: \['frequency'\]$"):
            parse_config_text("frequency = 28\n")

    def test_every_field_parses_to_its_type(self):
        assert set(NON_DEFAULT) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        default = ExperimentConfig()
        assert all(getattr(default, key) != value for key, value in NON_DEFAULT.items())
        cfg = parse_config_text("".join(config_line(k, v) for k, v in NON_DEFAULT.items()))
        assert cfg == ExperimentConfig(**NON_DEFAULT)
        for key, value in NON_DEFAULT.items():
            assert type(getattr(cfg, key)) is (int if key in INT_KEYS else type(value)), key
        p = cfg.system_params()
        for name in PASS_THROUGH:
            value = getattr(p, name)
            assert value == NON_DEFAULT[name] and type(value) is type(NON_DEFAULT[name]), name
        assert p.fc_hz == 30e9
        assert (p.power_w, p.noise_w) == (dbm_to_watts(13.0), dbm_to_watts(-80.0))

    def test_each_key_accepted_alone(self):
        for key, value in NON_DEFAULT.items():
            assert getattr(parse_config_text(config_line(key, value)), key) == value, key
        cfg = parse_config_text("min_spacing_wavelengths = 1\n")
        assert cfg.min_spacing_m == pytest.approx(cfg.system_params().wavelength_m, rel=1e-12)

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("draws = many\n")
        with pytest.raises(ConfigError):
            parse_config_text("sweep = Q\n")
        with pytest.raises(ConfigError):
            parse_config_text("sweep_values = 3,5\n")  # PA sweep must stay even
        with pytest.raises(ConfigError):
            parse_config_text("case = 3\n")
        with pytest.raises(ConfigError):
            parse_config_text("min_spacing_m = 0.005\nmin_spacing_wavelengths = 0.5\n")
        with pytest.raises(ConfigError):
            parse_config_text("power_dbm\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("sweep_values = 2,inf", "finite"),
            ("sweep = Dx; sweep_values = nan", "finite"),
            ("baseline_elements = 0", "baseline_elements"),
            ("baseline_elements = -2", "baseline_elements"),
            ("modes = ,", "not empty"),
            ("modes = single,baseline,single", "distinct"),
        ],
    )
    def test_invalid_values_rejected(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text.replace("; ", "\n") + "\n")

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"sweep": "K"}, "unknown sweep variable 'K'"),
            ({"sweep_values": ()}, "sweep_values must not be empty"),
            ({"sweep": "M", "sweep_values": (1, 2.5)}, "waveguide-count sweep values must be integers"),
            ({"user": "both"}, "user model must be 'fixed' or 'uniform'"),
            ({"seed": -1}, "seed must fit in 64 bits"),
            ({"seed": 2**64}, "seed must fit in 64 bits"),
            ({"modes": ("single", "foo")}, "unknown modes \\['foo'\\]"),
        ],
    )
    def test_config_checks(self, changes, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**changes)

    def test_unparsable_sweep_values_rejected(self):
        with pytest.raises(ConfigError, match="sweep_values: cannot parse 'a,b'"):
            parse_config_text("sweep_values = a,b\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_case_application(self):
        cfg = ExperimentConfig(case=1)
        assert cfg.params_for_case().kappa_db_per_m == 0.0
        assert cfg.replace(case=2).params_for_case().kappa_db_per_m == 0.08

    @pytest.mark.parametrize("case", [1, 2])
    @pytest.mark.parametrize("value", [None, 64])
    def test_case_params_equal_a_replace_of_the_system_params(self, case, value):
        cfg = ExperimentConfig(case=case, kappa_db_per_m=0.3)
        params = cfg.params_for_case(value)
        loss = {1: 0.0, 2: 0.3}[case]
        assert params == cfg.system_params(value).replace(kappa_db_per_m=loss)
        assert params is not cfg.params_for_case(value)  # a new object every call
        with pytest.raises(ConfigError, match=r"^waveguide loss must be >= 0 dB/m$"):
            cfg.replace(kappa_db_per_m=-1.0).params_for_case(value)

    def test_sweep_variable_application(self):
        cfg = ExperimentConfig(sweep="Dx", sweep_values=(10.0, 20.0))
        assert cfg.system_params(20.0).dx_m == 20.0
        cfg = ExperimentConfig(sweep="M", sweep_values=(2, 6))
        assert cfg.system_params(6).num_waveguides == 6
        applied = {
            "N": ("num_pas", 6, int),
            "Dx": ("dx_m", 20.0, float),
            "M": ("num_waveguides", 6, int),
            "min_spacing": ("min_spacing_m", 0.02, float),
        }
        names = {
            "N": "N", "n": "N", "Dx": "Dx", "dx": "Dx", "DX": "Dx", "d_x": "Dx", "M": "M", "m": "M",
            "min_spacing": "min_spacing", "MIN_SPACING": "min_spacing", "delta_min": "min_spacing",
            "dmin": "min_spacing",
        }
        for name, canonical in names.items():
            field, value, kind = applied[canonical]
            cfg = parse_config_text(f"sweep = {name}\nsweep_values = {value}\n")
            assert cfg.sweep == canonical, name
            p = cfg.system_params(float(value))
            assert getattr(p, field) == value and type(getattr(p, field)) is kind, name

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.txt")

    def test_hash_stability(self):
        a, b = ExperimentConfig(), ExperimentConfig()
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != a.replace(seed=1).config_hash()


class TestFixedSweep:
    def test_fig3_style_rows(self):
        cfg = ExperimentConfig(
            sweep="N", sweep_values=(2, 8), user="fixed", case=1, modes=("single", "multi")
        )
        reports = run_sweep(cfg)
        assert len(reports) == 4
        for rep in reports:
            assert rep.snr_lower <= rep.snr <= rep.snr_upper
            assert rep.capacity_lower <= rep.capacity_bits <= rep.capacity_upper
            assert rep.snr_db == pytest.approx(10 * math.log10(rep.snr), rel=1e-12)
            assert rep.alignment_residual_m < 1e-6 * cfg.system_params().wavelength_m

    def test_case2_reduces_snr(self):
        base = ExperimentConfig(sweep="N", sweep_values=(8,), modes=("single",))
        snr1 = run_sweep(base.replace(case=1))[0].snr
        snr2 = run_sweep(base.replace(case=2))[0].snr
        assert snr2 < snr1

    def test_baseline_mode_row(self):
        cfg = ExperimentConfig(sweep="N", sweep_values=(4,), modes=("baseline",))
        (rep,) = run_sweep(cfg)
        assert rep.mode == "baseline_multi"
        assert rep.snr_lower is None


    def test_sweep_values_print_with_twelve_digits(self):
        # Two spacings 1e-9 m apart: 6 significant digits would print both as 0.01.
        values = (0.010000001, 0.010000002)
        cfg = ExperimentConfig(sweep="min_spacing", sweep_values=values, modes=("single",))
        want = ["0.010000001", "0.010000002"]
        assert [rep.scenario for rep in run_sweep(cfg)] == [f"min_spacing={v}" for v in want]
        for csv in (render_sweep_csv(cfg, run_sweep(cfg)), bounds_table(cfg)):
            assert [line.split(",")[1] for line in csv.splitlines()[2:]] == want


class TestMonteCarlo:
    def test_determinism_and_csv_bytes(self):
        cfg = ExperimentConfig(
            sweep="N", sweep_values=(2, 4), user="uniform", draws=60, modes=("single", "baseline")
        )
        a = render_sweep_csv(cfg, run_sweep(cfg))
        b = render_sweep_csv(cfg, run_sweep(cfg))
        assert a == b
        assert a.startswith(f"# pass-trihybrid v1, cfg={cfg.config_hash()}\n")
        assert a.count("\n") == 1 + 1 + 4  # banner, header, 2 values x 2 modes

    def test_one_sample_per_sweep(self, monkeypatch):
        # common random numbers: every sweep value reuses the same users
        calls = []

        def counted(seed, count):
            calls.append((seed, count))
            return uniform_pairs(seed, count)

        monkeypatch.setattr(sampler, "uniform_pairs", counted)
        cfg = ExperimentConfig(
            sweep="Dx", sweep_values=(10.0, 20.0, 30.0), user="uniform", draws=30,
            modes=("single", "baseline"),
        )
        reports = run_sweep(cfg)
        assert len(reports) == 3 * 2
        assert calls == [(cfg.seed, 30)]

    def test_seed_changes_output(self):
        cfg = ExperimentConfig(sweep="N", sweep_values=(2,), user="uniform", draws=40, modes=("single",))
        assert run_sweep(cfg)[0].snr != run_sweep(cfg.replace(seed=1))[0].snr

    def test_infeasible_draws_counted_not_dropped(self):
        # region too small for 64 PAs: every draw is infeasible
        cfg = ExperimentConfig(
            sweep="N", sweep_values=(64,), user="uniform", draws=25,
            dx_m=0.2, dy_m=2.0, modes=("single",),
        )
        (rep,) = run_sweep(cfg)
        assert rep.draws == 25
        assert rep.infeasible_draws == 25
        assert math.isnan(rep.snr)
        row = render_sweep_csv(cfg, [rep]).splitlines()[2]
        assert ",25,25,,," in row  # draws, infeasible, then empty snr/snr_db cells

    def test_standard_error_consistency(self):
        cfg = ExperimentConfig(
            sweep="N", sweep_values=(4,), user="uniform", draws=400, modes=("single",)
        )
        (small,) = run_sweep(cfg.replace(draws=200))
        (big,) = run_sweep(cfg)
        # reuse the first 200 draws: averages should be within 3 standard errors
        caps = []
        units = np.empty((400, 2))
        for i in range(400):
            rng = np.random.default_rng((cfg.seed, i))
            units[i] = rng.random(2)
        p = cfg.params_for_case()
        from pass_trihybrid import WaveguideLayout, effective_channel, refine_all, single_rf_solution

        layout = WaveguideLayout.from_params(p)
        for ux, uy in units:
            user = UserPosition((ux - 0.5) * p.dx_m, (uy - 0.5) * p.dy_m)
            pin, _ = refine_all(p, layout, user)
            caps.append(single_rf_solution(effective_channel(p, layout, pin, user), p).capacity_bits)
        se = np.std(caps, ddof=1) / math.sqrt(400)
        assert abs(big.capacity_bits - small.capacity_bits) < 3 * se + 1e-12


class TestPlacementDump:
    def test_columns_and_symmetry(self):
        cfg = ExperimentConfig(num_pas=2)
        text = dump_placement(cfg)
        lines = text.strip().splitlines()
        assert lines[1].split(",")[0:4] == ["waveguide", "pa_index", "x_m", "shift_m"]
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 8  # 4 waveguides x 2 PAs
        lam = cfg.system_params().wavelength_m
        for row in rows:
            assert float(row[8]) < 1e-6 * lam  # alignment residual column
        # two antennas straddle the user by half a spacing plus their shifts
        x1, v1 = float(rows[0][2]), float(rows[0][3])
        x2, v2 = float(rows[1][2]), float(rows[1][3])
        half = cfg.system_params().min_spacing_m / 2
        assert x1 == pytest.approx(-(half + v1), rel=1e-9)
        assert x2 == pytest.approx(half + v2, rel=1e-9)

    def test_shift_count_matches_pa_count(self):
        cfg = ExperimentConfig(num_pas=6)
        rows = dump_placement(cfg).strip().splitlines()[2:]
        assert len(rows) == 24


class TestBoundsTable:
    def test_surrogate_column_and_monotone_capacity(self):
        cfg = ExperimentConfig(sweep="N", sweep_values=(2, 4, 8))
        lines = bounds_table(cfg).strip().splitlines()
        assert len(lines) == 5
        header = lines[1].split(",")
        surrogate = ExperimentConfig().system_params()
        idx = header.index("max_spacing_surrogate_m")
        for line in lines[2:]:
            cells = line.split(",")
            assert float(cells[idx]) > surrogate.min_spacing_m
        caps = [float(line.split(",")[header.index("capacity1_upper")]) for line in lines[2:]]
        assert caps == sorted(caps)  # small-N envelope grows with N

    @pytest.mark.parametrize("case", [1, 2])
    @pytest.mark.parametrize(
        "sweep, values",
        [
            ("N", (2, 4, 16, 128, 1024)),
            ("Dx", (10.0, 25.0, 50.0, 100.0)),
            ("M", (1, 2, 4, 7)),
            ("min_spacing", (0.002, 0.005357, 0.02)),
        ],
        ids=["N", "Dx", "M", "min_spacing"],
    )
    def test_bytes_match_the_hand_written_table(self, sweep, values, case):
        cfg = ExperimentConfig(sweep=sweep, sweep_values=values, case=case, user_x=1.5, user_y=-2.0)
        assert bounds_table(cfg) == ref_bounds_table(cfg)


class TestSelftest:
    def test_all_checks_pass(self):
        ok, lines = selftest(ExperimentConfig(draws=30))
        assert ok
        assert len(lines) == 7
        assert all(line.startswith("[PASS]") for line in lines)

    def test_one_rf_chain(self):
        # the multi-RF properties are skipped, not built
        ok, lines = selftest(ExperimentConfig(num_rf_chains=1))
        assert ok
        assert len(lines) == 7
        assert all(line.startswith("[PASS]") for line in lines)

    def test_package_import_loads_no_verifier(self):
        """Neither the import nor reading an oracle function loads mpmath or
        ``invariants``; the oracle's first call loads mpmath."""
        code = (
            "import sys, pass_trihybrid as pt\n"
            "def loaded(): print('mpmath' in sys.modules, 'pass_trihybrid.invariants' in sys.modules)\n"
            "loaded()\n"
            "chain = pt.direct_phase_chain\n"
            "loaded()\n"
            "chain([0.0, 0.01], pt.UserPosition(), pt.Waveguide(-1.0, 0.0, 3.0, 1.0), pt.SystemParams())\n"
            "loaded()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"] * 2 + ["True", "False"]
