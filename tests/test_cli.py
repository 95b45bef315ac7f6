"""Command-line interface: subcommands, flags, exit codes, output files."""

import subprocess
import sys

import pytest

from pass_trihybrid import cli, sampler
from pass_trihybrid.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main

MINI_SWEEP = "\n".join(
    [
        "sweep = N",
        "sweep_values = 2,4",
        "user = uniform",
        "draws = 30",
        "modes = single,baseline",
        "seed = 99",
    ]
)


@pytest.fixture
def mini_config(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(MINI_SWEEP + "\n")
    return str(path)


class TestSweep:
    def test_writes_csv_to_file(self, mini_config, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", mini_config, "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text.startswith("# pass-trihybrid v1, cfg=")
        assert "snr_db" in text.splitlines()[1]
        assert capsys.readouterr().out == ""

    def test_stdout_default(self, mini_config, capsys):
        assert main(["sweep", "--config", mini_config]) == EXIT_OK
        assert "capacity_bits" in capsys.readouterr().out

    def test_identical_bytes_across_runs(self, mini_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", mini_config, "--out", str(a)])
        main(["sweep", "--config", mini_config, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_and_mode_overrides(self, mini_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", mini_config, "--out", str(a), "--seed", "1"])
        main(["sweep", "--config", mini_config, "--out", str(b), "--seed", "2"])
        assert a.read_text() != b.read_text()
        main(["sweep", "--config", mini_config, "--out", str(a), "--mode", "multi"])
        rows = a.read_text().strip().splitlines()[2:]
        assert all(",multi," in row for row in rows)
        assert len(rows) == 2

    def test_case_override(self, mini_config, tmp_path):
        out = tmp_path / "c.csv"
        main(["sweep", "--config", mini_config, "--out", str(out), "--case", "2"])
        assert all(row.split(",")[2] == "2" for row in out.read_text().strip().splitlines()[2:])


class TestErrors:
    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_key = 1\n")
        assert main(["sweep", "--config", str(bad)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/no/such/file"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        # a latin-1 e-acute in a comment: a message and exit 2, no traceback
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"seed = 1  # caf\xe9\n")
        assert main(["bounds", "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot read config")

    def test_infeasible_geometry_exit_code(self, tmp_path, capsys):
        cramped = tmp_path / "cramped.cfg"
        cramped.write_text("dx_m = 0.05\nnum_pas = 32\nuser = fixed\nsweep_values = 32\n")
        assert main(["placement", "--config", str(cramped)]) == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_multi_mode_with_one_rf_chain(self, tmp_path, capsys):
        one_chain = tmp_path / "one_chain.cfg"
        one_chain.write_text("num_rf_chains = 1\n")  # default modes include multi
        assert main(["sweep", "--config", str(one_chain)]) == EXIT_CONFIG
        assert "2 RF chains" in capsys.readouterr().err
        assert main(["sweep", "--config", str(one_chain), "--mode", "single"]) == EXIT_OK
        # subcommands that compute no multi-RF SNR accept the same config
        assert main(["placement", "--config", str(one_chain)]) == EXIT_OK
        assert main(["bounds", "--config", str(one_chain)]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["sweep", "placement", "bounds"])
    def test_fixed_user_outside_region(self, tmp_path, capsys, command):
        outside = tmp_path / "outside.cfg"
        outside.write_text("user = fixed\nuser_x = 30\ndx_m = 50\n")
        assert main([command, "--config", str(outside)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "config error" in err and "outside service region" in err

    @pytest.mark.parametrize("command", ["sweep", "bounds"])
    def test_region_sweep_checks_fixed_user_at_every_value(self, tmp_path, capsys, command):
        # x = 12 m lies inside the 30 m and 26 m wide regions, not the 20 m one
        cfg = tmp_path / "dx.cfg"
        cfg.write_text("sweep = Dx\nsweep_values = 30,26\nuser = fixed\nuser_x = 12\n")
        assert main([command, "--config", str(cfg)]) == EXIT_OK
        cfg.write_text("sweep = Dx\nsweep_values = 30,20\nuser = fixed\nuser_x = 12\n")
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "outside service region" in err

    def test_baseline_only_fixed_user_places_no_pas(self, tmp_path, capsys):
        # 1024 PAs do not fit in the 4 m region around x = 1 m, but the
        # baseline needs no placement, for a fixed user as for uniform ones.
        cfg = tmp_path / "baseline.cfg"
        cfg.write_text("sweep = N\nsweep_values = 2,1024\ndx_m = 4\nmodes = baseline\n"
                       "user = fixed\nuser_x = 1\n")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()[2:]
        assert len(rows) == 2 and all(",baseline_multi,1,0," in row for row in rows)
        assert main(["sweep", "--config", str(cfg), "--mode", "single"]) == EXIT_INFEASIBLE
        assert "only" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "placement", "bounds"])
    def test_unwritable_out_path(self, mini_config, tmp_path, capsys, command):
        # the parent directory does not exist: a message and exit 2, no traceback
        out = tmp_path / "missing" / "rows.csv"
        assert main([command, "--config", mini_config, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot write {out}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "error, owner, name",
        [(MemoryError("Unable to allocate 16.0 GiB for an array with shape (4294967296, 2)"),
          sampler, "uniform_pairs"),
         (MemoryError(), sampler, "uniform_pairs"),
         (MemoryError(), cli, "load_config")],
        ids=["numpy-message", "bare", "loading-the-config"],
    )
    def test_out_of_memory_exit_code(self, mini_config, monkeypatch, capsys, error, owner, name):
        # e.g. draws = 4294967296 with user = uniform: the samples need 16 GiB;
        # the config is loaded inside the same error map
        def no_memory(*args):
            raise error

        monkeypatch.setattr(owner, name, no_memory)
        assert main(["sweep", "--config", mini_config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("out of memory: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        [
            "n_eff = nan",
            "dx_m = nan",
            "sweep_values = inf",
            "power_dbm = nan",
            "power_dbm = 4000",
            "noise_dbm = 4000",
            "draws = 5000000000",
            "draws = 5000000000; user = uniform",
            "height_m = 1e160",
            "height_m = 1e160; user = uniform",
            "dy_m = 1e160; user = uniform",
            "n_eff = 1e200; user = uniform",
            "kappa_db_per_m = nan; case = 2",
            "kappa_db_per_m = -1; case = 1",
            "user_x = nan",
            "user_x = nan; user = uniform",
            "user_y = inf; user = uniform",
            "baseline_elements = 0",
            "baseline_elements = 0; modes = single",
            "modes = ,",
            "modes = single,single",
            "modes = foo",
            "sweep = K",
            "sweep_values = a,b",
            "sweep_values = ,",
            "sweep = M; sweep_values = 1,2.5",
            "user = both",
            "seed = -1",
            "seed = 18446744073709551616",
            "case = 3",
            "num_waveguides = 0",
            "num_rf_chains = 0",
            "fc_ghz = -1",
            "fc_ghz = 0",
            "dx_m = 0",
            "dy_m = -1",
            "height_m = 0",
            "min_spacing_m = -1",
            "min_spacing_m = 0",
        ],
    )
    def test_invalid_value_exit_code(self, tmp_path, capsys, text):
        cfg = tmp_path / "invalid.cfg"
        cfg.write_text(text.replace("; ", "\n") + "\n")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:")

    def test_invalid_flag_value(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--case", "9"])


class TestOtherSubcommands:
    def test_placement_dump(self, capsys):
        assert main(["placement"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("waveguide,pa_index")

    def test_bounds_table(self, capsys):
        assert main(["bounds"]) == EXIT_OK
        assert "snr1_upper" in capsys.readouterr().out

    def test_selftest_passes(self, tmp_path):
        out = tmp_path / "self.txt"
        assert main(["selftest", "--out", str(out)]) == EXIT_OK
        assert all(line.startswith("[PASS]") for line in out.read_text().strip().splitlines())


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pass_trihybrid.cli", "bounds"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("# pass-trihybrid v1")
