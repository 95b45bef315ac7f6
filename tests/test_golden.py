"""The shipped configs' CSVs, byte for byte, against the copies in ``tests/golden/``.

Sweep CSVs stay byte-identical across changes that do not bump the
``pass-trihybrid vN`` banner.  Each golden file was written by the command
of its case, e.g. ``pass-trihybrid sweep --config configs/snr_vs_pa_count.cfg
--out tests/golden/snr_vs_pa_count_sweep.csv`` from the root of a checkout;
a change that must alter the bytes bumps the banner and writes them again.
"""

from pathlib import Path

import pytest

from pass_trihybrid.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
SNR_VS_N = str(ROOT / "configs" / "snr_vs_pa_count.cfg")
CAPACITY = str(ROOT / "configs" / "capacity_vs_region_width.cfg")


@pytest.mark.parametrize(
    "golden, args",
    [
        ("snr_vs_pa_count_sweep.csv", ["sweep", "--config", SNR_VS_N]),
        ("snr_vs_pa_count_placement.csv", ["placement", "--config", SNR_VS_N]),
        ("snr_vs_pa_count_bounds.csv", ["bounds", "--config", SNR_VS_N]),
        ("capacity_vs_region_width_case1.csv", ["sweep", "--config", CAPACITY, "--case", "1"]),
        ("capacity_vs_region_width_case2.csv", ["sweep", "--config", CAPACITY, "--case", "2"]),
    ],
    ids=["snr-vs-n-sweep", "snr-vs-n-placement", "snr-vs-n-bounds", "capacity-case1",
         "capacity-case2"],
)
def test_shipped_config_output_is_the_golden_copy(tmp_path, golden, args):
    out = tmp_path / golden
    assert main(args + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (ROOT / "tests" / "golden" / golden).read_bytes()
