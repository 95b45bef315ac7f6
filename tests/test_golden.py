"""CSVs of the shipped configs and of the configs in ``tests/golden/``, byte for byte.

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
# Geometries the shipped configs leave out, recorded beside their outputs:
# an x-edge user whose chains continue, and two where no chain takes the closed form.
EDGE_USER = str(ROOT / "tests" / "golden" / "edge_user.cfg")
ONE_WAVELENGTH = str(ROOT / "tests" / "golden" / "one_wavelength_spacing.cfg")
UNIT_INDEX = str(ROOT / "tests" / "golden" / "unit_index.cfg")
# n_eff = 1 next to the feed, where a left chain turns unreachable past its bound or within it.
FEED_SIDE = str(ROOT / "tests" / "golden" / "feed_side.cfg")
# Dense placements in a narrow region: overflow redistributed across both sides at N = 256.
DENSE_MC = str(ROOT / "tests" / "golden" / "dense_mc.cfg")


@pytest.mark.parametrize(
    "golden, args",
    [
        ("snr_vs_pa_count_sweep.csv", ["sweep", "--config", SNR_VS_N]),
        ("snr_vs_pa_count_placement.csv", ["placement", "--config", SNR_VS_N]),
        ("snr_vs_pa_count_bounds.csv", ["bounds", "--config", SNR_VS_N]),
        ("capacity_vs_region_width_case1.csv", ["sweep", "--config", CAPACITY, "--case", "1"]),
        ("capacity_vs_region_width_case2.csv", ["sweep", "--config", CAPACITY, "--case", "2"]),
        ("edge_user_sweep.csv", ["sweep", "--config", EDGE_USER]),
        ("edge_user_placement.csv", ["placement", "--config", EDGE_USER]),
        ("one_wavelength_spacing_placement.csv", ["placement", "--config", ONE_WAVELENGTH]),
        ("unit_index_placement.csv", ["placement", "--config", UNIT_INDEX]),
        ("feed_side_sweep.csv", ["sweep", "--config", FEED_SIDE]),
        ("feed_side_placement.csv", ["placement", "--config", FEED_SIDE]),
        ("dense_mc_sweep.csv", ["sweep", "--config", DENSE_MC]),
    ],
    ids=["snr-vs-n-sweep", "snr-vs-n-placement", "snr-vs-n-bounds", "capacity-case1",
         "capacity-case2", "edge-user-sweep", "edge-user-placement", "one-wavelength-placement",
         "unit-index-placement", "feed-side-sweep", "feed-side-placement", "dense-mc-sweep"],
)
def test_shipped_config_output_is_the_golden_copy(tmp_path, golden, args):
    out = tmp_path / golden
    assert main(args + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (ROOT / "tests" / "golden" / golden).read_bytes()
