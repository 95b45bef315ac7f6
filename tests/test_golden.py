"""CSVs of the shipped configs and of the configs in ``tests/golden/``, byte for byte,
and the capacity scaling law on the simulated curve of the scaling-law configs.

Sweep CSVs stay byte-identical across changes that do not bump the
``pass-trihybrid vN`` banner.  Each golden file was written by the command
of its case, e.g. ``pass-trihybrid sweep --config configs/snr_vs_pa_count.cfg
--out tests/golden/snr_vs_pa_count_sweep.csv`` from the root of a checkout;
a change that must alter the bytes bumps the banner and writes them again.
"""

from pathlib import Path

import numpy as np
import pytest

from pass_trihybrid import load_config, run_sweep
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
# An off-centre user whose first phase at N = 1024 mixes closed-form chains with one verified chain.
ONE_CHAIN_VERIFIED = str(ROOT / "tests" / "golden" / "one_chain_verified.cfg")
# A user on the right x edge: every waveguide places all N PAs left of the user, none right.
X_EDGE_USER = str(ROOT / "tests" / "golden" / "x_edge_user.cfg")
# Dense placements in a narrow region: overflow redistributed across both sides at N = 256.
DENSE_MC = str(ROOT / "tests" / "golden" / "dense_mc.cfg")
# N = 2..16384 in a 400 m region, past the simulated SNR's peak: centre and off-centre user.
SCALING_LAW = str(ROOT / "tests" / "golden" / "scaling_law.cfg")
SCALING_LAW_OFF_CENTRE = str(ROOT / "tests" / "golden" / "scaling_law_off_centre.cfg")


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
        ("feed_side_bounds.csv", ["bounds", "--config", FEED_SIDE]),
        ("edge_user_bounds.csv", ["bounds", "--config", EDGE_USER]),
        ("dense_mc_sweep.csv", ["sweep", "--config", DENSE_MC]),
        ("scaling_law_sweep.csv", ["sweep", "--config", SCALING_LAW]),
        ("scaling_law_off_centre_sweep.csv", ["sweep", "--config", SCALING_LAW_OFF_CENTRE]),
        ("one_chain_verified_sweep.csv", ["sweep", "--config", ONE_CHAIN_VERIFIED]),
        ("one_chain_verified_placement.csv", ["placement", "--config", ONE_CHAIN_VERIFIED]),
        ("x_edge_user_sweep.csv", ["sweep", "--config", X_EDGE_USER]),
        ("x_edge_user_placement.csv", ["placement", "--config", X_EDGE_USER]),
    ],
    ids=["snr-vs-n-sweep", "snr-vs-n-placement", "snr-vs-n-bounds", "capacity-case1",
         "capacity-case2", "edge-user-sweep", "edge-user-placement", "one-wavelength-placement",
         "unit-index-placement", "feed-side-sweep", "feed-side-placement", "feed-side-bounds",
         "edge-user-bounds", "dense-mc-sweep", "scaling-law-sweep",
         "scaling-law-off-centre-sweep", "one-chain-verified-sweep",
         "one-chain-verified-placement", "x-edge-user-sweep", "x-edge-user-placement"],
)
def test_shipped_config_output_is_the_golden_copy(tmp_path, golden, args):
    out = tmp_path / golden
    assert main(args + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (ROOT / "tests" / "golden" / golden).read_bytes()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: the bounds ignore waveguide loss (ROADMAP 'Bounds that bound', b)",
)
def test_case_2_bounds_differ_from_case_1(tmp_path):
    rows = {}
    for case in ("1", "2"):
        out = tmp_path / f"bounds_case{case}.csv"
        assert main(["bounds", "--config", SNR_VS_N, "--case", case, "--out", str(out)]) == EXIT_OK
        rows[case] = out.read_text().splitlines()[2:]
    assert rows["1"] != rows["2"]


@pytest.mark.parametrize("mode", ["single", "multi"])
@pytest.mark.parametrize("cfg", [SCALING_LAW, SCALING_LAW_OFF_CENTRE], ids=["centre", "off-centre"])
def test_simulated_snr_peaks_between_the_envelope_peaks(cfg, mode):
    """The capacity scaling law on the simulated curve: the SNR peaks strictly
    inside the sweep, between the peaks of the lower and upper bound envelopes,
    and falls over the last two doublings, inside its bounds at every N.

    The tail ratio SNR(2N)/SNR(N) is not compared with the (ln N)^2/N law's
    (ln 2N / ln N)^2 / 2: the simulated tail falls more slowly, e.g. 0.757
    against 0.580 from N = 8192 to 16384 at the centre user, single RF.
    """
    reports = [rep for rep in run_sweep(load_config(cfg)) if rep.mode == mode]
    ns = np.array([int(rep.scenario.split("=")[1]) for rep in reports])
    snr, lower, upper = (
        np.array([getattr(rep, name) for rep in reports]) for name in ("snr", "snr_lower", "snr_upper")
    )
    peak = ns[np.argmax(snr)]
    assert ns[0] < ns[np.argmax(lower)] < peak < ns[np.argmax(upper)] < ns[-1]
    assert np.all(snr[-2:] / snr[-3:-1] < 1.0)
    assert np.all((lower <= snr) & (snr <= upper))
