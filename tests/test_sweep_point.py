"""Fixed-user sweep points against their earlier code.

A fixed-user sweep point now shares the Monte Carlo path's SNR step and
report builder: the closed-form SNRs on the effective row instead of the
unit-modulus beamformer solutions, the baseline SNR kernel instead of
``baseline_capacity``, and ``np.log2`` instead of ``math.log2``.  The
underlying doubles may differ in the last bits; the CSV must not.
"""

import numpy as np
import pytest

from pass_trihybrid import (
    ExperimentConfig,
    FeasibilityError,
    WaveguideLayout,
    render_sweep_csv,
    run_sweep,
)
from pass_trihybrid import analysis, baseline, beamforming, experiments, invariants, placement
from pass_trihybrid.reporting import CapacityReport

# --- Reference: the earlier fixed-user point --------------------------------


def _fixed_point_reports(config, value, scenario):
    """The earlier point: the per-user beamformer solutions and ``baseline_capacity``
    (``invariants.reference_snrs``) and ``math.log2``, and a placement even for
    a baseline-only user."""
    params = config.params_for_case(value)
    layout = WaveguideLayout.from_params(params)
    user = experiments._fixed_user(config, params)
    _, results = placement.refine_all(params, layout, user)
    snrs = invariants.reference_snrs(params, layout, user, config.modes, config.baseline_elements)
    max_spacing = np.array([r.max_spacing_m for r in results])
    residual = max(r.alignment_residual_m for r in results)
    bounds = analysis.snr_bounds(params, layout, user, params.num_pas, max_spacing)

    reports = []
    for mode in config.modes:
        snr = snrs[mode]
        common = dict(
            scenario=scenario, case=config.case, snr=snr, capacity_bits=beamforming.capacity(snr),
            draws=1, infeasible_draws=0,
        )
        if mode == "baseline":
            reports.append(
                CapacityReport(mode=f"baseline_{experiments._baseline_mode(params)}", **common)
            )
            continue
        lo = bounds.snr1_lower if mode == "single" else bounds.snr2_lower
        up = bounds.snr1_upper if mode == "single" else bounds.snr2_upper
        lin = bounds.snr1_linear if mode == "single" else bounds.snr2_linear
        reports.append(
            CapacityReport(
                mode=mode,
                snr_lower=lo,
                snr_upper=up,
                capacity_lower=beamforming.capacity(lo),
                capacity_upper=beamforming.capacity(up),
                snr_linear_law=lin,
                max_spacing_m=float(max_spacing.max()),
                alignment_residual_m=residual,
                **common,
            )
        )
    return reports


def reference_csv(config):
    reports = []
    for value in config.sweep_values:
        reports.extend(_fixed_point_reports(config, value, f"{config.sweep}={value:g}"))
    return render_sweep_csv(config, reports)


# --- Cases ------------------------------------------------------------------

ALL = ("single", "multi", "baseline")
N_SWEEP = dict(sweep="N", sweep_values=(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024))
CASES = {
    "centre": dict(N_SWEEP, user_x=0.0, user_y=0.0, modes=("single", "multi")),
    "off-centre": dict(N_SWEEP, user_x=7.3, user_y=-4.1, modes=ALL),
    # Near the x edge the refinement splits the PAs unevenly (from N = 512).
    "uneven-split": dict(
        sweep="N", sweep_values=(256, 512), user_x=24.775, user_y=5.853, modes=ALL
    ),
    "all-modes-9-elements": dict(
        N_SWEEP, user_x=-12.5, user_y=3.0, modes=ALL, baseline_elements=9
    ),
    "one-waveguide": dict(N_SWEEP, user_x=4.0, user_y=-9.0, num_waveguides=1, modes=ALL),
    "M-sweep": dict(sweep="M", sweep_values=(1, 2, 3, 6), user_x=-3.3, user_y=1.7, modes=ALL),
    "one-rf-chain": dict(
        N_SWEEP, user_x=11.0, user_y=6.5, num_rf_chains=1, modes=("single", "baseline")
    ),
    "baseline-only": dict(N_SWEEP, user_x=-20.0, user_y=9.5, modes=("baseline",)),
    "unit-index": dict(
        sweep="N", sweep_values=(2, 8, 32, 128), user_x=1.5, user_y=-2.0, n_eff=1.0
    ),
    "min-spacing": dict(
        sweep="min_spacing", sweep_values=(0.01, 0.02, 0.05), user_x=3.0, user_y=0.5, modes=ALL
    ),
}


@pytest.mark.parametrize("case", (1, 2))
@pytest.mark.parametrize("name", list(CASES))
def test_csv_bytes_equal_the_earlier_fixed_point(name, case):
    config = ExperimentConfig(user="fixed", case=case, **CASES[name])
    assert render_sweep_csv(config, run_sweep(config)) == reference_csv(config)


@pytest.fixture
def solution_calls(monkeypatch):
    """Counts calls of the beamformer solutions and ``baseline_capacity``."""
    calls = {}
    for module, name in (
        (beamforming, "single_rf_solution"),
        (beamforming, "multi_rf_solution"),
        (baseline, "baseline_capacity"),
    ):
        original = getattr(module, name)
        calls[name] = 0

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("user", ["fixed", "uniform"])
def test_sweep_builds_no_beamformer_solution(solution_calls, user):
    config = ExperimentConfig(user=user, draws=30, user_x=2.0, user_y=-1.0, modes=ALL, **N_SWEEP)
    rows = run_sweep(config)
    assert len(rows) == 3 * len(N_SWEEP["sweep_values"])
    assert solution_calls == {
        "single_rf_solution": 0, "multi_rf_solution": 0, "baseline_capacity": 0
    }


def test_infeasible_fixed_user_raises():
    config = ExperimentConfig(
        user="fixed", dx_m=4.0, user_x=1.0, sweep="N", sweep_values=(2, 1024), modes=ALL
    )
    with pytest.raises(FeasibilityError, match="only 487 of 1024 PAs fit"):
        run_sweep(config)


@pytest.fixture
def channel_calls(monkeypatch):
    """Counts the sweep's calls of the complex ``effective_channel``."""
    calls = []
    original = experiments.effective_channel

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "effective_channel", counting)
    return calls


@pytest.mark.parametrize("case", (1, 2))
def test_aligned_fixed_user_sums_real_amplitudes(channel_calls, case):
    config = ExperimentConfig(user="fixed", case=case, user_x=7.3, user_y=-4.1, **N_SWEEP)
    run_sweep(config)
    assert channel_calls == []


@pytest.mark.parametrize("case", (1, 2))
def test_off_grid_fixed_user_takes_the_complex_path(channel_calls, case):
    # n_eff = 1 + 1e-10: the shift root cancels and leaves the PAs about
    # 1e-5 wavelengths off the grid, so they are not summed as co-phased
    config = ExperimentConfig(
        user="fixed", case=case, n_eff=1.0 + 1e-10, user_x=7.3, user_y=-4.1, modes=ALL,
        sweep="N", sweep_values=(8, 64),
    )
    for value in config.sweep_values:
        params = config.params_for_case(value)
        layout = WaveguideLayout.from_params(params)
        user = experiments._fixed_user(config, params)
        _, results = placement.refine_all(params, layout, user)
        assert max(r.alignment_residual_m for r in results) > 1e-6 * params.wavelength_m
        before = len(channel_calls)
        reports = experiments._point_reports(config, value, None)
        assert len(channel_calls) == before + 1
        ref = invariants.reference_snrs(params, layout, user, ("single", "multi", "baseline"))
        for rep in reports:
            snr = ref[rep.mode.split("_")[0]]
            assert abs(rep.snr - snr) <= 1e-12 * snr, (value, rep.mode)


@pytest.mark.parametrize(
    "user_x, splits",
    [(3.3, {(8, 8)}), (24.99, {(15, 1)})],
    ids=["even-split", "uneven-split"],
)
def test_fixed_point_calls_the_traced_layers_once(monkeypatch, user_x, splits):
    """A benchmark tracer times ``placement.refine_all`` and ``analysis.snr_bounds``
    by replacing them on their modules, and reads each waveguide's ``n_left`` /
    ``n_right`` from ``refine_all``'s records.  One fixed-user point must call
    each once, through its module, and return records that carry the split."""
    outputs = {"refine_all": [], "snr_bounds": []}
    for module, name in ((placement, "refine_all"), (analysis, "snr_bounds")):
        original = getattr(module, name)

        def traced(*args, _name=name, _original=original, **kwargs):
            out = _original(*args, **kwargs)
            outputs[_name].append(out)
            return out

        monkeypatch.setattr(module, name, traced)
    config = ExperimentConfig(
        user="fixed", user_x=user_x, user_y=3.0, sweep="N", sweep_values=(16,),
        modes=("single", "multi"),
    )
    reports = run_sweep(config)
    assert [len(out) for out in outputs.values()] == [1, 1]
    (pin, results), = outputs["refine_all"]
    assert len(results) == pin.positions.shape[0] == config.num_waveguides
    assert {(r.n_left, r.n_right) for r in results} == splits
    bounds, = outputs["snr_bounds"]
    assert [rep.snr_lower for rep in reports] == [bounds.snr1_lower, bounds.snr2_lower]
