"""Batch experiment runner: seeded sweeps, Monte Carlo averaging, CSV output.

Monte Carlo draws are keyed by (seed, draw index) so results are independent
of evaluation order, and the same unit-square samples are reused across
sweep points (common random numbers).  Infeasible placement draws are
counted and excluded, never silently dropped.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, baseline, beamforming, placement, sampler
from .config import SCHEMA_VERSION, ConfigError, ExperimentConfig
from .model import (
    FeasibilityError,
    SystemParams,
    UserPosition,
    WaveguideLayout,
    check_user_in_region,
    effective_channel,
    pa_terms,
)
from .reporting import CapacityReport


def _baseline_mode(params: SystemParams) -> str:
    return "multi" if params.num_rf_chains >= 2 else "single"


def _fixed_user(config: ExperimentConfig, params: SystemParams) -> UserPosition:
    """The configured fixed user; a :class:`ConfigError` unless it stands in
    the service region of ``params`` (a Dx sweep moves the region)."""
    user = UserPosition(config.user_x, config.user_y)
    try:
        check_user_in_region(params, user)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return user


_BATCH_SNR = {"single": beamforming.single_rf_snr, "multi": beamforming.multi_rf_snr}


def _snrs(
    params: SystemParams,
    inner: np.ndarray | None,
    user_x: np.ndarray,
    user_y: np.ndarray,
    modes,
    baseline_elements: int | None,
) -> dict[str, np.ndarray]:
    """Per-draw SNR of every mode: the closed forms on the effective rows
    ``inner`` (D, M), and the fixed-array baseline at the D users."""
    snrs = {mode: _BATCH_SNR[mode](inner, params) for mode in modes if mode != "baseline"}
    if "baseline" in modes:
        snrs["baseline"] = baseline.baseline_snr(
            params, user_x, user_y, _baseline_mode(params), baseline_elements
        )
    return snrs


def draw_snrs(
    params: SystemParams,
    layout: WaveguideLayout,
    user_x: np.ndarray,
    user_y: np.ndarray,
    modes,
    baseline_elements: int | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-draw SNR of every mode for D users; returns (snrs, feasible).

    The batched engine: :func:`placement.refine_batch` runs the placement
    policy that :func:`placement.refine_all` runs, over the D·M (draw,
    waveguide) rows tiled here, one chain step at a time.  ``fold`` adds
    each placed PA's terms to the effective rows, which the closed-form SNRs
    then read; no placement is kept.  ``feasible`` is False where a
    waveguide's PAs do not all fit, i.e. where :func:`placement.refine_all`
    raises :class:`FeasibilityError`; those draws' SNRs mean nothing.
    """
    feasible = np.ones(user_x.size, dtype=bool)
    inner = None
    if any(mode != "baseline" for mode in modes):
        m = len(layout)
        ux, uy = np.repeat(user_x, m), np.repeat(user_y, m)
        wg_y, height, feed_x, max_x = (
            np.tile(layout.field(k), user_x.size) for k in ("y", "height", "feed_x", "max_x")
        )
        inner = np.zeros(ux.size, dtype=complex)

        def fold(rows, xs, placed):
            channel, guide = pa_terms(
                params, xs, wg_y[rows], height[rows], feed_x[rows], ux[rows], uy[rows],
                params.num_pas,
            )
            inner[rows] += np.where(placed, channel * guide, 0.0)

        h_eff = np.hypot(wg_y - uy, height)
        fits = placement.refine_batch(params, h_eff, ux, feed_x, max_x, fold)
        feasible = fits.reshape(-1, m).all(axis=1)
        inner = inner.reshape(-1, m)
    return _snrs(params, inner, user_x, user_y, modes, baseline_elements), feasible


def _mean(values: np.ndarray) -> float:
    """Mean summed in draw order, as a running ``+=`` would (np.sum pairs up)."""
    return float(np.cumsum(values)[-1] / values.size) if values.size else math.nan


def _fixed_columns(
    params: SystemParams,
    layout: WaveguideLayout,
    user: UserPosition,
    results: list[placement.RefinementResult],
) -> dict[str, dict]:
    """Bound and placement-diagnostic columns of a fixed user's tri-hybrid rows."""
    max_spacing = np.array([r.max_spacing_m for r in results])
    b = analysis.snr_bounds(params, layout, user, params.num_pas, max_spacing)
    diagnostics = {
        "max_spacing_m": float(max_spacing.max()),
        "alignment_residual_m": max(r.alignment_residual_m for r in results),
    }
    return {
        "single": dict(
            snr_lower=b.snr1_lower, snr_upper=b.snr1_upper,
            capacity_lower=b.capacity1_lower, capacity_upper=b.capacity1_upper,
            snr_linear_law=b.snr1_linear, **diagnostics,
        ),
        "multi": dict(
            snr_lower=b.snr2_lower, snr_upper=b.snr2_upper,
            capacity_lower=b.capacity2_lower, capacity_upper=b.capacity2_upper,
            snr_linear_law=b.snr2_linear, **diagnostics,
        ),
    }


def _point_reports(
    config: ExperimentConfig, value: float, units: np.ndarray | None
) -> list[CapacityReport]:
    """One sweep point, one report per mode.

    ``units`` are the uniform users' unit-square samples, or None for the
    fixed user.  Both user models end in the same SNR step (:func:`_snrs`)
    and the same reports.  The fixed user is one draw placed by
    :func:`placement.refine_all` (a batch of one through the engine is
    several times slower) unless no tri-hybrid mode is asked for; it raises
    :class:`FeasibilityError` if its PAs do not fit, and its tri-hybrid rows
    also carry the closed-form bounds and the placement diagnostics.
    """
    params = config.params_for_case(value)
    layout = WaveguideLayout.from_params(params)
    modes, elements = config.modes, config.baseline_elements
    if units is None:
        user = _fixed_user(config, params)
        inner, columns = None, {}
        if any(mode != "baseline" for mode in modes):
            pin, results = placement.refine_all(params, layout, user)
            inner = effective_channel(params, layout, pin, user).inner[None]
            columns = _fixed_columns(params, layout, user, results)
        snrs = _snrs(params, inner, np.array([user.x]), np.array([user.y]), modes, elements)
        feasible = np.ones(1, dtype=bool)
    else:
        user_x = (units[:, 0] - 0.5) * params.dx_m
        user_y = (units[:, 1] - 0.5) * params.dy_m
        snrs, feasible = draw_snrs(params, layout, user_x, user_y, modes, elements)
        columns = {}
    infeasible = int(np.count_nonzero(~feasible))
    reports = []
    for mode in modes:
        snr = snrs[mode][feasible]
        reports.append(
            CapacityReport(
                scenario=f"{config.sweep}={value:g}",
                mode=f"baseline_{_baseline_mode(params)}" if mode == "baseline" else mode,
                case=config.case,
                snr=_mean(snr),
                capacity_bits=_mean(np.log2(1.0 + snr)),
                draws=feasible.size,
                infeasible_draws=infeasible,
                **columns.get(mode, {}),
            )
        )
    return reports


def run_sweep(config: ExperimentConfig) -> list[CapacityReport]:
    """Evaluate every sweep point; one report per (sweep value, mode)."""
    if "multi" in config.modes and config.num_rf_chains < 2:
        raise ConfigError(
            "mode 'multi' needs at least 2 RF chains; "
            f"num_rf_chains = {config.num_rf_chains}"
        )
    units = sampler.uniform_pairs(config.seed, config.draws) if config.user == "uniform" else None
    return [
        report for value in config.sweep_values for report in _point_reports(config, value, units)
    ]


_SWEEP_COLUMNS = (
    "sweep", "value", "case", "mode", "draws", "infeasible", "snr", "snr_db",
    "capacity_bits", "snr_lower", "snr_upper", "capacity_lower", "capacity_upper",
    "snr_linear_law", "max_spacing_m", "alignment_residual_m",
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".12g")
    return str(value)


def _csv_table(config: ExperimentConfig, columns: str, rows) -> str:
    """Versioned CSV: the banner line, the ``columns`` header, one line per row."""
    lines = [f"# {SCHEMA_VERSION}, cfg={config.config_hash()}", columns]
    lines += (",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def render_sweep_csv(config: ExperimentConfig, reports: list[CapacityReport]) -> str:
    return _csv_table(
        config,
        ",".join(_SWEEP_COLUMNS),
        (
            (
                config.sweep, rep.scenario.split("=", 1)[1], rep.case, rep.mode, rep.draws,
                rep.infeasible_draws, rep.snr, rep.snr_db, rep.capacity_bits, rep.snr_lower,
                rep.snr_upper, rep.capacity_lower, rep.capacity_upper, rep.snr_linear_law,
                rep.max_spacing_m, rep.alignment_residual_m,
            )
            for rep in reports
        ),
    )


def dump_placement(config: ExperimentConfig, user: UserPosition | None = None) -> str:
    """CSV of refined PA coordinates, per-step shifts, and chain diagnostics."""
    params = config.params_for_case()
    layout = WaveguideLayout.from_params(params)
    if user is None:
        user = _fixed_user(config, params)
    _, results = placement.refine_all(params, layout, user)
    return _csv_table(
        config,
        "waveguide,pa_index,x_m,shift_m,h_eff_m,n_left,n_right,max_spacing_m,alignment_residual_m",
        (
            (
                m, k + 1, res.positions[k], res.shifts[k], res.h_eff_m,
                res.n_left, res.n_right, res.max_spacing_m, res.alignment_residual_m,
            )
            for m, res in enumerate(results, start=1)
            for k in range(len(res.positions))
        ),
    )


def bounds_table(config: ExperimentConfig) -> str:
    """Analysis-only certificate table over the sweep (no simulation).

    Uses the worst-case surrogate for the largest realized spacing, flagged
    in its own column.
    """
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


def selftest(config: ExperimentConfig | None = None) -> tuple[bool, list[str]]:
    """Run the runtime invariant suite; returns (all passed, report lines)."""
    from . import oracle  # brute-force verifier (mpmath); loaded only here

    if config is None:
        config = ExperimentConfig()
    lines: list[str] = []
    all_ok = True

    def check(name: str, ok: bool) -> None:
        nonlocal all_ok
        all_ok &= ok
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}")

    params = config.params_for_case().replace(kappa_db_per_m=0.0)
    layout = WaveguideLayout.from_params(params)
    center = UserPosition(0.0, 0.0)
    lam = params.wavelength_m

    # Phase alignment on the default geometry.
    worst = 0.0
    for n in (2, 8, 32):
        _, results = placement.refine_all(params, layout, center, num_pas=n)
        for wg, res in zip(layout.waveguides, results):
            worst = max(worst, oracle.direct_phase_chain(res.positions, center, wg, params))
    check(f"phase alignment residual {worst:.3e} m < 1e-6 wavelength", worst < 1e-6 * lam)

    # Block structure: stacked inner products match a dense block-diagonal product.
    rng = np.random.default_rng(config.seed)
    pin, _ = placement.refine_all(params, layout, center)
    eff = effective_channel(params, layout, pin, center)
    m, n = eff.channel.shape
    dense = np.zeros((m * n, m), dtype=complex)
    for i in range(m):
        dense[i * n : (i + 1) * n, i] = eff.guide[i]
    probe = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    lhs = (eff.channel.reshape(-1) @ dense) @ probe
    rhs = eff.inner @ probe
    check("block-diagonal stacking identity", abs(lhs - rhs) <= 1e-12 * abs(rhs))

    # Ordering, unit modulus, and power feasibility on random scenarios.
    ok = True
    for _ in range(100):
        user = UserPosition(
            (rng.random() - 0.5) * params.dx_m * 0.9, (rng.random() - 0.5) * params.dy_m
        )
        pin, _ = placement.refine_all(params, layout, user)
        eff = effective_channel(params, layout, pin, user)
        s1 = beamforming.single_rf_solution(eff, params)
        s2 = beamforming.multi_rf_solution(eff, params)
        ok &= s1.snr <= s2.snr * (1 + 1e-12)
        ok &= bool(np.max(np.abs(np.abs(s2.analog) - 1.0)) < 1e-12)
        ok &= abs(s1.transmit_power() - params.power_w) < 1e-9 * params.power_w
        ok &= abs(s2.transmit_power() - params.power_w) < 1e-9 * params.power_w
    check("SNR ordering, unit modulus, transmit power on 100 random users", ok)

    # Bound sandwich at a few PA counts.
    ok = True
    for n in (2, 16, 128):
        pin, results = placement.refine_all(params, layout, center, num_pas=n)
        eff = effective_channel(params.replace(num_pas=n), layout, pin, center)
        dmax = np.array([r.max_spacing_m for r in results])
        rep = analysis.snr_bounds(params, layout, center, n, dmax)
        snr1 = beamforming.single_rf_solution(eff, params).snr
        snr2 = beamforming.multi_rf_solution(eff, params).snr
        ok &= rep.snr1_lower <= snr1 <= rep.snr1_upper
        ok &= rep.snr2_lower <= snr2 <= rep.snr2_upper
    check("closed-form SNR sandwich at N in {2, 16, 128}", ok)

    # Waveguide loss can only reduce SNR of an aligned placement.
    lossy = params.replace(kappa_db_per_m=0.08)
    eff0 = effective_channel(params, layout, pin, center)
    eff1 = effective_channel(lossy, layout, pin, center)
    check(
        "waveguide loss reduces aligned SNR",
        beamforming.single_rf_solution(eff1, lossy).snr
        <= beamforming.single_rf_solution(eff0, params).snr,
    )

    # Deterministic output for a fixed seed.
    mini = config.replace(
        sweep="N", sweep_values=(2, 4), user="uniform", draws=40, modes=("single", "baseline")
    )
    csv_a = render_sweep_csv(mini, run_sweep(mini))
    csv_b = render_sweep_csv(mini, run_sweep(mini))
    check("seeded sweep reproduces byte-identical CSV", csv_a == csv_b)

    # Batched Monte Carlo engine against the scalar draw path, on the default
    # geometry and on a dense one (4 m wide, 64 PAs) where many draws need
    # overflow redistribution across sides.
    ok = True
    base = config.params_for_case()
    tri = ("single", "multi") if base.num_rf_chains >= 2 else ("single",)
    solutions = {
        "single": beamforming.single_rf_solution, "multi": beamforming.multi_rf_solution
    }
    for params, draws in ((base, 200), (base.replace(dx_m=4.0, num_pas=64), 60)):
        layout = WaveguideLayout.from_params(params)
        units = sampler.uniform_pairs(config.seed, draws)
        user_x = (units[:, 0] - 0.5) * params.dx_m
        user_y = (units[:, 1] - 0.5) * params.dy_m
        snrs, feasible = draw_snrs(
            params, layout, user_x, user_y, tri + ("baseline",), config.baseline_elements
        )
        for d in range(draws):
            user = UserPosition(user_x[d], user_y[d])
            try:
                pin, _ = placement.refine_all(params, layout, user)
            except FeasibilityError:
                ok &= not feasible[d]
                continue
            eff = effective_channel(params, layout, pin, user)
            ref = {mode: solutions[mode](eff, params).snr for mode in tri}
            ref["baseline"] = baseline.baseline_capacity(
                params, user, _baseline_mode(params), config.baseline_elements
            ).snr
            ok &= feasible[d] and all(
                abs(snrs[mode][d] - snr) <= 1e-12 * snr for mode, snr in ref.items()
            )
    check(
        "batched Monte Carlo draws match the scalar draw path on 200 users "
        "and on 60 dense (Dx = 4 m, N = 64) users",
        bool(ok),
    )

    return all_ok, lines
