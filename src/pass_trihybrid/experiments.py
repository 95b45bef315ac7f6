"""Batch experiment runner: seeded sweeps, Monte Carlo averaging, CSV output.

Monte Carlo draws are keyed by (seed, draw index) so results are independent
of evaluation order, and the same unit-square samples are reused across
sweep points (common random numbers).  Infeasible placement draws are
counted and excluded, never silently dropped.
"""

from __future__ import annotations

import math
import operator

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
    elevation,
    pa_amplitudes,
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


# Distance from the wavelength grid, in wavelengths, up to which a PA counts
# as co-phased at the user, so that the magnitude of its waveguide's inner
# product is the sum of the PAs' amplitudes.  PAs up to a phase of 2 pi t off
# the grid overstate that magnitude by at most (2 pi t)^2 / 2 relative.  The
# shift root's cancellation near n_eff = 1 leaves PAs up to 2.6e-7 off the
# grid at n_eff = 1 + 1e-6, where the sums still match the complex ones to
# 1e-12, and up to 1.4e-6 off at n_eff = 1 + 1e-7, where they do not.
_COPHASED = 3e-7


def _user_row(params: SystemParams, layout: WaveguideLayout, user: UserPosition):
    """(row, records): one user's effective row (M,) and :func:`placement.refine_all`'s records.

    The row sums the real amplitudes of :func:`pa_amplitudes` over each
    waveguide's placed PAs, unless a PA lies farther than :data:`_COPHASED`
    wavelengths from the grid (the kernel's off-grid distance); then it is
    ``|inner|`` of the complex :func:`effective_channel`.  Raises
    :class:`FeasibilityError` where the PAs do not fit.
    """
    pin, results = placement.refine_all(params, layout, user)
    wg_y, height, feed_x = (layout.field(k)[:, None] for k in ("y", "height", "feed_x"))
    dy = wg_y - user.y
    amplitude, miss = pa_amplitudes(params, pin.positions, user.x, feed_x, dy * dy, height * height)
    if miss.max() > _COPHASED:
        return effective_channel(params, layout, pin, user).gains, results
    return amplitude.sum(axis=1), results


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
    waveguide) rows tiled here, one chain step at a time.  ``fold(chains,
    xs, placed)`` gets a block of those steps at once.  Both arrays belong
    to the walk, which overwrites them with the next block, so the fold
    keeps neither; it moves the unplaced steps of ``xs`` to the feed in
    place.  The refined PAs of a waveguide are co-phased at the
    user, so the magnitude of its inner product is the sum of the PAs' real
    amplitudes (:func:`pa_amplitudes`, one call per block, on the per-row
    squares across the waveguide taken once per call here): each placed
    PA's amplitude is added to its chain's accumulator one step at a time,
    so every chain is summed from 0.0 in chain order whatever the block
    size, and a row's entry is its right chain's sum plus its left chain's.
    The same kernel call gives each PA's distance of r + n_eff (x - x_u)
    from the wavelength grid, whose worst placed one per chain the fold
    keeps; a feasible draw with a PA farther than :data:`_COPHASED`
    wavelengths from it takes the per-user row (:func:`_user_row`) instead.
    Its PAs are the engine's bit for bit and the kernel works entry by entry,
    so its own test repeats the verdict, and the row is ``|inner|`` of the
    complex :func:`effective_channel`.  The closed-form SNRs then read the
    rows; no placement is kept.  ``feasible`` is False where a
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
        dy = wg_y - uy
        dy2, dz2 = dy * dy, height * height  # per row, squared once per call
        # Per (side, row) chain: its sum, and its placed PAs' worst distance
        # from the grid, in wavelengths.
        inner, off_grid = np.zeros((2, ux.size)), np.zeros((2, ux.size))

        def fold(chains, xs, placed):
            rows = chains[1]
            feed = feed_x[rows]
            # An unplaced step may lie far past the feed (n_eff near 1), where
            # case 2's loss overflows; take it at the feed, as it is dropped.
            np.copyto(xs, feed, where=~placed)
            amplitude, miss = pa_amplitudes(params, xs, ux[rows], feed, dy2[rows], dz2[rows])
            # Every miss and amplitude is now finite and >= 0, so times placed
            # each is np.where(placed, it, 0.0): the misses' worst placed one
            # or 0.0, and the amplitudes' terms.
            worst = np.multiply(miss, placed, out=miss).max(axis=0)
            off_grid[chains] = np.maximum(off_grid[chains], worst)
            terms = np.multiply(amplitude, placed, out=amplitude)
            acc = inner[chains]
            for term in terms:  # step by step: each chain's sum in chain order
                acc += term
            inner[chains] = acc

        h_eff = elevation(wg_y, uy, height)
        fits = placement.refine_batch(params, h_eff, ux, feed_x, max_x, fold)
        feasible = fits.reshape(-1, m).all(axis=1)
        inner = (inner[0] + inner[1]).reshape(-1, m)
        off_grid = off_grid.max(axis=0).reshape(-1, m).max(axis=1)
        for d in np.flatnonzero(feasible & (off_grid > _COPHASED)):
            try:
                inner[d] = _user_row(params, layout, UserPosition(user_x[d], user_y[d]))[0]
            except FeasibilityError:  # not expected: the engine's fits are refine_all's
                feasible[d] = False
    return _snrs(params, inner, user_x, user_y, modes, baseline_elements), feasible


def _means(values: np.ndarray) -> list[float]:
    """Each row's mean, summed in draw order as a running ``+=`` would (np.sum pairs up)."""
    rows, draws = values.shape
    return (values.cumsum(axis=1)[:, -1] / draws).tolist() if draws else [math.nan] * rows


# The CapacityReport fields of a fixed user's tri-hybrid rows, one for each
# entry of the mode's analysis.MODE_FIELDS.
_BOUND_COLUMNS = ("snr_lower", "snr_upper", "snr_linear_law", "capacity_lower", "capacity_upper")


def _fixed_columns(
    params: SystemParams,
    layout: WaveguideLayout,
    user: UserPosition,
    results: list[placement.RefinementResult],
) -> dict[str, dict]:
    """Bound and placement-diagnostic columns of a fixed user's tri-hybrid rows."""
    max_spacing = [r.max_spacing_m for r in results]
    b = analysis.snr_bounds(params, layout, user, params.num_pas, np.array(max_spacing))
    diagnostics = {
        "max_spacing_m": max(max_spacing),
        "alignment_residual_m": max(r.alignment_residual_m for r in results),
    }
    return {
        mode: dict(zip(_BOUND_COLUMNS, b.of_mode(mode)), **diagnostics)
        for mode in analysis.MODE_FIELDS
    }


def _point_reports(
    config: ExperimentConfig, value: float, units: np.ndarray | None
) -> list[CapacityReport]:
    """One sweep point, one report per mode.

    ``units`` are the uniform users' unit-square samples, or None for the
    fixed user.  Both user models end in the same SNR step (:func:`_snrs`)
    and the same reports.  The fixed user is one draw, whose effective row
    is :func:`_user_row`'s (a batch of one through the engine yields no
    largest spacing or residual, and it walks, 7 to 9 times slower, at
    N = 1024) unless no tri-hybrid mode is asked for; it raises
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
            row, results = _user_row(params, layout, user)
            inner, columns = row[None], _fixed_columns(params, layout, user, results)
        snrs = _snrs(params, inner, np.array([user.x]), np.array([user.y]), modes, elements)
        draws, feasible = 1, slice(None)  # its one draw, feasible (or raised)
    else:
        user_x = (units[:, 0] - 0.5) * params.dx_m
        user_y = (units[:, 1] - 0.5) * params.dy_m
        snrs, feasible = draw_snrs(params, layout, user_x, user_y, modes, elements)
        draws, columns = feasible.size, {}
    # (modes, feasible draws): every mode's SNR and capacity means at once
    snr = np.array([snrs[mode][feasible] for mode in modes])
    infeasible = draws - snr.shape[1]
    scenario = f"{config.sweep}={_cell(value)}"
    return [
        CapacityReport(
            scenario=scenario,
            mode=f"baseline_{_baseline_mode(params)}" if mode == "baseline" else mode,
            case=config.case,
            snr=mean,
            capacity_bits=capacity_bits,
            draws=draws,
            infeasible_draws=infeasible,
            **columns.get(mode, {}),
        )
        for mode, mean, capacity_bits in zip(modes, _means(snr), _means(np.log2(1.0 + snr)))
    ]


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
# The CapacityReport attribute of each sweep column after ``sweep`` and ``value``
_SWEEP_ATTRIBUTES = operator.attrgetter(
    *("infeasible_draws" if c == "infeasible" else c for c in _SWEEP_COLUMNS[2:])
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
    """One line per report: ``sweep`` and ``value``, then :data:`_SWEEP_ATTRIBUTES`."""
    return _csv_table(
        config,
        ",".join(_SWEEP_COLUMNS),
        ((config.sweep, rep.scenario.split("=", 1)[1]) + _SWEEP_ATTRIBUTES(rep) for rep in reports),
    )


def dump_placement(config: ExperimentConfig) -> str:
    """CSV of the configured user's refined PA coordinates, shifts and chain diagnostics."""
    params = config.params_for_case()
    layout = WaveguideLayout.from_params(params)
    _, results = placement.refine_all(params, layout, _fixed_user(config, params))
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


# The BoundsReport fields of the bounds table, in column order.
_BOUNDS_FIELDS = analysis.MODE_FIELDS["single"] + analysis.MODE_FIELDS["multi"]


def bounds_table(config: ExperimentConfig) -> str:
    """Analysis-only certificate table over the sweep (no simulation).

    Uses the worst-case surrogate for the largest realized spacing, flagged
    in its own column.
    """
    rows = []
    for value in config.sweep_values:
        params = config.params_for_case(value)
        layout = WaveguideLayout.from_params(params)
        user = _fixed_user(config, params)
        rep = analysis.snr_bounds(params, layout, user, params.num_pas)
        rows.append(
            (config.sweep, value, params.num_pas, float(rep.max_spacing_m[0]))
            + tuple(getattr(rep, name) for name in _BOUNDS_FIELDS)
        )
    return _csv_table(
        config,
        ",".join(("sweep", "value", "n", "max_spacing_surrogate_m") + _BOUNDS_FIELDS),
        rows,
    )


def selftest(config: ExperimentConfig | None = None) -> tuple[bool, list[str]]:
    """Run the runtime invariant suite; returns (all passed, report lines).

    The checks the tests run too are measured by :mod:`invariants`; only the
    stacking identity and the seeded CSV are checked here alone.
    """
    from . import invariants  # with the brute-force oracle (mpmath); loaded only here

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

    worst = invariants.phase_residual(params, layout, center, (2, 8, 32))
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

    users = [
        UserPosition((rng.random() - 0.5) * params.dx_m * 0.9, (rng.random() - 0.5) * params.dy_m)
        for _ in range(100)
    ]
    bad = invariants.beamformer_violations((params, user) for user in users)
    check(
        "SNR ordering, loss monotonicity, unit modulus, transmit power on 100 random users",
        not bad,
    )

    bad = invariants.sandwich_violations(params, layout, center, (2, 16, 128))
    check("closed-form SNR sandwich at N in {2, 16, 128}", not bad)

    # Loss can only lower the SNR of an aligned placement: the centre user at N = 128.
    bad = invariants.beamformer_violations([(params.replace(num_pas=128), center)])
    check("waveguide loss reduces aligned SNR", not any(p.startswith("loss") for _, p in bad))

    # Deterministic output for a fixed seed.
    mini = config.replace(
        sweep="N", sweep_values=(2, 4), user="uniform", draws=40, modes=("single", "baseline")
    )
    csv_a = render_sweep_csv(mini, run_sweep(mini))
    csv_b = render_sweep_csv(mini, run_sweep(mini))
    check("seeded sweep reproduces byte-identical CSV", csv_a == csv_b)

    # The batched engine against the per-user path, on the configured geometry
    # and on a dense one where many draws need overflow redistribution.
    base = config.params_for_case()
    tri = invariants._tri_modes(base)
    bad = []
    for params, draws in ((base, 200), (base.replace(dx_m=4.0, num_pas=64), 60)):
        units = sampler.uniform_pairs(config.seed, draws)
        bad += invariants.draw_mismatches(
            params, WaveguideLayout.from_params(params), (units[:, 0] - 0.5) * params.dx_m,
            (units[:, 1] - 0.5) * params.dy_m, tri + ("baseline",), config.baseline_elements,
        )
    check(
        "batched Monte Carlo draws match the scalar draw path on 200 users "
        "and on 60 dense (Dx = 4 m, N = 64) users",
        not bad,
    )

    return all_ok, lines
