"""The invariants that ``selftest`` and the tests both check, each written once.

Each function returns what it measured, not a verdict, so every caller keeps
its own thresholds, time limits and printed numbers.  Below 2 RF chains the
multi-RF properties are skipped.
"""

from __future__ import annotations

import numpy as np

from . import analysis, baseline, beamforming, experiments, oracle, placement
from .model import FeasibilityError, UserPosition, WaveguideLayout, effective_channel


def _tri_modes(params) -> tuple[str, ...]:
    return ("single", "multi") if params.num_rf_chains >= 2 else ("single",)


_SOLUTIONS = {"single": beamforming.single_rf_solution, "multi": beamforming.multi_rf_solution}


def phase_residual(params, layout, user, ns) -> float:
    """Worst oracle phase residual (m) of ``refine_all``'s PAs at every N in ``ns``."""
    worst = 0.0
    for n in ns:
        _, results = placement.refine_all(params.replace(num_pas=n), layout, user)
        for wg, res in zip(layout.waveguides, results):
            worst = max(worst, oracle.direct_phase_chain(res.positions, user, wg, params))
    return worst


def sandwich_violations(params, layout, user, ns) -> list:
    """(mode, N) for every N in ``ns`` whose beamformer SNR leaves the closed-form
    bounds of :func:`analysis.snr_bounds` at the placement's largest spacings."""
    violations = []
    for n in ns:
        pin, results = placement.refine_all(params.replace(num_pas=n), layout, user)
        eff = effective_channel(params, layout, pin, user)
        dmax = np.array([r.max_spacing_m for r in results])
        rep = analysis.snr_bounds(params, layout, user, n, dmax)
        for mode in _tri_modes(params):
            lower, upper = rep.of_mode(mode)[:2]
            if not lower <= _SOLUTIONS[mode](eff, params).snr <= upper:
                violations.append((mode, n))
    return violations


def beamformer_violations(scenarios) -> list:
    """(scenario index, property) for every beamformer property that fails.

    Each scenario is ``(params, user)``; ``refine_all`` places ``params``'s
    PAs for the user, and both beamformers are built on that placement as it
    is and with an in-waveguide loss of 0.08 dB/m.  The properties:
    ``ordering`` (single-RF SNR at most the multi-RF one), and per mode
    ``loss`` (the lossy SNR at most the lossless one), ``modulus`` (analog
    entries of unit modulus to 1e-12) and ``power`` (transmit power equal to
    the budget to 1e-9 relative), named e.g. ``"power multi"``.
    """
    violations = []
    for i, (params, user) in enumerate(scenarios):
        layout = WaveguideLayout.from_params(params)
        lossy = params.replace(kappa_db_per_m=0.08)
        pin, _ = placement.refine_all(params, layout, user)
        eff = effective_channel(params, layout, pin, user)
        eff_lossy = effective_channel(lossy, layout, pin, user)
        snrs = {}
        for mode in _tri_modes(params):
            sol = _SOLUTIONS[mode](eff, params)
            snrs[mode] = sol.snr
            failed = {
                "loss": not _SOLUTIONS[mode](eff_lossy, lossy).snr <= sol.snr,
                "modulus": not np.max(np.abs(np.abs(sol.analog) - 1.0)) < 1e-12,
                "power": not abs(sol.transmit_power() - params.power_w) <= 1e-9 * params.power_w,
            }
            violations += [(i, f"{name} {mode}") for name, bad in failed.items() if bad]
        if "multi" in snrs and not snrs["single"] <= snrs["multi"] * (1 + 1e-12):
            violations.append((i, "ordering"))
    return violations


def reference_snrs(params, layout, user, modes, baseline_elements=None) -> dict | None:
    """Per-mode SNR of one draw through the per-user path, None if infeasible:
    ``refine_all`` -> ``effective_channel`` -> the beamformer solutions, and
    ``baseline_capacity`` for the baseline."""
    out = {}
    if any(mode != "baseline" for mode in modes):
        try:
            pin, _ = placement.refine_all(params, layout, user)
        except FeasibilityError:
            return None
        eff = effective_channel(params, layout, pin, user)
        out = {mode: _SOLUTIONS[mode](eff, params).snr for mode in modes if mode != "baseline"}
    if "baseline" in modes:
        base_mode = experiments._baseline_mode(params)
        out["baseline"] = baseline.baseline_capacity(params, user, base_mode, baseline_elements).snr
    return out


def draw_mismatches(params, layout, user_x, user_y, modes, baseline_elements=None) -> list:
    """Draws where :func:`experiments.draw_snrs` disagrees with :func:`reference_snrs`:
    a different feasibility, or an SNR off by more than 1e-12 relative."""
    snrs, feasible = experiments.draw_snrs(params, layout, user_x, user_y, modes, baseline_elements)
    bad = []
    for d, user in enumerate(map(UserPosition, user_x, user_y)):
        ref = reference_snrs(params, layout, user, modes, baseline_elements)
        agree = not feasible[d] if ref is None else feasible[d] and all(
            abs(snrs[mode][d] - snr) <= 1e-12 * snr for mode, snr in ref.items()
        )
        if not agree:
            bad.append(d)
    return bad
