"""Conventional hybrid beamforming baseline: a fixed array, no pinching.

The comparison array keeps the RF-chain / phase-shifter budget of the
pinched system: one element per waveguide-equivalent phase-shifter column, a
uniform linear array along y at half-wavelength spacing, centered over the
service region at the deployment height.  The element count is exposed for
studies that want a different phase-shifter accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamforming import capacity
from .model import SystemParams, UserPosition, distance
from .reporting import CapacityReport


@dataclass(frozen=True)
class FixedArray:
    """Element coordinates of the comparison array."""

    positions: np.ndarray  # (M, 3)
    spacing_m: float


def fixed_array(params: SystemParams, n_elements: int | None = None) -> FixedArray:
    m = params.num_waveguides if n_elements is None else n_elements
    if m < 1:
        raise ValueError("need at least one array element")
    spacing = params.wavelength_m / 2.0
    ys = (np.arange(m) - (m - 1) / 2.0) * spacing
    positions = np.stack([np.zeros(m), ys, np.full(m, params.height_m)], axis=-1)
    return FixedArray(positions=positions, spacing_m=spacing)


def baseline_snr(
    params: SystemParams,
    user_x,
    user_y,
    mode: str = "single",
    n_elements: int | None = None,
) -> np.ndarray:
    """Received SNR of the fixed hybrid array for users at (user_x, user_y).

    The user coordinates broadcast against each other; the result has their
    shape.  ``mode='single'`` uses one RF chain (phase-aligned combining of
    the per-element magnitudes); ``mode='multi'`` uses the matched filter.
    """
    if mode not in ("single", "multi"):
        raise ValueError("mode must be 'single' or 'multi'")
    if mode == "multi" and params.num_rf_chains < 2:
        raise ValueError("matched-filter baseline needs at least 2 RF chains")
    array = fixed_array(params, n_elements)
    ex, ey, ez = array.positions.T
    ux = np.expand_dims(user_x, -1)
    uy = np.expand_dims(user_y, -1)
    mags = math.sqrt(params.eta_m2) / distance(ex - ux, ey - uy, ez)  # |h| = sqrt(eta) / r
    if mode == "single":
        return params.power_w / (ex.size * params.noise_w) * np.sum(mags, axis=-1) ** 2
    return params.power_w / params.noise_w * np.sum(mags**2, axis=-1)


def baseline_capacity(
    params: SystemParams,
    user: UserPosition,
    mode: str = "single",
    n_elements: int | None = None,
) -> CapacityReport:
    """Capacity of the fixed hybrid array serving the given user (see :func:`baseline_snr`)."""
    snr = float(baseline_snr(params, user.x, user.y, mode, n_elements))
    return CapacityReport(
        scenario=f"baseline/user({user.x:.6g},{user.y:.6g})",
        mode=f"baseline_{mode}",
        case=1 if params.kappa_db_per_m == 0 else 2,
        snr=snr,
        capacity_bits=capacity(snr),
    )
