"""Optimal digital and analog beamformers for a given effective channel.

Single RF chain: the digital stage is the scalar sqrt(P/M) and each analog
phase shifter cancels the phase of its waveguide's effective channel entry,
so the per-waveguide magnitudes add coherently.  With two or more RF chains
the analog/digital cascade can synthesize the matched filter exactly, which
turns the received SNR from (P / M sigma^2) (sum_m |c_m|)^2 into
(P / sigma^2) sum_m |c_m|^2.  :class:`CapacityReport` is the result record
of one evaluated scenario that the baseline and the experiment runner share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EffectiveChannel, SystemParams


@dataclass(frozen=True)
class BeamformerSolution:
    """Analog/digital beamformer pair with the resulting link metrics.

    ``analog`` is an (M,) vector in single-RF mode and an (M, N_rf) matrix of
    unit-modulus entries otherwise; ``digital`` is the matching scalar or
    (N_rf,) vector.  The transmit covariance trace equals the power budget.
    """

    mode: str
    analog: np.ndarray
    digital: complex | np.ndarray
    snr: float
    capacity_bits: float

    def transmit_power(self) -> float:
        """Trace of the transmit covariance of the analog/digital cascade."""
        stacked = np.atleast_2d(self.analog.T).T @ np.atleast_1d(self.digital)
        return float(np.sum(np.abs(stacked) ** 2))


def capacity(snr: float) -> float:
    """Shannon capacity log2(1 + snr) in bits/s/Hz."""
    if snr < 0:
        raise ValueError("SNR must be nonnegative")
    return math.log2(1.0 + snr)


@dataclass(frozen=True)
class CapacityReport:
    """SNR, capacity, and optional certificates for one evaluated scenario.

    Bound and placement-diagnostic fields stay ``None`` when they do not
    apply (e.g. the fixed-array baseline, or Monte-Carlo averages).  For
    averaged scenarios ``snr`` is the mean linear SNR over the counted draws
    and ``draws`` / ``infeasible_draws`` record the accounting.
    """

    scenario: str
    mode: str
    case: int
    snr: float
    capacity_bits: float
    snr_lower: float | None = None
    snr_upper: float | None = None
    capacity_lower: float | None = None
    capacity_upper: float | None = None
    snr_linear_law: float | None = None
    max_spacing_m: float | None = None
    alignment_residual_m: float | None = None
    draws: int | None = None
    infeasible_draws: int | None = None

    @property
    def snr_db(self) -> float:
        """``snr`` in dB: -inf for a nonpositive SNR, NaN for a NaN one."""
        return -math.inf if self.snr <= 0 else 10.0 * math.log10(self.snr)


def single_rf_snr(inner: np.ndarray, params: SystemParams) -> np.ndarray:
    """SNR of :func:`single_rf_solution` for effective rows ``inner`` (..., M).

    Closed form P / (M sigma^2) (sum_m |c_m|)^2, one value per row.
    """
    m = inner.shape[-1]
    return params.power_w / (m * params.noise_w) * np.abs(inner).sum(axis=-1) ** 2


def multi_rf_snr(inner: np.ndarray, params: SystemParams) -> np.ndarray:
    """SNR of :func:`multi_rf_solution` for effective rows ``inner`` (..., M).

    Closed form P / sigma^2 sum_m |c_m|^2, one value per row.
    """
    if params.num_rf_chains < 2:
        raise ValueError("matched-filter SNR needs at least 2 RF chains")
    return params.power_w * (np.abs(inner) ** 2).sum(axis=-1) / params.noise_w


def single_rf_solution(effective: EffectiveChannel, params: SystemParams) -> BeamformerSolution:
    """Optimal beamformer when only one RF chain feeds the analog stage."""
    inner = effective.inner
    m = inner.size
    analog = np.exp(-1j * np.angle(inner))
    digital = complex(math.sqrt(params.power_w / m))
    received = (inner @ analog) * digital
    snr = float(abs(received) ** 2 / params.noise_w)
    return BeamformerSolution(
        mode="single_rf",
        analog=analog,
        digital=digital,
        snr=snr,
        capacity_bits=capacity(snr),
    )


def multi_rf_solution(effective: EffectiveChannel, params: SystemParams) -> BeamformerSolution:
    """Matched-filter beamformer synthesized with two RF chains.

    The target M-vector u = sqrt(P) conj(c) / ||c|| is realized row-wise as
    a (e^{j(phi+d)} + e^{j(phi-d)}) with a common digital scale a = max|u|/2
    and per-row phase offsets d = arccos(|u| / 2a), so every analog entry is
    unit-modulus while the cascade reproduces u exactly.  SNR and capacity
    are computed from the matched-filter product itself; the factorization is
    emitted for inspection.
    """
    if params.num_rf_chains < 2:
        raise ValueError(
            "matched-filter synthesis needs at least 2 RF chains; "
            "use single_rf_solution for a single-chain system"
        )
    inner = effective.inner
    m = inner.size
    norm_sq = float(np.sum(np.abs(inner) ** 2))
    if norm_sq == 0.0:
        raise ValueError("effective channel is identically zero")
    snr = float(params.power_w * norm_sq / params.noise_w)

    target = math.sqrt(params.power_w) * np.conj(inner) / math.sqrt(norm_sq)
    scale = float(np.max(np.abs(target))) / 2.0
    phi = np.angle(target)
    dev = np.arccos(np.clip(np.abs(target) / (2.0 * scale), -1.0, 1.0))
    n_rf = params.num_rf_chains
    analog = np.ones((m, n_rf), dtype=complex)
    analog[:, 0] = np.exp(1j * (phi + dev))
    analog[:, 1] = np.exp(1j * (phi - dev))
    digital = np.zeros(n_rf, dtype=complex)
    digital[0] = digital[1] = scale
    return BeamformerSolution(
        mode="multi_rf",
        analog=analog,
        digital=digital,
        snr=snr,
        capacity_bits=capacity(snr),
    )
