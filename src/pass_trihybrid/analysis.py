"""Closed-form gain/SNR/capacity bounds, approximations, and scaling laws.

These expressions certify the simulation: the per-waveguide coherent gain of
a refined placement is sandwiched between a uniform-minimum-spacing upper
bound and a uniform-maximum-spacing lower bound, and an integral
approximation of either sum gives SNR and capacity envelopes that expose the
(ln N)^2 / N large-N decay and the linear small-N growth.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .beamforming import capacity
from .model import SystemParams, UserPosition, WaveguideLayout


class ApproximationWarning(UserWarning):
    """An approximation was evaluated outside its nominal validity range."""


def gain_kernel(x: float | np.ndarray) -> float | np.ndarray:
    """ln(sqrt(1 + x^2) + x), the closed form of the aggregate-gain integral.

    Equals asinh(x); concave, increasing, and ~x for small x.  Evaluated via
    asinh to avoid cancellation near zero.
    """
    return np.arcsinh(x)


def _check_even(n: int) -> None:
    if n < 2 or n % 2 != 0:
        raise ValueError("PA count must be a positive even integer")


def _upper_sum(params: SystemParams, h_eff, n: int, spacing):
    """sum_k 2 sqrt(eta) / (sqrt(N) sqrt((k - 1/2)^2 s^2 + h_eff^2)), k = 1..N/2."""
    k = np.arange(1, n // 2 + 1)
    terms = 2.0 * math.sqrt(params.eta_m2) / (
        math.sqrt(n) * np.sqrt((k - 0.5) ** 2 * spacing * spacing + h_eff * h_eff)
    )
    return np.sum(terms, axis=-1)


def _approx(params: SystemParams, h_eff, n: int, spacing):
    """Integral form of :func:`_upper_sum`; ``h_eff`` and ``spacing`` broadcast."""
    return 2.0 * math.sqrt(params.eta_m2) / (math.sqrt(n) * spacing) * gain_kernel(
        n * spacing / (2.0 * h_eff)
    )


def gain_upper(
    params: SystemParams, h_eff: float, n: int, spacing: float | None = None
) -> float:
    """Upper bound on one waveguide's coherent gain: N/2 antennas per side
    packed at uniform ``spacing`` (default: the minimum spacing), phases
    perfectly aligned."""
    _check_even(n)
    s = params.min_spacing_m if spacing is None else spacing
    if s <= 0 or h_eff <= 0:
        raise ValueError("spacing and effective elevation must be positive")
    return float(_upper_sum(params, h_eff, n, s))


def gain_lower(params: SystemParams, h_eff: float, n: int, max_spacing: float) -> float:
    """Lower bound on the refined gain: same sum with the placement's largest
    realized spacing instead of the minimum."""
    if max_spacing < params.min_spacing_m:
        raise ValueError("largest realized spacing cannot be below the minimum spacing")
    return gain_upper(params, h_eff, n, spacing=max_spacing)


def gain_approx(
    params: SystemParams, h_eff: float, n: int, spacing: float | None = None
) -> float:
    """Integral approximation of :func:`gain_upper`, accurate for spacing << h_eff."""
    _check_even(n)
    s = params.min_spacing_m if spacing is None else spacing
    if s <= 0 or h_eff <= 0:
        raise ValueError("spacing and effective elevation must be positive")
    if s / h_eff >= 0.1:
        warnings.warn(
            f"spacing/elevation ratio {s / h_eff:.3g} >= 0.1; integral "
            "approximation degrades",
            ApproximationWarning,
            stacklevel=2,
        )
    return float(_approx(params, h_eff, n, s))


def surrogate_max_spacing(params: SystemParams) -> float:
    """Worst-case largest spacing when no placement has been run: the minimum
    spacing plus one full refinement shift."""
    lam = params.wavelength_m
    if params.n_eff == 1.0:
        return params.min_spacing_m + 2.0 * lam
    return params.min_spacing_m + lam / (params.n_eff - 1.0)


# Each RF mode's BoundsReport fields: SNR lower and upper bound, linear law,
# capacity lower and upper bound.
MODE_FIELDS = {
    "single": ("snr1_lower", "snr1_upper", "snr1_linear", "capacity1_lower", "capacity1_upper"),
    "multi": ("snr2_lower", "snr2_upper", "snr2_linear", "capacity2_lower", "capacity2_upper"),
}
# A BoundsReport's values of MODE_FIELDS[mode] (BoundsReport.of_mode)
_MODE_VALUES = {mode: operator.attrgetter(*names) for mode, names in MODE_FIELDS.items()}


@dataclass(frozen=True)
class BoundsReport:
    """Closed-form certificates of both RF modes for one (user, N) scenario.

    The ``snr1_*`` and ``capacity1_*`` fields bound the single-RF beamformer,
    whose power is split 1/M over the waveguides; the ``snr2_*`` and
    ``capacity2_*`` fields bound the multi-RF one at the full power budget
    (:data:`MODE_FIELDS`).  ``max_spacing_is_surrogate`` marks reports built
    without a placement.
    """

    n: int
    min_spacing_m: float
    max_spacing_m: np.ndarray
    max_spacing_is_surrogate: bool
    snr1_upper: float
    snr1_lower: float
    snr1_linear: float
    capacity1_upper: float
    capacity1_lower: float
    snr2_upper: float
    snr2_lower: float
    snr2_linear: float
    capacity2_upper: float
    capacity2_lower: float

    def of_mode(self, mode: str) -> tuple[float, ...]:
        """The values of ``MODE_FIELDS[mode]``: SNR lower and upper bound,
        linear law, capacity lower and upper bound."""
        return _MODE_VALUES[mode](self)


def snr_bounds(
    params: SystemParams,
    layout: WaveguideLayout,
    user: UserPosition,
    n: int,
    max_spacing: float | np.ndarray | None = None,
) -> BoundsReport:
    """SNR and capacity envelopes of both RF modes from the integral-form gain bounds.

    ``max_spacing`` is each waveguide's largest realized spacing (scalar or
    per-waveguide array); when omitted the worst-case surrogate is used and
    flagged.
    """
    _check_even(n)
    m = len(layout)
    surrogate = max_spacing is None
    # Row 0 the minimum spacing (upper bound), row 1 the largest (lower bound).
    spacing = np.full((2, m), params.min_spacing_m)
    spacing[1] = surrogate_max_spacing(params) if surrogate else max_spacing
    if spacing[1].min() < params.min_spacing_m:
        raise ValueError("largest realized spacing cannot be below the minimum spacing")

    # One evaluation of both bounds over all M waveguides.  Unlike
    # gain_approx, snr_bounds never warns about the spacing/elevation ratio.
    h = layout.elevations(user)
    gain = _approx(params, h, n, spacing)
    p, s2 = params.power_w, params.noise_w
    single = [p / (m * s2) * total**2 for total in gain.sum(axis=1).tolist()]
    multi = [p / s2 * total for total in (gain**2).sum(axis=1).tolist()]
    laws = _linear_laws(params, h, n)
    fields = {}
    for mode, (upper, lower) in zip(MODE_FIELDS, (single, multi)):
        values = (lower, upper, laws[mode], capacity(lower), capacity(upper))
        fields.update(zip(MODE_FIELDS[mode], values))
    return BoundsReport(
        n=n, min_spacing_m=params.min_spacing_m, max_spacing_m=spacing[1],
        max_spacing_is_surrogate=surrogate, **fields,
    )


def _linear_laws(params: SystemParams, h: np.ndarray, n: int) -> dict[str, float]:
    """:func:`snr_linear` of each RF mode at the waveguides' effective elevations ``h``."""
    p, s2, eta = params.power_w, params.noise_w, params.eta_m2
    return {
        "single": p * n * eta / (len(h) * s2) * float((1.0 / h).sum()) ** 2,
        "multi": p * n * eta / s2 * float((1.0 / h**2).sum()),
    }


def snr_linear(
    params: SystemParams,
    layout: WaveguideLayout,
    user: UserPosition,
    n: int,
    mode: str = "single",
) -> float:
    """Small-N scaling law: SNR grows linearly in N, independent of spacing.

    Single-RF: (P N eta / M sigma^2) (sum_m 1/H_m)^2.
    Multi-RF:  (P N eta / sigma^2) sum_m 1/H_m^2.

    Warns (:class:`ApproximationWarning`) where N s / (2 H) > 0.05 on a waveguide.
    """
    _check_even(n)
    h = layout.elevations(user)
    ratio = float(np.max(n * params.min_spacing_m / (2.0 * h)))
    if ratio > 0.05:
        warnings.warn(
            f"N*spacing/(2 H) = {ratio:.3g} exceeds 0.05; linear scaling law "
            "loses accuracy",
            ApproximationWarning,
            stacklevel=2,
        )
    laws = _linear_laws(params, h, n)
    if mode not in laws:
        raise ValueError("mode must be 'single' or 'multi'")
    return laws[mode]


@dataclass(frozen=True)
class EnvelopeReport:
    """Upper/lower SNR envelopes over a sweep of PA counts."""

    n_values: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    argmax_n_upper: int
    argmax_n_lower: int

    @property
    def decays(self) -> bool:
        """True when both envelopes peak strictly inside the sweep and have
        fallen off at its far end."""
        interior = (
            self.argmax_n_upper not in (self.n_values[0], self.n_values[-1])
            and self.argmax_n_lower not in (self.n_values[0], self.n_values[-1])
        )
        return bool(
            interior
            and self.upper[-1] < self.upper.max()
            and self.lower[-1] < self.lower.max()
        )


def asymptotic_envelope(
    params: SystemParams,
    layout: WaveguideLayout,
    user: UserPosition,
    n_values,
    mode: str = "single",
    max_spacing: float | np.ndarray | None = None,
) -> EnvelopeReport:
    """Evaluate one RF mode's SNR bounds, ``"single"`` or ``"multi"``, over a
    range of even PA counts."""
    if mode not in MODE_FIELDS:
        raise ValueError("mode must be 'single' or 'multi'")
    ns = np.asarray(list(n_values), dtype=int)
    lower, upper = np.transpose(
        [snr_bounds(params, layout, user, int(n), max_spacing).of_mode(mode)[:2] for n in ns]
    )
    return EnvelopeReport(
        n_values=ns,
        upper=upper,
        lower=lower,
        argmax_n_upper=int(ns[int(np.argmax(upper))]),
        argmax_n_lower=int(ns[int(np.argmax(lower))]),
    )
