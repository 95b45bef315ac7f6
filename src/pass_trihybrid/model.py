"""Physical constants, geometry, and the free-space / in-waveguide channel math.

Geometry convention: waveguides run parallel to the x-axis at height ``H``,
feeds sit at the left edge of the service region, users live in the z = 0
plane.  All lengths are in meters and all powers in watts; dB / dBm
conversions happen only at the configuration boundary.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 2.99792458e8  # m/s
# The longest path, in meters, that SystemParams accepts (see its docstring).
MAX_PATH_M = 1e150


class FeasibilityError(ValueError):
    """A pinching-antenna placement violates spacing or deployment-range limits."""


@dataclass(frozen=True)
class SystemParams:
    """Static system configuration (defaults reproduce the reference setup).

    ``min_spacing_m`` defaults to half the free-space wavelength when left
    unset.  ``num_pas`` is the number of active pinching antennas per
    waveguide and must be even.

    The model squares lengths.  The longest path it squares is a PA's
    r + n_eff |x - x_u| rounded up to a wavelength, the placement's grid
    target.  A PA's free-space leg r is at most dx + dy + height, and the
    placement walk takes at most N steps of at most a minimum spacing plus a
    wavelength, so that target, the elevation term n_eff h and the bounds'
    (N/2) spacing all stay within 3 L for
    L = n_eff (dx + dy + height + N (min spacing + wavelength)).  With L
    and n_eff (squared too) at most :data:`MAX_PATH_M` = 1e150 m, every
    square, and every sum of a few, stays below the largest float (about
    1.8e308); larger values raise ValueError.
    """

    fc_hz: float = 28e9
    n_eff: float = 1.4
    kappa_db_per_m: float = 0.08
    power_w: float = 0.01
    noise_w: float = 1e-12
    min_spacing_m: float | None = None
    dx_m: float = 50.0
    dy_m: float = 20.0
    height_m: float = 3.0
    num_waveguides: int = 4
    num_pas: int = 4
    num_rf_chains: int = 2

    def __post_init__(self) -> None:
        for name in _PARAM_FIELDS:
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.fc_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.n_eff < 1.0:
            raise ValueError("effective refractive index must be >= 1")
        if self.kappa_db_per_m < 0:
            raise ValueError("waveguide loss must be >= 0 dB/m")
        if self.power_w <= 0 or self.noise_w <= 0:
            raise ValueError("power budget and noise power must be positive")
        if self.dx_m <= 0 or self.dy_m <= 0 or self.height_m <= 0:
            raise ValueError("region dimensions and height must be positive")
        if self.num_waveguides < 1:
            raise ValueError("need at least one waveguide")
        if self.num_pas < 2 or self.num_pas % 2 != 0:
            raise ValueError("number of PAs per waveguide must be a positive even integer")
        if self.num_rf_chains < 1:
            raise ValueError("need at least one RF chain")
        if self.min_spacing_m is None:
            object.__setattr__(self, "min_spacing_m", self.wavelength_m / 2.0)
        if self.min_spacing_m <= 0:
            raise ValueError("minimum PA spacing must be positive")
        if self.wavelength_m >= self.height_m:
            raise ValueError("wavelength must be small compared to the deployment height")
        longest = self.n_eff * (
            self.dx_m + self.dy_m + self.height_m
            + self.num_pas * (self.min_spacing_m + self.wavelength_m)
        )
        if max(longest, self.n_eff) > MAX_PATH_M:
            raise ValueError(
                f"longest path n_eff (dx + dy + height + N (min spacing + wavelength)) = "
                f"{longest:.6g} m exceeds {MAX_PATH_M:g} m: its square would overflow"
            )

    @property
    def wavelength_m(self) -> float:
        """Free-space wavelength c / f_c."""
        return SPEED_OF_LIGHT / self.fc_hz

    @property
    def guided_wavelength_m(self) -> float:
        """In-waveguide wavelength, free-space wavelength divided by n_eff."""
        return self.wavelength_m / self.n_eff

    @property
    def eta_m2(self) -> float:
        """Channel-gain constant c^2 / (16 pi^2 f_c^2); |h| = sqrt(eta)/r."""
        return SPEED_OF_LIGHT**2 / (16.0 * math.pi**2 * self.fc_hz**2)

    @property
    def feed_x_m(self) -> float:
        return -self.dx_m / 2.0

    @property
    def max_x_m(self) -> float:
        return self.dx_m / 2.0

    def replace(self, **changes) -> "SystemParams":
        return dataclasses.replace(self, **changes)


_PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(SystemParams))


@dataclass(frozen=True)
class UserPosition:
    """Ground-level user location (z = 0)."""

    x: float = 0.0
    y: float = 0.0


def check_user_in_region(params: SystemParams, user: UserPosition) -> None:
    # Written so that a NaN coordinate fails too.
    if not (abs(user.x) <= params.dx_m / 2.0 and abs(user.y) <= params.dy_m / 2.0):
        raise ValueError(
            f"user ({user.x}, {user.y}) outside service region "
            f"[{-params.dx_m / 2}, {params.dx_m / 2}] x [{-params.dy_m / 2}, {params.dy_m / 2}]"
        )


def elevation(wg_y, user_y, height):
    """Distance from a user to a waveguide axis in the plane orthogonal to x, arrays broadcast.

    The library's one elevation formula: the per-user placement and the
    batched engine both take it, so their PAs agree bit for bit.
    """
    return np.hypot(wg_y - user_y, height)


@dataclass(frozen=True)
class Waveguide:
    """One waveguide: feed point, transverse offset, height, deployment limit."""

    feed_x: float
    y: float
    height: float
    max_x: float

    def __post_init__(self) -> None:
        # Written so that a NaN fails too.
        if not (self.max_x > self.feed_x):
            raise ValueError("deployment range must extend beyond the feed point")
        if not (self.height > 0):
            raise ValueError("waveguide height must be positive")

    def effective_elevation(self, user: UserPosition) -> float:
        """:func:`elevation` of this waveguide, as a Python float."""
        return float(elevation(self.y, user.y, self.height))


_WAVEGUIDE_FIELDS = tuple(f.name for f in dataclasses.fields(Waveguide))


@dataclass(frozen=True)
class WaveguideLayout:
    """All waveguides of one deployment.

    Each :class:`Waveguide` attribute of every waveguide is also held as one
    read-only (M,) array, built once here; the arrays are not dataclass
    fields, so equality, hash and repr see ``waveguides`` alone.
    """

    waveguides: tuple[Waveguide, ...]

    def __post_init__(self) -> None:
        arrays = np.array([[getattr(w, name) for w in self.waveguides] for name in _WAVEGUIDE_FIELDS])
        arrays.flags.writeable = False  # and so every row
        object.__setattr__(self, "_arrays", dict(zip(_WAVEGUIDE_FIELDS, arrays)))

    @classmethod
    def from_params(cls, params: SystemParams) -> "WaveguideLayout":
        m = params.num_waveguides
        if m == 1:
            ys = [0.0]  # degenerate single-waveguide layout sits on the region axis
        else:
            ys = [-params.dy_m / 2.0 + (i / (m - 1)) * params.dy_m for i in range(m)]
        feed_x, height, max_x = params.feed_x_m, params.height_m, params.max_x_m
        return cls(tuple(Waveguide(feed_x, y, height, max_x) for y in ys))

    def __len__(self) -> int:
        return len(self.waveguides)

    def __getitem__(self, m: int) -> Waveguide:
        return self.waveguides[m]

    def elevations(self, user: UserPosition) -> np.ndarray:
        return elevation(self._arrays["y"], user.y, self._arrays["height"])

    def field(self, name: str) -> np.ndarray:
        """One :class:`Waveguide` attribute of every waveguide, a read-only (M,) array."""
        return self._arrays[name]


@dataclass(frozen=True)
class PinchingConfig:
    """PA x-coordinates, one row per waveguide (the pinching beamformer).

    Construction validates the pairwise spacing and deployment-range
    constraints; a small float slack absorbs rounding in positions that were
    built to sit exactly on a constraint boundary.  ``feed_x`` and ``max_x``
    are either one range shared by every row or one value per row.
    """

    positions: np.ndarray  # (M, N)
    min_spacing_m: float
    feed_x: float | np.ndarray
    max_x: float | np.ndarray

    _SLACK = 1e-9

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2:
            raise ValueError("positions must be an M x N matrix")
        object.__setattr__(self, "positions", pos)
        lo = np.reshape(self.feed_x, (-1, 1)) - self._SLACK
        hi = np.reshape(self.max_x, (-1, 1)) + self._SLACK
        outside = ~((pos >= lo) & (pos <= hi))  # a NaN position is outside too
        if outside.any():
            m = int(np.argmax(outside.any(axis=1)))
            k = m if lo.size > 1 else 0  # one shared range or one per row
            raise FeasibilityError(
                f"waveguide {m}: PA positions outside its deployment range "
                f"[{np.ravel(self.feed_x)[k]}, {np.ravel(self.max_x)[k]}]"
            )
        gaps = np.diff(np.sort(pos, axis=1), axis=1)
        if gaps.size and not (gaps.min() >= self.min_spacing_m - self._SLACK):
            m = int(np.argmin(gaps.min(axis=1)))
            raise FeasibilityError(
                f"waveguide {m}: PA spacing {gaps[m].min():.6g} m below the "
                f"{self.min_spacing_m:.6g} m minimum"
            )

    @property
    def num_waveguides(self) -> int:
        return self.positions.shape[0]

    @property
    def num_pas(self) -> int:
        return self.positions.shape[1]


def _trusted_pinching(positions: np.ndarray, min_spacing_m: float, feed_x, max_x) -> PinchingConfig:
    """A :class:`PinchingConfig` whose float (M, N) rows are known to be valid.

    For placements built ascending, spaced and in range by construction
    (``placement._refine``); it skips the sort and both range checks of
    ``__post_init__``, which every other construction runs.
    """
    config = object.__new__(PinchingConfig)  # frozen: set the fields past __setattr__
    config.__dict__.update(
        positions=positions, min_spacing_m=min_spacing_m, feed_x=feed_x, max_x=max_x
    )
    return config


@dataclass(frozen=True)
class EffectiveChannel:
    """Per-PA channels, in-waveguide vectors, and their per-waveguide products.

    ``inner[m]`` is the plain (unconjugated) inner product of waveguide m's
    free-space channel row with its in-waveguide vector; stacking the M inner
    products gives the effective 1 x M row seen by the analog/digital stages.
    """

    channel: np.ndarray  # (M, N) complex, free-space coefficients
    guide: np.ndarray  # (M, N) complex, in-waveguide propagation
    inner: np.ndarray  # (M,) complex

    @property
    def gains(self) -> np.ndarray:
        """Per-waveguide coherent combining magnitudes |inner|."""
        return np.abs(self.inner)


def distance(dx, dy, dz):
    """Euclidean length of (dx, dy, dz), arrays broadcast.

    Same operations, in the same order, as ``np.linalg.norm(v, axis=-1)`` on
    stacked 3-vectors, so both give identical bits.
    """
    return _length(dx, dy * dy, dz * dz)


def _length(dx, dy2, dz2, out=None):
    """:func:`distance` from dx and the squares ``dy2``, ``dz2`` of the other two legs.

    sqrt((dx dx + dy2) + dz2), each operation one pass into ``out`` if given
    (dx must then have the broadcast shape), else into new arrays.
    """
    r = np.multiply(dx, dx, out=out)
    r = np.add(r, dy2, out=out)
    return np.sqrt(np.add(r, dz2, out=out), out=out)


def free_space_coefficient(params: SystemParams, r):
    """Line-of-sight coefficient sqrt(eta) e^{-j 2 pi r / lambda} / r at distance r."""
    return np.sqrt(params.eta_m2) * np.exp(-2j * np.pi / params.wavelength_m * r) / r


def _in_waveguide(params: SystemParams, run, num_pas: int):
    alpha = 10.0 ** (-params.kappa_db_per_m * run / 10.0) / num_pas
    return np.sqrt(alpha) * np.exp(-2j * np.pi / params.guided_wavelength_m * run)


def los_coefficient(
    params: SystemParams, pa_position: np.ndarray, user: UserPosition
) -> complex | np.ndarray:
    """Free-space line-of-sight coefficient sqrt(eta) e^{-j 2 pi r / lambda} / r.

    ``pa_position`` is a 3-vector [x, y, z] or an array of them (leading
    dimensions broadcast).  Magnitude is sqrt(eta)/r with r the Euclidean
    distance to the user at [x_u, y_u, 0].
    """
    pos = np.asarray(pa_position, dtype=float)
    ref = np.array([user.x, user.y, 0.0])
    r = np.linalg.norm(pos - ref, axis=-1)
    if np.any(r <= 0):
        raise ValueError("PA/user distance must be positive")
    out = free_space_coefficient(params, r)
    return complex(out) if out.ndim == 0 else out


def waveguide_vector(
    params: SystemParams, waveguide: Waveguide, positions_row: np.ndarray
) -> np.ndarray:
    """In-waveguide propagation vector for one waveguide.

    Entry n is sqrt(alpha_n) e^{-j 2 pi (x_n - x_0) / lambda_g} where
    alpha_n = 10^(-kappa (x_n - x_0) / 10) / N splits the feed power equally
    across the N active PAs and applies the per-meter dielectric loss.
    """
    xs = np.asarray(positions_row, dtype=float)
    run = xs - waveguide.feed_x
    if np.any(run < -PinchingConfig._SLACK):
        raise FeasibilityError("PA positions must not precede the waveguide feed point")
    return _in_waveguide(params, np.maximum(run, 0.0), xs.size)


def pa_amplitudes(params: SystemParams, xs, user_x, feed_x, dy2, dz2):
    """(amplitudes, off-grid distances) of PAs at x = ``xs`` for a user at x = ``user_x``.

    The amplitude sqrt(eta alpha_n) / r_n is the magnitude of each PA's term
    of :func:`effective_channel`'s inner product, with no phase.  Where a
    waveguide's PAs are co-phased at the user, as the refined placement puts
    them, the magnitude of that inner product is the plain sum of these
    amplitudes; both draw paths of :mod:`experiments` sum them.  The
    off-grid distance is how far, in wavelengths, a PA's path
    r_n + n_eff (x_n - x_u) lies from the wavelength grid, the test of that
    co-phasing.  ``dy2`` and ``dz2`` are the squares of the PAs' offsets
    from the user across the waveguide, (y_wg - y_u)^2 and the height^2, so
    a caller that evaluates one waveguide row many times squares them once.
    Every argument but ``params`` broadcasts to the shape of ``xs`` - x_u;
    the ``params.num_pas`` PAs of a waveguide share its feed power.  Each
    operation is one pass into one of three arrays of that shape, none of
    them an argument.
    """
    dx = np.subtract(xs, user_x)
    r = _length(dx, dy2, dz2, out=np.empty_like(dx))
    # (r + n_eff dx) / lambda, in the array of dx
    cycles = np.multiply(dx, params.n_eff, out=dx)
    np.divide(np.add(r, cycles, out=cycles), params.wavelength_m, out=cycles)
    nearest = np.rint(cycles)
    off_grid = np.abs(np.subtract(cycles, nearest, out=cycles), out=cycles)
    amplitude = np.divide(math.sqrt(params.eta_m2 / params.num_pas), r, out=r)
    if params.kappa_db_per_m != 0.0:
        # sqrt(10^(-kappa run / 10)) = e^(-kappa ln(10) run / 20), run the PA's distance
        # from the feed, in the array of the nearest grid lines
        loss = np.subtract(xs, feed_x, out=nearest)
        np.multiply(loss, -params.kappa_db_per_m * math.log(10.0) / 20.0, out=loss)
        np.multiply(amplitude, np.exp(loss, out=loss), out=amplitude)
    return amplitude, off_grid


def effective_channel(
    params: SystemParams,
    layout: WaveguideLayout,
    pinching: PinchingConfig,
    user: UserPosition,
) -> EffectiveChannel:
    """Assemble the full channel state for one placement and user."""
    pos = pinching.positions
    if pos.shape[0] != len(layout):
        raise ValueError("pinching matrix row count must match the waveguide count")
    wg_y, height, feed_x = (layout.field(k)[:, None] for k in ("y", "height", "feed_x"))
    if np.any(pos - feed_x < -PinchingConfig._SLACK):
        raise FeasibilityError("PA positions must not precede the waveguide feed point")
    channel = free_space_coefficient(params, distance(pos - user.x, wg_y - user.y, height))
    guide = _in_waveguide(params, np.maximum(pos - feed_x, 0.0), pos.shape[1])
    inner = np.sum(channel * guide, axis=1)
    return EffectiveChannel(channel=channel, guide=guide, inner=inner)
