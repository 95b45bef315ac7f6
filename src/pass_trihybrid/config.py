"""Experiment configuration: flat key = value files, units at the boundary.

Configs accept dBm for powers, dB/m for the waveguide loss, GHz for the
carrier, and either meters or wavelength multiples for the minimum PA
spacing; everything is converted to SI on load.  The keys are the
:class:`ExperimentConfig` fields plus ``min_spacing_wavelengths``; unknown
keys are rejected.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, fields

from .model import SPEED_OF_LIGHT, SystemParams

SCHEMA_VERSION = "pass-trihybrid v1"


class ConfigError(ValueError):
    """Malformed configuration file or invalid parameter combination."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


# sweep variable -> the SystemParams field it sets
_SWEEP_FIELDS = {"N": "num_pas", "Dx": "dx_m", "M": "num_waveguides", "min_spacing": "min_spacing_m"}
_SWEEP_ALIASES = {
    **{name.lower(): name for name in _SWEEP_FIELDS},
    "d_x": "Dx",
    "delta_min": "min_spacing",
    "dmin": "min_spacing",
}
_MODES = ("single", "multi", "baseline")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a batch run needs: system, sweep, user model, RNG, modes."""

    fc_ghz: float = 28.0
    n_eff: float = 1.4
    kappa_db_per_m: float = 0.08
    power_dbm: float = 10.0
    noise_dbm: float = -90.0
    min_spacing_m: float | None = None  # None: half a wavelength
    dx_m: float = 50.0
    dy_m: float = 20.0
    height_m: float = 3.0
    num_waveguides: int = 4
    num_pas: int = 4
    num_rf_chains: int = 2
    baseline_elements: int | None = None
    sweep: str = "N"
    sweep_values: tuple[float, ...] = (2, 4, 8, 16, 32, 64)
    user: str = "fixed"
    user_x: float = 0.0
    user_y: float = 0.0
    draws: int = 10_000
    seed: int = 424242
    case: int = 1
    modes: tuple[str, ...] = _MODES

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.sweep not in _SWEEP_FIELDS:
            raise ConfigError(f"unknown sweep variable {self.sweep!r}")
        if not self.sweep_values:
            raise ConfigError("sweep_values must not be empty")
        if not all(0 < v < math.inf for v in self.sweep_values):  # NaN fails too
            raise ConfigError("sweep values must be positive and finite")
        if self.sweep == "N" and any(int(v) != v or int(v) % 2 for v in self.sweep_values):
            raise ConfigError("PA-count sweep values must be even integers")
        if self.sweep == "M" and any(int(v) != v for v in self.sweep_values):
            raise ConfigError("waveguide-count sweep values must be integers")
        if self.user not in ("fixed", "uniform"):
            raise ConfigError("user model must be 'fixed' or 'uniform'")
        if not 1 <= self.draws <= 2**32:  # the sampler's draw index is 32-bit
            raise ConfigError("draws must be between 1 and 2**32")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        if self.case not in (1, 2):
            raise ConfigError("case must be 1 (lossless waveguides) or 2 (configured loss)")
        bad = [m for m in self.modes if m not in _MODES]
        if bad:
            raise ConfigError(f"unknown modes {bad}; valid: {_MODES}")
        if not self.modes or len(set(self.modes)) != len(self.modes):
            raise ConfigError(f"modes must be distinct and not empty, got {self.modes}")
        if self.baseline_elements is not None and self.baseline_elements < 1:
            raise ConfigError("baseline_elements must be positive")

    def system_params(self, sweep_value: float | None = None) -> SystemParams:
        """Base system parameters, optionally with the sweep variable applied."""
        kw = {name: getattr(self, name) for name in _SHARED_FIELDS}
        kw["fc_hz"] = self.fc_ghz * 1e9
        for name, si_name in (("power_dbm", "power_w"), ("noise_dbm", "noise_w")):
            dbm = getattr(self, name)
            try:
                kw[si_name] = dbm_to_watts(dbm)
            except OverflowError:
                raise ConfigError(f"{name} = {dbm:g} is too large to express in watts") from None
        if sweep_value is not None:
            key = _SWEEP_FIELDS[self.sweep]
            kw[key] = int(sweep_value) if key in _INT_KEYS else sweep_value
        try:
            return SystemParams(**kw)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def params_for_case(self, sweep_value: float | None = None) -> SystemParams:
        """System parameters with the case's waveguide-loss convention applied.

        Case 1 validates the configured loss like case 2, then zeroes it in
        place: a loss of 0 always validates, so the parameters are built once.
        """
        params = self.system_params(sweep_value)
        if self.case == 1:
            object.__setattr__(params, "kappa_db_per_m", 0.0)  # frozen, and not yet shared
        return params

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)

    def canonical_text(self) -> str:
        """One ``name=value`` line per field, the lines sorted."""
        lines = []
        for name in _CANONICAL_ORDER:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{name}={value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]


_FIELDS = {f.name for f in fields(ExperimentConfig)}
# "name=value" lines sort as their "name=" prefixes do, whatever the values:
# no name holds "=", so two prefixes first differ within both.
_CANONICAL_ORDER = tuple(sorted(_FIELDS, key=lambda name: name + "="))
# annotations stay strings here ("int", "int | None"): see the __future__ import
_INT_KEYS = {f.name for f in fields(ExperimentConfig) if f.type.startswith("int")}
# the SystemParams fields that ExperimentConfig holds under the same name, in the same unit
_SHARED_FIELDS = tuple(f.name for f in fields(SystemParams) if f.name in _FIELDS)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse one ``key = value`` per line; ``#`` starts a comment."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    unknown = set(raw) - _FIELDS - {"min_spacing_wavelengths"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "min_spacing_m" in raw and "min_spacing_wavelengths" in raw:
        raise ConfigError("give min_spacing_m or min_spacing_wavelengths, not both")

    kw: dict = {}
    for key, value in raw.items():
        if key == "sweep":
            norm = _SWEEP_ALIASES.get(value.lower())
            if norm is None:
                raise ConfigError(f"unknown sweep variable {value!r}")
            kw["sweep"] = norm
        elif key == "sweep_values":
            try:
                kw["sweep_values"] = tuple(float(v) for v in value.split(",") if v.strip())
            except ValueError as err:
                raise ConfigError(f"sweep_values: cannot parse {value!r}") from err
        elif key == "user":
            kw["user"] = value.lower()
        elif key == "modes":
            if value.strip().lower() == "all":
                kw["modes"] = _MODES
            else:
                kw["modes"] = tuple(m.strip().lower() for m in value.split(",") if m.strip())
        else:
            kind = int if key in _INT_KEYS else float
            try:
                kw[key] = kind(value)
            except ValueError as err:
                raise ConfigError(f"{key}: cannot parse {value!r} as {kind.__name__}") from err

    spacing_wl = kw.pop("min_spacing_wavelengths", None)
    if spacing_wl is not None:
        fc_ghz = kw.get("fc_ghz", ExperimentConfig.fc_ghz)
        kw["min_spacing_m"] = spacing_wl * SPEED_OF_LIGHT / (fc_ghz * 1e9)
    return ExperimentConfig(**kw)


def load_config(path: str | None) -> ExperimentConfig:
    """Read a config file, or return the defaults when no path is given."""
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_config_text(text)
