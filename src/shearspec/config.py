"""Run configuration: JSON schema, presets, and seed derivation.

A run is described by one JSON document with blocks mirroring the library
layers: pulse (synthesis), grid, interferometer (shear/delay/counts/seed),
reconstruction (FtsiSettings), outputs (the output directory).
All validation failures raise ConfigError so the CLI can map them to exit 2.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import get_args, get_type_hints

import numpy as np

from .core import (
    SpectralGrid, is_integral, is_number, make_grid, read_json, shear_nm_to_omega,
    wavelength_to_omega,
)
from .errors import ConfigError, DataFormatError
from .interferometer import MAX_COUNTS, ShearConfig, check_shear
from .reconstruction import FtsiSettings, check_delay
from .synthesis import PulseSpec, check_coverage

MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class GridSpec:
    """Grid block: center defaults to the pulse carrier."""

    center_nm: float | None = None
    span_factor: float = 10.0
    n_points: int = 4096


@dataclass(frozen=True)
class DetectionSpec:
    """Interferometer block: exactly one shear unit must be given."""

    shear_nm: float | None = None
    shear_rad_per_fs: float | None = None
    delay_fs: float = 10000.0
    total_counts: int = 1_000_000
    seed: int | None = None
    noiseless: bool = False


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"


@dataclass(frozen=True)
class RunConfig:
    pulse: PulseSpec
    grid: GridSpec = field(default_factory=GridSpec)
    interferometer: DetectionSpec = field(default_factory=DetectionSpec)
    reconstruction: FtsiSettings = field(default_factory=FtsiSettings)
    outputs: OutputSpec = field(default_factory=OutputSpec)
    compensate_phi2: bool = False


# ---- parsing: keys and types come from the dataclass fields -------------------

_EXPECTED = {
    bool: "true or false",
    str: "a string",
    int: "an integral number",
    float: "a number",
    tuple: "an array of numbers",
}


def _typed(value, hint, where: str, name: str):
    """A non-null JSON value of field `name` as its type hint (X | None is X).

    bool is never a number, int takes integral numbers only, and a tuple
    takes an array of numbers; numbers become the field's own type.
    """
    hint = next((a for a in get_args(hint) if a is not type(None)), hint)
    if is_dataclass(hint):
        return _build(hint, value, f"{where}.{name}")
    if (hint is bool and isinstance(value, bool)) or (hint is str and isinstance(value, str)):
        return value
    if hint is float and is_number(value):
        return float(value)
    if hint is int and is_integral(value):
        return int(value)
    if hint is tuple and isinstance(value, (list, tuple)) and all(map(is_number, value)):
        return tuple(float(x) for x in value)
    raise ConfigError(f"{where}: {name!r} must be {_EXPECTED[hint]}")


def _build(cls, block, where: str):
    """An instance of dataclass `cls` from a JSON object: unknown keys, then types,
    then missing required keys are refused; a null or absent key takes the default."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: must be an object")
    unknown = sorted(set(block) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
    hints = get_type_hints(cls)
    kwargs = {f.name: _typed(block[f.name], hints[f.name], where, f.name)
              for f in fields(cls) if block.get(f.name) is not None}
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            kind = "block" if is_dataclass(hints[f.name]) else "key"
            raise ConfigError(f"{where}: missing required {kind} {f.name!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


# retired keys, (block, key): (the values old echoes carry, what replaced the key).
# Those values, or null, load as no-ops; any other value exits 2.
_RETIRED = {
    ("outputs", "spectrum"): ((True,), "spectrum.csv is always written"),
    ("outputs", "phase"): ((True,), "phase.csv is always written"),
    ("outputs", "temporal"): ((True,), "temporal.csv is always written"),
    ("outputs", "wigner"): ((False,), "use `analyze --wigner`"),
    ("reconstruction", "integration_method"): (
        ("midpoint_integration", "concatenation"), "one integrator serves every pulse"
    ),
    ("reconstruction", "filter_shape"): (("super_gaussian",), "the window is a super-Gaussian"),
    ("reconstruction", "filter_order"): ((6, 6.0), "the window's order is 6"),
    ("reconstruction", "correct_envelope_bias"): ((True,), "the envelope bias is always corrected"),
}


def config_from_dict(raw: dict, where: str = "config") -> RunConfig:
    """Build a RunConfig from parsed JSON, rejecting unknown keys and wrong types."""
    for (block, key), (olds, fix) in _RETIRED.items():
        section = raw.get(block) if isinstance(raw, dict) else None
        if not isinstance(section, dict) or key not in section:
            continue
        value = section[key]  # compared with its type: 1 is not true
        if value is not None and (type(value), value) not in [(type(o), o) for o in olds]:
            allowed = " or ".join(json.dumps(o) for o in olds)
            raise ConfigError(f"{where}.{block}: {key!r} is retired and may only be {allowed}; {fix}")
        raw = {**raw, block: {k: v for k, v in section.items() if k != key}}
    cfg = _build(RunConfig, raw, where)
    validate_config(cfg, where)
    return cfg


def validate_config(cfg: RunConfig, where: str = "config") -> None:
    """Cross-field checks shared by file parsing and preset construction."""
    det = cfg.interferometer
    given = [u for u in (det.shear_nm, det.shear_rad_per_fs) if u is not None]
    if len(given) != 1:
        raise ConfigError(
            f"{where}: exactly one of shear_nm / shear_rad_per_fs must be given"
        )
    if det.seed is not None and not 0 <= det.seed <= MAX_SEED:
        raise ConfigError(f"{where}.interferometer: seed must fit in 64 bits")
    if not det.delay_fs > 0:
        raise ConfigError(f"{where}: delay_fs must be positive")
    if not 0 < det.total_counts <= MAX_COUNTS:
        raise ConfigError(f"{where}: total_counts must be positive and at most 2**53")
    if cfg.grid.center_nm is not None and not cfg.grid.center_nm > 0:
        raise ConfigError(f"{where}: grid center_nm must be positive")
    if not cfg.outputs.directory:
        raise ConfigError(f"{where}.outputs: 'directory' must be a non-empty string")
    if cfg.compensate_phi2 and cfg.pulse.phase_kind != "polynomial":
        raise ConfigError(f"{where}: compensate_phi2 requires a polynomial pulse")
    try:
        grid = build_grid(cfg)
        check_coverage(cfg.pulse, grid)
        check_shear(shear_config(cfg).shear, grid)
        check_delay(cfg.reconstruction, grid, det.delay_fs)
    except (ValueError, TypeError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical echo: every field explicit so the echo alone reproduces the run."""
    return asdict(cfg)


def load_config(path) -> RunConfig:
    """Parse and validate a config file, read by read_json; a file that cannot
    be opened or parsed raises ConfigError naming it."""
    try:
        raw = read_json(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except DataFormatError as exc:
        raise ConfigError(str(exc)) from None
    return config_from_dict(raw, where=str(path))


# ---- resolution helpers ------------------------------------------------------

def grid_center_nm(cfg: RunConfig) -> float:
    """Grid centre [nm]: the grid block's, else the pulse carrier.

    Every nm-to-rad/fs shear conversion for a config uses this wavelength.
    """
    return cfg.grid.center_nm or cfg.pulse.center_wavelength


def build_grid(cfg: RunConfig) -> SpectralGrid:
    span = cfg.grid.span_factor * cfg.pulse.fwhm_omega
    return make_grid(wavelength_to_omega(grid_center_nm(cfg)), span, cfg.grid.n_points)


def shear_config(cfg: RunConfig) -> ShearConfig:
    """The run's shear in rad/fs (as given, else converted from nm) and its delay."""
    det = cfg.interferometer
    shear = det.shear_rad_per_fs
    if shear is None:
        shear = shear_nm_to_omega(det.shear_nm, grid_center_nm(cfg))
    return ShearConfig(shear=float(shear), delay=det.delay_fs)


def ftsi_settings(cfg: RunConfig) -> FtsiSettings:
    return cfg.reconstruction


def derive_seed(root: int, purpose: str, trial: int = 0) -> int:
    """Expand the single config seed into independent per-purpose seeds.

    The purpose label is folded in as its CRC-32 so distinct labels give
    uncorrelated streams while the whole expansion stays reproducible.
    """
    seq = np.random.SeedSequence([int(root), zlib.crc32(purpose.encode("utf-8")), int(trial)])
    return int(seq.generate_state(1, np.uint64)[0])


# ---- shipped presets ---------------------------------------------------------

_SHARED_DETECTION = DetectionSpec(shear_nm=0.58, delay_fs=10000.0, total_counts=1_000_000, seed=7)


def _scenario(pulse: PulseSpec, compensate: bool = False) -> RunConfig:
    return RunConfig(pulse=pulse, interferometer=_SHARED_DETECTION, compensate_phi2=compensate)


PRESETS = {
    "quadratic": _scenario(
        PulseSpec(830.0, 8.0, "polynomial", poly_coeffs=(0.0, 8.7e4, 5.0e5))
    ),
    "compensated": _scenario(
        PulseSpec(830.0, 8.0, "polynomial", poly_coeffs=(0.0, 8.7e4, 5.0e5)), compensate=True
    ),
    "v-phase": _scenario(PulseSpec(830.0, 8.0, "v_lambda", v_slope=1050.0)),
    "lambda-phase": _scenario(PulseSpec(830.0, 8.0, "v_lambda", v_slope=-1100.0)),
}


def preset(name: str) -> RunConfig:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; available: {known}")
    return PRESETS[name]
